"""Exact rational helpers: "p/q" serialization and integer root bracketing."""

from fractions import Fraction

from .errors import UsageError

ROOT_DIGITS = 12  # decimal places of every root bracket


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p" or "p/q" (lowest terms, q > 0)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s) -> Fraction:
    """Parse "p/q" or an integer (int or string) into a Fraction. A string
    is an optional "-" and ASCII digits, then optionally "/" and ASCII
    digits; ``int`` would also take underscores, spaces, "+" and other
    scripts' digits, which ``format_rational`` never writes. A bool is an
    int to Python but not a number in the JSON it comes from."""
    if isinstance(s, bool):
        raise UsageError(f"expected rational string or integer, got {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, Fraction):
        return s
    if not isinstance(s, str):
        raise UsageError(f"expected rational string or integer, got {type(s).__name__}")
    p, slash, q = s.partition("/")
    digits = [p.removeprefix("-")] + ([q] if slash else [])
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise UsageError(f"malformed rational {s!r}")
    try:  # int() refuses over 4300 digits, and q may be 0
        return Fraction(int(p), int(q) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational {s!r}") from exc


def integer_kth_root(m: int, k: int) -> int:
    """floor(m ** (1/k)) for m >= 0, exactly, by Newton iteration on integers."""
    if m < 0 or k < 1:
        raise UsageError("integer_kth_root needs m >= 0, k >= 1")
    if m == 0:
        return 0
    if k == 1:
        return m
    r = 1 << ((m.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + m // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > m:
        r -= 1
    return r


def kth_root_interval(x: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """Bracket x**(1/k) for x >= 0 in an interval of width 10**-ROOT_DIGITS.

    Returns (lo, hi) with lo <= x**(1/k) <= hi, both exact rationals with
    denominator 10**ROOT_DIGITS.
    """
    x = Fraction(x)
    if x < 0:
        raise UsageError("kth_root_interval needs x >= 0")
    scale = 10 ** ROOT_DIGITS
    # floor(scale * x**(1/k)): an integer r has r**k * den <= num * scale**k
    # exactly when r**k <= floor(num * scale**k / den)
    r = integer_kth_root(x.numerator * scale ** k // x.denominator, k)
    return Fraction(r, scale), Fraction(r + 1, scale)
