"""Sparse multivariate polynomials with exact rational coefficients.

Symbols are kept sorted by name, exponent vectors are plain integer tuples,
and zero coefficients are never stored. Term order is canonicalized only on
serialization; internal storage is a hash map because accumulation from
large homomorphism enumerations dominates the workload. Coefficients are
``Fraction``s, but the hot read, ``hessian``, runs on Python ints over one
common denominator and builds a ``Fraction`` once per output entry.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import UsageError
from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class SparsePoly:
    symbols: tuple[str, ...]
    terms: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if tuple(sorted(self.symbols)) != self.symbols:
            raise UsageError("symbols must be sorted by name")
        if len(set(self.symbols)) != len(self.symbols):
            raise UsageError("duplicate symbol")
        for exp, c in self.terms.items():
            if len(exp) != len(self.symbols):
                raise UsageError("exponent vector length mismatch")
            if c == 0:
                raise UsageError("stored zero coefficient")

    @classmethod
    def build(cls, symbols, term_items) -> "SparsePoly":
        """Accumulate (exponents, coefficient) pairs, dropping zero sums.

        ``symbols`` must already be sorted; exponent tuples align with it.
        """
        symbols = tuple(symbols)
        acc: dict[tuple[int, ...], Fraction] = {}
        for exp, c in term_items:
            exp = tuple(exp)
            c = Fraction(c)
            prev = acc.get(exp)
            total = c if prev is None else prev + c
            if total == 0:
                acc.pop(exp, None)
            else:
                acc[exp] = total
        return cls(symbols, acc)

    @classmethod
    def zero(cls, symbols=()) -> "SparsePoly":
        return cls(tuple(sorted(symbols)), {})

    @classmethod
    def constant(cls, value, symbols=()) -> "SparsePoly":
        symbols = tuple(sorted(symbols))
        value = Fraction(value)
        if value == 0:
            return cls(symbols, {})
        return cls(symbols, {(0,) * len(symbols): value})

    @classmethod
    def variable(cls, name: str, symbols=None) -> "SparsePoly":
        symbols = tuple(sorted(symbols if symbols is not None else (name,)))
        exp = tuple(1 if s == name else 0 for s in symbols)
        if name not in symbols:
            raise UsageError(f"symbol {name!r} not in symbol list")
        return cls(symbols, {exp: Fraction(1)})

    def _align(self, other: "SparsePoly"):
        """Embed both polynomials into the union symbol list."""
        if self.symbols == other.symbols:
            return self.symbols, self.terms, other.terms
        union = tuple(sorted(set(self.symbols) | set(other.symbols)))

        def embed(poly):
            pos = [union.index(s) for s in poly.symbols]
            out = {}
            for exp, c in poly.terms.items():
                new = [0] * len(union)
                for p, e in zip(pos, exp):
                    new[p] = e
                out[tuple(new)] = c
            return out

        return union, embed(self), embed(other)

    def __add__(self, other) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(other, self.symbols)
        union, a, b = self._align(other)
        acc = dict(a)
        for exp, c in b.items():
            total = acc.get(exp, Fraction(0)) + c
            if total == 0:
                acc.pop(exp, None)
            else:
                acc[exp] = total
        return SparsePoly(union, acc)

    def __sub__(self, other) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(other, self.symbols)
        return self + other.scale(-1)

    def __mul__(self, other) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return self.scale(other)
        union, a, b = self._align(other)
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                total = acc.get(exp, Fraction(0)) + c1 * c2
                if total == 0:
                    acc.pop(exp, None)
                else:
                    acc[exp] = total
        return SparsePoly(union, acc)

    def scale(self, c) -> "SparsePoly":
        c = Fraction(c)
        if c == 0:
            return SparsePoly(self.symbols, {})
        return SparsePoly(self.symbols, {e: c * x for e, x in self.terms.items()})

    def _axis(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise UsageError(f"unknown symbol {symbol!r}") from None

    def derivative(self, symbol: str, order: int = 1) -> "SparsePoly":
        """Exact formal partial derivative of the given order (>= 1)."""
        if order < 1:
            raise UsageError("derivative order must be >= 1")
        axis = self._axis(symbol)
        acc = {}
        for exp, c in self.terms.items():
            e = exp[axis]
            if e < order:
                continue
            factor = 1
            for k in range(order):
                factor *= e - k
            new = exp[:axis] + (e - order,) + exp[axis + 1 :]
            acc[new] = acc.get(new, Fraction(0)) + c * factor
        return SparsePoly(self.symbols, {e: c for e, c in acc.items() if c != 0})

    def hessian(self, symbols, point: dict[str, object]) -> list[list[Fraction]]:
        """Second partial derivatives in ``symbols`` at ``point``, in one pass.

        A term c x^m adds c m_p (m_q - [p = q]) x^(m - e_p - e_q) to entry
        (p, q), with 0^0 = 1; rows and columns follow ``symbols``. The read
        runs on Python ints: the point is B/L with B integral and L the lcm
        of its denominators, the coefficients are C/D with D the lcm of
        theirs, and a term of total degree d is brought to the common
        denominator D L^(dmax - 2) by the factor L^(dmax - d), so each
        entry becomes a Fraction once, at the end. Terms of degree below 2
        have no second derivative and are skipped.
        """
        axes = [self._axis(s) for s in symbols]
        if len(set(axes)) != len(axes):
            raise UsageError("duplicate symbol in Hessian selection")
        missing = set(self.symbols) - set(point)
        if missing:
            raise UsageError(f"missing symbols in assignment: {sorted(missing)}")
        k = len(axes)
        terms = [(exp, sum(exp), c) for exp, c in self.terms.items()]
        terms = [t for t in terms if t[1] >= 2]
        if not terms:
            return [[Fraction(0)] * k for _ in range(k)]
        values = [Fraction(point[s]) for s in self.symbols]
        scale = lcm(*(v.denominator for v in values))
        dmax = max(d for _, d, _ in terms)
        cden = lcm(*(c.denominator for _, _, c in terms))
        scale_pow = [scale**e for e in range(dmax - 1)]
        # powers[ax][e] = B[ax]**e up to the largest exponent of the axis
        powers = []
        for ax, v in enumerate(values):
            b = v.numerator * (scale // v.denominator)
            powers.append([b**e for e in range(max(t[0][ax] for t in terms) + 1)])
        rest = [ax for ax in range(len(values)) if ax not in axes]

        acc = [[0] * k for _ in range(k)]
        for exp, d, c in terms:
            lead = c.numerator * (cden // c.denominator) * scale_pow[dmax - d]
            for ax in rest:
                lead *= powers[ax][exp[ax]]
            # the selected axes the term involves, with the suffix products
            # of their powers, so entry (r, s) multiplies out the axes
            # before r, between r and s, and after s in one sweep
            sel = [(r, exp[ax], powers[ax]) for r, ax in enumerate(axes) if exp[ax]]
            suffix = [1] * (len(sel) + 1)
            for i in range(len(sel) - 1, -1, -1):
                _, m, pw = sel[i]
                suffix[i] = suffix[i + 1] * pw[m]
            for i, (r, m, pw) in enumerate(sel):
                if not lead:
                    break
                if m >= 2:
                    acc[r][r] += lead * m * (m - 1) * pw[m - 2] * suffix[i + 1]
                w = lead * m * pw[m - 1]
                for j in range(i + 1, len(sel)):
                    s, m2, pw2 = sel[j]
                    acc[r][s] += w * m2 * pw2[m2 - 1] * suffix[j + 1]
                    w *= pw2[m2]
                lead *= pw[m]
        den = cden * scale_pow[dmax - 2]
        out = [[Fraction(0)] * k for _ in range(k)]
        for r in range(k):
            for s in range(r, k):
                out[r][s] = out[s][r] = Fraction(acc[r][s], den)
        return out

    def coefficient(self, exponents) -> Fraction:
        exp = tuple(exponents)
        if len(exp) != len(self.symbols):
            raise UsageError("exponent vector length mismatch")
        return self.terms.get(exp, Fraction(0))

    def coefficient_of(self, **degrees) -> Fraction:
        """Coefficient lookup by symbol name; unnamed symbols default to 0."""
        for name in degrees:
            self._axis(name)
        exp = tuple(degrees.get(s, 0) for s in self.symbols)
        return self.terms.get(exp, Fraction(0))

    def section(self, fixed: dict[str, int]) -> "SparsePoly":
        """Terms whose exponents match ``fixed`` exactly, projected onto the
        remaining symbols (the coefficient of a monomial, as a polynomial)."""
        axes = {self._axis(s): d for s, d in fixed.items()}
        keep = [i for i in range(len(self.symbols)) if i not in axes]
        items = []
        for exp, c in self.terms.items():
            if all(exp[a] == d for a, d in axes.items()):
                items.append((tuple(exp[i] for i in keep), c))
        return SparsePoly.build([self.symbols[i] for i in keep], items)

    def restrict_min_degree(self, fixed: dict[str, int], probe: str):
        """Among terms whose exponents match ``fixed`` exactly, the minimum
        exponent of ``probe``; None when no term matches."""
        axes = {self._axis(s): d for s, d in fixed.items()}
        probe_axis = self._axis(probe)
        best = None
        for exp in self.terms:
            if all(exp[a] == d for a, d in axes.items()):
                if best is None or exp[probe_axis] < best:
                    best = exp[probe_axis]
        return best

    def evaluate(self, assignment: dict[str, object]) -> Fraction:
        missing = set(self.symbols) - set(assignment)
        if missing:
            raise UsageError(f"missing symbols in assignment: {sorted(missing)}")
        values = [Fraction(assignment[s]) for s in self.symbols]
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(values, exp):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute(self, partial: dict[str, object]) -> "SparsePoly":
        """Fix some symbols to rational values, returning a smaller polynomial."""
        for name in partial:
            self._axis(name)
        keep = [i for i, s in enumerate(self.symbols) if s not in partial]
        values = {i: Fraction(partial[s]) for i, s in enumerate(self.symbols) if s in partial}
        items = []
        for exp, c in self.terms.items():
            coeff = c
            for i, v in values.items():
                if exp[i]:
                    coeff *= v ** exp[i]
            if coeff != 0:
                items.append((tuple(exp[i] for i in keep), coeff))
        return SparsePoly.build([self.symbols[i] for i in keep], items)

    def is_zero(self) -> bool:
        return not self.terms

    def to_json(self) -> dict:
        return {
            "symbols": list(self.symbols),
            "terms": [
                {"exp": list(exp), "coeff": format_rational(self.terms[exp])}
                for exp in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SparsePoly":
        try:
            return cls.build(
                data["symbols"],
                ((t["exp"], parse_rational(t["coeff"])) for t in data["terms"]),
            )
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed polynomial JSON: {exc}") from exc

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms):
            factors = [format_rational(self.terms[exp])]
            for s, e in zip(self.symbols, exp):
                if e == 1:
                    factors.append(s)
                elif e > 1:
                    factors.append(f"{s}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)
