"""The count polynomial as a read-only sparse multivariate polynomial.

A ``SparsePoly`` is the output of ``homs.symbolic_profile``: symbols sorted
by name, exponent vectors as plain integer tuples aligned with them, and
nonzero integer numerators in a hash map over one common denominator
``den``, the one its builder computes. Every pipeline only reads it:
coefficients (``coefficient_of``), the least degree of one symbol among the
terms with fixed exponents in others (``restrict_min_degree``), and second
derivatives at a point (``hessian``). The hot read, ``hessian``, skips the
terms that vanish twice differentiated at the point, runs on Python ints
over ``den`` times a power of the point's denominator and builds a
``Fraction`` once per entry of the ``SymRationalMatrix`` it returns, so a
witness search reads every trial's Hessian from one uncapped polynomial.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import UsageError
from .matrices import SymRationalMatrix


@dataclass(frozen=True)
class SparsePoly:
    symbols: tuple[str, ...]
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)
    den: int = 1

    def __post_init__(self):
        if type(self.den) is not int or self.den < 1:
            raise UsageError("denominator must be a positive int")
        if tuple(sorted(self.symbols)) != self.symbols:
            raise UsageError("symbols must be sorted by name")
        if len(set(self.symbols)) != len(self.symbols):
            raise UsageError("duplicate symbol")
        for exp, c in self.terms.items():
            if len(exp) != len(self.symbols):
                raise UsageError("exponent vector length mismatch")
            if type(c) is not int or c == 0:
                raise UsageError("numerators must be nonzero ints")

    def _axis(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise UsageError(f"unknown symbol {symbol!r}") from None

    def hessian(self, symbols, point: dict[str, object]) -> SymRationalMatrix:
        """Second partial derivatives in ``symbols`` at ``point``, in one pass.

        A term c x^m adds c m_p (m_q - [p = q]) x^(m - e_p - e_q) to entry
        (p, q), with 0^0 = 1; rows and columns follow ``symbols``. The read
        runs on Python ints: the point is B/L with B integral and L the lcm
        of its denominators, and a term of total degree d is brought to the
        common denominator ``den`` L^(dmax - 2) by the factor L^(dmax - d),
        so each entry becomes a Fraction once, at the end. Terms of degree
        below 2 have no second derivative and are skipped, and so are terms
        with more than two factors of a symbol that is 0 at the point: at
        least one factor survives two differentiations. Over a matrix's zero
        cells this is the multiplicity cap ``hessian_matrix`` puts on them.
        """
        axes = [self._axis(s) for s in symbols]
        if len(set(axes)) != len(axes):
            raise UsageError("duplicate symbol in Hessian selection")
        missing = set(self.symbols) - set(point)
        if missing:
            raise UsageError(f"missing symbols in assignment: {sorted(missing)}")
        k = len(axes)
        values = [Fraction(point[s]) for s in self.symbols]
        terms = [(exp, sum(exp), c) for exp, c in self.terms.items()]
        terms = [t for t in terms if t[1] >= 2]
        for ax, v in enumerate(values):
            if not v:
                terms = [t for t in terms if t[0][ax] <= 2]
        if not terms:
            return SymRationalMatrix(k, (Fraction(0),) * (k * (k + 1) // 2))
        scale = lcm(*(v.denominator for v in values))
        dmax = max(d for _, d, _ in terms)
        scale_pow = [scale**e for e in range(dmax - 1)]
        # powers[ax][e] = B[ax]**e up to the largest exponent of the axis
        powers = []
        for ax, v in enumerate(values):
            b = v.numerator * (scale // v.denominator)
            powers.append([b**e for e in range(max(t[0][ax] for t in terms) + 1)])
        rest = [ax for ax in range(len(values)) if ax not in axes]

        acc = [[0] * k for _ in range(k)]
        for exp, d, c in terms:
            lead = c * scale_pow[dmax - d]
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
        den = self.den * scale_pow[dmax - 2]
        return SymRationalMatrix(
            k, tuple(Fraction(acc[r][s], den) for r in range(k) for s in range(r, k))
        )

    def coefficient_of(self, **degrees) -> Fraction:
        """Coefficient lookup by symbol name; unnamed symbols default to 0."""
        for name in degrees:
            self._axis(name)
        exp = tuple(degrees.get(s, 0) for s in self.symbols)
        return Fraction(self.terms.get(exp, 0), self.den)

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
