"""The count polynomial as a read-only sparse multivariate polynomial.

A ``SparsePoly`` is the output of ``homs.symbolic_profile``: symbols sorted
by name, exponent vectors as plain integer tuples aligned with them, and
nonzero integer numerators in a hash map over one common denominator
``den``, the one its builder computes. Every pipeline only reads it:
coefficients (``coefficient_of``), the least degree of one symbol among the
terms with fixed exponents in others (``restrict_min_degree``), and second
derivatives at a point (``hessian``). The hot read, ``hessian``, follows a
plan made once per selection of symbols and kept on the polynomial: for
each entry, the terms that reach it and their integer factors. A read
values each term once at the point, on Python ints over ``den`` times a
power of the point's denominator, makes each entry one dot product of its
factors with those values, and builds a ``Fraction`` once per entry of the
``SymRationalMatrix`` it returns, so a witness search reads every trial's
Hessian from one uncapped polynomial through one plan.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress, repeat
from math import lcm
from operator import mul, sub

from .errors import UsageError
from .matrices import SymRationalMatrix


@dataclass(frozen=True)
class SparsePoly:
    symbols: tuple[str, ...]
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)
    den: int = 1
    # read plans of ``hessian``, one per selection of axes
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Second partial derivatives in ``symbols`` at ``point``.

        A term c x^m adds c m_p (m_q - [p = q]) x^(m - e_p - e_q) to entry
        (p, q), with 0^0 = 1; rows and columns follow ``symbols``. The read
        runs on Python ints: the point is B/L with B integral and L the lcm
        of its denominators, and a term of total degree d is brought to the
        common denominator ``den`` L^(dmax - 2) by the factor L^(dmax - d).
        The terms that reach each entry, with their integer factors, come
        from a plan made once per selection (``_plan``). A read values every
        term once, c L^(dmax - d) times B_a^(m_a) over the coordinates a
        that are not 0 at the point, and makes each entry one dot product
        of its factors with those values, a Fraction over ``den`` L^(dmax -
        2) times the powers of B_p and B_q it differentiated away. A
        coordinate z that is 0 at the point instead keeps, in entry (p, q),
        exactly the terms with m_z = [z = p] + [z = q]: the others vanish.
        """
        axes = tuple(self._axis(s) for s in symbols)
        if len(set(axes)) != len(axes):
            raise UsageError("duplicate symbol in Hessian selection")
        missing = set(self.symbols) - set(point)
        if missing:
            raise UsageError(f"missing symbols in assignment: {sorted(missing)}")
        plan = self._plans.get(axes)
        if plan is None:
            plan = self._plans[axes] = self._plan(axes)
        lift, coeffs, gaps, columns, entries = plan
        k = len(axes)
        if not coeffs:
            return SymRationalMatrix(k, (Fraction(0),) * (k * (k + 1) // 2))
        values = [Fraction(point[s]) for s in self.symbols]
        scale = lcm(*(v.denominator for v in values))
        lifted = [v.numerator * (scale // v.denominator) for v in values]
        pw = list(accumulate(repeat(scale, lift), mul, initial=1))
        terms = list(map(mul, coeffs, map(pw.__getitem__, gaps)))
        den = self.den * pw[lift]
        zeros, keys = [], []
        for ax, col, top in columns:
            b = lifted[ax]
            if not b:
                zeros.append(ax)
                keys.append(col)
            elif b != 1:  # b = 1 changes nothing; every positivization step has it
                pw = list(accumulate(repeat(b, top), mul, initial=1))
                terms = list(map(mul, terms, map(pw.__getitem__, col)))
        # the entries with one zero pattern share one masked copy of the
        # values: the terms with exactly as many factors of each zero
        # coordinate as those entries differentiate away
        keys = list(zip(*keys))
        kept = {}
        tri = []
        for p, q, indices, factors in entries:
            pattern = tuple((z == p) + (z == q) for z in zeros)
            reads = kept.get(pattern)
            if reads is None:
                reads = kept[pattern] = (
                    list(map(mul, terms, map(pattern.__eq__, keys))) if zeros else terms
                )
            total = sum(map(mul, factors, map(reads.__getitem__, indices)))
            tri.append(Fraction(total, den * (lifted[p] or 1) * (lifted[q] or 1)))
        return SymRationalMatrix(k, tuple(tri))

    def _plan(self, axes):
        """The read plan of the selection ``axes``: (dmax - 2, the terms'
        numerators, their degree gaps dmax - d, the columns (axis,
        exponents, largest exponent) of the symbols they hold, and per
        upper-triangle entry (p, q) its axes with the indices of the terms
        that reach it and their factors m_p (m_q - [p = q])). It keeps the
        terms of degree at least 2 in the selected symbols, the ones that
        reach some entry."""
        by_axis = list(zip(*self.terms))
        degrees = map(sum, zip(*(by_axis[ax] for ax in axes))) if by_axis else ()
        exps = list(compress(self.terms, map((2).__le__, degrees)))
        if not exps:
            return 0, (), (), (), ()
        coeffs = tuple(map(self.terms.__getitem__, exps))
        degrees = list(map(sum, exps))
        dmax = max(degrees)
        gaps = tuple(map(dmax.__sub__, degrees))
        columns = list(zip(*exps))
        # a list, so that the index tuples share its int objects
        positions = list(range(len(exps)))
        entries = []
        for i, p in enumerate(axes):
            mp = columns[p]
            for q in axes[i:]:
                second = map(sub, mp, repeat(1)) if p == q else columns[q]
                factors = list(map(mul, mp, second))
                entries.append(
                    (p, q, tuple(compress(positions, factors)), tuple(compress(factors, factors)))
                )
        held = tuple((ax, col, max(col)) for ax, col in enumerate(columns) if any(col))
        return dmax - 2, coeffs, gaps, held, tuple(entries)

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
