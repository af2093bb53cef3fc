"""The count polynomial as a read-only sparse multivariate polynomial.

A ``SparsePoly`` is the output of ``homs.symbolic_profile``: symbols sorted
by name, exponent vectors as plain integer tuples aligned with them, and
nonzero integer numerators in a hash map over one common denominator
``den``, the one its builder computes. Every pipeline only reads it, in
two ways: a coefficient (``coefficient_of``, which also gives the kpm
pipeline the least eps-degree of a part, degree by degree) and the second
derivatives at a point (``hessian``). The hot read follows the plan that
``_plan`` makes for a selection of symbols and its caller holds: for each
entry, the terms that reach it, grouped by their integer factor, and the
pair tables of the exponent columns, which give each term the index of
its exponent pair among a pair of columns' distinct ones. A read values
each term once at the point, on Python ints over ``den`` times a power of
the point's denominator, with one multiplication per pair of columns off a
table made for the point, and sums each entry by factor (one addition per
term, one multiplication per factor) into an integer total over a
positive divisor. At zero coordinates an entry keeps the terms whose total
degree in them, their grade, is the number of the entry's two axes among
them, so a read makes at most three graded copies of its values, one per
grade 0, 1 and 2. ``hessian`` makes one ``Fraction`` per entry of the
``SymRationalMatrix`` it returns; the refutation loop reads the integer
form (``_integer_hessian``) and decides PSD on the totals alone, so a
witness search reads every trial's Hessian from one uncapped polynomial
through one plan and forms ``Fraction``s only at the point it refutes.
"""

from collections import defaultdict, deque
from fractions import Fraction
from itertools import accumulate, compress, repeat
from math import lcm
from operator import add, mul, sub

from .errors import Record, UsageError
from .matrices import SymRationalMatrix


class SparsePoly(Record):
    # symbols: tuple of str; terms: {exponent tuple: int numerator}; den: int
    __slots__ = ("symbols", "terms", "den")

    def __init__(self, symbols, terms=None, den=1):
        if terms is None:
            terms = {}
        if type(den) is not int or den < 1:
            raise UsageError("denominator must be a positive int")
        if tuple(sorted(symbols)) != symbols:
            raise UsageError("symbols must be sorted by name")
        if len(set(symbols)) != len(symbols):
            raise UsageError("duplicate symbol")
        for exp, c in terms.items():
            if len(exp) != len(symbols):
                raise UsageError("exponent vector length mismatch")
            if type(c) is not int or c == 0:
                raise UsageError("numerators must be nonzero ints")
        self._fill(symbols, terms, den)

    def _axis(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise UsageError(f"unknown symbol {symbol!r}") from None

    def hessian(self, symbols, point: dict[str, object]) -> SymRationalMatrix:
        """Second partial derivatives in ``symbols`` at ``point``.

        A term c x^m adds c m_p (m_q - [p = q]) x^(m - e_p - e_q) to entry
        (p, q), with 0^0 = 1; rows and columns follow ``symbols``. Each
        entry is its integer total over its divisor (``_integer_hessian``).
        """
        k, totals, divisors = self._integer_hessian(self._plan(symbols), point)
        return SymRationalMatrix(k, tuple(map(Fraction, totals, divisors)))

    def _integer_hessian(self, plan, point):
        """The Hessian read through ``plan``, on ints: (k, the totals, the
        divisors), entry (p, q) of the upper triangle being total / divisor.

        The point is B/L with B integral and L the lcm of its denominators,
        and a term of total degree d is brought to the common denominator
        ``den`` L^(dmax - 2) by the factor L^(dmax - d), a pass the read
        skips when every gap dmax - d is 0. The terms that reach each entry,
        grouped by their integer factor, come from the plan of the
        selection (``_plan``). A read values every term once, c L^(dmax - d)
        times B_a^(m_a) over the coordinates a that are not 0 at the point:
        one multiplication per term and pair of columns, read off a table
        of the pair's distinct exponent pairs made for the point. It sums
        each entry by factor, the sum over f of f times the sum of its terms
        with factor f: one addition per term and one multiplication per
        factor. The divisor of entry (p, q) is ``den`` L^(dmax - 2) beta_p
        beta_q, the powers of B_p and B_q it differentiated away, with beta
        = B but 1 at a zero coordinate; so the totals are the matrix c D H D
        with c > 0 and D = diag(beta) nonsingular, PSD exactly when H is.
        At a point with zero coordinates Z, entry (p, q) instead keeps
        exactly the terms whose grade, their total degree in Z, is
        [p in Z] + [q in Z]: the others vanish. A term that reaches (p, q)
        has m_z >= [z = p] + [z = q] for every z, so this is the term with
        m_z = [z = p] + [z = q] at each zero coordinate z, and a read makes
        at most three graded copies of the values, grades 0, 1 and 2.
        """
        missing = set(self.symbols) - set(point)
        if missing:
            raise UsageError(f"missing symbols in assignment: {sorted(missing)}")
        k, lift, coeffs, gaps, columns, pairs, entries = plan
        if not coeffs:
            return k, (0,) * (k * (k + 1) // 2), (1,) * (k * (k + 1) // 2)
        values = [x if type(x) is Fraction else Fraction(x) for x in map(point.get, self.symbols)]
        scale = lcm(*(v.denominator for v in values))
        lifted = [v.numerator * (scale // v.denominator) for v in values]
        den = self.den * scale**lift
        terms = coeffs
        if gaps:
            pw = list(accumulate(repeat(scale, lift), mul, initial=1))
            terms = list(map(mul, coeffs, map(pw.__getitem__, gaps)))
        for index, held in pairs:
            table = None
            for ax, exps, top in held:
                b = lifted[ax]
                # b = 1 changes nothing, and a zero coordinate is left to the
                # grades; every positivization step has b = 1
                if b and b != 1:
                    pw = list(accumulate(repeat(b, top), mul, initial=1))
                    col = map(pw.__getitem__, exps)
                    table = list(col) if table is None else list(map(mul, table, col))
            if table is not None:
                terms = list(map(mul, terms, map(table.__getitem__, index)))
        off = [not b for b in lifted]
        zeros = [col for col, z in zip(columns, off) if z and col]
        if zeros:
            grade = list(map(sum, zip(*zeros)))
            graded = {}
        totals, divisors = [], []
        reads = terms
        for p, q, factors, groups in entries:
            if zeros:
                g = off[p] + off[q]
                reads = graded.get(g)
                if reads is None:
                    reads = graded[g] = list(map(mul, terms, map(g.__eq__, grade)))
            sums = map(sum, map(map, repeat(reads.__getitem__), groups))
            totals.append(sum(map(mul, factors, sums)))
            divisors.append(den * (lifted[p] or 1) * (lifted[q] or 1))
        return k, totals, divisors

    def _plan(self, symbols):
        """The read plan of the selection ``symbols``, which it checks:
        (k, dmax - 2, the terms' numerators, their degree gaps dmax - d or
        () when every gap is 0, each symbol's exponent column (None where
        every exponent is 0), the pair tables of the held columns, and per
        upper-triangle entry (p, q) its axes, the distinct factors m_p (m_q
        - [p = q]) of the terms that reach it and, per factor, the list of
        those terms' indices). The held columns are taken two by two (the
        last alone when they are odd in number); a pair table gives each
        term the index of its exponent pair among the pair's distinct ones,
        and per column those distinct exponents and the largest. It keeps
        the terms of degree at least 2 in the selected symbols, the ones
        that reach some entry."""
        axes = tuple(map(self._axis, symbols))
        if len(set(axes)) != len(axes):
            raise UsageError("duplicate symbol in Hessian selection")
        k = len(axes)
        if not (axes and self.terms):
            return k, 0, (), (), (), (), ()
        exps = self.terms.keys()
        columns = list(zip(*exps))
        degrees = list(map(sum, exps))
        coeffs = self.terms.values()
        if len(axes) == len(columns):  # every symbol selected
            reach = degrees
        else:
            reach = list(map(sum, zip(*map(columns.__getitem__, axes))))
        if min(reach) < 2:
            kept = list(map((2).__le__, reach))
            coeffs, degrees = list(compress(coeffs, kept)), list(compress(degrees, kept))
            if not degrees:
                return k, 0, (), (), (), (), ()
            columns = [tuple(compress(col, kept)) for col in columns]
        dmax = max(degrees)
        gaps = tuple(map(dmax.__sub__, degrees))
        # a list, so that the groups share its int objects
        positions = list(range(len(degrees)))
        entries = []
        for i, p in enumerate(axes):
            mp = columns[p]
            # only the terms with m_p > 0 reach row p
            at = list(compress(positions, mp))
            first = list(compress(mp, mp))
            for q in axes[i:]:
                second = map(sub, first, repeat(1)) if p == q else compress(columns[q], mp)
                # one C-level pass files each term's index under its factor
                groups = defaultdict(list)
                filing = map(groups.__getitem__, map(mul, first, second))
                deque(map(list.append, filing, at), maxlen=0)
                groups.pop(0, None)  # factor 0: the term does not reach the entry
                entries.append((p, q, tuple(groups), tuple(groups.values())))
        tops = list(map(max, columns))
        held = [ax for ax, top in enumerate(tops) if top]
        pairs = []
        for a, b in zip(held[::2], held[1::2]):
            # a term's exponent pair (m_a, m_b) as the int m_a w + m_b
            w = tops[b] + 1
            codes = list(map(add, map(mul, columns[a], repeat(w)), columns[b]))
            distinct = dict.fromkeys(codes)
            index = dict(zip(distinct, positions))
            ea, eb = zip(*map(divmod, distinct, repeat(w)))
            pairs.append((list(map(index.__getitem__, codes)),
                          ((a, ea, tops[a]), (b, eb, tops[b]))))
        if len(held) % 2:
            a = held[-1]
            pairs.append((columns[a], ((a, range(tops[a] + 1), tops[a]),)))
        columns = tuple(col if top else None for col, top in zip(columns, tops))
        return k, dmax - 2, tuple(coeffs), gaps if any(gaps) else (), columns, tuple(pairs), tuple(entries)

    def coefficient_of(self, **degrees) -> Fraction:
        """Coefficient lookup by symbol name; unnamed symbols default to 0."""
        for name in degrees:
            self._axis(name)
        exp = tuple(degrees.get(s, 0) for s in self.symbols)
        return Fraction(self.terms.get(exp, 0), self.den)
