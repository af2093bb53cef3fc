"""Exact Hessians of the homomorphism-count polynomial and a total PSD decision.

The count polynomial lives on the n(n+1)/2 upper-triangle entries of a
symmetric matrix; Hessian coordinates follow the same row-major pair order
(0,0), (0,1), ..., (1,1), ... as ``matrices.pair_index``. A Hessian is
read by ``SparsePoly.hessian`` from the count polynomial that
``homs.symbolic_profile`` builds with the selected cells left symbolic.
Building and reading both run on Python ints over one common denominator:
the read values each term once at the point and sums each Hessian entry
by the integer factors of its terms, with a single division at the end.
A quadratic form v^T H v needs no Hessian: ``line_curvature`` reads it
off the count polynomial along the line A + sD as 2 [s^2]. PSD is decided
by pivoted symmetric elimination, never by eigenvalues, so a failure
always comes with a rational direction whose quadratic form is negative
and re-checkable by direct multiplication. The elimination is
fraction-free (Bareiss): it runs on integers whose every intermediate is a
rational Schur complement times a positive leading principal minor, so it
takes the same decisions and finds the same primitive witnesses as
elimination over the rationals. One routine, ``_eliminate``, runs it on an
int matrix: ``psd_certify`` on the matrix scaled by the lcm of its
denominators, and the refutation loop on a Hessian read's integer totals.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import ENUMERATION_GUARD, Record, SizeGuardError, UsageError
from .graphs import Graph, is_eulerian
from .homs import Affine, SymbolicTemplate, symbolic_profile
from .matrices import SymRationalMatrix, block_pm_ones, pair_index, pair_list


class HessianMatrix(Record):
    """Second derivatives of the count polynomial at a fixed base matrix,
    restricted to the listed variable pairs."""

    # tuple of (i, j) pairs; SymRationalMatrix, len(pairs) x len(pairs)
    __slots__ = ("pairs", "matrix")

    def __init__(self, pairs, matrix):
        self._fill(pairs, matrix)


def _selected_pairs(n: int, pairs) -> list[tuple[int, int]]:
    """The pair selection (every pair when None) with i <= j, checked in
    order: at least one pair, no pair twice, every pair in range."""
    if pairs is None:
        selected = pair_list(n)
    else:
        selected = [(min(i, j), max(i, j)) for (i, j) in pairs]
        if not selected:
            raise UsageError("empty pair selection")
        if len(set(selected)) != len(selected):
            raise UsageError("duplicate pair selection")
        for (i, j) in selected:
            if not (0 <= i <= j < n):
                raise UsageError(f"pair ({i},{j}) out of range")
    return selected


def hessian_matrix(g: Graph, a: SymRationalMatrix, pairs=None) -> HessianMatrix:
    """The exact Hessian of the count polynomial at ``a`` over the selected
    pairs (all pairs by default), for the CLI's ``hessian`` and ``check
    prop42``.

    Only the selected cells are opened as symbols, so the count polynomial
    is materialized in those variables alone: unselected cells enter as
    constants, the engine's int weights (weight 0 killing the map).
    A selected zero cell is capped at multiplicity 2, since a term with more
    copies still vanishes after two differentiations. The Hessian is then
    read by ``SparsePoly.hessian``, each entry summed by factor over the
    terms its plan lists for that entry. The k^2 dense entries of k selected
    pairs must be within the work limit, a cost the engine's colouring
    estimate cannot see.
    """
    n = a.n
    selected = _selected_pairs(n, pairs)
    k = len(selected)
    if k * k > ENUMERATION_GUARD:
        raise SizeGuardError(
            f"hessian guard: {k}^2 = {k * k} entries > {ENUMERATION_GUARD}"
        )
    opened = [pair_index(i, j, n) for (i, j) in selected]
    names = [f"c{idx:02d}" for idx in opened]
    cells = list(a.tri)
    for idx, name in zip(opened, names):
        cells[idx] = name
    caps = {name: 2 for idx, name in zip(opened, names) if a.tri[idx] == 0}
    poly = symbolic_profile(g, SymbolicTemplate(n, tuple(cells)), caps)
    point = {name: a.at(i, j) for name, (i, j) in zip(names, selected)}
    return HessianMatrix(tuple(selected), poly.hessian(names, point))


def line_curvature(g: Graph, a: SymRationalMatrix, pairs, direction) -> Fraction:
    """v^T H v for the Hessian H of the count polynomial at ``a`` over the
    selected pairs and the direction v, without building H.

    Along the line A + sD, D holding v on the selected cells, the count
    polynomial has the Taylor coefficient [s^2] = v^T H v / 2. The template
    sets each selected cell to a + (M v) s, M the lcm of v's denominators,
    so every slope is an integer; s is one symbol, one field of the key,
    and capped at degree 2, so no map of the engine holds more than three
    keys. Then v^T H v = 2 [s^2] / M^2. The pair selection is checked as
    ``hessian_matrix`` checks it, then the direction's length; no Hessian
    is built, so its k^2 limit does not apply.
    """
    selected = _selected_pairs(a.n, pairs)
    v = [Fraction(x) for x in direction]
    if len(v) != len(selected):
        raise UsageError("direction length mismatch")
    scale = lcm(*(x.denominator for x in v))
    cells = list(a.tri)
    for (i, j), x in zip(selected, v):
        idx = pair_index(i, j, a.n)
        cells[idx] = Affine(cells[idx], x.numerator * (scale // x.denominator), "s")
    line = symbolic_profile(g, SymbolicTemplate(a.n, tuple(cells)), {"s": 2})
    return 2 * line.coefficient_of(s=2) / scale**2


class PsdResult(Record):
    # "psd" | "not_psd"; a direction (tuple of Fractions) and its negative
    # quadratic form, or None, None
    __slots__ = ("verdict", "witness", "value")

    def __init__(self, verdict, witness=None, value=None):
        self._fill(verdict, witness, value)

    @property
    def is_psd(self) -> bool:
        return self.verdict == "psd"


def quadratic_form(m: SymRationalMatrix, v) -> Fraction:
    """v^T M v, exactly."""
    v = [Fraction(x) for x in v]
    if len(v) != m.n:
        raise UsageError("direction length mismatch")
    total = Fraction(0)
    for i in range(m.n):
        if v[i] == 0:
            continue
        for j in range(m.n):
            if v[j] != 0:
                total += v[i] * m.at(i, j) * v[j]
    return total


def psd_certify(m: SymRationalMatrix) -> PsdResult:
    """Total PSD decision by pivoted symmetric elimination, fraction-free.

    M is scaled by the lcm of its denominators and eliminated on integers
    (``_eliminate``). A witness is back-substituted to original
    coordinates, made primitive and re-verified exactly. The lift (the
    current coordinates in the original basis) is not carried along: each
    step records its pivot, a_pp, prev and the (j, a_jp) it eliminated, and
    only a witness replays those steps on the identity, with the same
    integer operations in the same order, so a PSD matrix never builds it.
    """
    n = m.n
    scale = lcm(*(x.denominator for x in m.tri))
    found = _eliminate(n, [x.numerator * (scale // x.denominator) for x in m.tri])
    if found is None:
        return PsdResult("psd")
    steps, i, j, sign = found
    # the recorded steps replayed on the identity: lift[c] expresses
    # current coordinate c in the original basis
    lift = [[int(r == c) for r in range(n)] for c in range(n)]
    for piv, app, divisor, pairs in steps:
        col = lift[piv]
        for c, ajp in pairs:
            out = []
            for x, y in zip(lift[c], col):
                q, rem = divmod(app * x - ajp * y, divisor)
                if rem:
                    raise RuntimeError("fraction-free elimination left a remainder")
                out.append(q)
            lift[c] = out
    direction = lift[i]
    if j is not None:
        direction = [x - sign * y for x, y in zip(direction, lift[j])]
    # made primitive: divided by the gcd, which keeps the sign
    g = gcd(*direction)
    v = tuple(Fraction(x // g) for x in direction)
    value = quadratic_form(m, v)
    if value >= 0:
        raise RuntimeError(f"PSD witness does not re-check: value {value}")
    return PsdResult("not_psd", v, value)


def _eliminate(n: int, flat) -> tuple | None:
    """Pivoted symmetric elimination, in Bareiss' form, of the n x n
    symmetric int matrix whose upper triangle, row by row, is ``flat``:
    None when it is PSD, else (steps, i, j, sign), the negative direction
    being current coordinate i, or i - sign * j when j is not None.

    Eliminates on strictly positive diagonal pivots; a negative diagonal
    entry yields a coordinate direction, and once every remaining diagonal
    entry is zero the matrix is PSD iff the remainder vanishes (a surviving
    off-diagonal entry gives a negative direction). Each step updates every
    active entry on or above the diagonal as (a_pp x - a_jp y) // prev,
    prev the previous pivot, an exact division by Sylvester's identity, and
    copies the rest by symmetry. After a step every active entry is the
    rational Schur complement times the leading principal minor of the
    pivots so far, which is positive, so each sign test picks the pivot,
    negative diagonal or off-diagonal entry that elimination over the
    rationals picks, and each direction is a positive multiple of its
    rational counterpart. ``steps`` holds (pivot, a_pp, prev, [(j, a_jp),
    ...]) per step.
    """
    flat = iter(flat)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        row = a[i]
        for j in range(i, n):
            row[j] = a[j][i] = next(flat)
    active = list(range(n))
    steps = []
    prev = 1
    while active:
        for i in active:
            if a[i][i] < 0:
                return steps, i, None, 0
        piv = next((i for i in active if a[i][i] > 0), None)
        if piv is None:
            # all remaining diagonals are zero
            for i in active:
                ai = a[i]
                for j in active:
                    if i < j and ai[j]:
                        return steps, i, j, 1 if ai[j] > 0 else -1
            return None
        active.remove(piv)
        app = a[piv][piv]
        row = a[piv]
        pairs = []
        for j in active:
            aj = a[j]
            ajp = aj[piv]
            pairs.append((j, ajp))
            for k in active:
                if k < j:  # active is ascending: row k is done, and M symmetric
                    aj[k] = a[k][j]
                    continue
                q, rem = divmod(app * aj[k] - ajp * row[k], prev)
                if rem:
                    raise RuntimeError("fraction-free elimination left a remainder")
                aj[k] = q
        steps.append((piv, app, prev, pairs))
        prev = app
    return None


def allones_hessian(g: Graph, half: int) -> SymRationalMatrix:
    """The Hessian at the +/- block matrix with blocks of size ``half``.
    Requires an eulerian graph with an even number of edges."""
    if not is_eulerian(g) or g.edge_count % 2 != 0:
        raise UsageError("kernel check needs an eulerian graph with even edge count")
    return hessian_matrix(g, block_pm_ones(half)).matrix


def annihilates_ones(m: SymRationalMatrix) -> bool:
    """Whether M 1 = 0, i.e. every row sums to zero."""
    return all(sum(row) == 0 for row in m.rows())
