"""Weighted homomorphism counts over step-function kernels, exactly.

The single enumeration primitive is a *profile map*: for every map
phi: V(H) -> [n] it records how many edges of H land on each tracked cell
{i, j} of the target matrix, and sums the maps' integer weights per
profile. One builder, ``symbolic_profile``, turns that integer map into
the count polynomial of H over a template (a ``SparsePoly`` in the
template's symbols), and everything else reads it: a density is its
constant term over a matrix without symbols, and a Hessian opens the
selected cells as symbols and evaluates second derivatives at the matrix
(``SparsePoly.hessian``). Every curvature certificate is the same read at
a sequence of points: the bowtie positivization, the kpm boundary at
x = y = 0 for each trial eps, and the witness search. Only symbol cells
are tracked: a constant cell b/L (L the lcm of the constant denominators)
weighs b and is multiplied in as its edges land, as in Dechter's bucket
elimination over a weighted semiring. The builder keeps
an integer numerator per exponent vector over the one denominator L^e(H),
the Hessian read brings the point to the same footing, and each entry of
its matrix becomes a ``Fraction`` once, at the end.

A profile is packed into one integer key, one bit field per tracked cell,
so joining two partial maps is adding their keys; fields are wide enough
for e(H) edges and never carry. The engine takes a maximal independent set
I of H; its complement C is a vertex cover. Only C is coloured, depth-first,
by one recursive function: given the colours before cover position p and
the packed edges among them (its base), it returns the subtree's map, a
{key relative to base: weight} sum over the colourings of positions p, p+1,
... Given the colours of its neighbours, a vertex of I is independent of
every other vertex of I, so its n colours collapse to a {key: weight} map
of at most n entries. Edge keys add and weights multiply, so that map
depends only on the multiset of its neighbours' colours: it is made once
per multiset and call (``ProfileMap.summed`` counts them) and shared. At
the position of its last neighbour the first such map, shifted by the back
edges' key and scaled by their weight, is the local map, the others are
multiplied into it, and the local map is convolved with the map returned
for the next position, or, at the last position, added to its map as it is.
Weight-zero cells kill a map outright, an independent vertex's entries
whose signed weights cancel are dropped, and multiplicity caps are checked on
each cover colour, local map and returned map, since multiplicities only
grow down the search. One test covers every cap: with a cap, every field
gets a spare top bit, and a capped field's bias carries into that bit
exactly when the field passes its cap, so a key passes all its caps when
(key + bias) & guard is 0; a map is filtered in one pass.

Subtrees are reused by memoising that function, the bounded-width dynamic
programme of Diaz-Serna-Thilikos (counting H-colourings of partial
k-trees). The subtree under cover position p reads the prefix only through
its later vertices, the cover positions from p on and the independent
vertices closing there, each reading its neighbours before p. Edge keys add
and weights multiply, so the subtree's map depends only on the multiset of
colours each later vertex reads, and on the capped fields of its base;
independent vertices with the same neighbours from p on are interchangeable,
so their multisets are compared as one multiset. One rule places the
tables: a position keeps one wherever its key can repeat, that is, where
the later vertices miss a prefix position or two prefix positions are
interchangeable, and every table lives for the whole call (and is freed at
its return, not left to the cyclic garbage collector). A cycle
blow-up's later vertices read 4 positions, so bowtie k = 7 tries 708
partial colourings where the plain search tries 3 + 9 + ... + 3^7 = 3279,
and each further k adds 243. K_{m,m} minus a matching reads its whole
prefix at every depth, but symmetrically from the third position on, so
the count collapses to colour multiplicities: kpm m = 7 tries 252 partial
colourings, the plain search 3279. ``ProfileMap.visited`` counts the
partial colourings tried.

The engine has one work limit, ``ENUMERATION_GUARD``, and two estimates
read off the edge list alone (so a graph claiming 10^12 mostly isolated
vertices costs nothing to refuse). Before colouring anything,
``profile_map`` counts n^|C| colourings plus one factor per isolated
vertex, and bounds the profile entries that summing the independent set
out touches per colouring (a star has one cover vertex but its leaves
carry a map that grows with their number unless no cell is tracked);
when either exceeds the limit it raises ``SizeGuardError`` with the
estimate in the message:
``enumeration guard: 3^9 = 19683 colourings > 10000``. The estimate prices
the search without reuse, so bowtie k = 9 and kpm m = 9 are refused
though reuse would try far fewer partial colourings. A cover vertex is priced as at least 2
colours (at n = 1 the message reads ``1^14 colourings priced as 2^14 =
16384``), which keeps the search depth at 13 or less for every n. Every
density, profile and Hessian is read off this engine, so they all refuse
at the same point.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from .errors import ENUMERATION_GUARD, SizeGuardError, UsageError
from .graphs import Graph, is_bipartite, is_eulerian
from .matrices import SymRationalMatrix, block_pm_ones, cut_norm, pair_index
from .polys import SparsePoly


@dataclass(frozen=True)
class SymbolicTemplate:
    """Symmetric n x n array whose cells are exact rationals or symbol names.

    Diagonal cells are loop weights. Distinct cells may share a symbol; the
    symbol's exponent then accumulates across those cells.
    """

    n: int
    cells: tuple  # Fraction | str per unordered pair, pair_index order

    def __post_init__(self):
        if len(self.cells) != self.n * (self.n + 1) // 2:
            raise UsageError("wrong template cell count")

    @classmethod
    def from_rows(cls, rows) -> "SymbolicTemplate":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise UsageError("template is not square")
        norm = [
            [x if isinstance(x, str) else Fraction(x) for x in row] for row in rows
        ]
        for i in range(n):
            for j in range(i + 1, n):
                if norm[i][j] != norm[j][i]:
                    raise UsageError(f"template not symmetric at ({i},{j})")
        return cls(n, tuple(norm[i][j] for i in range(n) for j in range(i, n)))

    @classmethod
    def from_matrix(cls, a: SymRationalMatrix) -> "SymbolicTemplate":
        return cls(a.n, a.tri)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted({c for c in self.cells if isinstance(c, str)}))

    def substitute(self, assignment: dict) -> SymRationalMatrix:
        """Replace every symbol by a rational value."""
        tri = []
        for c in self.cells:
            if isinstance(c, str):
                if c not in assignment:
                    raise UsageError(f"no value for symbol {c!r}")
                tri.append(Fraction(assignment[c]))
            else:
                tri.append(c)
        return SymRationalMatrix(self.n, tuple(tri))


def _cover_plan(g: Graph):
    """Split V(H) into a vertex cover, coloured depth-first, and an
    independent set summed out in closed form.

    The independent set is greedy maximal, lowest degree first; the cover
    is coloured in descending-degree order. Returns, per cover position,
    the earlier cover positions adjacent to it and the neighbour positions
    of each independent vertex whose last neighbour it is, plus the number
    of isolated vertices. Built from the edge list alone, so the cost does
    not grow with g.n.
    """
    adj = g.sparse_adjacency()
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    order = sorted(adj)
    order.sort(key=degree.__getitem__)  # stable: ties stay in vertex order
    indep, taken = [], set()
    for v in order:
        if taken.isdisjoint(adj[v]):
            indep.append(v)
            taken.add(v)
    cover = sorted(adj.keys() - taken)
    cover.sort(key=degree.__getitem__, reverse=True)
    pos = {v: p for p, v in enumerate(cover)}
    back = [
        tuple(sorted(pos[u] for u in adj[v] if u in pos and pos[u] < p))
        for p, v in enumerate(cover)
    ]
    closing = [[] for _ in cover]
    at = pos.__getitem__
    # one tuple per neighbourhood: a 10^5-leaf star keeps one, not 10^5
    # (fewer live objects, fewer garbage collector passes)
    seen: dict[tuple, tuple] = {}
    for v in indep:
        nbrs = tuple(sorted(map(at, adj[v])))
        nbrs = seen.setdefault(nbrs, nbrs)
        closing[nbrs[-1]].append(nbrs)
    return back, closing, g.n - len(adj)


def _summing_entries(closing, n: int, tracked: int) -> int:
    """Profile entries that summing the independent set out touches per
    cover colouring, estimated in cover order and counted only until it
    passes ``ENUMERATION_GUARD``.

    Summing out a vertex convolves its n colours with a map over the other
    summed vertices, so it touches n entries per key of that map. A map
    over the vertices summed so far holds at most one key per multiset of
    colours of the vertices sharing a neighbourhood, that is
    prod C(j + n - 1, j) over neighbourhoods shared by j of them, and at
    most C(e + T, T) keys, the vectors of e edges spread over T tracked
    cells.
    """
    entries = edges = 0
    multisets = 1
    shared: dict[tuple, int] = {}
    for group in closing:
        for nbrs in group:
            entries += n * min(multisets, comb(edges + tracked, tracked))
            if entries > ENUMERATION_GUARD:
                return entries
            j = shared.get(nbrs, 0)
            multisets = multisets * (j + n) // (j + 1)
            shared[nbrs] = j + 1
            edges += len(nbrs)
    return entries


def _memo_plan(back, closing):
    """Per cover position p, the prefix reads the key of its subtree's
    table is made from, or None where that key cannot repeat.

    A later vertex, a cover position q >= p or an independent vertex
    closing at q >= p, reads its neighbours in [0, p); the subtree depends
    on the prefix only through the multiset of colours each later vertex
    reads. Independent vertices with the same neighbours in [p, depth) are
    interchangeable, so they form one group whose reads are compared as a
    multiset; every other later vertex is a group of its own. A key can
    repeat, and a table is kept, where the reads miss a prefix position or
    where two prefix positions are interchangeable, that is, where swapping
    them maps every group's reads onto themselves. Otherwise every prefix
    colouring has its own key.
    """
    depth = len(back)
    plan = []
    for p in range(depth):
        groups: dict = {}  # cover position, or later neighbours shared -> reads
        for q in range(p, depth):
            r = back[q][: bisect_left(back[q], p)]
            if r:
                groups[q] = [r]
            for nbrs in closing[q]:
                cut = bisect_left(nbrs, p)
                if cut:
                    groups.setdefault(nbrs[cut:], []).append(nbrs[:cut])
        reads = tuple(tuple(sorted(group)) for group in groups.values())
        read = {a for group in reads for r in group for a in r}
        repeats = len(read) < p or _interchangeable(reads, p)
        plan.append(reads if repeats else None)
    return plan


def _interchangeable(reads, p: int) -> bool:
    """Whether swapping two positions of [0, p) maps every group of
    ``reads`` onto itself; only positions that lie in as many reads of each
    group are tried as a pair."""
    seen: list[list[int]] = [[] for _ in range(p)]
    for i, group in enumerate(reads):
        for r in group:
            for a in r:
                seen[a].append(i)
    alike: dict[tuple, list] = {}
    for a, where in enumerate(seen):
        alike.setdefault(tuple(where), []).append(a)
    for positions in alike.values():
        for a, b in combinations(positions, 2):
            swap = {a: b, b: a}
            if all(
                sorted(tuple(sorted(swap.get(x, x) for x in r)) for r in group)
                == list(group)
                for group in reads
            ):
                return True
    return False


@dataclass(frozen=True)
class ProfileMap:
    """Packed edge-multiplicity profiles with assignment counts."""

    tracked: tuple[int, ...]  # flat cell indices, ascending
    width: int
    counts: dict  # packed key -> summed weight of its maps (unweighted: their number)
    visited: int  # partial cover colourings tried; a reused subtree counts once
    summed: int  # independent-vertex sums made, one per colour multiset read


def profile_map(
    g: Graph,
    n: int,
    tracked_cells,
    caps: dict[int, int] | None = None,
    weights: dict[int, int] | None = None,
) -> ProfileMap:
    """Sum the weights of the maps per profile over the tracked cells.

    A map weighs the product of ``weights[cell]`` (default 1) over its
    edges; weight 0 kills it. ``caps`` limits cell multiplicity (maps
    beyond a cap are dropped); capped cells must be tracked unless their
    cap is 0. Refuses with ``SizeGuardError`` before colouring when n^|C| +
    (isolated vertices), or the profile entries summing the independent set
    out touches per colouring, exceeds ``ENUMERATION_GUARD``; a cover vertex
    is priced as at least 2 colours, which also bounds the depth of the
    search at n = 1.
    """
    back, closing, isolated = _cover_plan(g)
    depth = len(back)
    priced = max(n, 2) ** depth
    if priced + isolated > ENUMERATION_GUARD:
        # past 10^18 the exponent says enough (and str() refuses 4300 digits)
        value = f" = {priced}" if priced < 10**18 else ""
        if n < 2:
            what = f"{n}^{depth} colourings priced as 2^{depth}{value}"
        else:
            what = f"{n}^{depth}{value} colourings"
        extra = f" + {isolated} isolated vertices" if isolated else ""
        raise SizeGuardError(f"enumeration guard: {what}{extra} > {ENUMERATION_GUARD}")
    tracked = tuple(sorted(tracked_cells))
    if _summing_entries(closing, n, len(tracked)) > ENUMERATION_GUARD:
        raise SizeGuardError(
            f"enumeration guard: summing out the independent set touches"
            f" > {ENUMERATION_GUARD} profile entries per colouring"
        )
    ncells = n * (n + 1) // 2
    weight = [(weights or {}).get(cell, 1) for cell in range(ncells)]
    binding = {}  # tracked position -> cap, for tracked cells with a binding cap
    for cell, cap in (caps or {}).items():
        if cap <= 0:
            weight[cell] = 0
        elif cap < g.edge_count:
            if cell not in tracked:
                raise UsageError("capped cell must be tracked")
            binding[tracked.index(cell)] = cap
    # a field counts up to e(H) < 2^bits edges; with a binding cap every
    # field gets a spare top bit, and a capped field's bias 2^bits - 1 - cap
    # carries into it exactly when the field passes its cap, so
    # (key + bias) & guard tests every cap at once and never carries out
    bits = max(3, g.edge_count.bit_length())
    width = bits + 1 if binding else bits
    incs = [0] * ncells
    for t, cell in enumerate(tracked):
        incs[cell] = 1 << (t * width)
    capmask = bias = guard = 0  # the fields are disjoint
    for t, cap in binding.items():
        shift = t * width
        capmask |= ((1 << bits) - 1) << shift
        bias |= ((1 << bits) - 1 - cap) << shift
        guard |= 1 << (shift + bits)

    # a memoised subtree keeps one result per (capped fields of base,
    # multisets of colours its later vertices read) for the whole call; a
    # multiset of colours c is one int, the sum of (depth + 1)^c, whose
    # digits never carry since a vertex reads fewer than depth positions,
    # and a group's ints are sorted
    plan = _memo_plan(back, closing)
    tables = [None if reads is None else {} for reads in plan]
    power = [(depth + 1) ** c for c in range(n)]

    # per colour pair: None where the cell kills a map, else the key
    # increment and weight of one edge landing there
    edge = [(incs[c], weight[c]) if weight[c] else None for c in range(ncells)]
    step = [[edge[pair_index(a, b, n)] for b in range(n)] for a in range(n)]
    colors = [0] * depth
    rng = range(n)
    visited = summed = 0
    sides: dict[int, dict] = {}  # colour multiset of the neighbours -> side map

    def side(nbrs):
        """{key: weight} for one independent vertex, its neighbours coloured;
        made once per multiset of their colours and shared, so never mutated."""
        nonlocal summed
        code = sum([power[colors[a]] for a in nbrs])
        if code in sides:
            return sides[code]
        summed += 1
        rows = [step[colors[a]] for a in nbrs]
        out: dict[int, int] = {}
        for x in rng:
            key, w = 0, 1
            for row in rows:
                s = row[x]
                if s is None:
                    break
                key += s[0]
                w *= s[1]
            else:
                out[key] = out.get(key, 0) + w
        # signed weights may cancel; an emptied map prunes the colouring
        if not all(out.values()):
            out = {k: v for k, v in out.items() if v}
        sides[code] = out
        return out

    def convolve(out, a, b):
        """Add the product of two {key: weight} maps into ``out``; keys add
        field by field, and the inner loop runs over the bigger map."""
        if len(a) < len(b):
            a, b = b, a
        get = out.get
        for k2, c2 in b.items():
            for k, c in a.items():
                k += k2
                out[k] = get(k, 0) + c * c2
        return out

    def sub(p, base):
        """{key relative to base: weight} over the colourings of cover
        positions p.. and the independent vertices they close, ``base``
        packing the edges inside the coloured prefix. Where p keeps a table,
        the map is made once per key: the colour multisets its later
        vertices read and the capped fields of base."""
        nonlocal visited
        if p == depth:
            return {0: 1}
        table = tables[p]
        if table is not None:
            tkey = [base & capmask]
            for group in plan[p]:
                codes = [sum([power[colors[a]] for a in r]) for r in group]
                if len(codes) > 1:
                    codes.sort()
                tkey += codes
            tkey = tuple(tkey)
            if tkey in table:
                return table[tkey]
        visited += n
        out: dict[int, int] = {}
        rows = [step[colors[b]] for b in back[p]]
        for c in rng:
            key, w = base, 1
            for row in rows:
                s = row[c]
                if s is None:
                    break
                key += s[0]
                w *= s[1]
            else:
                if (key + bias) & guard:
                    continue
                colors[p] = c
                # the closing vertices' own sums are small: multiply them
                # together before touching the subtree's map; the first
                # one's shared map is shifted and scaled only if it must be
                shift = key - base
                local = None
                for nbrs in closing[p]:
                    if local is not None:
                        local = convolve({}, local, side(nbrs))
                    elif shift or w != 1:
                        local = {k + shift: v * w for k, v in side(nbrs).items()}
                    else:
                        local = side(nbrs)
                    if guard:
                        off = base + bias
                        local = {k: v for k, v in local.items() if not (k + off) & guard}
                    if not local:
                        break
                else:
                    if local is None:
                        local = {shift: w}
                    if p + 1 < depth:
                        convolve(out, sub(p + 1, key), local)
                    else:  # the leaf's map is {0: 1}: add local as it is
                        for k, v in local.items():
                            out[k] = out.get(k, 0) + v
        if guard:
            off = base + bias
            out = {k: v for k, v in out.items() if not (k + off) & guard}
        if table is not None:
            table[tkey] = out
        return out

    counts = sub(0, 0)
    del sub  # sub refers to itself: free its tables now, not at a GC pass
    if isolated:
        factor = n**isolated
        counts = {k: c * factor for k, c in counts.items()}
    return ProfileMap(tracked, width, counts, visited, summed)


def symbolic_profile(
    g: Graph,
    t: SymbolicTemplate,
    symbol_caps: dict[str, int] | None = None,
) -> SparsePoly:
    """The count polynomial of H over the template: the sum over all maps
    V(H) -> [n] of the product of the cells its edges land on, with symbol
    cells kept as variables. Substituting rationals for the symbols and
    evaluating gives ``weighted_hom_count`` of the substituted matrix.

    The one place a profile map becomes power products. Only symbol cells
    are tracked; a symbol in ``symbol_caps`` drops every map with more than
    its cap of edges on one of its cells. A constant cell b/L, L the lcm of
    the constant cells' denominators, is the integer weight b (a 1-cell
    weighs L, weight-1 cells are left out), so a count carries L once per
    edge on a constant cell: counts are summed per exponent vector and
    scaled by L^degree to numerators over the polynomial's one denominator
    L^e(H).
    """
    caps = symbol_caps or {}
    scale = lcm(*(c.denominator for c in t.cells if not isinstance(c, str)))
    tracked = []
    cell_caps = {}
    weights = {}
    for idx, c in enumerate(t.cells):
        if isinstance(c, str):
            tracked.append(idx)
            if c in caps:
                cell_caps[idx] = caps[c]
        else:
            b = c.numerator * (scale // c.denominator)
            if b != 1:
                weights[idx] = b
    pm = profile_map(g, t.n, tracked, cell_caps, weights)
    symbols = t.symbols
    axes = [symbols.index(t.cells[idx]) for idx in pm.tracked]
    mask = (1 << pm.width) - 1
    shifts = [i * pm.width for i in range(len(axes))]
    acc: dict[tuple[int, ...], int] = {}
    for key, cnt in pm.counts.items():
        exp = [0] * len(symbols)
        for ax, shift in zip(axes, shifts):
            exp[ax] += (key >> shift) & mask
        exp = tuple(exp)
        acc[exp] = acc.get(exp, 0) + cnt
    # a map's weight carries L per edge on a constant cell: L^(e(H) - degree)
    scale_pow = [scale**e for e in range(g.edge_count + 1)]
    return SparsePoly(
        symbols,
        {exp: num * scale_pow[sum(exp)] for exp, num in acc.items() if num},
        scale_pow[-1],
    )


def weighted_hom_count(g: Graph, a: SymRationalMatrix) -> Fraction:
    """Sum over all maps V(H) -> [n] of the product of edge weights.

    This is the homogeneous degree-e(H) evaluation without the n^{-v(H)}
    normalization; dividing by n^{v(H)} gives the density.
    """
    t = SymbolicTemplate.from_matrix(a)
    return symbolic_profile(g, t).coefficient_of()


def density(g: Graph, a: SymRationalMatrix) -> Fraction:
    return weighted_hom_count(g, a) / Fraction(a.n) ** g.n


def norm_powers(g: Graph, a: SymRationalMatrix) -> dict[str, Fraction]:
    """The hom count, the density t_H(U_A) and the e(H)-th powers of the two
    norm candidates: |t_H(U_A)| and t_H(U_|A|). Roots are left to
    display-layer bracketing. A kernel without negative entries is its own
    |A|, so it is enumerated once."""
    count = weighted_hom_count(g, a)
    d = count / Fraction(a.n) ** g.n
    signed = any(x < 0 for x in a.tri)
    return {
        "count": count,
        "density": d,
        "norm_pow": abs(d),
        "weak_norm_pow": density(g, a.entrywise_abs()) if signed else d,
    }


def sidorenko_check(g: Graph, a: SymRationalMatrix) -> bool:
    """Exact check of t_H(U_A) >= t_{K2}(U_A)^{e(H)} for bipartite H."""
    if not is_bipartite(g):
        raise UsageError("sidorenko check needs a bipartite graph")
    if not a.entries_in(0, 1):
        raise UsageError("sidorenko check needs entries in [0, 1]")
    edge_density = sum(
        a.at(i, j) for i in range(a.n) for j in range(a.n)
    ) / Fraction(a.n) ** 2
    return density(g, a) >= edge_density**g.edge_count


def hatami_box_check(g: Graph, u: SymRationalMatrix, w: SymRationalMatrix) -> bool:
    """Exact check of t_H(U+W) + t_H(U-W) <= 2^{e(H)-1} (t_H(U) + t_H(W))."""
    if u.n != w.n:
        raise UsageError("dimension mismatch")
    lhs = density(g, u.add(w)) + density(g, u.sub(w))
    rhs = 2 ** (g.edge_count - 1) * (density(g, u) + density(g, w))
    return lhs <= rhs


def counting_lemma_check(g: Graph, a: SymRationalMatrix, b: SymRationalMatrix) -> bool:
    """Exact check of |t_H(U_A) - t_H(U_B)| <= 4 e(H) ||A - B||_cut."""
    if a.n != b.n:
        raise UsageError("dimension mismatch")
    if not (a.entries_in(-1, 1) and b.entries_in(-1, 1)):
        raise UsageError("counting lemma check needs entries in [-1, 1]")
    gap = abs(density(g, a) - density(g, b))
    return gap <= 4 * g.edge_count * cut_norm(a.sub(b))


def eulerian_indicator_check(g: Graph, n: int) -> bool:
    """Check that the +/- block kernel sees exactly the eulerian indicator:
    density 1 when every degree of H is even, density 0 otherwise."""
    d = density(g, block_pm_ones(n))
    expected = Fraction(1) if is_eulerian(g) else Fraction(0)
    return d == expected
