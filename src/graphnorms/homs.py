"""Weighted homomorphism counts over step-function kernels, exactly.

The single enumeration primitive is a *profile map*: for every map
phi: V(H) -> [n] it records how many edges of H take a field's increment,
and sums the maps' integer weights per profile. It reads one encoding per
cell {i, j} of the target matrix: an int weight, or a triple (field,
const, slope) for the cell const + slope * s_field, with caps per field.
One builder, ``symbolic_profile``, writes a template, whose cells are
constants or ``Affine`` cells const + slope * s, in that encoding and
turns the integer map into the count polynomial of H over the template (a
``SparsePoly`` in the template's symbols), and everything else reads it: a
density is its constant term over a matrix without symbols, a Hessian
opens the selected cells as symbols and evaluates second derivatives at
the matrix (``SparsePoly.hessian``), and a certificate's curvature v^T H v
is twice the s^2 coefficient along the line A + sD, whose template sets
each selected cell to the ``Affine`` cell a + v s. Every curvature
certificate is the same Hessian read at a sequence of points: the bowtie
positivization, the kpm boundary at x = y = 0 for each trial eps, and the
witness search. Field f is the f-th symbol of the template, so a profile
is the exponent vector in order; cells that share a symbol add
into one field and a symbol's cap bounds its total degree. A constant cell
b/L (L the lcm of the constant denominators) weighs b and is multiplied in
as its edges land, as in Dechter's bucket elimination over a weighted
semiring, and an edge on an affine cell a + v s, (field, aL, v), is the
two-entry map {0: aL, increment: v}: the key unchanged at the constant's
weight or the field's increment at the slope's (a symbol s is 0 + 1 s).
The builder keeps an integer numerator per exponent vector over the one
denominator L^e(H), the Hessian read brings the point to the same footing,
and each entry of its matrix becomes a ``Fraction`` once, at the end.

The engine packs a profile into one integer key, each field its own run
of bits, so joining two partial maps is adding their keys (fields hold e(H)
edges and never carry), and cuts keys into exponent tuples at its return.
It takes a maximal independent set I of H; its complement C is a vertex cover. Only C is coloured, depth-first,
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
An affine edge's two-entry map is multiplied by ``convolve`` into the
local map (an independent vertex's, into its shared map), and the next
base takes the constant's key, so a base is a lower bound on the prefix's
fields. A template without affine cells costs the colouring loop one test
per colour. Weight-zero cells kill a map outright, and an independent
vertex's entries whose signed weights cancel are dropped. Fields only grow
down the search, so a cap is tested where a key is made: on each cover
colour's key and each product of a convolution, an affine edge's too, and
on each shared map once, when it is made, in the pass that drops its
cancelled weights. A shared map is tested from 0, which holds from every
base, so the local map it starts is tested again only where the
colouring's own key already counts in a capped field. Every local and
returned map is then exact as it is made, and no map is filtered after;
without a cap, a convolution takes its uncapped loop on one branch per
call. One test covers every cap, 0 included: with a binding cap, every
field gets a spare top bit, and a capped field's bias carries into that
bit exactly when the field passes its cap, so a key passes all its caps
when (key + bias) & guard is 0. A cap below 0 would carry past its field,
so it is refused.

Subtrees are reused by memoising that function, the bounded-width dynamic
programme of Diaz-Serna-Thilikos (counting H-colourings of partial
k-trees). The subtree under cover position p reads the prefix only through
its later vertices, the cover positions from p on and the independent
vertices closing there, each reading its neighbours before p. Edge keys add
and weights multiply, so the subtree's map depends only on the multiset of
colours each later vertex reads, and on the capped fields of its base;
independent vertices with the same neighbours from p on are interchangeable,
so their multisets are compared as one multiset. A position keeps a table
for the whole call where the later vertices miss a prefix position or
swapping two prefix positions keeps every group's reads, so two prefix
colourings share a key. A cycle's reflection is neither: where a prefix
permutation pi, joined to the reversal of the later cover positions, maps
the cover's edges and later independent neighbourhoods onto themselves,
the subtree under c is the one under c o pi, so a key is folded with the
key holding its groups in mirrored order (one ``itemgetter`` from
``_memo_plan``) and the lesser is kept. A table kept for the mirror alone
stores nothing for a key its mirror fixes and gives each entry up at its
second read, and under the relabelling shortcut (below) a mirror whose pi
moves position 0 is not used, since those partners are never tried. Where
only another permutation keeps the reads, as at bowtie k = 5's position
4, whose reflection (0 3)(1 2) fixes the suffix, keys repeat but no table
is kept. Every table is freed at the call's return, not left to the
cyclic garbage collector. At n = 3, over an uncapped template with a
shared symbol (no relabelling shortcut), a cycle blow-up's later vertices
read 4 positions and every position from 2 to |C| - 2 has its mirror, so
bowtie k = 7 tries 348 partial colourings where the plain search tries
3 + ... + 3^7 = 3279, and k = 7 and 8 each add 96. K_{m,m} minus a
matching reads its whole prefix at every depth, but symmetrically from the
third position on, so the count collapses to colour multiplicities: kpm
m = 7 tries 252 partial colourings. ``ProfileMap.visited`` counts the
partial colourings tried.

Cells each their own bare field (f, 0, 1), the fields a permutation of
the cells, uncapped, over a graph with an edge (the witness search's
template) map onto themselves when the colours are relabelled: the maps
giving the first cover vertex colour c are the image under the
transposition (0 c) of those giving it 0, which moves the exponent of
cell {i, j} to cell {ti, tj}. ``profile_map`` sees this in its inputs
(``_relabels``), colours that vertex 0 alone and adds the n - 1 images,
each a gather of the exponent tuples: at n = 3 it tries 121 partial
colourings of the Moebius ladder, not 198, and 169 of kpm m = 7, not 252.

The engine has one work limit, ``ENUMERATION_GUARD``, and two estimates
read off the edge list alone (so a graph claiming 10^12 mostly isolated
vertices costs nothing to refuse). Before colouring anything,
``profile_map`` counts n^|C| colourings plus one factor per isolated
vertex, and bounds the profile entries that summing the independent set
out touches per colouring (a star has one cover vertex but its leaves
carry a map that grows with their number unless the key has no field);
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

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import NamedTuple

from .errors import ENUMERATION_GUARD, Record, SizeGuardError, UsageError
from .graphs import Graph, is_bipartite, is_eulerian
from .matrices import (
    SymRationalMatrix, block_pm_ones, cut_norm, pair_index, pair_list, symmetric_cells,
)
from .plans import _cover_plan, _memo_plan, _summing_entries
from .polys import SparsePoly


class Affine(NamedTuple):
    """A template cell const + slope * symbol, with an integer slope."""

    const: Fraction
    slope: int
    symbol: str


class SymbolicTemplate(Record):
    """Symmetric n x n array whose cells are ``Fraction``s or ``Affine``
    cells; made from a symbol name, a cell is ``Affine(0, 1, name)``.

    Diagonal cells are loop weights. Distinct cells may share a symbol; the
    symbol's exponent then accumulates across those cells.
    """

    __slots__ = ("n", "cells")  # int; Fraction | Affine per unordered pair, pair_index order

    def __init__(self, n, cells):
        if len(cells) != n * (n + 1) // 2:
            raise UsageError("wrong template cell count")
        self._fill(n, tuple(map(_cell, cells)))

    @classmethod
    def from_rows(cls, rows) -> "SymbolicTemplate":
        return cls(*symmetric_cells(rows, _cell, "template"))

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted({c.symbol for c in self.cells if isinstance(c, Affine)}))

    def substitute(self, assignment: dict) -> SymRationalMatrix:
        """Replace every symbol by a rational value x: an ``Affine`` cell
        becomes const + slope * x."""
        tri = []
        for c in self.cells:
            if isinstance(c, Affine):
                if c.symbol not in assignment:
                    raise UsageError(f"no value for symbol {c.symbol!r}")
                c = c.const + c.slope * Fraction(assignment[c.symbol])
            tri.append(c)
        return SymRationalMatrix(self.n, tuple(tri))


def _cell(x) -> Fraction | Affine:
    """A template cell with a ``Fraction`` constant; a name is ``Affine(0, 1, name)``.
    A cell that does not convert, or an ``Affine`` without an int slope (not
    a bool) and a non-empty str symbol, is a ``UsageError`` naming it."""
    c = Affine(0, 1, x) if isinstance(x, str) else x
    try:
        if not isinstance(c, Affine):
            return c if isinstance(c, Fraction) else Fraction(c)
        if type(c.slope) is not int or not (isinstance(c.symbol, str) and c.symbol):
            raise TypeError("an Affine needs an int slope and a non-empty str symbol")
        return c._replace(const=Fraction(c.const))
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise UsageError(f"bad template cell {x!r}: {exc}") from None


class ProfileMap(NamedTuple):
    """Edge-multiplicity profiles with their summed map weights."""

    counts: dict  # exponent vector over the fields -> nonzero summed weight of its maps
    visited: int  # partial cover colourings tried; a reused subtree counts once
    summed: int  # independent-vertex sums made, one per colour multiset read


def _steps(g: Graph, n: int, cells, caps):
    """The per-colour-pair steps of ``profile_map``'s search: (field width,
    step, split, capmask, bias, guard). ``step`` is None where the cell
    kills a map, else the key increment and weight of one edge landing
    there; a cell with both a constant and a slope steps by (0, 1) and
    keeps its edge in ``split`` as the two-entry map {0: constant,
    increment: slope} for ``convolve``, None without one. An int cell is
    the constant alone."""
    binding = {f: cap for f, cap in caps.items() if cap < g.edge_count}
    # a field counts up to e(H) < 2^bits edges; with a binding cap every
    # field gets a spare top bit, and a capped field's bias 2^bits - 1 - cap
    # carries into it exactly when the field passes its cap, so
    # (key + bias) & guard tests every cap at once and never carries out
    bits = max(3, g.edge_count.bit_length())
    width = bits + 1 if binding else bits
    capmask = bias = guard = 0  # the fields are disjoint
    for f, cap in binding.items():
        shift = f * width
        capmask |= ((1 << bits) - 1) << shift
        bias |= ((1 << bits) - 1 - cap) << shift
        guard |= 1 << (shift + bits)
    edge, options = [], []
    for cell in cells:
        f, const, slope = cell if isinstance(cell, tuple) else (0, cell, 0)
        inc = 1 << (f * width)
        options.append({0: const, inc: slope} if const and slope else None)
        if const and slope:
            edge.append((0, 1))
        elif slope:
            edge.append((inc, slope))
        else:
            edge.append((0, const) if const else None)
    step = [[edge[pair_index(a, b, n)] for b in range(n)] for a in range(n)]
    split = None
    if any(options):
        split = [[options[pair_index(a, b, n)] for b in range(n)] for a in range(n)]
        split = [row if any(row) else None for row in split]
    return width, step, split, capmask, bias, guard


def _relabels(g: Graph, cells, caps) -> bool:
    """Whether relabelling the colours permutes the profile map's fields:
    every cell its own bare field (f, 0, 1), the fields a permutation of
    the cells, no cap, and an edge to colour."""
    bare = [c[0] for c in cells if isinstance(c, tuple) and c[1:] == (0, 1)]
    return g.edge_count > 0 and not caps and sorted(bare) == list(range(len(cells)))


def profile_map(g: Graph, n: int, cells, caps: dict[int, int]) -> ProfileMap:
    """Sum the weights of the maps per profile, the edges on each field.

    ``cells[i]``, in ``pair_index`` order, is what an edge on cell i brings:
    an int weight, 0 killing the map, or a triple (field, const, slope), the
    cell const + slope * s_field, whose edge either leaves the key unchanged
    and weighs const or adds one to the field and weighs slope (a plain
    symbol is (field, 0, 1)). A map weighs the product over its edges, and
    entry f of its profile counts its slope options on field f; ``counts``
    maps each profile to its maps' summed weight, a weight that cancels to
    0 left out. ``caps`` maps a field to the most it may count: maps beyond
    a cap are dropped, and a cap below 0 is a ``UsageError``. Refuses with
    ``SizeGuardError`` before colouring when n^|C| + (isolated vertices),
    or the profile entries summing the independent set out touches per
    colouring, exceeds ``ENUMERATION_GUARD``; a cover vertex is priced as
    at least 2 colours, which also bounds the depth of the search at n = 1.
    Where ``_relabels`` holds, the maps giving the first cover vertex
    colour 0 are enumerated and the rest are their images.
    """
    if any(cap < 0 for cap in caps.values()):
        raise UsageError("a field's cap must be at least 0")
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
    fields = max((c[0] + 1 for c in cells if isinstance(c, tuple)), default=0)
    if _summing_entries(closing, n, fields) > ENUMERATION_GUARD:
        raise SizeGuardError(
            f"enumeration guard: summing out the independent set touches"
            f" > {ENUMERATION_GUARD} profile entries per colouring"
        )
    width, step, split, capmask, bias, guard = _steps(g, n, cells, caps)

    # a memoised subtree keeps one result per (capped fields of base,
    # multisets of colours its later vertices read) for the whole call; a
    # multiset of colours c is one int, the sum of (depth + 1)^c, whose
    # digits never carry since a vertex reads fewer than depth positions,
    # and a group's ints are sorted
    relabels = _relabels(g, cells, caps)
    plan = _memo_plan(back, closing, relabels)
    tables = [None if memo is None else {} for memo in plan]
    power = [(depth + 1) ** c for c in range(n)]

    colors = [0] * depth
    rng = range(n)
    first = range(1) if relabels else rng
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
        splits = [r for r in (split[colors[a]] for a in nbrs) if r] if split else ()
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
                if splits:
                    local = {key: w}
                    for row in splits:
                        if row[x]:
                            local = convolve({}, local, row[x], bias)
                    for k, v in local.items():
                        out[k] = out.get(k, 0) + v
                else:
                    out[key] = out.get(key, 0) + w
        # signed weights may cancel, and a key past a cap from 0 is past it
        # from every base; an emptied map prunes the colouring
        if guard or not all(out.values()):
            out = {k: v for k, v in out.items() if v and not (k + bias) & guard}
        sides[code] = out
        return out

    def convolve(out, a, b, off):
        """Add the product of two {key: weight} maps into ``out``; keys add
        field by field, a product whose key passes a cap ((key + off) &
        guard) is not made, and the inner loop runs over the bigger map.
        Without a cap the loops take no test, on one branch per call: the
        test on every product would slow an uncapped build by 4 to 18 %."""
        if len(a) < len(b):
            a, b = b, a
        get = out.get
        if not guard:
            for k2, c2 in b.items():
                for k, c in a.items():
                    k += k2
                    out[k] = get(k, 0) + c * c2
            return out
        for k2, c2 in b.items():
            for k, c in a.items():
                k += k2
                if not (k + off) & guard:
                    out[k] = get(k, 0) + c * c2
        return out

    def sub(p, base):
        """{key relative to base: weight} over the colourings of cover
        positions p.. and the independent vertices they close, ``base``
        packing the edges inside the coloured prefix. Every key passes its
        caps, each tested against off = base + bias where it is made, so the
        map is not filtered at its return. Where p keeps a table, the map is
        made once per key: the colour multisets its later vertices read and
        the capped fields of base."""
        nonlocal visited
        if p == depth:
            return {0: 1}
        table = tables[p]
        if table is not None:
            reads, mirror, whole = plan[p]
            tkey = [base & capmask]
            for group in reads:
                codes = [sum([power[colors[a]] for a in r]) for r in group]
                if len(codes) > 1:
                    codes.sort()
                tkey += codes
            tkey = tuple(tkey)
            keep = whole
            if mirror is not None:
                other = mirror(tkey)
                if other != tkey:
                    keep = True
                    if other < tkey:
                        tkey = other
            # a table for the mirror alone skips a key its mirror fixes and
            # gives an entry up at its second read
            if keep and tkey in table:
                return table[tkey] if whole else table.pop(tkey)
        choices = first if p == 0 else rng
        visited += len(choices)
        off = base + bias
        out: dict[int, int] = {}
        rows = [step[colors[b]] for b in back[p]]
        splits = [r for r in (split[colors[b]] for b in back[p]) if r] if split else ()
        for c in choices:
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
                if splits:  # the affine back edges: base stays a lower bound
                    local = {shift: w}
                    for row in splits:
                        if row[c]:
                            local = convolve({}, local, row[c], off)
                for nbrs in closing[p]:
                    if local is not None:
                        local = convolve({}, local, side(nbrs), off)
                    elif key & capmask:  # a side map passes its caps from 0 alone
                        top = key + bias
                        local = {k + shift: v * w for k, v in side(nbrs).items()
                                 if not (k + top) & guard}
                    elif shift or w != 1:
                        local = {k + shift: v * w for k, v in side(nbrs).items()}
                    else:
                        local = side(nbrs)
                    if not local:
                        break
                else:
                    if local is None:
                        local = {shift: w}
                    if p + 1 < depth:
                        convolve(out, sub(p + 1, key), local, off)
                    else:  # the leaf's map is {0: 1}: add local, exact, as it is
                        for k, v in local.items():
                            out[k] = out.get(k, 0) + v
        if table is not None and keep:
            table[tkey] = out
        return out

    packed = sub(0, 0)
    del sub  # sub refers to itself: free its tables now, not at a GC pass
    mask, shifts = (1 << width) - 1, range(0, fields * width, width)
    factor = n**isolated
    counts = {tuple([(key >> shift) & mask for shift in shifts]): w * factor
              for key, w in packed.items() if w}
    if relabels:
        # the maps colouring it c are the image under t = (0 c) of those
        # colouring it 0: exponent {i, j} moves to {ti, tj}, a tuple gather
        home = [c[0] for c in cells]
        base, counts = counts, dict(counts)
        for c in range(1, n):
            swap = {0: c, c: 0}
            src = [0] * len(home)
            for (i, j), f in zip(pair_list(n), home):
                src[home[pair_index(swap.get(i, i), swap.get(j, j), n)]] = f
            for exp, cnt in zip(map(itemgetter(*src), base), base.values()):
                counts[exp] = counts.get(exp, 0) + cnt
    return ProfileMap(counts, visited, summed)


def symbolic_profile(
    g: Graph,
    t: SymbolicTemplate,
    symbol_caps: dict[str, int] | None = None,
) -> SparsePoly:
    """The count polynomial of H over the template: the sum over all maps
    V(H) -> [n] of the product of the cells its edges land on, with symbol
    cells kept as variables. Substituting rationals for the symbols and
    evaluating gives ``weighted_hom_count`` of the substituted matrix.

    The one place a profile map becomes power products, and the one writer
    of ``profile_map``'s cell encoding. Field f is ``t.symbols[f]``: the
    edges on every cell of a symbol add into its field, so a profile is
    the exponent vector in order, and a symbol in ``symbol_caps`` caps
    its field, dropping every map whose exponent of it passes the cap (a
    cap on a symbol not in the template is a ``UsageError``). A constant
    cell b/L, L the lcm of the denominators of the constants (an ``Affine``
    cell's included), is the int weight b (a 1-cell weighs L), and an
    ``Affine`` cell a + v s is (f, aL, v): the weight aL with no increment
    or the weight v with s's. So a count carries L once per edge off the
    symbols: counts are scaled by L^degree to numerators over the
    polynomial's one denominator L^e(H).
    """
    symbols = t.symbols
    field = {name: f for f, name in enumerate(symbols)}
    caps = {}
    for name, cap in (symbol_caps or {}).items():
        if name not in field:
            raise UsageError(f"cap on {name!r}, which is no symbol of the template")
        caps[field[name]] = cap
    consts = [c.const if isinstance(c, Affine) else c for c in t.cells]
    scale = lcm(*(c.denominator for c in consts))
    cells = []
    for c, a in zip(t.cells, consts):
        b = a.numerator * (scale // a.denominator)
        cells.append((field[c.symbol], b, c.slope) if isinstance(c, Affine) else b)
    counts = profile_map(g, t.n, cells, caps).counts
    # a map's weight carries L per edge on a constant cell: L^(e(H) - degree)
    scale_pow = [scale**e for e in range(g.edge_count + 1)]
    terms = {exp: cnt * scale_pow[sum(exp)] for exp, cnt in counts.items()}
    return SparsePoly(symbols, terms, scale_pow[-1])


def weighted_hom_count(g: Graph, a: SymRationalMatrix) -> Fraction:
    """Sum over all maps V(H) -> [n] of the product of edge weights.

    This is the homogeneous degree-e(H) evaluation without the n^{-v(H)}
    normalization; dividing by n^{v(H)} gives the density.
    """
    return symbolic_profile(g, SymbolicTemplate(a.n, a.tri)).coefficient_of()


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
