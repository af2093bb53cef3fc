"""How ``homs.profile_map`` searches a graph, read off its edge list alone
before anything is coloured: the vertex cover it colours and the
independent set it sums out (``_cover_plan``), the cover positions whose
subtrees it memoises and the prefix reads their keys are made from
(``_memo_plan``), and the profile entries summing the independent set out
touches per colouring, one of its two work estimates (``_summing_entries``).
"""

from bisect import bisect_left
from itertools import combinations
from math import comb

from .errors import ENUMERATION_GUARD
from .graphs import Graph


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


def _summing_entries(closing, n: int, fields: int) -> int:
    """Profile entries that summing the independent set out touches per
    cover colouring, estimated in cover order and counted only until it
    passes ``ENUMERATION_GUARD``.

    Summing out a vertex convolves its n colours with a map over the other
    summed vertices, so it touches n entries per key of that map. A map
    over the vertices summed so far holds at most one key per multiset of
    colours of the vertices sharing a neighbourhood, that is
    prod C(j + n - 1, j) over neighbourhoods shared by j of them, and at
    most C(e + F, F) keys, the vectors of e edges spread over F fields.
    """
    entries = edges = 0
    multisets = 1
    shared: dict[tuple, int] = {}
    for group in closing:
        for nbrs in group:
            entries += n * min(multisets, comb(edges + fields, fields))
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
    multiset; every other later vertex is a group of its own. A table is
    kept where the reads miss a prefix position or two prefix positions are
    interchangeable (swapping them maps every group's reads onto
    themselves), so two prefix colourings share a key; where only a larger
    permutation keeps the reads, keys repeat but no table is kept.
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
