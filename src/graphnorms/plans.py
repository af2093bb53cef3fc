"""How ``homs.profile_map`` searches a graph, read off its edge list alone
before anything is coloured: the vertex cover it colours and the
independent set it sums out (``_cover_plan``), the cover positions whose
subtrees it memoises, the prefix reads their keys are made from and the
mirror each key is folded with (``_memo_plan``), and the profile entries
summing the independent set out touches per colouring, one of its two work
estimates (``_summing_entries``).
"""

from bisect import bisect_left
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import NamedTuple

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


class Memo(NamedTuple):
    """The table of one cover position's subtree."""

    reads: tuple  # per group, the sorted prefix reads of its vertices
    mirror: itemgetter | None  # a key to its mirror's key, or None
    whole: bool  # kept for the whole call; else for the mirror alone


def _memo_plan(back, closing, first_fixed: bool = False):
    """Per cover position p, the ``Memo`` of its subtree's table, or None
    where no table is kept.

    A later vertex, a cover position q >= p or an independent vertex
    closing at q >= p, reads its neighbours in [0, p); the subtree depends
    on the prefix only through the multiset of colours each later vertex
    reads. Independent vertices with the same neighbours in [p, depth) are
    interchangeable, so they form one group whose reads are compared as a
    multiset; every other later vertex is a group of its own. A table is
    kept for the whole call where the reads miss a prefix position or two
    prefix positions are interchangeable (swapping them maps every group's
    reads onto themselves), so two prefix colourings share a key. Where
    ``_mirror`` finds one, a key is folded with its mirror's, and a
    position with no other reason keeps a table for the mirror alone. A
    key that only another permutation keeps gets no table: bowtie k = 5's
    position 4, whose reflection (0 3)(1 2) fixes the suffix, keeps none.
    ``first_fixed``: only colour 0 is tried at position 0, so a mirror
    moving it is not used.
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
        alike = _alike(reads, p)
        whole = () in alike or _interchangeable(reads, alike)
        # pi is read off the positions' readers, so two read alike refuse a
        # mirror; with one prefix position pi is the identity, and no key moves
        mirror = None
        if p > 1 and len(reads) > 1 and all(len(a) == 1 for w, a in alike.items() if w):
            mirror = _mirror(back, closing, p, list(groups), reads, alike, first_fixed)
        plan.append(Memo(reads, mirror, whole) if whole or mirror else None)
    return plan


def _alike(reads, p: int) -> dict[tuple, list]:
    """The positions of [0, p) by the groups reading them, one group index
    per read, in order: unread positions under ()."""
    seen: list[list[int]] = [[] for _ in range(p)]
    for i, group in enumerate(reads):
        for r in group:
            for a in r:
                seen[a].append(i)
    alike: dict[tuple, list] = {}
    for a, where in enumerate(seen):
        alike.setdefault(tuple(where), []).append(a)
    return alike


def _interchangeable(reads, alike) -> bool:
    """Whether swapping two prefix positions maps every group of ``reads``
    onto itself; only positions ``_alike`` puts together are tried as a
    pair."""
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


def _mirror(back, closing, p: int, keys, reads, alike, first_fixed: bool):
    """The mirror of cover position p's subtree: an ``itemgetter`` taking
    a table key (base's capped fields, then each group's codes in order)
    to the key with its groups in mirrored order, or None.

    The reversal q -> end - q of the later cover positions, end = p +
    depth - 1, must send every group to a group (``keys``, whose reads are
    ``reads``) and move some key. A permutation pi of the prefix takes a
    read position to the one that the image groups read as it is read
    (``alike`` holds each read position alone) and fixes the unread ones;
    it must fix position 0 when ``first_fixed`` (tried first, before the
    rest of pi is built). The one permutation sigma, pi on the prefix and
    the reversal on the later positions, must map onto themselves the
    cover's edge set and the multiset of neighbourhoods of the independent
    vertices closing at or after p. A neighbourhood splits into its prefix
    reads and its later part, so then sigma carries each group's reads onto
    its image's and keeps the edges among the prefix (c o pi has c's base),
    and the subtree's map, read off base's capped fields and the groups'
    colour multisets, is unchanged when each group takes its image's
    multisets: a key and its mirror's share one entry.
    """
    depth = len(back)
    end = p + depth - 1
    index = {key: i for i, key in enumerate(keys)}
    image = []
    for key in keys:
        j = index.get(end - key if type(key) is int else tuple([end - q for q in reversed(key)]))
        if j is None:
            return None
        image.append(j)
    if all(reads[j] == group for j, group in zip(image, reads)):  # no key moves
        return None
    if first_fixed:
        where = next(iter(alike))  # position 0's readers: alike is in position order
        if where and alike.get(tuple(sorted([image[i] for i in where]))) != [0]:
            return None
    sigma = list(range(p)) + [end - q for q in range(p, depth)]
    for where, positions in alike.items():
        if where:
            b = alike.get(tuple(sorted([image[i] for i in where])))
            if b is None:
                return None
            sigma[positions[0]] = b[0]
    edges = {(b, q) for q in range(depth) for b in back[q]}
    if {tuple(sorted((sigma[b], sigma[q]))) for b, q in edges} != edges:
        return None
    later = [nbrs for q in range(p, depth) for nbrs in closing[q]]
    if sorted(later) != sorted(tuple(sorted([sigma[a] for a in nbrs])) for nbrs in later):
        return None
    start = [1]  # a group's first slot in the key, after base's
    for group in reads:
        start.append(start[-1] + len(group))
    slots = [k for j, group in zip(image, reads) for k in range(start[j], start[j] + len(group))]
    return itemgetter(0, *slots)
