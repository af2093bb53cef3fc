"""Simple graphs, the blow-up constructions, and structural predicates.

Vertices are dense 0-based integers. Named families fix a documented
labeling so that certificates are reproducible:

* ``cycle_graph(k)``: vertices 0..k-1 around the cycle.
* ``complete_bipartite(m, n)``: classes 0..m-1 and m..m+n-1.
* ``kpm_graph(m)`` (K_{m,m} minus a perfect matching): a_i = i, b_i = m+i,
  the removed matching is {(i, m+i)}.
* ``hypercube_graph(d)``: vertices are d-bit integers, edges flip one bit.
* ``bowtie_blowup(H)``: vertex v of H becomes the edge (v, v(H)+v); the
  two copies are the bipartition classes.

The two structure reports, ``structural_report`` and
``verify_bowtie_structure``, return the JSON the CLI prints.
"""

from .errors import (
    ENUMERATION_GUARD, SWEEP_GUARD, Record, SizeGuardError, UsageError, load_json,
)


class Graph(Record):
    """Simple undirected graph: vertex count plus canonically sorted edge list."""

    __slots__ = ("n", "edges")  # int; tuple of (int, int) pairs

    def __init__(self, n, edges):
        if n < 1:
            raise UsageError("graph needs at least one vertex")
        seen = set()
        for (u, v) in edges:
            if not (type(u) is int and type(v) is int):  # JSON true/false too
                raise UsageError(f"edge ({u},{v}) has a non-integer endpoint")
            if u == v:
                raise UsageError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise UsageError(f"edge ({u},{v}) out of range for n={n}")
            if u > v:
                raise UsageError(f"edge ({u},{v}) not in canonical (min,max) order")
            if (u, v) in seen:
                raise UsageError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        if list(edges) != sorted(edges):
            raise UsageError("edge list not sorted")
        self._fill(n, edges)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a Graph from any iterable of pairs, normalizing order."""
        canon = sorted({(min(u, v), max(u, v)) for (u, v) in edges})
        return cls(n, tuple(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sparse_adjacency(self) -> dict[int, list[int]]:
        """Neighbours of every non-isolated vertex, ascending, read off the
        edge list alone so the cost does not grow with n; keys in order of
        first appearance in the sorted edge list."""
        adj: dict[int, list[int]] = {}
        for (u, v) in self.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        try:
            n = data["n"]
            if type(n) is not int:
                raise UsageError(f"malformed graph n: {n!r}")
            return cls.from_edges(n, data["edges"])
        except UsageError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed graph JSON: {exc}") from exc


def _check_size(vertices: int, edges: int) -> None:
    """Refuse, before building it, a graph of more than ENUMERATION_GUARD
    vertices plus edges; the rule ``block_pm_ones`` applies to a matrix."""
    if vertices + edges > ENUMERATION_GUARD:
        # past 10^18 the counts say no more (and str() refuses 4300 digits)
        if vertices + edges < 10**18:
            sizes = f"{vertices} vertices + {edges} edges"
        else:
            sizes = "over 10^18 vertices + edges"
        raise SizeGuardError(f"construct guard: {sizes} > {ENUMERATION_GUARD}")


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise UsageError("cycle needs k >= 3")
    _check_size(k, k)
    return Graph.from_edges(k, ((i, (i + 1) % k) for i in range(k)))


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise UsageError("complete bipartite needs m, n >= 1")
    _check_size(m + n, m * n)
    return Graph.from_edges(m + n, ((i, m + j) for i in range(m) for j in range(n)))


def kpm_graph(m: int) -> Graph:
    """K_{m,m} minus the perfect matching {(i, m+i)}."""
    if m < 2:
        raise UsageError("kpm needs m >= 2")
    _check_size(2 * m, m * (m - 1))
    return Graph.from_edges(
        2 * m, ((i, m + j) for i in range(m) for j in range(m) if i != j)
    )


def hypercube_graph(d: int) -> Graph:
    if d < 1:
        raise UsageError("hypercube needs d >= 1")
    # past d = 64 the counts are over 10^18 either way: never shift by it
    priced = min(d, 64)
    _check_size(1 << priced, priced << (priced - 1))
    edges = []
    for v in range(1 << d):
        for b in range(d):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    return Graph.from_edges(1 << d, edges)


def bowtie_blowup(h: Graph) -> Graph:
    """Blow up every vertex into an edge, joining blown-up pairs crosswise.

    Vertex v becomes v_1 = v and v_2 = v(H)+v; edges are (v_1, v_2) for every
    vertex and (u_1, v_2), (u_2, v_1) for every edge uv. The result is
    bipartite with classes {v_1} and {v_2}, and its bipartite adjacency
    matrix is the adjacency matrix of H plus the identity, so
    e = v(H) + 2 e(H).
    """
    n = h.n
    _check_size(2 * n, n + 2 * h.edge_count)
    edges = [(v, n + v) for v in range(n)]
    for (u, v) in h.edges:
        edges.append((u, n + v))
        edges.append((v, n + u))
    return Graph.from_edges(2 * n, edges)


def cartesian_k2(h: Graph) -> Graph:
    """Cartesian product with a single edge: two copies of H plus a matching."""
    n = h.n
    _check_size(2 * n, n + 2 * h.edge_count)
    edges = [(v, n + v) for v in range(n)]
    for (u, v) in h.edges:
        edges.append((u, v))
        edges.append((n + u, n + v))
    return Graph.from_edges(2 * n, edges)


def _two_colouring(g: Graph) -> dict[int, int] | None:
    """Colour 0/1 of every non-isolated vertex, the smallest vertex of each
    component coloured 0, or None when some edge joins two equal colours.

    Built from the edge list alone, so the cost does not grow with g.n.
    """
    adj = g.sparse_adjacency()
    color: dict[int, int] = {}
    # sorted edges insert each component's smallest vertex first
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adj[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return color


def is_bipartite(g: Graph) -> bool:
    """Two-colourability; isolated vertices change nothing, so this reads
    the edge list alone."""
    return _two_colouring(g) is not None


def is_eulerian(g: Graph) -> bool:
    """Every degree even; read off the edge list alone."""
    odd: set[int] = set()
    for edge in g.edges:
        odd.symmetric_difference_update(edge)
    return not odd


def structural_report(g: Graph) -> dict:
    """Bipartiteness, eulerian-ness (all degrees even), regularity, degrees,
    as the JSON the CLI prints. ``classes`` is the two colour classes,
    isolated vertices in the first, or None when g is not bipartite;
    ``regular`` is the common degree, or None when degrees differ."""
    deg = g.degrees()
    color = _two_colouring(g)
    classes = None
    if color is not None:
        classes = [
            [v for v in range(g.n) if color.get(v, 0) == 0],
            sorted(v for v, c in color.items() if c == 1),
        ]
    return {
        "vertices": g.n,
        "edges": g.edge_count,
        "degree_sequence": sorted(deg),
        "bipartite": color is not None,
        "classes": classes,
        "eulerian": is_eulerian(g),
        "regular": deg[0] if len(set(deg)) == 1 else None,
    }


def verify_bowtie_structure(g: Graph) -> dict:
    """Check by exhaustive enumeration (v <= 16) the two structural
    conditions the blow-up proofs use, as the JSON the CLI prints.

    Condition (i): some edge lies in exactly one 4-cycle, i.e. its exterior
    neighbourhood induces exactly one edge; ``edge_in_unique_4cycle`` is the
    first such edge or None. Condition (ii): every vertex subset spanning
    exactly two edges has an edge inside its exterior neighbourhood;
    ``two_edge_sets_ok`` says whether it holds and ``counterexample`` is the
    first set that breaks it, sorted, or None.

    Vertex sets are bitmasks with vertex v at bit n - 1 - v, so among sets
    of one size a larger mask comes earlier in ``combinations`` order, the
    order the counterexample is reported in. Two tables over all 2^n sets,
    each entry read off the set without its first vertex, hold the edges a
    set spans and the union of its members' neighbourhoods.
    """
    if g.n > SWEEP_GUARD:
        raise SizeGuardError(f"structure guard: {g.n} vertices > {SWEEP_GUARD}")
    n = g.n
    bit = [1 << (n - 1 - v) for v in range(n)]
    nbr = [0] * n
    for (u, v) in g.edges:
        nbr[u] |= bit[v]
        nbr[v] |= bit[u]
    spanned = [0] * (1 << n)
    reach = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = n - mask.bit_length()
        rest = mask ^ bit[v]
        spanned[mask] = spanned[rest] + (nbr[v] & rest).bit_count()
        reach[mask] = reach[rest] | nbr[v]

    witness_edge = None
    for (u, v) in g.edges:
        pair = bit[u] | bit[v]
        if spanned[reach[pair] & ~pair] == 1:
            witness_edge = [u, v]
            break

    # sets spanning exactly two edges whose exterior spans none; sweeping
    # masks downwards, the first such set of the smallest size comes first
    first = None
    for mask in range((1 << n) - 1, 0, -1):
        if spanned[mask] == 2 and not spanned[reach[mask] & ~mask]:
            if first is None or mask.bit_count() < first.bit_count():
                first = mask
    counterexample = None if first is None else [v for v in range(n) if first & bit[v]]
    return {
        "edge_in_unique_4cycle": witness_edge,
        "two_edge_sets_ok": first is None,
        "counterexample": counterexample,
    }


def load_graph_text(text: str) -> Graph:
    """Parse a graph from JSON or a plain "u v" edge list (n = max index + 1).
    An endpoint is ASCII digits alone, with no sign: ``int`` would also take
    underscores, "+" and other scripts' digits."""
    text = text.strip()
    if not text:
        raise UsageError("empty graph input")
    if text.startswith("{"):
        return Graph.from_json(load_json(text, "graph"))
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise UsageError(f"bad edge line {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise UsageError(f"bad edge line {line!r}: {exc}") from exc
    if not edges:
        raise UsageError("edge list is empty")
    n = max(max(e) for e in edges) + 1
    return Graph.from_edges(n, edges)
