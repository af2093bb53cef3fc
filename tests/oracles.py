"""Independent oracles for the test suite.

The brute-force helpers enumerate assignments or subsets directly with
itertools and exact Fractions, independent of the library's engine;
``brute_hessian`` is the independent Hessian oracle. ``brute_profile_map``
reads the engine's cell encoding (an int weight, or a (field, const,
slope) triple per cell, caps per field) and multiplies out each map's
cells; ``brute_count_polynomial`` does the same for a template's cells
(constants, symbols and affine cells a + v s) and caps a symbol's total
degree over all of its cells, the rule the library's one field per symbol
follows. The other two Hessian cross-checks route through the library (a
symbolic profile in every cell differentiated formally, or finite
differences of plain counts), so they share its count-polynomial builder
with ``hessian_matrix``.
``formal_hessian`` differentiates a polynomial's terms twice and sums them
at a point, the reference for ``SparsePoly.hessian``; ``path_graph``,
``sparse_poly``, ``relabel`` and ``permuted`` build the inputs the tests
need, and ``rational_terms`` reads a polynomial's integer numerators as
rationals. ``maps_onto`` checks an isomorphism given as an explicit vertex
map, such as ``blowup_to_cartesian``'s.
``fraction_psd_certify`` is the PSD decision by elimination over
``Fraction``s that ``psd_certify`` replaced with integer elimination.
``brute_screen_failures`` reads the three structural screens off the edge
list by brute force, and ``brute_structure`` reads ``structural_report``'s
JSON off ``brute_degrees`` and ``brute_colouring``, which count degrees and
two-colour by sweeps over the edge list.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm
from operator import add

from graphnorms import Graph, SparsePoly, SymRationalMatrix


def brute_hom_count(g: Graph, rows) -> Fraction:
    """Sum over all vertex maps of the product of edge weights, naively."""
    n = len(rows)
    total = Fraction(0)
    for phi in product(range(n), repeat=g.n):
        w = Fraction(1)
        for (u, v) in g.edges:
            w *= Fraction(rows[phi[u]][phi[v]])
            if w == 0:
                break
        total += w
    return total


def brute_profile_map(g: Graph, n: int, cells, caps) -> dict:
    """{profile: summed weight of the maps} over all n^v(H) vertex maps, naively.

    ``cells`` lists what an edge brings on each unordered pair {i, j} of
    [n], row by row through the upper triangle: an int weight, or a triple
    (field, const, slope) for the cell const + slope * s_field. Each map
    counts the edges on every cell and multiplies out (const + slope *
    s_field)^m for a cell holding m of them by the binomial theorem; a
    profile is the exponent vector over the fields 0, 1, ... up to the
    highest named. Terms whose exponent of a field passes ``caps[field]``
    are left out (a cap below 0 leaves out every term), and profiles whose
    weights sum to 0 are dropped.
    """
    number = {}
    for idx, (i, j) in enumerate((i, j) for i in range(n) for j in range(i, n)):
        number[(i, j)] = number[(j, i)] = idx
    fields = max((c[0] + 1 for c in cells if isinstance(c, tuple)), default=0)
    bound = [caps.get(f, g.edge_count) for f in range(fields)]
    powers = {}  # (cell, m) -> [(field, k, coefficient of s_field^k)]

    def power(idx, m):
        """(const + slope * s_f)^m for cell idx, by the binomial theorem."""
        c = cells[idx]
        f, const, slope = c if isinstance(c, tuple) else (0, c, 0)
        terms = [(f, k, comb(m, k) * const ** (m - k) * slope**k) for k in range(m + 1)]
        return [t for t in terms if t[2]]

    out = {}
    for phi in product(range(n), repeat=g.n):
        mult = [0] * len(cells)
        for (u, v) in g.edges:
            mult[number[(phi[u], phi[v])]] += 1
        poly = {(0,) * fields: 1}
        for idx, m in enumerate(mult):
            if m and poly:
                if (idx, m) not in powers:
                    powers[idx, m] = power(idx, m)
                step = {}
                for mono, w in poly.items():
                    for f, k, term in powers[idx, m]:
                        up = mono[:f] + (mono[f] + k,) + mono[f + 1:] if k else mono
                        step[up] = step.get(up, 0) + w * term
                poly = step
        for mono, w in poly.items():
            if all(e <= b for e, b in zip(mono, bound)):
                out[mono] = out.get(mono, 0) + w
    return {profile: w for profile, w in out.items() if w}


def brute_count_polynomial(g: Graph, cells, caps=None) -> dict:
    """{exponent vector: coefficient} of the count polynomial, naively.

    ``cells`` lists a template's cells for the unordered pairs {i, j} of [n]
    row by row through the upper triangle: numbers, symbol names, or
    (a, v, name) triples for the affine cell a + v * name. Exponent vectors
    follow the sorted symbol names. Every vertex map multiplies out the
    cells its edges land on, one edge at a time, and its terms with a
    higher exponent of a symbol in ``caps`` than that symbol's cap, its
    total degree over all of its cells, are left out. Zero coefficients are
    dropped.
    """
    n = 0
    while n * (n + 1) // 2 < len(cells):
        n += 1
    number = {}
    for idx, (i, j) in enumerate((i, j) for i in range(n) for j in range(i, n)):
        number[(i, j)] = number[(j, i)] = idx
    names = {c if isinstance(c, str) else c[2] for c in cells if isinstance(c, (str, tuple))}
    symbols = sorted(names)
    unit = [tuple(int(s == t) for t in symbols) for s in symbols]
    bound = tuple(dict(caps or {}).get(s, g.edge_count) for s in symbols)
    out = {}
    for phi in product(range(n), repeat=g.n):
        poly = {(0,) * len(symbols): Fraction(1)}
        for (u, v) in g.edges:
            c = cells[number[(phi[u], phi[v])]]
            if isinstance(c, str):
                c = (0, 1, c)
            elif not isinstance(c, tuple):
                c = (c, 0, None)
            a, slope, name = Fraction(c[0]), Fraction(c[1]), c[2]
            step = {}
            for mono, w in poly.items():
                step[mono] = step.get(mono, 0) + w * a
                if slope:
                    up = tuple(map(add, mono, unit[symbols.index(name)]))
                    step[up] = step.get(up, 0) + w * slope
            poly = step
        for mono, w in poly.items():
            if all(m <= b for m, b in zip(mono, bound)):
                out[mono] = out.get(mono, 0) + w
    return {mono: c for mono, c in out.items() if c}


def brute_bowtie_structure(g: Graph) -> dict:
    """The two conditions of ``verify_bowtie_structure`` as its JSON report,
    by scanning the edge list for every vertex set.

    (i) the first edge, in edge-list order, whose exterior neighbourhood
    spans exactly one edge; (ii) whether every vertex set spanning exactly
    two edges has an edge inside its exterior neighbourhood, and the first
    set that has none, sets visited by size and then in ``combinations``
    order.
    """
    def spanned(vertices):
        return sum(1 for (u, v) in g.edges if u in vertices and v in vertices)

    def exterior(vertices):
        out = {w for (u, v) in g.edges if u in vertices or v in vertices for w in (u, v)}
        return out - vertices

    edge = next((e for e in g.edges if spanned(exterior(set(e))) == 1), None)
    counterexample = None
    for size in range(2, g.n + 1):
        for subset in combinations(range(g.n), size):
            if spanned(set(subset)) == 2 and not spanned(exterior(set(subset))):
                counterexample = sorted(subset)
                break
        if counterexample is not None:
            break
    return {
        "edge_in_unique_4cycle": None if edge is None else list(edge),
        "two_edge_sets_ok": counterexample is None,
        "counterexample": counterexample,
    }


def brute_template_coefficients(g: Graph, rows, max_degree: int = 2) -> dict:
    """Low-degree coefficients of the count polynomial into a symbolic template.

    ``rows`` is a symmetric square whose cells are numbers or symbol names.
    Every vertex map is enumerated directly; a map contributes the product of
    its numeric cells to the monomial formed by its symbolic cells. Returns
    ``{monomial: coefficient}`` for the monomials of total degree at most
    ``max_degree`` that some map reaches, a monomial being the sorted tuple of
    its symbols with repetition (``("x", "y")`` for ``xy``, ``()`` for the
    constant term).
    """
    n = len(rows)
    coeffs = {}
    for phi in product(range(n), repeat=g.n):
        w = Fraction(1)
        symbols = []
        for (u, v) in g.edges:
            cell = rows[phi[u]][phi[v]]
            if isinstance(cell, str):
                symbols.append(cell)
                if len(symbols) > max_degree:
                    break
            else:
                w *= Fraction(cell)
                if w == 0:
                    break
        else:
            mono = tuple(sorted(symbols))
            coeffs[mono] = coeffs.get(mono, Fraction(0)) + w
    return coeffs


def brute_hessian(g: Graph, rows, pairs) -> list[list[Fraction]]:
    """Second derivatives of the count polynomial at ``rows`` over ``pairs``.

    Every vertex map is enumerated directly and its edge multiplicities m
    per unordered cell counted; the map adds m_p (m_q - [p = q]) times the
    product of rows[cell]^(m - e_p - e_q) to entry (p, q), with 0^0 = 1.
    """
    n = len(rows)
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    number = {}
    for idx, (i, j) in enumerate(cells):
        number[(i, j)] = number[(j, i)] = idx
    sel = [number[(i, j)] for (i, j) in pairs]
    weights = [Fraction(rows[i][j]) for (i, j) in cells]
    out = [[Fraction(0)] * len(sel) for _ in sel]
    for phi in product(range(n), repeat=g.n):
        mult = [0] * len(cells)
        for (u, v) in g.edges:
            mult[number[(phi[u], phi[v])]] += 1
        for r, p in enumerate(sel):
            for s, q in enumerate(sel):
                factor = mult[p] * (mult[q] - (p == q))
                if factor == 0:
                    continue
                w = Fraction(factor)
                for c in range(len(cells)):
                    left = mult[c] - (c == p) - (c == q)
                    if left:
                        w *= weights[c] ** left
                out[r][s] += w
    return out


def brute_cut_norm(rows) -> Fraction:
    """max over all subset pairs S, T of |sum_{S x T}| / n^2."""
    n = len(rows)
    best = Fraction(0)
    subsets = list(product((0, 1), repeat=n))
    for s in subsets:
        for t in subsets:
            acc = Fraction(0)
            for i in range(n):
                if not s[i]:
                    continue
                for j in range(n):
                    if t[j]:
                        acc += Fraction(rows[i][j])
            best = max(best, abs(acc))
    return best / n**2


def trace_power(rows, k: int) -> Fraction:
    """tr(A^k) by repeated exact multiplication."""
    n = len(rows)
    rows = [[Fraction(x) for x in row] for row in rows]
    acc = rows
    for _ in range(k - 1):
        acc = [
            [sum(acc[i][l] * rows[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return sum(acc[i][i] for i in range(n))


def random_graph(seed: int, n: int, edge_prob: float = 0.5) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    return Graph.from_edges(n, edges)


def path_graph(k: int) -> Graph:
    """The path 0 - 1 - ... - (k-1)."""
    return Graph.from_edges(k, ((i, i + 1) for i in range(k - 1)))


def random_rational_rows(seed: int, n: int, lo: int = -1, hi: int = 1, den: int = 6):
    """Symmetric square of rationals in [lo, hi] with denominators <= den."""
    rng = random.Random(seed)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            q = rng.randint(1, den)
            p = rng.randint(lo * q, hi * q)
            rows[i][j] = rows[j][i] = Fraction(p, q)
    return rows


def random_sym_matrix(seed: int, n: int, lo: int = -1, hi: int = 1, den: int = 6):
    return SymRationalMatrix.from_rows(random_rational_rows(seed, n, lo, hi, den))


def brute_degrees(g: Graph) -> list[int]:
    """The degree of every vertex: the edges of the edge list that hold it."""
    return [sum(v in edge for edge in g.edges) for v in range(g.n)]


def brute_colouring(g: Graph) -> list[int] | None:
    """Colour 0/1 of every vertex, the parity of its distance from the
    smallest vertex of its component (so isolated vertices are 0), or None
    when some edge joins two equal colours. Each component grows by sweeps
    over the whole edge list until a sweep colours nothing new."""
    colour = [None] * g.n
    for root in range(g.n):
        if colour[root] is not None:
            continue
        colour[root] = 0
        grown = True
        while grown:
            grown = False
            for (u, v) in g.edges:
                for (a, b) in ((u, v), (v, u)):
                    if colour[a] is not None and colour[b] is None:
                        colour[b] = 1 - colour[a]
                        grown = True
    if any(colour[u] == colour[v] for (u, v) in g.edges):
        return None
    return colour


def eulerian(g: Graph) -> bool:
    return all(d % 2 == 0 for d in brute_degrees(g))


def brute_structure(g: Graph) -> dict:
    """``structural_report``'s JSON, read off ``brute_degrees`` and
    ``brute_colouring``: the colour classes in ascending order, and the
    common degree when there is one."""
    deg = brute_degrees(g)
    colour = brute_colouring(g)
    classes = None
    if colour is not None:
        classes = [[v for v in range(g.n) if colour[v] == c] for c in (0, 1)]
    return {
        "vertices": g.n,
        "edges": len(g.edges),
        "degree_sequence": sorted(deg),
        "bipartite": colour is not None,
        "classes": classes,
        "eulerian": all(d % 2 == 0 for d in deg),
        "regular": deg[0] if min(deg) == max(deg) else None,
    }


def brute_screen_failures(g: Graph) -> dict:
    """{screening reason: whether ``g`` fails that screen}, read plainly: no
    2-colouring among all 2^v(H) vertex colourings, a vertex of odd degree
    counted off the edge list, an odd number of edges."""
    two_colourable = any(
        all(side[u] != side[v] for (u, v) in g.edges) for side in product((0, 1), repeat=g.n)
    )
    degree = [0] * g.n
    for (u, v) in g.edges:
        degree[u] += 1
        degree[v] += 1
    return {
        "non-bipartite": not two_colourable,
        "non-eulerian": any(d % 2 for d in degree),
        "odd edge count": len(g.edges) % 2 == 1,
    }


def sparse_poly(symbols, items) -> SparsePoly:
    """The polynomial summing (exponents, coefficient) pairs over the sorted
    ``symbols``, zero sums dropped, as integers over the lcm of the sums'
    denominators."""
    acc = {}
    for exp, c in items:
        exp = tuple(exp)
        acc[exp] = acc.get(exp, 0) + Fraction(c)
    acc = {e: c for e, c in acc.items() if c}
    den = lcm(*(c.denominator for c in acc.values()))
    return SparsePoly(tuple(symbols), {e: int(c * den) for e, c in acc.items()}, den)


def rational_terms(poly: SparsePoly) -> dict:
    """{exponents: coefficient} of ``poly``, each numerator over its ``den``."""
    return {e: Fraction(c, poly.den) for e, c in poly.terms.items()}


def formal_derivative(symbols, terms: dict, symbol) -> dict:
    """d/d``symbol`` of {exponents: coefficient}, term by term."""
    axis = list(symbols).index(symbol)
    out = {}
    for exp, c in terms.items():
        e = exp[axis]
        if e:
            lower = exp[:axis] + (e - 1,) + exp[axis + 1 :]
            out[lower] = out.get(lower, 0) + c * e
    return {e: c for e, c in out.items() if c}


def evaluate_terms(symbols, terms: dict, point) -> Fraction:
    """The sum of {exponents: coefficient} at ``point``, with 0^0 = 1."""
    total = Fraction(0)
    for exp, c in terms.items():
        value = Fraction(c)
        for s, e in zip(symbols, exp):
            value *= Fraction(point[s]) ** e
        total += value
    return total


def formal_hessian(poly: SparsePoly, chosen, point) -> list[list[Fraction]]:
    """Second derivatives of ``poly`` in ``chosen`` at ``point``: its terms
    differentiated twice, one symbol at a time, then summed at the point."""
    rows = []
    for a in chosen:
        first = formal_derivative(poly.symbols, rational_terms(poly), a)
        rows.append([
            evaluate_terms(poly.symbols, formal_derivative(poly.symbols, first, b), point)
            for b in chosen
        ])
    return rows


def relabel(g: Graph, perm) -> Graph:
    """H with vertex i renamed perm[i]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for (u, v) in g.edges])


def maps_onto(g: Graph, perm, h: Graph) -> bool:
    """Whether i -> perm[i] is a bijection of g's vertices carrying g onto h
    (``relabel`` alone does not check that the map is a bijection)."""
    return sorted(perm) == list(range(g.n)) and relabel(g, perm) == h


def blowup_to_cartesian(h: Graph) -> list[int]:
    """For a bipartite H with classes L and R, the map carrying
    ``bowtie_blowup(H)`` onto ``cartesian_k2(H)``: it fixes v and v(H)+v for
    v in L and swaps them for v in R, so an edge uv with u in L takes the
    blow-up's (u, v(H)+v) to (u, v) and (v, v(H)+u) to (v(H)+v, v(H)+u)."""
    n = h.n
    perm = list(range(2 * n))
    colour = brute_colouring(h)
    for v in range(n):
        if colour[v] == 1:
            perm[v], perm[n + v] = n + v, v
    return perm


def permuted(a: SymRationalMatrix, perm) -> SymRationalMatrix:
    """A with rows and columns moved by i -> perm[i]."""
    rows = [[None] * a.n for _ in range(a.n)]
    for i in range(a.n):
        for j in range(a.n):
            rows[perm[i]][perm[j]] = a.at(i, j)
    return SymRationalMatrix.from_rows(rows)


def symbolic_hessian_entry(g: Graph, a: SymRationalMatrix, p, q) -> Fraction:
    """Materialize the count polynomial in all cell symbols and differentiate
    twice; an independent route to a single Hessian entry."""
    from graphnorms import SymbolicTemplate, symbolic_profile
    from graphnorms.matrices import pair_list

    n = a.n
    names = {(i, j): f"c{i}{j}" for (i, j) in pair_list(n)}
    rows = [[names[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)]
    poly = symbolic_profile(g, SymbolicTemplate.from_rows(rows))
    point = {names[(i, j)]: a.at(i, j) for (i, j) in pair_list(n)}
    first = formal_derivative(poly.symbols, rational_terms(poly), names[p])
    return evaluate_terms(poly.symbols, formal_derivative(poly.symbols, first, names[q]), point)


def fd_hessian_entry(g: Graph, a: SymRationalMatrix, p, q, h=Fraction(1, 10**4)):
    """Exact central finite differences of the count polynomial at step h."""
    from graphnorms import weighted_hom_count

    def shifted(dp, dq):
        delta = {p: dp * h}
        delta[q] = delta.get(q, 0) + dq * h
        shift = SymRationalMatrix.from_rows(
            [[delta.get((min(i, j), max(i, j)), 0) for j in range(a.n)] for i in range(a.n)]
        )
        return weighted_hom_count(g, a.add(shift))

    if p == q:
        return (shifted(1, 1) - 2 * shifted(0, 0) + shifted(-1, -1)) / (4 * h * h)
    return (shifted(1, 1) - shifted(1, -1) - shifted(-1, 1) + shifted(-1, -1)) / (
        4 * h * h
    )


def fraction_psd_certify(rows):
    """The pivoted symmetric elimination over the rationals, as a reference:
    (verdict, primitive witness or None, its quadratic form or None, and how
    the witness arose: ("diagonal" or "off-diagonal", pivots taken before
    it) or None).

    Pivots on the first positive diagonal entry; the first negative one
    gives a coordinate witness, and once every diagonal entry is zero the
    first nonzero off-diagonal entry (i < j) gives lift_i - sign lift_j.
    """
    n = len(rows)
    a0 = [[Fraction(x) for x in row] for row in rows]
    a = [row[:] for row in a0]
    lift = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    active = list(range(n))

    def finish(direction, kind):
        scale = lcm(*(x.denominator for x in direction))
        ints = [int(x * scale) for x in direction]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        v = tuple(Fraction(x // g) for x in ints)
        value = sum(v[i] * a0[i][j] * v[j] for i in range(n) for j in range(n))
        return "not_psd", v, value, (kind, n - len(active))

    while active:
        neg = next((i for i in active if a[i][i] < 0), None)
        if neg is not None:
            return finish([lift[r][neg] for r in range(n)], "diagonal")
        piv = next((i for i in active if a[i][i] > 0), None)
        if piv is None:
            for i in active:
                for j in active:
                    if i < j and a[i][j] != 0:
                        sign = 1 if a[i][j] > 0 else -1
                        return finish(
                            [lift[r][i] - sign * lift[r][j] for r in range(n)], "off-diagonal"
                        )
            return "psd", None, None, None
        active.remove(piv)
        ap = a[piv][piv]
        row = a[piv][:]
        for j in active:
            f = a[j][piv] / ap
            if f == 0:
                continue
            for k in active:
                a[j][k] -= f * row[k]
            for r in range(n):
                lift[r][j] -= f * lift[r][piv]
    return "psd", None, None, None
