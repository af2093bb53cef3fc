"""Reference computations that share no code with the graphnorms engine.

Everything here is exact and stdlib-only: kernels are lists of rows of
numbers (ints, Fractions or "p/q" strings), graphs are a vertex count and an
edge list. Nothing imports graphnorms, so an engine fault cannot cancel out
against the same fault in its check.

The homomorphism sums use one identity in place of the engine's depth-first
enumeration: pick an independent set B of H; given the colours of the other
vertices, the vertices of B are independent of each other, so

    sum over phi of prod_{uv} M[phi u][phi v]
      = sum over phi|A of (prod of edges inside A)
                          * prod_{b in B} sum_c prod_{a in N(b)} M[phi a][c].

That enumerates n^|A| maps instead of n^v(H) (one colour class of a bipartite
graph), fast enough to check the largest certificates in every run.
``python3 bench/oracle.py`` cross-checks it against plain enumeration of all
n^v(H) maps.
"""

import random
from fractions import Fraction
from itertools import product
from math import lcm


def as_fraction(x) -> Fraction:
    if isinstance(x, str) and "/" in x:
        p, q = x.split("/")
        return Fraction(int(p), int(q))
    return Fraction(x)


def rows_of(entries) -> list[list[Fraction]]:
    return [[as_fraction(x) for x in row] for row in entries]


def _mul(p, q, deg):
    """Product of two coefficient lists, truncated after s^deg."""
    out = [0] * (deg + 1)
    for i, a in enumerate(p):
        if a:
            for j in range(deg + 1 - i):
                out[i + j] += a * q[j]
    return out


def _independent_set(nv, edges):
    adj = [set() for _ in range(nv)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    chosen = []
    for v in range(nv):
        if not adj[v] & set(chosen):
            chosen.append(v)
    return chosen, adj


def hom_series(nv, edges, base, step=None, deg=0) -> list[Fraction]:
    """Coefficients of s^0..s^deg in sum_phi prod_{uv in E} (base + s*step)[phi u][phi v].

    ``base`` and ``step`` are square lists of rows (``step`` None means 0).
    Entries are scaled to one integer denominator so the sum runs on ints.
    """
    n = len(base)
    base = rows_of(base)
    step = rows_of(step) if step is not None else [[Fraction(0)] * n for _ in range(n)]
    den = lcm(*(x.denominator for row in base + step for x in row))
    cell = [
        [([int(base[i][j] * den), int(step[i][j] * den)] + [0] * deg)[: deg + 1] for j in range(n)]
        for i in range(n)
    ]
    one = [1] + [0] * deg
    indep, adj = _independent_set(nv, edges)
    others = [v for v in range(nv) if v not in indep]
    pos = {v: k for k, v in enumerate(others)}
    inner = [(pos[u], pos[v]) for u, v in edges if u in pos and v in pos]
    nbrs = [[pos[a] for a in sorted(adj[b])] for b in indep]
    total = [0] * (deg + 1)
    for colours in product(range(n), repeat=len(others)):
        acc = one
        for a, b in inner:
            acc = _mul(acc, cell[colours[a]][colours[b]], deg)
        for nb in nbrs:
            if not any(acc):
                break
            side = [0] * (deg + 1)
            for c in range(n):
                term = one
                for a in nb:
                    term = _mul(term, cell[colours[a]][c], deg)
                side = [x + y for x, y in zip(side, term)]
            acc = _mul(acc, side, deg)
        total = [x + y for x, y in zip(total, acc)]
    scale = Fraction(1, den ** len(edges))
    return [x * scale for x in total]


def hom_count(nv, edges, kernel) -> Fraction:
    return hom_series(nv, edges, kernel)[0]


def density(nv, edges, kernel) -> Fraction:
    return hom_count(nv, edges, kernel) / Fraction(len(kernel)) ** nv


def pair_matrix(n, pairs, values) -> list[list[Fraction]]:
    """Symmetric n x n matrix holding values[t] at pairs[t] = (i, j) and (j, i)."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), x in zip(pairs, values):
        m[i][j] = m[j][i] = as_fraction(x)
    return m


def second_derivative(nv, edges, base, pairs, direction) -> Fraction:
    """v^T H v for the Hessian H of the count polynomial in the upper-triangle
    cells: twice the s^2 coefficient of the count at base + s*D."""
    step = pair_matrix(len(base), pairs, direction)
    return 2 * hom_series(nv, edges, base, step, deg=2)[2]


def hessian_entry(nv, edges, base, p, q) -> Fraction:
    """d^2 / dx_p dx_q of the count polynomial at ``base``."""
    hpp = second_derivative(nv, edges, base, [p], [1])
    if p == q:
        return hpp
    hqq = second_derivative(nv, edges, base, [q], [1])
    both = second_derivative(nv, edges, base, [p, q], [1, 1])
    return (both - hpp - hqq) / 2


def template_coefficients(nv, edges, base, x_cell, y_cell) -> tuple[Fraction, Fraction]:
    """(x^2, xy) coefficients of the count polynomial when the cells x_cell and
    y_cell of ``base`` hold the symbols x and y and every other cell is fixed."""
    x2 = hom_series(nv, edges, base, pair_matrix(len(base), [x_cell], [1]), 2)[2]
    y2 = hom_series(nv, edges, base, pair_matrix(len(base), [y_cell], [1]), 2)[2]
    both = hom_series(
        nv, edges, base, pair_matrix(len(base), [x_cell, y_cell], [1, 1]), 2
    )[2]
    return x2, both - x2 - y2


def cut_norm(kernel) -> Fraction:
    """max over all row sets S and column sets T of |sum_{S x T}| / n^2."""
    rows = rows_of(kernel)
    n = len(rows)
    best = Fraction(0)
    for s in product((0, 1), repeat=n):
        for t in product((0, 1), repeat=n):
            acc = sum(rows[i][j] for i in range(n) if s[i] for j in range(n) if t[j])
            best = max(best, abs(acc))
    return best / n**2


def quadratic_form(matrix, v) -> Fraction:
    rows = rows_of(matrix)
    v = [as_fraction(x) for x in v]
    return sum(v[i] * rows[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


def cycle_blowup_edges(k) -> list[tuple[int, int]]:
    """The blow-up of C_k: vertex v becomes the edge (v, k+v), and each cycle
    edge uv becomes the two edges (u, k+v) and (v, k+u)."""
    edges = {(v, k + v) for v in range(k)}
    for u in range(k):
        v = (u + 1) % k
        edges |= {(u, k + v), (v, k + u)}
    return sorted(edges)


def kpm_edges(m) -> list[tuple[int, int]]:
    """K_{m,m} minus the perfect matching {(i, m+i)}."""
    return sorted((i, m + j) for i in range(m) for j in range(m) if i != j)


def degrees(nv, edges) -> list[int]:
    deg = [0] * nv
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _naive_series(nv, edges, base, step, deg):
    base, step = rows_of(base), rows_of(step)
    total = [Fraction(0)] * (deg + 1)
    for phi in product(range(len(base)), repeat=nv):
        acc = [Fraction(1)] + [Fraction(0)] * deg
        for u, v in edges:
            cell = [base[phi[u]][phi[v]], step[phi[u]][phi[v]]] + [0] * deg
            acc = _mul(acc, cell[: deg + 1], deg)
        total = [x + y for x, y in zip(total, acc)]
    return total


def _self_check(cases: int = 40) -> None:
    rng = random.Random(0)
    for case in range(cases):
        nv = rng.randint(1, 7)
        n = rng.randint(1, 3)
        edges = [(u, v) for u in range(nv) for v in range(u + 1, nv) if rng.random() < 0.5]
        rand = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        base = [[None] * n for _ in range(n)]
        step = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                base[i][j] = base[j][i] = rand()
                step[i][j] = step[j][i] = rand()
        got = hom_series(nv, edges, base, step, 2)
        want = _naive_series(nv, edges, base, step, 2)
        if got != want:
            raise SystemExit(f"oracle mismatch on case {case}: {got} != {want}")
    print(f"oracle agrees with plain enumeration on {cases} random cases")


if __name__ == "__main__":
    _self_check()
