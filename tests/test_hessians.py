import random as _random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnorms import (
    SizeGuardError,
    SymbolicTemplate,
    SymRationalMatrix,
    UsageError,
    allones_hessian,
    annihilates_ones,
    bowtie_blowup,
    certify_kpm,
    cycle_graph,
    hessian_matrix,
    kpm_graph,
    psd_certify,
    quadratic_form,
    symbolic_profile,
)
from graphnorms.hessians import _eliminate
from graphnorms.matrices import block_pm_ones, pair_list
from oracles import (
    brute_hessian,
    brute_template_coefficients,
    fd_hessian_entry,
    fraction_psd_certify,
    path_graph,
    random_graph,
    random_rational_rows,
    random_sym_matrix,
    sparse_poly,
    symbolic_hessian_entry,
)

C4 = cycle_graph(4)


def test_trivial_hessians():
    one = SymRationalMatrix.from_rows([[Fraction(2, 3)]])
    h = hessian_matrix(path_graph(2), one)
    assert h.matrix.rows() == [[0]]
    h = hessian_matrix(C4, one)
    assert h.matrix.rows() == [[12 * Fraction(2, 3) ** 2]]


@given(st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_hessian_matches_symbolic_double_derivative(seed):
    a = random_sym_matrix(seed, 2)
    h = hessian_matrix(C4, a)
    for r, p in enumerate(h.pairs):
        for s, q in enumerate(h.pairs):
            assert h.matrix.at(r, s) == symbolic_hessian_entry(C4, a, p, q)


def test_hessian_matches_symbolic_on_six_vertices():
    g = cycle_graph(6)
    a = random_sym_matrix(31, 2)
    h = hessian_matrix(g, a)
    for r, p in enumerate(h.pairs):
        for s, q in enumerate(h.pairs):
            assert h.matrix.at(r, s) == symbolic_hessian_entry(g, a, p, q)


def test_hessian_matches_finite_differences():
    a = random_sym_matrix(17, 2, lo=0, hi=1)
    h = hessian_matrix(C4, a)
    for r, p in enumerate(h.pairs):
        for s, q in enumerate(h.pairs):
            exact = h.matrix.at(r, s)
            fd = fd_hessian_entry(C4, a, p, q)
            assert abs(float(fd) - float(exact)) <= 1e-6 * max(1.0, abs(float(exact)))


@given(st.integers(0, 200), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_hessian_scaling_law(seed, num, den):
    a = random_sym_matrix(seed, 2)
    lam = Fraction(num, den)
    h1 = hessian_matrix(C4, a)
    h2 = hessian_matrix(C4, a.scale(lam))
    e = C4.edge_count
    assert h2.matrix == h1.matrix.scale(lam ** (e - 2))


def test_hessian_zero_cells_follow_formal_derivative():
    # entries with zeros: 0^0 = 1 keeps second derivatives alive
    a = SymRationalMatrix.from_rows([[0, 1], [1, 0]])
    h = hessian_matrix(C4, a)
    oracle = {
        (p, q): symbolic_hessian_entry(C4, a, p, q)
        for p in h.pairs
        for q in h.pairs
    }
    for r, p in enumerate(h.pairs):
        for s, q in enumerate(h.pairs):
            assert h.matrix.at(r, s) == oracle[(p, q)]


def test_hessian_matches_brute_force():
    # seeded random graphs on at most 6 vertices, signed and nonnegative
    # kernels with forced zero and unit cells, random pair subsets
    seen = set()
    for seed in range(40):
        rng = _random.Random(seed)
        g = random_graph(seed, rng.randint(2, 6), 0.7)
        n = 2 + seed % 2
        rows = random_rational_rows(seed, n, lo=-(seed % 3 != 0), hi=1, den=4)
        for value in (0, 0, 1):
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = rows[j][i] = Fraction(value)
        cells = pair_list(n)
        pairs = rng.sample(cells, rng.randint(1, len(cells)))
        a = SymRationalMatrix.from_rows(rows)
        h = hessian_matrix(g, a, pairs)
        assert h.matrix.rows() == brute_hessian(g, rows, pairs), seed
        for (i, j) in cells:
            if rows[i][j] == 0:
                seen.add("selected zero" if (i, j) in pairs else "unselected zero")
        if any(x < 0 for x in a.tri):
            seen.add("signed")
    assert seen == {"selected zero", "unselected zero", "signed"}


def test_pair_restriction_agrees_with_full():
    a = random_sym_matrix(3, 3)
    g = bowtie_blowup(cycle_graph(3))
    full = hessian_matrix(g, a)
    sub = hessian_matrix(g, a, pairs=[(2, 2), (0, 2)])
    at = [full.pairs.index(p) for p in sub.pairs]
    assert sub.matrix.rows() == [[full.matrix.at(r, s) for s in at] for r in at]
    with pytest.raises(UsageError):
        hessian_matrix(g, a, pairs=[(0, 0), (0, 0)])


def test_dense_hessian_is_held_to_the_work_limit():
    # K_2 colours one vertex, so only the k x k dense read can grow: k^2
    # is held to the engine's limit of 10^4 entries
    k2 = path_graph(2)
    ones = lambda n: SymRationalMatrix.from_rows([[1] * n for _ in range(n)])
    assert len(hessian_matrix(k2, ones(13)).pairs) == 91
    with pytest.raises(SizeGuardError) as err:
        hessian_matrix(k2, ones(14))
    assert str(err.value) == "hessian guard: 105^2 = 11025 entries > 10000"


def test_mobius_boundary_principal_submatrix():
    # at the boundary witness, the Hessian restricted to the opened cells is
    # [[2q, l], [l, 2r]] with q, l, r the x^2 / xy / y^2 profile coefficients;
    # values cross-checked through the symbolic route below
    g = bowtie_blowup(cycle_graph(5))
    boundary = SymRationalMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 0]])
    h = hessian_matrix(g, boundary, pairs=[(2, 2), (0, 2)])
    assert h.matrix.rows() == [[0, 20], [20, 940]]
    t = SymbolicTemplate.from_rows([[1, 1, "y"], [1, 0, 1], ["y", 1, "x"]])
    p = symbolic_profile(g, t)
    assert p.coefficient_of(x=2) == 0
    assert p.coefficient_of(x=1, y=1) == 20
    assert p.coefficient_of(y=2) == 470
    assert p.hessian(("x", "y"), {"x": 0, "y": 0}).rows() == [[0, 20], [20, 940]]
    assert not psd_certify(h.matrix).is_psd


def test_psd_examples():
    ident = SymRationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert psd_certify(ident).is_psd
    res = psd_certify(SymRationalMatrix.from_rows([[0, 1], [1, 0]]))
    assert res.verdict == "not_psd"
    assert res.witness == (1, -1)
    assert res.value == -2
    res = psd_certify(SymRationalMatrix.from_rows([[1, 2], [2, 1]]))
    assert res.verdict == "not_psd"
    assert quadratic_form(SymRationalMatrix.from_rows([[1, 2], [2, 1]]), res.witness) == res.value < 0


def test_psd_zero_diagonal_cases():
    assert psd_certify(SymRationalMatrix.from_rows([[0, 0], [0, 0]])).is_psd
    res = psd_certify(SymRationalMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]]))
    assert res.is_psd
    res = psd_certify(
        SymRationalMatrix.from_rows([[1, 0, 0], [0, 0, -1], [0, -1, 0]])
    )
    assert not res.is_psd
    assert res.value < 0


@given(st.integers(0, 400), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_gram_matrices_are_psd(seed, n):
    import random as _random

    rng = _random.Random(seed)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    gram = [
        [sum(rows[k][i] * rows[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert psd_certify(SymRationalMatrix.from_rows(gram)).is_psd


@given(st.integers(0, 400), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_not_psd_witnesses_recheck(seed, n):
    m = random_sym_matrix(seed, n)
    res = psd_certify(m)
    if not res.is_psd:
        assert quadratic_form(m, res.witness) == res.value
        assert res.value < 0


def _reference_cases(seed):
    """Symmetric rationals of the shapes the elimination branches on."""
    rng = _random.Random(seed)
    n = rng.randint(1, 6)
    shape = seed % 6

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 8))

    if shape == 5:  # two positive pivots, then a zero-diagonal remainder
        n = max(n, 4)
        # L D L^T: L unit lower triangular below the first two columns, D
        # two positive pivots beside a zero-diagonal block S, S != 0
        low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(1, n):
            for j in range(min(i, 2)):
                low[i][j] = entry()
        d = [[Fraction(0)] * n for _ in range(n)]
        d[0][0], d[1][1] = Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9), 7)
        for i in range(2, n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = entry()
        d[2][3] = d[3][2] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 8))
        return [
            [
                sum(low[i][a] * d[a][b] * low[j][b] for a in range(n) for b in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
    if shape == 0:  # singular Gram matrices, some nudged off PSD
        vecs = [[entry() for _ in range(n)] for _ in range(rng.randint(1, n))]
        rows = [[sum(v[i] * v[j] for v in vecs) for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            d = rng.randrange(n)
            rows[d][d] -= Fraction(1, rng.randint(1, 10**6))
        return rows
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if shape == 1 and i == j:  # zero diagonal
                x = Fraction(0)
            elif shape == 2:  # large denominators
                x = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**12))
            elif shape == 3 and i == j:  # diagonal with negative entries
                x = entry() if rng.random() < 0.7 else -abs(entry())
            else:  # sparse
                x = entry() if rng.random() < 0.6 else Fraction(0)
            rows[i][j] = rows[j][i] = x
    return rows


def test_psd_matches_the_fraction_reference():
    verdicts = {"psd": 0, "not_psd": 0}
    late = {"diagonal": 0, "off-diagonal": 0}  # witnesses after two or more pivots
    for seed in range(3600):
        rows = _reference_cases(seed)
        res = psd_certify(SymRationalMatrix.from_rows(rows))
        verdict, witness, value, how = fraction_psd_certify(rows)
        assert (res.verdict, res.witness, res.value) == (verdict, witness, value)
        verdicts[res.verdict] += 1
        if how is not None and how[1] >= 2:
            late[how[0]] += 1
    assert min(verdicts.values()) > 300
    # the lift is replayed from the recorded steps: both witness kinds must
    # be reached after steps that changed it
    assert min(late.values()) > 50


def _integer_verdict(rows, beta, c):
    """Whether the elimination the refutation loop runs finds the integer
    matrix c L D H D PSD: L the lcm of H's denominators, D = diag(beta)."""
    k = len(rows)
    scale = c * lcm(*(Fraction(x).denominator for row in rows for x in row))
    totals = [scale * beta[p] * beta[q] * Fraction(rows[p][q]) for p, q in pair_list(k)]
    assert all(t.denominator == 1 for t in totals)
    return _eliminate(k, [int(t) for t in totals]) is None


@given(
    st.integers(0, 10**6),
    st.lists(st.integers(-9, 9).filter(bool), min_size=6, max_size=6),
    st.integers(1, 30),
)
@settings(max_examples=200, deadline=None)
def test_integer_verdict_matches_psd_certify(seed, beta, c):
    # the loop decides c D H D on integers, D nonsingular and signed, c > 0:
    # congruent to H, so PSD exactly when H is (Sylvester's law of inertia)
    rows = _reference_cases(seed)
    want = psd_certify(SymRationalMatrix.from_rows(rows)).is_psd
    assert _integer_verdict(rows, beta[: len(rows)], c) == want


@pytest.mark.parametrize("beta, c", [((1, 1, 1), 1), ((-3, 2, 5), 7), ((4, -1, -2), 2)])
@pytest.mark.parametrize(
    "rows, psd",
    [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], True),
        ([[0, Fraction(1, 3)], [Fraction(1, 3), 0]], False),  # zero diagonal, off-diagonal left
        ([[Fraction(-1, 2)]], False),
        ([[0]], True),
    ],
    ids=["zero", "zero-diagonal", "negative-1x1", "zero-1x1"],
)
def test_integer_verdict_on_degenerate_matrices(rows, psd, beta, c):
    assert psd_certify(SymRationalMatrix.from_rows(rows)).is_psd is psd
    assert _integer_verdict(rows, beta, c) is psd


def test_non_psd_principal_submatrix_extends_by_zero_padding():
    a = random_sym_matrix(23, 3)
    g = path_graph(4)
    full = hessian_matrix(g, a)
    res_full = psd_certify(full.matrix)
    for r in range(len(full.pairs)):
        for s in range(r + 1, len(full.pairs)):
            sub = [
                [full.matrix.at(r, r), full.matrix.at(r, s)],
                [full.matrix.at(s, r), full.matrix.at(s, s)],
            ]
            res = psd_certify(SymRationalMatrix.from_rows(sub))
            if not res.is_psd:
                padded = [Fraction(0)] * len(full.pairs)
                padded[r], padded[s] = res.witness
                assert quadratic_form(full.matrix, padded) == res.value < 0
                assert not res_full.is_psd


ORIGIN = {"x": 0, "y": 0}


def test_two_var_hessian_examples():
    # at the origin the Hessian is [[2 c(x^2), c(xy)], [c(xy), 2 c(y^2)]]
    p = sparse_poly(("x", "y"), [((2, 0), 3), ((1, 1), 5), ((0, 2), 7)])
    assert p.hessian(("x", "y"), ORIGIN).rows() == [[6, 5], [5, 14]]
    cubic = sparse_poly(("x", "y"), [((3, 1), 1)])
    assert cubic.hessian(("x", "y"), ORIGIN).rows() == [[0, 0], [0, 0]]
    with pytest.raises(UsageError):
        sparse_poly(("x",), [((1,), 1)]).hessian(("x", "y"), {"x": 0})


def test_two_var_hessian_mobius_top_left_zero():
    t = SymbolicTemplate.from_rows([[1, 1, "y"], [1, 0, 1], ["y", 1, "x"]])
    profile = symbolic_profile(bowtie_blowup(cycle_graph(5)), t)
    m = profile.hessian(("x", "y"), ORIGIN).rows()
    assert m[0][0] == 0
    assert m[0][1] == m[1][0] >= 1


def test_two_var_hessian_with_parameter():
    # the kpm pipeline reads its boundary Hessian off the symbolic profile
    # at x = y = 0 for a fixed eps; a direct enumeration of every map gives
    # its entries [[2 c(x^2), c(xy)], [c(xy), 2 c(y^2)]]
    g = kpm_graph(5)
    eps = Fraction(1, 2)
    rows = [["x", "y", "eps"], ["y", 1, 1], ["eps", 1, -1]]
    profile = symbolic_profile(g, SymbolicTemplate.from_rows(rows))
    h = profile.hessian(("x", "y"), {**ORIGIN, "eps": eps})
    fixed = [[eps if c == "eps" else c for c in row] for row in rows]
    coeffs = brute_template_coefficients(g, fixed)
    c = lambda *mono: coeffs.get(mono, 0)
    assert h.rows() == [[2 * c("x", "x"), c("x", "y")], [c("x", "y"), 2 * c("y", "y")]]
    # the certificate's negative direction is one of this matrix
    cert = certify_kpm(5)
    assert cert.degree_evidence["epsilon"] == "1/2"
    assert quadratic_form(h, cert.direction) == cert.value < 0
    # every read of the pipeline has x- plus y-degree 2, so capping x and y
    # at 2, as the pipeline builds its profile, changes none of them: the
    # x^2, xy and y^2 parts agree at every eps-degree
    t = SymbolicTemplate.from_rows(rows)
    for m in (3, 5, 7):
        s = (m - 1) // 2
        full = symbolic_profile(kpm_graph(m), t)
        capped = symbolic_profile(kpm_graph(m), t, {"x": 2, "y": 2})
        assert len(capped.terms) < len(full.terms)
        for part in ({"x": 2}, {"x": 1, "y": 1}, {"y": 2}):
            for d in range(kpm_graph(m).edge_count + 1):
                assert capped.coefficient_of(eps=d, **part) == full.coefficient_of(eps=d, **part)
        threshold = {"x": 1, "y": 1, "eps": 4 * s - 3}
        assert capped.coefficient_of(**threshold) == full.coefficient_of(**threshold)
        for j in range(1, 12):
            point = {**ORIGIN, "eps": Fraction(1, 2**j)}
            assert capped.hessian(("x", "y"), point) == full.hessian(("x", "y"), point)


@pytest.mark.parametrize("g,half", [(C4, 1), (C4, 2), (cycle_graph(6), 1)])
def test_allones_kernel(g, half):
    assert annihilates_ones(allones_hessian(g, half))


def test_allones_kernel_preconditions():
    with pytest.raises(UsageError):
        allones_hessian(cycle_graph(5), 1)  # odd edge count
    with pytest.raises(UsageError):
        allones_hessian(path_graph(3), 1)  # not eulerian


def test_kernel_hessians_are_psd():
    for g, half in ((C4, 1), (C4, 2), (cycle_graph(6), 1)):
        h = hessian_matrix(g, block_pm_ones(half))
        assert psd_certify(h.matrix).is_psd


def test_c4_hessian_psd_on_signed_matrices():
    for seed in range(200):
        n = 2 + seed % 2
        a = random_sym_matrix(seed, n)
        assert psd_certify(hessian_matrix(C4, a).matrix).is_psd


def test_single_read_stays_within_memory():
    # one read of the count polynomial of the C_6 blow-up (53766 terms) at
    # the +/- block matrix, as hessian_matrix makes it: the plan it builds
    # holds one index list per factor of each of the 55 entries, one
    # index list per pair table and no per-term factors. Traced peak of the
    # read: 22.8 MiB (21.0 MiB without pair tables); per-term factor tuples
    # took it to 33.8 MiB
    a = block_pm_ones(2)
    names = tuple(f"c{idx:02d}" for idx in range(len(a.tri)))
    poly = symbolic_profile(bowtie_blowup(cycle_graph(6)), SymbolicTemplate(a.n, names))
    tracemalloc.start()
    try:
        poly.hessian(names, dict(zip(names, a.tri)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27 * 2**20
