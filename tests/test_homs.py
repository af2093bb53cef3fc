import gc
import random as _random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnorms import (
    Graph,
    SizeGuardError,
    SymbolicTemplate,
    SymRationalMatrix,
    UsageError,
    allones_hessian,
    bowtie_blowup,
    certify_bowtie_cycle,
    certify_kpm,
    complete_bipartite,
    counting_lemma_check,
    kpm_graph,
    cycle_graph,
    density,
    eulerian_indicator_check,
    hatami_box_check,
    hessian_matrix,
    hypercube_graph,
    norm_powers,
    random_witness_search,
    sidorenko_check,
    symbolic_profile,
    verify_certificate,
    weighted_hom_count,
)
from graphnorms import homs
from graphnorms.graphs import cartesian_k2
from graphnorms.homs import (
    ENUMERATION_GUARD,
    Affine,
    profile_map,
)
from graphnorms.matrices import block_pm_ones
from graphnorms.plans import _alike, _cover_plan, _interchangeable, _memo_plan
from oracles import (
    brute_count_polynomial,
    brute_hom_count,
    brute_profile_map,
    eulerian,
    evaluate_terms,
    path_graph,
    permuted,
    random_graph,
    random_sym_matrix,
    rational_terms,
    relabel,
    trace_power,
)

K2 = path_graph(2)
PM1 = SymRationalMatrix.from_rows([[1, -1], [-1, 1]])
OFFDIAG = SymRationalMatrix.from_rows([[0, 1], [1, 0]])


def test_count_examples():
    assert weighted_hom_count(K2, SymRationalMatrix.from_rows([[1]])) == 1
    # two-vertex host without loops: C_4 homs = tr(A^4)
    assert trace_power(OFFDIAG.rows(), 4) == 2
    assert weighted_hom_count(cycle_graph(4), OFFDIAG) == 2
    assert brute_hom_count(cycle_graph(3), PM1.rows()) == 8
    assert weighted_hom_count(cycle_graph(3), PM1) == 8


def test_density_examples():
    assert density(cycle_graph(3), PM1) == 1
    assert density(path_graph(3), PM1) == 0
    ones = SymRationalMatrix.from_rows([[1, 1, 1]] * 3)
    assert density(K2, ones) == 1


def test_size_guard():
    # the engine's work estimate is n^|C| colourings of its vertex cover C
    # plus the isolated vertices; a 17-vertex path colours 8 vertices
    long_path = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
    assert weighted_hom_count(long_path, PM1) == 0
    with pytest.raises(SizeGuardError) as err:
        weighted_hom_count(cycle_graph(28), PM1)
    assert str(err.value) == "enumeration guard: 2^14 = 16384 colourings > 10000"
    # C_8 colours 4 vertices: 10^4 is at the limit, 11^4 past it
    ones = lambda n: SymRationalMatrix.from_rows([[1] * n for _ in range(n)])
    assert ENUMERATION_GUARD == 10**4
    assert weighted_hom_count(cycle_graph(8), ones(10)) == 10**8
    with pytest.raises(SizeGuardError) as err:
        weighted_hom_count(cycle_graph(8), ones(11))
    assert str(err.value) == "enumeration guard: 11^4 = 14641 colourings > 10000"
    isolated = Graph(10**12, ((0, 1),))
    with pytest.raises(SizeGuardError) as err:
        weighted_hom_count(isolated, PM1)
    assert str(err.value) == (
        "enumeration guard: 2^1 = 2 colourings + 999999999998 isolated vertices > 10000"
    )
    assert weighted_hom_count(Graph(9999, ((0, 1),)), OFFDIAG) == 2 * 2**9997


BOWTIE9 = bowtie_blowup(cycle_graph(9))  # colours one side: 3^9 at n = 3
C28 = cycle_graph(28)  # eulerian with an even edge count; colours 14 at n = 2
THREE = SymRationalMatrix.from_rows([[1, Fraction(1, 2), 0], [Fraction(1, 2), 0, 1], [0, 1, 1]])
PAST_3_9 = "enumeration guard: 3^9 = 19683 colourings > 10000"
PAST_2_14 = "enumeration guard: 2^14 = 16384 colourings > 10000"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: density(BOWTIE9, THREE), PAST_3_9),
        (lambda: symbolic_profile(BOWTIE9, SymbolicTemplate.from_rows(
            [[1, 1, "y"], [1, 0, 1], ["y", 1, "x"]])), PAST_3_9),
        (lambda: hessian_matrix(BOWTIE9, THREE), PAST_3_9),
        (lambda: eulerian_indicator_check(C28, 1), PAST_2_14),
        (lambda: allones_hessian(C28, 1), PAST_2_14),
        (lambda: random_witness_search(BOWTIE9, 3, 10, "weakly_norming"), PAST_3_9),
        (lambda: certify_bowtie_cycle(9), PAST_3_9),
        (lambda: certify_kpm(9), PAST_3_9),
    ],
    ids=["density", "symbolic_profile", "hessian_matrix", "eulerian_indicator_check",
         "allones_hessian", "random_witness_search", "certify_bowtie_cycle", "certify_kpm"],
)
def test_every_former_guard_site_refuses_at_once(call, message):
    start = time.perf_counter()
    with pytest.raises(SizeGuardError) as err:
        call()
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == message


def star(m):
    return Graph(m + 1, tuple((0, i) for i in range(1, m + 1)))


STAR_PAST = (
    "enumeration guard: summing out the independent set touches > 10000"
    " profile entries per colouring"
)


def test_star_leaves_count_towards_the_limit():
    # one cover vertex, but the leaves' summed map grows with their number:
    # at n = 3 with every cell a symbol the estimate is 3 C(m + 2, 3)
    values = [
        [Fraction(1, 5), Fraction(1, 2), Fraction(1, 7)],
        [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)],
        [Fraction(1, 7), Fraction(2, 3), Fraction(3, 4)],
    ]
    generic = SymRationalMatrix.from_rows(values)
    names = [["a", "b", "c"], ["b", "d", "e"], ["c", "e", "f"]]
    symbols = SymbolicTemplate.from_rows(names)
    point = {names[i][j]: values[i][j] for i in range(3) for j in range(3)}

    def closed_form(m):
        """The star's count polynomial at ``generic`` over 3^(m + 1)."""
        return sum(sum(row) ** m for row in values) / Fraction(3) ** (m + 1)

    def refused_at_once(call):
        start = time.perf_counter()
        with pytest.raises(SizeGuardError) as err:
            call()
        assert time.perf_counter() - start < 0.5
        assert str(err.value) == STAR_PAST

    m = 26  # 3 * 3276 = 9828 entries, at the limit
    star_poly = symbolic_profile(star(m), symbols)
    count = evaluate_terms(star_poly.symbols, rational_terms(star_poly), point)
    assert count / Fraction(3) ** (m + 1) == closed_form(m)
    for leaves in (27, 2000, 10**5):
        g = star(leaves)  # built before the clock: only the refusal is timed
        refused_at_once(lambda: symbolic_profile(g, symbols))
    # a density tracks no cell: its constant weights are multiplied into
    # the counts, so a leaf touches n entries, 3 * 3333 = 9999 at the limit
    assert density(star(3333), generic) == closed_form(3333)
    for leaves in (3334, 10**5):
        g = star(leaves)
        refused_at_once(lambda: density(g, generic))


def test_norm_powers():
    p = norm_powers(cycle_graph(4), PM1)
    assert p["norm_pow"] == 1 and p["weak_norm_pow"] == 1
    p = norm_powers(K2, PM1)
    assert p["norm_pow"] == 0 and p["weak_norm_pow"] == 1


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_norm_powers_agree_on_nonnegative(seed):
    a = random_sym_matrix(seed, 3, lo=0, hi=1)
    p = norm_powers(cycle_graph(4), a)
    assert p["norm_pow"] == p["weak_norm_pow"]


def test_symbolic_profile_single_cell():
    t = SymbolicTemplate.from_rows([["x"]])
    p = symbolic_profile(K2, t)
    assert p.symbols == ("x",)
    assert p.terms == {(1,): 1} and p.den == 1


def test_symbolic_profile_boundary_coefficients():
    # the probed 3x3 template with an opened middle cell
    t = SymbolicTemplate.from_rows([[1, 1, "y"], [1, "z", 1], ["y", 1, "x"]])
    p = symbolic_profile(bowtie_blowup(cycle_graph(5)), t)
    assert p.coefficient_of(x=2) == 0
    assert p.coefficient_of(x=1, y=1) >= 1


@given(st.integers(0, 300), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_profile_evaluation_matches_count(seed, n_vertices):
    g = random_graph(seed, n_vertices)
    # the last cell is the affine 1/2 + 3 s
    cells = ("a", Fraction(1), "b", Fraction(0), "a", Affine(Fraction(1, 2), 3, "s"))
    t = SymbolicTemplate(3, cells)
    rng = _random.Random(seed)
    point = {
        "a": Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        "b": Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        "s": Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    }
    profile = symbolic_profile(g, t)
    value = evaluate_terms(profile.symbols, rational_terms(profile), point)
    assert value == weighted_hom_count(g, t.substitute(point))


@given(st.integers(0, 300), st.integers(-3, 3), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_homogeneity(seed, num, den):
    g = cycle_graph(4)
    a = random_sym_matrix(seed, 2)
    lam = Fraction(num, den)
    assert weighted_hom_count(g, a.scale(lam)) == lam**g.edge_count * weighted_hom_count(g, a)


@given(st.integers(0, 300), st.integers(2, 6), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_relabel_invariance(seed, n_vertices, perm_seed):
    g = random_graph(seed, n_vertices)
    a = random_sym_matrix(seed + 1, 3)
    perm = list(range(n_vertices))
    _random.Random(perm_seed).shuffle(perm)
    assert weighted_hom_count(relabel(g, perm), a) == weighted_hom_count(g, a)
    mperm = [1, 2, 0]
    assert weighted_hom_count(g, permuted(a, mperm)) == weighted_hom_count(g, a)


@given(st.integers(0, 300), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_disjoint_union_multiplies(seed, n1, n2):
    g1 = random_graph(seed, n1)
    g2 = random_graph(seed + 1, n2)
    union = Graph.from_edges(
        n1 + n2, list(g1.edges) + [(u + n1, v + n1) for (u, v) in g2.edges]
    )
    a = random_sym_matrix(seed + 2, 2)
    assert density(union, a) == density(g1, a) * density(g2, a)


@given(st.integers(2, 4), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_all_ones_counts_everything(n_vertices, n):
    g = random_graph(n_vertices * 13, n_vertices)
    ones = SymRationalMatrix.from_rows([[1] * n for _ in range(n)])
    assert weighted_hom_count(g, ones) == Fraction(n) ** g.n


def _plain(ncells):
    """Every cell a plain symbol of its own: field f on cell f. Over a graph
    with an edge, ``profile_map`` takes the colour-relabelling shortcut."""
    return [(f, 0, 1) for f in range(ncells)]


def _shared(ncells):
    """Field f on cell f, but the last cell shares field 0: no relabelling
    shortcut, so ``visited`` and ``summed`` measure the memo alone (neither
    depends on the fields)."""
    return [(f, 0, 1) for f in range(ncells - 1)] + [(0, 0, 1)]


def test_profile_map_matches_brute_force_on_random_cases():
    rng = _random.Random(20191018)
    for case in range(80):
        n = rng.randint(1, 4)
        nv = rng.randint(1, 8 if n <= 3 else 7)
        edge_prob = rng.choice((0.0, 0.2, 0.5, 0.9))
        edges = [
            (u, v) for u in range(nv) for v in range(u + 1, nv) if rng.random() < edge_prob
        ]
        g = Graph.from_edges(nv, edges)
        ncells = n * (n + 1) // 2
        cells, caps = [], {}
        for _ in range(ncells):
            field = sum(isinstance(c, tuple) for c in cells)
            kind = rng.choice(("tracked", "capped", "zero", "one", "weighted"))
            if kind == "zero":
                # a dead cell: a plain field capped at 0, or weight 0
                if rng.random() < 0.5:
                    cells.append((field, 0, 1))
                    caps[field] = 0
                else:
                    cells.append(0)
            elif kind == "capped":
                cells.append((field, 0, 1))
                caps[field] = rng.randint(0, 3)
            elif kind == "tracked":
                cells.append((field, 0, 1))
            elif kind == "weighted":
                # a constant cell, now and then a field with that slope
                w = rng.choice((-3, -1, 2, 5, 12))
                cells.append((field, 0, w) if rng.random() < 0.25 else w)
            else:  # a weight-1 cell, free to take any edges
                cells.append(1)
        got = profile_map(g, n, cells, caps).counts
        want = brute_profile_map(g, n, cells, caps)
        assert got == want, (case, g, n, cells, caps)


def test_affine_and_shared_fields_match_brute_force():
    # cells const + slope * s_f beside plain symbols, weighted symbols and
    # constants, with a few fields each shared by cells of different
    # constants and slopes; caps of 0 on plain and on affine fields leave
    # only the constant options, and signed weights may cancel
    rng = _random.Random(20191025)
    seen = {"cap 0 on a plain field": 0, "cap 0 on an affine field": 0,
            "shared by unlike cells": 0, "both options": 0}
    for case in range(60):
        n = rng.randint(1, 3)
        g = random_graph(rng.randrange(10**6), rng.randint(1, 7), rng.choice((0.4, 0.7, 0.95)))
        nfields = rng.randint(1, 3)
        cells = []
        for _ in range(n * (n + 1) // 2):
            kind = rng.random()
            if kind < 0.5:
                cells.append((rng.randrange(nfields), rng.choice((0, 1, -1, 3)),
                              rng.choice((0, 1, -2, 3))))
            elif kind < 0.7:
                cells.append((rng.randrange(nfields), 0, 1))
            else:
                cells.append(rng.choice((0, 1, -1, 2, 5)))
        caps = {f: rng.choice((0, 0, 1, 2, 3)) for f in range(nfields) if rng.random() < 0.5}
        got = profile_map(g, n, cells, caps).counts
        assert got == brute_profile_map(g, n, cells, caps), (case, g, n, cells, caps)
        triples = [c for c in cells if isinstance(c, tuple)]
        for f, cap in caps.items():
            on = {c[1:] for c in triples if c[0] == f}
            if cap == 0 and (0, 1) in on:
                seen["cap 0 on a plain field"] += 1
            if cap == 0 and any(a and v for a, v in on):
                seen["cap 0 on an affine field"] += 1
        seen["shared by unlike cells"] += any(
            len({c[1:] for c in triples if c[0] == f}) > 1 for f in range(nfields)
        )
        seen["both options"] += any(a and v for _, a, v in triples)
    assert min(seen.values()) >= 5, seen


def test_negative_caps_are_refused():
    # both oracles drop every term under a cap below 0; the engine refuses
    # it where every cap enters, before a negative bias could carry into
    # the next field
    g = cycle_graph(4)
    assert brute_profile_map(g, 2, [(0, 0, 1), 1, 1], {0: -1}) == {}
    with pytest.raises(UsageError):
        profile_map(g, 2, [(0, 0, 1), 1, 1], {0: -1})
    with pytest.raises(UsageError):
        profile_map(g, 2, [(0, 0, 1), (1, 1, 2), 1], {0: 2, 1: -3})
    assert brute_count_polynomial(g, ("x", 1, 1), {"x": -1}) == {}
    with pytest.raises(UsageError):
        symbolic_profile(g, SymbolicTemplate.from_rows([["x", 1], [1, 1]]), {"x": -1})


def test_template_rows_take_affine_cells():
    # from_rows reads an Affine cell as the constructor does, its constant
    # made a Fraction, and the two templates give the same polynomial
    rows = [[Affine(1, 2, "s"), "x"], ["x", Affine("1/3", -1, "s")]]
    t = SymbolicTemplate.from_rows(rows)
    built = SymbolicTemplate(2, (Affine(Fraction(1), 2, "s"), "x", Affine(Fraction(1, 3), -1, "s")))
    assert t == built
    assert [type(c.const) for c in t.cells if isinstance(c, Affine)] == [Fraction] * 3
    g = bowtie_blowup(cycle_graph(4))
    assert symbolic_profile(g, t) == symbolic_profile(g, built)
    assert symbolic_profile(g, t, {"s": 2}) == symbolic_profile(g, built, {"s": 2})


def test_symbol_names_are_affine_cells():
    # a symbol name is the cell 0 + 1 * name from the moment the template
    # is made, whichever way it is made
    names = SymbolicTemplate.from_rows([[1, "y"], ["y", "x"]])
    cells = SymbolicTemplate(2, (Fraction(1), Affine(0, 1, "y"), Affine(0, 1, "x")))
    assert names == cells == SymbolicTemplate(2, (1, "y", "x"))
    assert all(isinstance(c, (Fraction, Affine)) for c in names.cells)
    g = bowtie_blowup(cycle_graph(5))
    assert symbolic_profile(g, names, {"x": 2}) == symbolic_profile(g, cells, {"x": 2})


@pytest.mark.parametrize(
    "rows",
    [[[None]], [[1, object()], [object(), 1]], [[Affine(None, 1, "s")]], [[float("inf")]]],
    ids=["none", "object", "affine-none", "inf"],
)
def test_junk_cells_are_usage_errors(rows):
    # the one symmetric-array parser turns a cell it cannot read into a
    # UsageError for matrices and templates alike
    with pytest.raises(UsageError, match="bad template cell"):
        SymbolicTemplate.from_rows(rows)
    with pytest.raises(UsageError, match="bad matrix cell"):
        SymRationalMatrix.from_rows(rows)


@pytest.mark.parametrize(
    "cell",
    [
        Affine(1, Fraction(1, 2), "s"),
        Affine(1, 1.5, "s"),
        Affine(1, True, "s"),
        Affine(1, 1, ""),
        Affine(1, 1, 5),
        Affine("x", 1, "s"),
        "",
        None,
    ],
    ids=["slope-fraction", "slope-float", "slope-bool", "symbol-empty", "symbol-int",
         "const-junk", "name-empty", "none"],
)
def test_bad_template_cells_are_refused_at_construction(cell):
    # both ways of making a template refuse the cell by name, before any
    # build could fail on it later with a message about something else
    named = re.escape(f"bad template cell {cell!r}")
    with pytest.raises(UsageError, match=named):
        SymbolicTemplate(1, (cell,))
    with pytest.raises(UsageError, match=named):
        SymbolicTemplate.from_rows([[1, cell], [cell, 1]])


def test_cap_on_a_symbol_not_in_the_template_is_refused():
    # a misspelt or stale cap would otherwise change nothing, silently
    t = SymbolicTemplate.from_rows([["x", 1], [1, 1]])
    for caps in ({"q": -1}, {"q": 2}, {"x": 2, "y": 1}):
        with pytest.raises(UsageError, match="no symbol of the template"):
            symbolic_profile(cycle_graph(4), t, caps)
    with pytest.raises(UsageError, match="'s', which is no symbol"):
        symbolic_profile(cycle_graph(4), SymbolicTemplate(1, (Fraction(2),)), {"s": 2})


@pytest.mark.parametrize(
    "g, caps",
    [(bowtie_blowup(cycle_graph(k)), {}) for k in (3, 4, 5, 6)]
    + [(kpm_graph(m), {0: 2, 1: 2}) for m in (3, 4, 5)],
    ids=[f"bowtie{k}" for k in (3, 4, 5, 6)] + [f"kpm{m}" for m in (3, 4, 5)],
)
def test_profile_map_matches_brute_force_on_certificate_graphs(g, caps):
    # every cell a plain symbol, as verification enumerates (uncapped, the
    # relabelling shortcut); the kpm witness has two zero cells, capped at
    # the two copies a second derivative can remove
    got = profile_map(g, 3, _plain(6), caps).counts
    assert got == brute_profile_map(g, 3, _plain(6), caps)


def _per_cell_capped(g, cells, caps):
    """The count polynomial under the rule that a cap bounds each cell of
    its symbol apart: every capped cell gets a symbol of its own, capped
    alone, whose exponents are added back into its symbol's."""
    own = [f"{c}.{idx}" if c in caps else c for idx, c in enumerate(cells)]
    own_caps = {f"{c}.{idx}": caps[c] for idx, c in enumerate(cells) if c in caps}
    names = sorted({c for c in cells if isinstance(c, str)})
    apart = sorted({c for c in own if isinstance(c, str)})
    out = {}
    for mono, c in brute_count_polynomial(g, own, own_caps).items():
        merged = [0] * len(names)
        for name, m in zip(apart, mono):
            merged[names.index(name.split(".")[0])] += m
        out[tuple(merged)] = out.get(tuple(merged), 0) + c
    return {mono: c for mono, c in out.items() if c}


def test_count_polynomial_matches_brute_force():
    # templates mixing uncapped and capped symbols (some shared by several
    # cells) with the constants 0, 1, -1 and rationals over unequal
    # denominators: constant cells are weights in the counts, symbol cells
    # keys, and the builder must give back the plain enumeration's terms as
    # integer numerators over L^e(H), L the lcm of the constants'
    # denominators; a cap bounds its symbol's total degree over all of its
    # cells, which differs from bounding each cell apart
    rng = _random.Random(20191020)
    constants = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3),
                 Fraction(5, 4), Fraction(3, 7), Fraction(-9, 10), Fraction(4)]
    seen = {"bind": 0, "shared": 0, "mixed": 0, "constant_only": 0}
    differs = 0  # cases where the total and the per-cell cap rules disagree
    for case in range(70):
        n = rng.randint(1, 4)
        g = random_graph(rng.randrange(10**6), rng.randint(1, 5 if n == 4 else 7),
                         rng.choice((0.3, 0.6, 0.9)))
        names = ["x", "y", "z"][: rng.randint(0, 3)]
        cells = tuple(
            rng.choice(names) if names and rng.random() < 0.4 else rng.choice(constants)
            for _ in range(n * (n + 1) // 2)
        )
        used = sorted({c for c in cells if isinstance(c, str)})
        caps = {s: rng.randint(0, 3) for s in used if rng.random() < 0.5}
        want = brute_count_polynomial(g, cells, caps)
        poly = symbolic_profile(g, SymbolicTemplate(n, cells), caps)
        assert poly.symbols == tuple(used)
        scale = lcm(*(c.denominator for c in cells if not isinstance(c, str)))
        assert poly.den == scale**g.edge_count, (case, g, cells)
        assert all(type(c) is int for c in poly.terms.values())
        assert rational_terms(poly) == want, (case, g, cells, caps)
        seen["bind"] += want != brute_count_polynomial(g, cells)
        differs += want != _per_cell_capped(g, cells, caps)
        seen["shared"] += len(used) < sum(isinstance(c, str) for c in cells)
        seen["mixed"] += len({c.denominator for c in cells if not isinstance(c, str)}) > 1
        seen["constant_only"] += not used
    assert min(seen.values()) >= 5, seen
    assert differs >= 1


def test_affine_cells_match_brute_force():
    # cells a + v s beside constants and plain symbols, some sharing a
    # symbol with them, now and then capped: each edge on an affine cell
    # takes the constant a or the slope v times one more power of s
    rng = _random.Random(20191023)
    constants = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), Fraction(3)]
    seen = {"both options": 0, "capped": 0, "plain beside affine": 0}
    for case in range(60):
        n = rng.randint(1, 3)
        g = random_graph(rng.randrange(10**6), rng.randint(1, 6), rng.choice((0.4, 0.7, 0.95)))
        cells = []
        for _ in range(n * (n + 1) // 2):
            kind = rng.random()
            if kind < 0.45:
                cells.append(Affine(rng.choice(constants), rng.choice((0, 1, -2, 3)), rng.choice("st")))
            elif kind < 0.6:
                cells.append(rng.choice("st"))
            else:
                cells.append(rng.choice(constants))
        cells = tuple(cells)
        used = sorted({c if isinstance(c, str) else c.symbol for c in cells if not isinstance(c, Fraction)})
        caps = {s: rng.randint(0, 3) for s in used if rng.random() < 0.5}
        poly = symbolic_profile(g, SymbolicTemplate(n, cells), caps)
        assert poly.symbols == tuple(used)
        assert rational_terms(poly) == brute_count_polynomial(g, cells, caps), (case, g, cells, caps)
        affine = [c for c in cells if isinstance(c, Affine)]
        seen["both options"] += any(c.const and c.slope for c in affine)
        seen["capped"] += bool(caps) and bool(affine)
        seen["plain beside affine"] += any(c.symbol in cells for c in affine)
    assert min(seen.values()) >= 5, seen


def _full_tree(g, n):
    """Partial cover colourings a search without reuse tries: n + ... + n^|C|."""
    return sum(n**i for i in range(1, len(_cover_plan(g)[0]) + 1))


@pytest.mark.parametrize(
    "g, n, caps",
    [
        (cycle_graph(8), 3, [{0: 1, 5: 2}, {2: 0, 0: 2, 3: 3}]),
        (cycle_graph(10), 3, [{0: 1, 5: 2}, {2: 0, 0: 2, 3: 3}]),
        # the chord puts a cover edge above the reused subtree, so prefixes
        # with equal frontier colours carry different capped fields in base
        (Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)]), 3,
         [{2: 1}, {2: 2, 4: 0}]),
        (bowtie_blowup(cycle_graph(6)), 2, [{0: 3, 2: 4}, {1: 0, 2: 5}]),
        (bowtie_blowup(cycle_graph(7)), 2, [{0: 3, 2: 4}, {1: 0, 2: 5}]),
        (cartesian_k2(cycle_graph(6)), 2, [{0: 3, 2: 4}, {0: 0, 1: 9}]),
        (cartesian_k2(cycle_graph(7)), 2, [{0: 3, 2: 4}, {0: 0, 1: 9}]),
        # reads the whole prefix at every position, but positions 2..5 have
        # two prefix positions to swap, so their tables are kept
        (kpm_graph(6), 2, [{0: 3, 2: 4}, {1: 0, 2: 5}]),
    ],
    ids=["c8", "c10", "c7chord", "bowtie6", "bowtie7", "ladder6", "ladder7", "kpm6"],
)
def test_reused_subtrees_match_brute_force(g, n, caps):
    # each case has a cover position whose subtree reads only part of the
    # prefix, or reads two prefix positions alike, so its result is reused;
    # binding caps and fields capped at 0 change what a reused subtree may
    # hold, and caps are part of its key. The shared field keeps the
    # relabelling shortcut out of the count of partial colourings
    shared = _shared(n * (n + 1) // 2)
    pm = profile_map(g, n, shared, {})
    assert pm.visited < _full_tree(g, n)
    assert pm.counts == brute_profile_map(g, n, shared, {})
    cells = _plain(n * (n + 1) // 2)
    uncapped = brute_profile_map(g, n, cells, {})
    assert profile_map(g, n, cells, {}).counts == uncapped
    for cap in caps:
        expected = brute_profile_map(g, n, cells, cap)
        assert expected != uncapped  # the caps bind
        assert profile_map(g, n, cells, cap).counts == expected


@pytest.mark.parametrize(
    "g, visited",
    [
        (complete_bipartite(3, 3), 30),
        (complete_bipartite(2, 5), 12),
        (kpm_graph(4), 60),
        (kpm_graph(5), 105),
        (Graph.from_edges(9, complete_bipartite(3, 3).edges + ((0, 6), (6, 7), (7, 8))), 102),
        # every colour multiset of 3 from 3 colours is read by 4 vertices
        (complete_bipartite(4, 4), 60),
        # C_5 and a vertex on three consecutive cycle vertices: two vertices
        # close together but only one is adjacent to the cover position
        # before, so they form a group only from that position on
        (Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 3), (5, 4)]), 93),
    ],
    ids=["k33", "k25", "kpm4", "kpm5", "k33path", "k44", "c5fan"],
)
def test_interchangeable_vertices_match_brute_force(g, visited):
    # independent vertices closing on the same neighbours are interchangeable,
    # so a memo key compares their colour multisets as one sorted multiset;
    # binding caps (in the key as base's capped fields), signed weights that
    # cancel, weight-0 cells and a field capped at 0 change what a memoised
    # map may hold. K_{2,5} has two cover positions, too few to swap, so it
    # keeps no table and tries the whole tree; the others reuse. The pins
    # are on a shared field, which the relabelling shortcut leaves alone
    n = 3
    pm = profile_map(g, n, _shared(6), {})
    assert pm.visited == visited
    assert (visited < _full_tree(g, n)) == (len(_cover_plan(g)[0]) > 2)
    assert pm.counts == brute_profile_map(g, n, _shared(6), {})
    assert profile_map(g, n, _plain(6), {}).counts == brute_profile_map(g, n, _plain(6), {})
    for cells, caps in (
        # a vertex next to colour 0 weighs 1 - 1 + 0: its own sum cancels
        ([1, -1, 0, (0, 0, 1), (1, 0, 1), 3], {0: 1, 1: 2}),
        ([-2, (0, 0, 1), (1, 0, 2), -1, (2, 0, 1), 1], {0: 0, 2: 3}),
    ):
        expected = brute_profile_map(g, n, cells, caps)
        assert expected != brute_profile_map(g, n, cells, {})  # the caps bind
        assert profile_map(g, n, cells, caps).counts == expected


def _swappable(reads, p):
    """Whether two positions of [0, p) swap, every group of ``reads`` kept."""
    return _interchangeable(reads, _alike(reads, p))


def test_memo_plan_keeps_tables_where_prefix_positions_interchange():
    # K_{7,7} minus a matching reads its whole prefix at every cover
    # position; from position 2 on two prefix positions can be swapped, so
    # positions 2..6 keep tables for the whole call, and positions 0 and 1
    # have nothing to swap. Its positions are all read alike: no mirror
    back, closing, _ = _cover_plan(kpm_graph(7))
    plan = _memo_plan(back, closing)
    assert [p for p, m in enumerate(plan) if m is not None] == [2, 3, 4, 5, 6]
    assert all(m.whole and m.mirror is None for m in plan[2:])
    # bowtie k = 7 keeps its frontier-gap tables at 5 and 6 for the whole
    # call; positions 2..4 close a vertex each but no two earlier positions
    # can be swapped, so they keep tables for the mirror alone, and 5 has
    # both. Position 6, the last, has no suffix to reverse
    back, closing, _ = _cover_plan(bowtie_blowup(cycle_graph(7)))
    plan = _memo_plan(back, closing)
    assert [p for p, m in enumerate(plan) if m is not None] == [2, 3, 4, 5, 6]
    assert [p for p, m in enumerate(plan) if m is not None and m.whole] == [5, 6]
    assert [p for p, m in enumerate(plan) if m is not None and m.mirror] == [2, 3, 4, 5]
    assert all(closing[p] for p in (2, 3, 4))
    # under the relabelling shortcut every one of those mirrors moves
    # position 0, whose partner colourings are never tried
    fixed = _memo_plan(back, closing, first_fixed=True)
    assert [p for p, m in enumerate(fixed) if m is not None] == [5, 6]
    assert all(m.mirror is None for m in fixed[5:])
    # one vertex reading both positions lets them swap; a second vertex
    # reading only one of them, or a cover position apart from a group,
    # tells them apart
    assert _swappable((((0, 1),),), 2)
    assert _swappable((((0, 1), (0, 1)), ((0, 1, 2),)), 3)
    assert not _swappable((((0, 1),), ((0,),)), 2)
    assert not _swappable((((0,), (1,)), ((0,),)), 2)
    assert _swappable((((0,), (1,)),), 2)


def _prefix_keys(memo, p, n):
    """The table keys of the n^p colourings of a position p's prefix,
    without caps: base's 0, then per group the sorted colour multisets its
    reads give; where the table has a mirror, the key and its mirror's."""
    keys = []
    for c in product(range(n), repeat=p):
        key = (0,) + tuple(
            m for group in memo.reads for m in sorted(tuple(sorted(c[a] for a in r)) for r in group)
        )
        keys.append(key if memo.mirror is None else frozenset((key, memo.mirror(key))))
    return keys


def test_every_memo_table_has_a_key_that_repeats():
    # the rule keeps a table where a prefix position is unread, where two
    # prefix positions interchange, or where a mirror's pi moves a
    # colouring to another one with the mirrored key; either way two
    # prefix colourings share a key, the lesser of it and its mirror's,
    # once there are two colours. The converse fails: at n = 3 bowtie
    # k = 5 has 37 keys for the 81 colourings of its position 4 (the
    # reflection (0 3)(1 2) fixes the suffix), and keeps no table
    rng = _random.Random(20191019)
    graphs = [bowtie_blowup(cycle_graph(k)) for k in range(3, 8)]
    graphs += [kpm_graph(m) for m in range(3, 8)]
    graphs += [
        random_graph(rng.randrange(10**6), rng.randint(3, 10), rng.choice((0.3, 0.5, 0.8)))
        for _ in range(150)
    ]
    tables = mirrors = 0
    for g in graphs:
        back, closing, _ = _cover_plan(g)
        for p, memo in enumerate(_memo_plan(back, closing)):
            if memo is not None:
                tables += 1
                mirrors += memo.mirror is not None
                assert len(set(_prefix_keys(memo, p, 2))) < 2**p, (g, p)
    assert tables >= 100 and mirrors >= 9


def _mirrors(g, first_fixed=False):
    """The cover positions whose tables ``_memo_plan`` gives a mirror."""
    back, closing, _ = _cover_plan(g)
    plan = _memo_plan(back, closing, first_fixed)
    return [p for p, m in enumerate(plan) if m is not None and m.mirror is not None]


def _without_mirror(g, n):
    """A vertex-relabelled copy of g whose cover order has no mirror and
    whose n^|C| is at most 3^7, or None when 200 tries find none (the
    7-vertex covers of bowtie k = 7 all have a mirror, and its other
    covers are longer)."""
    rng = _random.Random(20191027 + g.n)
    for _ in range(200):
        h = relabel(g, rng.sample(range(g.n), g.n))
        if n ** len(_cover_plan(h)[0]) <= 3**7 and not _mirrors(h):
            return h
    return None


def _plan_without_mirrors(back, closing, first_fixed=False):
    """``_memo_plan`` with every mirror taken out."""
    plan = _memo_plan(back, closing, first_fixed)
    return [m._replace(mirror=None) if m is not None and m.whole else None for m in plan]


def _mobius_ladder(m):
    """The cycle C_2m with its m long diagonals."""
    return Graph.from_edges(
        2 * m, [(i, (i + 1) % (2 * m)) for i in range(2 * m)] + [(i, i + m) for i in range(m)]
    )


def _mirror_cells(n):
    """A shared field; bare fields under caps, one of them 0; signed
    constants beside affine cells, under a cap."""
    ncells = n * (n + 1) // 2
    yield _shared(ncells), {}
    yield _plain(ncells), {0: 0, ncells - 1: 2}
    yield [(0, 2, -1), -3, (1, 0, 2), 2, (0, -1, 1), (2, 1, 3)][:ncells], {0: 3}


@pytest.mark.parametrize(
    "g, mirrored",
    [(bowtie_blowup(cycle_graph(k)), k >= 5) for k in range(3, 9)]
    + [(cartesian_k2(cycle_graph(k)), k == 6) for k in range(4, 7)]
    + [(cycle_graph(k), k >= 7) for k in range(6, 13)]
    + [(_mobius_ladder(m), m >= 5) for m in range(4, 8)],
    ids=[f"bowtie{k}" for k in range(3, 9)] + [f"c{k}k2" for k in range(4, 7)]
    + [f"c{k}" for k in range(6, 13)] + [f"mobius{m}" for m in range(4, 8)],
)
def test_mirror_tables_match_a_copy_without_mirror(g, mirrored, monkeypatch):
    # where the reversal of a cover position's suffix maps it onto itself,
    # and a permutation pi of the prefix carries each group's reads onto
    # its image's, the subtrees under c and c o pi share one entry. A copy
    # of the graph under another vertex numbering, with no mirror in its
    # cover order, must give the same maps at n = 2 and 3, under caps (0
    # included), signed weights and affine cells; where no copy is that
    # cheap, the graph's own plan with its mirrors taken out stands in.
    # Every case is also checked against brute force at n = 2 on graphs of
    # at most 10 vertices, and at n = 3 on those of at most 8
    assert bool(_mirrors(g)) is mirrored
    for n in (2, 3):
        h = _without_mirror(g, n)
        assert h is not None or n == 3
        for cells, caps in _mirror_cells(n):
            got = profile_map(g, n, cells, caps).counts
            if h is not None:
                assert got == profile_map(h, n, cells, caps).counts, (n, cells, caps)
            else:
                with monkeypatch.context() as m:
                    m.setattr(homs, "_memo_plan", _plan_without_mirrors)
                    assert got == profile_map(g, n, cells, caps).counts, (n, cells, caps)
            if g.n <= (10 if n == 2 else 8):
                assert got == brute_profile_map(g, n, cells, caps), (n, cells, caps)


def test_memo_plan_refuses_near_mirrors():
    # each graph breaks one thing a mirror needs at a position where the
    # graph it comes from has one, and _memo_plan must refuse it there:
    # - chords on bowtie k = 6's cover positions 0-1 and 2-3 (their
    #   degrees rise together, so the cover order stays): position 2's
    #   reversal takes the edge 2-3 among its later positions to 4-5;
    # - bowtie k = 6 less the edge 1-8: position 2's independent vertices
    #   reading no prefix position are no longer mapped onto themselves;
    # - bowtie k = 5 with the edge 1-6 moved to 4-6: position 3's pi, read
    #   off which groups read each position, would take one group's reads
    #   {0 1, 2} to {1 2, 0};
    # - C_10 with the chord 3-5: position 3's pi would move the chord among
    #   the prefix.
    # The first two would give wrong maps; under the last two the key of
    # c o pi would miss the mirrored one (other reads, or another base),
    # so the table would keep entries it never reads
    b5, b6, c10 = bowtie_blowup(cycle_graph(5)), bowtie_blowup(cycle_graph(6)), cycle_graph(10)
    controls = [
        (b6, Graph.from_edges(12, b6.edges + ((6, 7), (8, 9))), 2),
        (b6, Graph.from_edges(12, [e for e in b6.edges if e != (1, 8)]), 2),
        (b5, Graph.from_edges(10, [e for e in b5.edges if e != (1, 6)] + [(4, 6)]), 3),
        (c10, Graph.from_edges(10, c10.edges + ((3, 5),)), 3),
    ]
    for origin, g, p in controls:
        assert p in _mirrors(origin) and p not in _mirrors(g), (g, p)
        for cells, caps in _mirror_cells(2):
            assert profile_map(g, 2, cells, caps).counts == brute_profile_map(g, 2, cells, caps)
    # a relabelled build keeps a mirror whose pi fixes position 0
    g = Graph.from_edges(8, [
        (0, 1), (0, 2), (0, 3), (0, 5), (0, 7), (1, 2), (1, 5), (1, 6), (2, 3), (2, 4),
        (2, 5), (2, 6), (3, 4), (3, 6), (4, 5), (4, 6), (6, 7),
    ])
    assert homs._relabels(g, _plain(6), {}) and _mirrors(g, first_fixed=True) == [3]
    assert profile_map(g, 3, _plain(6), {}).counts == brute_profile_map(g, 3, _plain(6), {})


def test_colour_class_build_matches_brute_force(monkeypatch):
    # a template whose every cell is its own bare symbol, uncapped, over a
    # graph with an edge is symmetric under relabelling colours: the engine
    # enumerates the maps giving the first cover vertex colour 0 and adds
    # their images under the transpositions (0 c). Templates just off that
    # condition take the full enumeration; both must equal the plain one
    calls = []
    relabels = homs._relabels

    def spy(*args):
        calls.append(relabels(*args))
        return calls[-1]

    monkeypatch.setattr(homs, "_relabels", spy)

    def check(g, n, cells, caps, one_class):
        poly = symbolic_profile(g, SymbolicTemplate(n, cells), caps)
        assert calls[-1] is one_class, (g, cells, caps)
        assert rational_terms(poly) == brute_count_polynomial(g, cells, caps), (g, cells, caps)

    rng = _random.Random(20191024)
    seen = {"isolated": 0, "n=1": 0, "n=2": 0, "n=3": 0, "n=4": 0}
    for case in range(60):
        n = rng.randint(1, 4)
        g = random_graph(rng.randrange(10**6), rng.randint(2, 3 if n == 4 else 4), 0.6)
        if not g.edges:
            continue
        # names that sort out of cell order, so a field is not its cell
        ncells = n * (n + 1) // 2
        names = rng.sample([f"s{i}" for i in range(ncells)], ncells)
        check(g, n, tuple(names), {}, True)
        seen["isolated"] += min(g.degrees()) == 0
        seen[f"n={n}"] += 1
        off = rng.randrange(ncells)
        changed = [
            (Fraction(2, 3), {}),  # a constant cell
            (names[(off + 1) % ncells], {}),  # a shared symbol (unless n = 1)
            (names[off], {names[off]: 1}),  # a binding cap
            (names[off], {names[off]: g.edge_count}),  # a cap that never binds
            (Affine(Fraction(1, 2), 1, names[off]), {}),  # a constant beside the symbol
            (Affine(0, 2, names[off]), {}),  # a slope other than 1
        ]
        for cell, caps in changed:
            cells = tuple(cell if i == off else name for i, name in enumerate(names))
            check(g, n, cells, caps, cells == tuple(names) and not caps)
    assert min(seen.values()) >= 3, seen
    # an edgeless graph has no cover vertex to fix, so no images; a single
    # edge, isolated vertices beside it or not, has one
    for n in (1, 2, 3):
        names = tuple(f"s{i}" for i in range(n * (n + 1) // 2))
        check(Graph(3, ()), n, names, {}, False)
        check(Graph(2, ((0, 1),)), n, names, {}, True)
        check(Graph(4, ((1, 3),)), n, names, {}, True)
    # the search template at n = 3 tries 121 partial colourings of the
    # Moebius ladder, the full enumeration 198 with its mirror tables
    mobius = bowtie_blowup(cycle_graph(5))
    symbolic_profile(mobius, SymbolicTemplate(3, tuple(f"c{i:02d}" for i in range(6))))
    assert calls[-1] is True
    assert profile_map(mobius, 3, _plain(6), {}).visited == 121
    assert profile_map(mobius, 3, _shared(6), {}).visited == 198


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relabelled_profile_map_matches_brute_force(n):
    # profile_map takes the relabelling shortcut from its own inputs: bare
    # cells whose fields are a permutation of the cells, no cap, and an edge.
    # Fields with gaps between them, an edgeless graph (no cover vertex to
    # fix: every map would count n times) and a cap that never binds take
    # the full enumeration; each must equal the plain count
    rng = _random.Random(20191026 + n)
    ncells = n * (n + 1) // 2
    for case in range(12):
        g = random_graph(rng.randrange(10**6), rng.randint(2, 5 if n < 4 else 4), 0.6)
        fields = rng.sample(range(ncells), ncells)
        for cells, caps, one_class in (
            ([(f, 0, 1) for f in fields], {}, bool(g.edges)),
            ([(2 * f + 1, 0, 1) for f in fields], {}, False),
            ([(f, 0, 1) for f in fields], {0: g.edge_count}, False),
        ):
            assert homs._relabels(g, cells, caps) is one_class, (g, cells, caps)
            got = profile_map(g, n, cells, caps).counts
            assert got == brute_profile_map(g, n, cells, caps), (case, g, n, cells, caps)
    edgeless = Graph(3, ())
    assert not homs._relabels(edgeless, _plain(ncells), {})
    assert profile_map(edgeless, n, _plain(ncells), {}).counts == {(0,) * ncells: n**3}
    # C_4 at n = 2 with fields 0, 2 and 5: distinct, but no permutation
    gaps = [(0, 0, 1), (2, 0, 1), (5, 0, 1)]
    assert profile_map(cycle_graph(4), 2, gaps, {}).counts == brute_profile_map(
        cycle_graph(4), 2, gaps, {}
    )


def test_visited_counts_pin_reuse(monkeypatch):
    # bowtie k = 7 reuses the subtrees under its last two cover positions
    # for the whole call, and those under positions 2..5 for their mirrors,
    # and k = 7 and 8 each add 96 partial colourings; K_{m,m} minus a
    # matching reads its whole prefix, but its cover positions from 2 on
    # are keyed on colour multiplicities. The memo is pinned on a shared
    # field, which takes no relabelling shortcut; every cell its own field,
    # the shortcut tries fewer, with no mirror (each moves position 0)
    seen = []

    def spy(*args):
        pm = profile_map(*args)
        seen.append(pm.visited)
        return pm

    monkeypatch.setattr(homs, "profile_map", spy)
    for k, bound in ((7, 348), (8, 444)):
        seen.clear()
        cert = certify_bowtie_cycle(k)
        assert verify_certificate(cert)
        assert len(seen) == 2 and max(seen) <= bound
    kpm = kpm_graph(7)
    assert profile_map(kpm, 3, _shared(6), {}).visited == 252 < _full_tree(kpm, 3) == 3279
    for m, visited, relabelled in zip(
        range(3, 8), (30, 60, 105, 168, 252), (13, 31, 61, 106, 169)
    ):
        assert profile_map(kpm_graph(m), 3, _shared(6), {}).visited == visited
        assert profile_map(kpm_graph(m), 3, _plain(6), {}).visited == relabelled
    for k, visited, relabelled in zip(
        range(3, 9), (30, 60, 198, 252, 348, 444), (13, 31, 121, 184, 265, 346)
    ):
        g = bowtie_blowup(cycle_graph(k))
        assert profile_map(g, 3, _shared(6), {}).visited == visited
        assert profile_map(g, 3, _plain(6), {}).visited == relabelled


def test_summed_counts_pin_side_reuse():
    # an independent vertex's sum depends only on the colour multiset its
    # neighbours read, so each is made once per call: bowtie k = 5 and 7
    # both read the 10 triples of 3 colours, and K_{m,m} minus a matching
    # the multisets of m - 1 colours, with or without the relabelling
    # shortcut (colouring the first cover vertex 0 alone still reads them all)
    for cells in (_shared(6), _plain(6)):
        for k in (5, 7):
            assert profile_map(bowtie_blowup(cycle_graph(k)), 3, cells, {}).summed == 10
        for m, summed in ((5, 15), (7, 28)):
            assert profile_map(kpm_graph(m), 3, cells, {}).summed == summed


def test_capped_counts_pin_cap_sites(monkeypatch):
    # every cap is tested where a key is made, and a side map is filtered
    # once when it is made, so a capped read tries as many partial
    # colourings and makes as many independent-vertex sums as a filter of
    # each map would: the line read verifying a bowtie certificate, kpm's
    # build at x, y <= 2 and its line read, and Hessians at zero cells
    seen = []

    def spy(g, n, cells, caps):
        pm = profile_map(g, n, cells, caps)
        if caps:
            seen.append((pm.visited, pm.summed))
        return pm

    monkeypatch.setattr(homs, "profile_map", spy)
    for k, pin in ((5, (198, 10)), (6, (252, 10)), (7, (348, 10))):
        cert = certify_bowtie_cycle(k)
        seen.clear()
        assert verify_certificate(cert)
        assert seen == [pin]
    for m, pin in ((5, (102, 15)), (7, (246, 28))):
        seen.clear()
        assert verify_certificate(certify_kpm(m))
        assert seen == [pin, pin]
    a = SymRationalMatrix.from_rows(
        [[0, Fraction(1, 2), 1], [Fraction(1, 2), 0, Fraction(1, 3)], [1, Fraction(1, 3), 0]]
    )
    for g, pin in (
        (complete_bipartite(3, 3), (30, 10)),
        (hypercube_graph(3), (60, 10)),
        (bowtie_blowup(cycle_graph(6)), (252, 10)),
        (kpm_graph(5), (105, 15)),
    ):
        seen.clear()
        hessian_matrix(g, a)
        assert seen == [pin]


def test_shared_side_maps_match_brute_force():
    # a triangle cover 0, 1, 2 closing a pendant on 0, a vertex on each edge
    # and one on all three: independent vertices on different neighbour
    # sets that read equal colour multisets share one side map; positions 1
    # and 2 have back edges, so the first side map closing there is shifted
    # (scaled too, where a back edge weighs other than 1), and position 2,
    # the last, adds its local map to the result without a leaf to convolve
    g = Graph.from_edges(8, [
        (0, 1), (1, 2), (0, 2), (7, 0), (3, 0), (3, 1), (4, 1), (4, 2), (5, 0), (5, 2),
        (6, 0), (6, 1), (6, 2),
    ])
    back, closing, _ = _cover_plan(g)
    assert back == [(), (0,), (0, 1)]
    assert closing == [[(0,)], [(0, 1)], [(1, 2), (0, 2), (0, 1, 2)]]
    n, cells = 3, _plain(6)
    assert profile_map(g, n, cells, {}).counts == brute_profile_map(g, n, cells, {})
    # on a shared field, with every colour tried at position 0, every
    # multiset of 1, 2 and 3 colours is summed once
    pm = profile_map(g, n, _shared(6), {})
    assert pm.counts == brute_profile_map(g, n, _shared(6), {})
    assert pm.summed == 3 + 6 + 10
    # cells 0, 1, 2 are {0, 0}, {0, 1}, {0, 2}: the pendant next to colour 0,
    # its cells constants, weighs 1 - 1 + 0 and its sum cancels
    cancel = [1, -1, 0]
    assert sum(cancel) == 0
    for weighted, caps in (
        # binding caps on a back-edge cell and an independent vertex's cell
        (cells, {1: 1, 4: 2}),
        # back edges on fields with slopes: shifted and scaled
        ([(0, 0, 1), (1, 0, 2), -3, (2, 0, 5), 1, (3, 0, 1)], {}),
        # back edges on constant cells: scaled only
        ([-1, 2, 3, 2, -2, (0, 0, 1)], {}),
        (cancel + [(0, 0, 1), (1, 0, 1), (2, 0, 1)], {1: 2}),
    ):
        expected = brute_profile_map(g, n, weighted, caps)
        assert profile_map(g, n, weighted, caps).counts == expected
    assert brute_profile_map(g, n, cells, {1: 1, 4: 2}) != brute_profile_map(g, n, cells, {})
    # one colour: a single cell, and one side map per neighbourhood size
    pm = profile_map(g, 1, [(0, 0, 1)], {})
    assert pm.counts == brute_profile_map(g, 1, [(0, 0, 1)], {}) == {(13,): 1}
    assert pm.summed == 3
    for cap in (12, 13):
        assert profile_map(g, 1, [(0, 0, 1)], {0: cap}).counts == brute_profile_map(
            g, 1, [(0, 0, 1)], {0: cap}
        )


@pytest.mark.parametrize(
    "g, cells, mib",
    [
        (bowtie_blowup(cycle_graph(8)), _plain(6), 15),  # traced peak 7.6 MiB
        (kpm_graph(7), _plain(6), 12.5),  # 6.3 MiB
        (kpm_graph(8), _plain(6), 35),  # 17.3 MiB
        (bowtie_blowup(cycle_graph(8)), _shared(6), 11),  # 5.37 MiB
        (cartesian_k2(cycle_graph(6)), _shared(6), 2.5),  # 1.24 MiB
        (hypercube_graph(4), _shared(6), 22),  # 11.03 MiB
    ],
    ids=["bowtie8", "kpm7", "kpm8", "bowtie8-mirror", "c6k2-mirror", "q4-mirror"],
)
def test_memo_tables_stay_within_memory(g, cells, mib):
    # every table lives for the whole call, so the largest inputs the limit
    # admits, every cell a field, hold the most; the bounds leave about 2x
    # headroom over the traced peak, so keeping more tables shows here. The
    # relabelling shortcut refuses every cycle blow-up mirror, so a shared
    # field bounds what the mirror tables hold
    tracemalloc.start()
    try:
        profile_map(g, 3, cells, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def test_memo_tables_are_freed_at_return():
    # the recursion refers to itself, so its tables would stay alive after
    # the call until a cyclic collection; with the collector off, nothing
    # of bowtie k = 8's 7.6 MiB traced peak may outlive the dropped result
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        profile_map(bowtie_blowup(cycle_graph(8)), 3, _plain(6), {})
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert current < 0.5 * 2**20


def test_parallel_matches_serial():
    # the search and verify entry points still accept threads; it must leave
    # the result unchanged
    g = bowtie_blowup(cycle_graph(5))
    one = random_witness_search(g, 3, 5, "norming", seed=0, threads=1)
    two = random_witness_search(g, 3, 5, "norming", seed=0, threads=2)
    assert one is not None and one.to_json() == two.to_json()
    assert verify_certificate(one, threads=1) is verify_certificate(one, threads=2) is True


def test_sidorenko_examples():
    ones = SymRationalMatrix.from_rows([[1, 1], [1, 1]])
    assert sidorenko_check(cycle_graph(4), ones)
    ident = SymRationalMatrix.from_rows([[1, 0], [0, 1]])
    # direct enumeration: density 1/8 versus edge density 1/2 to the 4th
    assert brute_hom_count(cycle_graph(4), ident.rows()) == 2
    assert density(cycle_graph(4), ident) == Fraction(1, 8) >= Fraction(1, 16)
    assert sidorenko_check(cycle_graph(4), ident)
    assert sidorenko_check(K2, random_sym_matrix(3, 2, lo=0, hi=1))
    with pytest.raises(UsageError):
        sidorenko_check(cycle_graph(5), ones.scale(1))
    with pytest.raises(UsageError):
        sidorenko_check(cycle_graph(4), PM1)


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_sidorenko_random_bipartite(seed):
    a = random_sym_matrix(seed, 3, lo=0, hi=1)
    assert sidorenko_check(cycle_graph(4), a)


def test_hatami_examples():
    g = cycle_graph(4)
    u = random_sym_matrix(9, 2)
    e = g.edge_count
    lhs = density(g, u.add(u)) + density(g, u.sub(u))
    assert lhs == 2**e * density(g, u)
    assert hatami_box_check(g, u, u)
    zero = SymRationalMatrix.from_rows([[0, 0], [0, 0]])
    assert hatami_box_check(g, u, zero)
    with pytest.raises(UsageError):
        hatami_box_check(g, u, random_sym_matrix(1, 3))


def test_counting_lemma_examples():
    g = cycle_graph(4)
    a = random_sym_matrix(5, 3)
    assert counting_lemma_check(g, a, a)
    b = random_sym_matrix(6, 3)
    assert counting_lemma_check(K2, a, b)
    with pytest.raises(UsageError):
        counting_lemma_check(g, a.scale(3), b)


@given(st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_inequalities_on_random_pairs(seed):
    g = cycle_graph(4)
    a = random_sym_matrix(seed, 3)
    b = random_sym_matrix(seed + 10**6, 3)
    assert counting_lemma_check(g, a, b)
    assert hatami_box_check(g, a, b)


def test_eulerian_indicator_examples():
    assert eulerian_indicator_check(cycle_graph(3), 1)
    assert eulerian_indicator_check(path_graph(3), 1)
    assert eulerian_indicator_check(cycle_graph(4), 2)
    assert density(cycle_graph(4), block_pm_ones(2)) == 1


@given(st.integers(0, 500), st.integers(2, 5), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_eulerian_indicator_random(seed, n_vertices, half):
    g = random_graph(seed, n_vertices)
    d = density(g, block_pm_ones(half))
    assert d == (1 if eulerian(g) else 0)
    assert eulerian_indicator_check(g, half)


def test_integer_count_matches_brute_force_on_mixed_denominators():
    # kernels mixing unrelated denominators, negative entries, zeros and
    # ones: the count is formed over one denominator L^e(H) and must equal
    # plain rational enumeration
    rng = _random.Random(20191019)
    dens = [1, 2, 3, 5, 7, 9, 12]
    seen_negative = seen_mixed = 0
    for case in range(40):
        n = rng.randint(1, 4)
        g = random_graph(rng.randrange(10**6), rng.randint(1, 6 if n == 4 else 7))
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                q = rng.choice(dens)
                kind = rng.random()
                x = Fraction(rng.randint(-2 * q, 2 * q), q)
                if kind < 0.15:
                    x = Fraction(0)
                elif kind < 0.3:
                    x = Fraction(1)
                rows[i][j] = rows[j][i] = x
        tri = [rows[i][j] for i in range(n) for j in range(i, n)]
        seen_negative += any(x < 0 for x in tri)
        seen_mixed += len({x.denominator for x in tri}) > 1
        a = SymRationalMatrix.from_rows(rows)
        assert weighted_hom_count(g, a) == brute_hom_count(g, rows)
    assert seen_negative > 10 and seen_mixed > 10
