import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnorms import (
    Graph,
    UsageError,
    bowtie_blowup,
    cartesian_k2,
    complete_bipartite,
    cycle_graph,
    hypercube_graph,
    kpm_graph,
    structural_report,
    verify_bowtie_structure,
)
from graphnorms.graphs import load_graph_text
from oracles import (
    blowup_to_cartesian,
    brute_bowtie_structure,
    brute_structure,
    maps_onto,
    path_graph,
    random_graph,
)

# C_4 around the cube in Gray-code order 0, 1, 3, 2, its copy on bit 2: the
# map carrying cartesian_k2(C_4) onto Q_3
C4_BOX_K2_TO_CUBE = [0, 1, 3, 2, 4, 5, 7, 6]


def test_cycle_4():
    g = cycle_graph(4)
    assert g.n == 4
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_hypercube_3():
    g = hypercube_graph(3)
    assert g.n == 8
    assert g.edge_count == 12
    assert structural_report(g)["regular"] == 3


def test_kpm_3_is_a_six_cycle():
    g = kpm_graph(3)
    # explicit hamiltonian cycle 0-4-2-3-1-5-0 in K_{3,3} minus matching
    walk = [0, 4, 2, 3, 1, 5]
    cycle_edges = {
        (min(a, b), max(a, b)) for a, b in zip(walk, walk[1:] + walk[:1])
    }
    assert set(g.edges) == cycle_edges
    # the walk's i-th vertex goes to i (the walk happens to be an involution)
    to_cycle = [0] * 6
    for i, v in enumerate(walk):
        to_cycle[v] = i
    assert maps_onto(g, to_cycle, cycle_graph(6))


def test_graph_validation():
    with pytest.raises(UsageError):
        Graph(3, ((0, 0),))
    with pytest.raises(UsageError):
        Graph(2, ((0, 5),))
    with pytest.raises(UsageError):
        Graph.from_edges(0, [])
    with pytest.raises(UsageError):
        cycle_graph(2)
    with pytest.raises(UsageError):
        kpm_graph(1)


def test_bowtie_blowup_shape():
    h = cycle_graph(5)
    g = bowtie_blowup(h)
    assert g.n == 10
    assert g.edge_count == h.n + 2 * h.edge_count == 15
    rep = structural_report(g)
    assert rep["bipartite"]
    assert rep["classes"] == [list(range(5)), list(range(5, 10))]
    assert rep["regular"] == 3
    assert not rep["eulerian"]


def test_bowtie_blowup_isomorphism_claims():
    # C_3's blow-up is K_{3,3} with the same labels; C_4's goes onto the cube
    # through C_4 box K_2 (fixing 0, 2, 4, 6), then C4_BOX_K2_TO_CUBE
    assert bowtie_blowup(cycle_graph(3)) == complete_bipartite(3, 3)
    to_cube = [0, 5, 3, 6, 4, 1, 7, 2]
    assert maps_onto(bowtie_blowup(cycle_graph(4)), to_cube, hypercube_graph(3))


def test_bowtie_c5_is_mobius_ladder():
    k55 = complete_bipartite(5, 5)
    ten_cycle = [(0, 5), (5, 1), (1, 6), (6, 2), (2, 7), (7, 3), (3, 8), (8, 4), (4, 9), (9, 0)]
    removed = {(min(u, v), max(u, v)) for (u, v) in ten_cycle}
    mobius = Graph.from_edges(10, set(k55.edges) - removed)
    assert mobius.edge_count == 15
    # v -> v and 5+v -> 5+(v+2) mod 5
    to_ladder = [0, 1, 2, 3, 4, 7, 8, 9, 5, 6]
    assert maps_onto(bowtie_blowup(cycle_graph(5)), to_ladder, mobius)


def test_cartesian_k2():
    assert maps_onto(cartesian_k2(path_graph(2)), [0, 1, 3, 2], cycle_graph(4))
    assert maps_onto(cartesian_k2(cycle_graph(4)), C4_BOX_K2_TO_CUBE, hypercube_graph(3))
    c6 = cycle_graph(6)
    assert maps_onto(bowtie_blowup(c6), blowup_to_cartesian(c6), cartesian_k2(c6))


@given(st.integers(0, 400), st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_blowup_edge_count_and_bipartite(seed, n):
    h = random_graph(seed, n)
    g = bowtie_blowup(h)
    assert g.edge_count == h.n + 2 * h.edge_count
    rep = structural_report(g)
    assert rep["bipartite"]
    assert len(rep["classes"][0]) == len(rep["classes"][1]) == h.n


@given(st.integers(0, 400), st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_blowup_matches_cartesian_for_bipartite(seed, n):
    h = random_graph(seed, n, 0.4)
    if structural_report(h)["bipartite"]:
        assert maps_onto(bowtie_blowup(h), blowup_to_cartesian(h), cartesian_k2(h))


@pytest.mark.parametrize(
    "h",
    [
        path_graph(5),
        path_graph(8),
        cycle_graph(6),
        cycle_graph(8),
        complete_bipartite(2, 3),
        complete_bipartite(3, 5),
        complete_bipartite(1, 7),
        hypercube_graph(3),
    ],
)
def test_blowup_matches_cartesian_bipartite_families(h):
    assert maps_onto(bowtie_blowup(h), blowup_to_cartesian(h), cartesian_k2(h))


def test_structural_report_examples():
    rep = structural_report(kpm_graph(4))
    assert rep["regular"] == 3
    assert not rep["eulerian"]
    assert not structural_report(cycle_graph(5))["bipartite"]
    assert structural_report(cycle_graph(6))["eulerian"]


def test_structural_report_matches_brute_force():
    # random graphs, some with isolated vertices appended, plus edgeless
    # graphs and odd cycles; each whole report, keys in order, against the
    # oracle's
    graphs = [Graph(1, ()), Graph(4, ()), cycle_graph(5), cycle_graph(7)]
    for seed in range(200):
        g = random_graph(seed, 1 + seed % 9, (0.15, 0.3, 0.5, 0.8)[seed % 4])
        graphs.append(Graph(g.n + seed % 3, g.edges))
    reports = []
    for g in graphs:
        rep = structural_report(g)
        assert list(rep.items()) == list(brute_structure(g).items()), g
        reports.append(rep)
    degrees = [rep["degree_sequence"] for rep in reports]
    assert sum(0 in d and max(d) > 0 for d in degrees) > 20  # isolated vertices
    assert sum(rep["regular"] == 0 for rep in reports) > 5  # edgeless
    assert sum(rep["classes"] is None for rep in reports) > 20  # odd cycles
    assert sum(rep["regular"] is None for rep in reports) > 20  # irregular
    assert sum(rep["classes"] is not None and rep["edges"] > 2 for rep in reports) > 20


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_bowtie_structure_holds_above_four(k):
    rep = verify_bowtie_structure(bowtie_blowup(cycle_graph(k)))
    assert rep["edge_in_unique_4cycle"] is not None
    assert rep["two_edge_sets_ok"]
    assert rep["counterexample"] is None


@pytest.mark.parametrize("k", [3, 4])
def test_bowtie_structure_fails_first_condition_small(k):
    rep = verify_bowtie_structure(bowtie_blowup(cycle_graph(k)))
    assert rep["edge_in_unique_4cycle"] is None


def test_bowtie_structure_matches_brute_force():
    # random graphs, dense enough that condition (ii) often fails, so the
    # counterexample's order is checked as well as the verdicts
    reports = []
    for seed in range(150):
        g = random_graph(seed, 2 + seed % 9, (0.2, 0.35, 0.5, 0.8)[seed % 4])
        rep = verify_bowtie_structure(g)
        assert rep == brute_bowtie_structure(g), (seed, g)
        reports.append(rep)
    assert sum(r["counterexample"] is not None for r in reports) > 20
    assert sum(r["edge_in_unique_4cycle"] is not None for r in reports) > 20
    for g in (bowtie_blowup(cycle_graph(4)), bowtie_blowup(cycle_graph(5)), kpm_graph(4)):
        assert verify_bowtie_structure(g) == brute_bowtie_structure(g)


def test_sparse_adjacency_reads_the_edge_list_alone():
    g = Graph(10**12, ((0, 1), (1, 5)))
    adj = g.sparse_adjacency()
    assert adj == {0: [1], 1: [0, 5], 5: [1]}
    assert list(adj) == [0, 1, 5]


def test_graph_json_and_text_round_trip():
    g = kpm_graph(3)
    assert Graph.from_json(g.to_json()) == g
    text = "\n".join(f"{u} {v}" for (u, v) in g.edges)
    assert load_graph_text(text) == g
    import json

    assert load_graph_text(json.dumps(g.to_json())) == g
