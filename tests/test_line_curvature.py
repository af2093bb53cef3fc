"""The curvature along a line, v^T H v = 2 [s^2] hom(H, A + sD), against
the quadratic form of the full Hessian, and the work a verification does."""

import importlib.util
import random as _random
from fractions import Fraction
from pathlib import Path

import pytest

import graphnorms.homs as homs
from graphnorms import (
    Certificate,
    SizeGuardError,
    SymRationalMatrix,
    UsageError,
    bowtie_blowup,
    certify_bowtie_cycle,
    certify_kpm,
    cycle_graph,
    hessian_matrix,
    quadratic_form,
    random_witness_search,
    verify_certificate,
)
from graphnorms.hessians import line_curvature
from graphnorms.matrices import pair_list
from graphnorms.plans import _cover_plan
from graphnorms.polys import SparsePoly
from oracles import brute_count_polynomial, random_graph

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "certify_all.py"


def _search_panel():
    spec = importlib.util.spec_from_file_location("certify_all", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SEARCH_PANEL


def _sweep():
    """Every certificate ``scripts/certify_all.py`` writes with a curvature
    value: bowtie k = 5..7, kpm m = 5 and 7, and its search panel's finds."""
    found = [certify_bowtie_cycle(k) for k in (5, 6, 7)]
    found += [certify_kpm(m) for m in (5, 7)]
    for label, g, mode, seed, trials in _search_panel():
        found.append(random_witness_search(g, 3, trials, mode, seed))
    return [c for c in found if isinstance(c, Certificate)]


SWEEP = _sweep()


@pytest.fixture
def line_maps(monkeypatch):
    """The key counts of every profile map built while it is in use."""
    sizes = []
    real = homs.profile_map

    def counting(*args):
        pm = real(*args)
        sizes.append(len(pm.counts))
        return pm

    monkeypatch.setattr(homs, "profile_map", counting)
    return sizes


def _line_and_form(g, a, pairs, v, sizes):
    sizes.clear()
    got = line_curvature(g, a, pairs, v)
    assert len(sizes) == 1 and sizes[0] <= 3, sizes  # s is capped at degree 2
    return got, quadratic_form(hessian_matrix(g, a, pairs).matrix, v)


def test_line_matches_the_hessian_on_random_graphs(line_maps):
    rng = _random.Random(20191024)
    entries = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3),
               Fraction(3, 4), Fraction(2)]
    slopes = [Fraction(0), Fraction(1), Fraction(-3), Fraction(5, 6), Fraction(-7, 4), Fraction(2)]
    seen = set()
    for case in range(90):
        n = rng.randint(1, 3)
        g = random_graph(rng.randrange(10**6), rng.randint(2, 7), rng.choice((0.4, 0.7, 0.95)))
        signed = rng.random() < 0.5
        pool = entries if signed else [x for x in entries if x >= 0]
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice(pool)
        a = SymRationalMatrix.from_rows(rows)
        pairs = rng.sample(pair_list(n), rng.randint(1, n * (n + 1) // 2))
        pairs = [(j, i) if rng.random() < 0.3 else (i, j) for (i, j) in pairs]
        v = [rng.choice(slopes) for _ in pairs]
        got, want = _line_and_form(g, a, pairs, v, line_maps)
        assert got == want, (case, g, rows, pairs, v)
        at = [a.at(i, j) for (i, j) in pairs]
        seen.update(
            name
            for name, hit in (
                ("zero witness cell", 0 in at),
                ("zero slope", 0 in v),
                ("negative slope", any(x < 0 for x in v)),
                ("rational slope", any(x.denominator > 1 for x in v)),
                ("signed witness", any(x < 0 for x in a.tri)),
                ("rational witness", any(x.denominator > 1 for x in a.tri)),
                ("back edges", any(_cover_plan(g)[0])),
                ("nonzero value", want != 0),
            )
            if hit
        )
    assert len(seen) == 8, seen


def test_line_matches_the_hessian_on_back_edges_of_odd_cycles(line_maps):
    # an odd cycle's cover holds an edge, so selected cells sit on cover-cover
    # edges and the back-edge loop takes both options of an affine cell
    a = SymRationalMatrix.from_rows([[0, Fraction(1, 2)], [Fraction(1, 2), Fraction(-2, 3)]])
    for k in (3, 5, 7):
        g = cycle_graph(k)
        assert any(_cover_plan(g)[0])
        for pairs, v in (
            ([(0, 0), (0, 1), (1, 1)], [Fraction(3), Fraction(-1, 2), Fraction(5, 7)]),
            ([(1, 1), (0, 1)], [Fraction(0), Fraction(4)]),
        ):
            got, want = _line_and_form(g, a, pairs, v, line_maps)
            assert got == want != 0, (k, pairs)


@pytest.mark.parametrize("cert", SWEEP, ids=[f"{c.kind}-{c.graph.n}v-{i}" for i, c in enumerate(SWEEP)])
def test_line_matches_the_hessian_on_the_sweep(cert, line_maps):
    got, want = _line_and_form(cert.graph, cert.witness, cert.pairs, cert.direction, line_maps)
    assert got == want == cert.value


def test_verifying_the_sweep_reads_one_small_map(monkeypatch, line_maps):
    # counters, not timings: each verification enumerates once, keeps at most
    # the keys of s^0, s^1 and s^2, and builds no Hessian read plan
    plans = []
    real_plan = SparsePoly._plan

    def planning(self, axes):
        plans.append(axes)
        return real_plan(self, axes)

    monkeypatch.setattr(SparsePoly, "_plan", planning)
    assert len(SWEEP) == 14
    for cert in SWEEP:
        line_maps.clear()
        assert verify_certificate(cert)
        assert len(line_maps) == 1 and line_maps[0] <= 3, line_maps
    assert plans == []


def test_line_checks_the_selection_as_the_hessian_does():
    g = bowtie_blowup(cycle_graph(5))
    a = SymRationalMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 0]])
    for pairs, message in (
        ([], "empty pair selection"),
        ([(0, 2), (2, 0)], "duplicate pair selection"),
        ([(0, 3)], "pair (0,3) out of range"),
    ):
        for call in (lambda: hessian_matrix(g, a, pairs), lambda: line_curvature(g, a, pairs, [1])):
            with pytest.raises(UsageError) as err:
                call()
            assert str(err.value) == message
    with pytest.raises(UsageError) as err:
        line_curvature(g, a, [(2, 2), (0, 2)], [1, 2, 3])
    assert str(err.value) == "direction length mismatch"


def test_verification_builds_no_hessian_so_has_no_pair_limit():
    # all 105 pairs of a 14 x 14 signed witness: 105^2 dense entries pass
    # the Hessian's work limit, but the line read builds no Hessian
    rng = _random.Random(14)
    n = 14
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(-1)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(rng.choice((-1, 0, 1)), 3)
    pairs = tuple(pair_list(n))
    direction = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in pairs)
    g = cycle_graph(3)
    a = SymRationalMatrix.from_rows(rows)
    with pytest.raises(SizeGuardError):
        hessian_matrix(g, a)
    affine = [(rows[i][j], x, "s") for (i, j), x in zip(pairs, direction)]
    want = 2 * brute_count_polynomial(g, affine, {"s": 2})[(2,)]
    assert want < 0
    assert line_curvature(g, a, pairs, direction) == want
    cert = Certificate(
        kind="not_norming", graph=g, n=n, witness=a, pairs=pairs,
        direction=direction, value=want,
    )
    assert verify_certificate(Certificate.from_json(cert.to_json()))
