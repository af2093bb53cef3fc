import hashlib
import json
from fractions import Fraction

import pytest

from graphnorms import (
    Certificate,
    Graph,
    Refusal,
    SizeGuardError,
    SymbolicTemplate,
    SymRationalMatrix,
    UsageError,
    bowtie_blowup,
    certify_bowtie_cycle,
    certify_kpm,
    complete_bipartite,
    cycle_graph,
    hypercube_graph,
    kpm_graph,
    psd_certify,
    random_witness_search,
    screen_necessary,
    symbolic_profile,
    verify_certificate,
)
from graphnorms.certificates import SCREENS, _curvature_certificate
from graphnorms.hessians import line_curvature
from graphnorms.homs import Affine
from oracles import brute_screen_failures, path_graph
from test_certify_all import SCRIPT, _load_script


def test_screen_necessary():
    c = screen_necessary(cycle_graph(5), "weakly_norming")
    assert c.kind == "screening_failure" and c.reason == "non-bipartite"
    assert verify_certificate(c)
    c = screen_necessary(kpm_graph(4), "norming")
    assert c.reason == "non-eulerian"
    assert verify_certificate(c)
    # bipartite passes the weak screen even when degrees are odd
    assert screen_necessary(bowtie_blowup(cycle_graph(5)), "weakly_norming") is None
    assert screen_necessary(cycle_graph(4), "norming") is None
    with pytest.raises(UsageError):
        screen_necessary(cycle_graph(4), "bogus")


def test_screen_odd_edge_count_reason_verifies():
    # a bipartite eulerian graph always has an even edge count (its edges
    # decompose into even cycles), so this reason only shows up on
    # hand-built certificates; verification still checks it independently
    cert = Certificate(
        kind="screening_failure", graph=cycle_graph(5), reason="odd edge count"
    )
    assert verify_certificate(cert)
    cert = Certificate(
        kind="screening_failure", graph=cycle_graph(6), reason="odd edge count"
    )
    assert not verify_certificate(cert)
    triangle = screen_necessary(cycle_graph(3), "norming")
    assert triangle.reason == "non-bipartite"  # bipartite screen fires first


SCREEN_PANEL = {
    "C3": cycle_graph(3),
    "C5": cycle_graph(5),
    "C6": cycle_graph(6),
    "K23": complete_bipartite(2, 3),
    "K13": complete_bipartite(1, 3),
    "kpm4": kpm_graph(4),
    "edgeless": Graph(3, ()),
}


@pytest.mark.parametrize("name", SCREEN_PANEL)
@pytest.mark.parametrize("mode", ["weakly_norming", "norming"])
def test_screens_match_the_brute_force_oracle(name, mode):
    # the first screen of the mode that the graph fails, bipartite first and
    # the two norming screens only in norming mode; and verification decides
    # every reason by the same test as the oracle
    g = SCREEN_PANEL[name]
    fails = brute_screen_failures(g)
    order = ["non-bipartite"] + (["non-eulerian", "odd edge count"] if mode == "norming" else [])
    expected = next((reason for reason in order if fails[reason]), None)
    cert = screen_necessary(g, mode)
    assert (cert and cert.reason) == expected
    if cert is not None:
        assert cert.theorem == SCREENS[expected][0]
        assert verify_certificate(Certificate.from_json(cert.to_json()))
    assert set(SCREENS) == set(fails)
    for reason, failed in fails.items():
        claim = Certificate(kind="screening_failure", graph=g, reason=reason)
        assert verify_certificate(claim) == failed


def _non_psd():
    return psd_certify(SymRationalMatrix.from_rows([[-1]]))


@pytest.mark.parametrize(
    "rows,symbol",
    [
        ([["x", "x"], ["x", 1]], "x"),  # one symbol in two cells
        ([[1, Affine(1, 1, "x")], [Affine(1, 1, "x"), 1]], "x"),  # a constant
        ([[Affine(0, 2, "x"), 1], [1, 1]], "x"),  # a slope other than 1
        ([[Affine(0, -1, "x"), 1], [1, 1]], "x"),
        ([["x", 1], [1, 1]], "y"),  # no cell at all
    ],
    ids=["two-cells", "constant", "slope-2", "slope-minus-1", "absent"],
)
def test_certificate_assembly_refuses_symbols_that_are_not_one_bare_cell(rows, symbol):
    # a direction along such a symbol is no direction in the certificate's
    # pairs, so the certificate could not verify
    t = SymbolicTemplate.from_rows(rows)
    with pytest.raises(RuntimeError, match="not one bare template cell"):
        _curvature_certificate("not_norming", cycle_graph(4), t, (symbol,), {"x": 0}, _non_psd(), "")


def test_certificate_assembly_reads_pairs_in_the_order_of_the_symbols():
    t = SymbolicTemplate.from_rows([[1, 1, "y"], [1, "z", 1], ["y", 1, "x"]])
    point = {"x": Fraction(1, 2), "y": Fraction(1, 3), "z": 0}
    for symbols, pairs in ((("x", "y"), ((2, 2), (0, 2))), (("y", "z"), ((0, 2), (1, 1)))):
        cert = _curvature_certificate("not_norming", cycle_graph(4), t, symbols, point, _non_psd(), "")
        assert cert.pairs == pairs
        assert cert.n == 3 and cert.witness == t.substitute(point)


def test_certify_bowtie_five():
    cert = certify_bowtie_cycle(5)
    assert isinstance(cert, Certificate)
    assert cert.kind == "not_weakly_norming"
    assert cert.n == 3 and cert.witness.n == 3
    assert all(x > 0 for x in cert.witness.tri)
    assert cert.value < 0
    assert cert.degree_evidence["x2_coeff"] == "0"
    assert Fraction(cert.degree_evidence["xy_coeff"]) >= 1
    assert verify_certificate(cert)


@pytest.mark.parametrize("k", [3, 4])
def test_certify_bowtie_refuses_small(k):
    res = certify_bowtie_cycle(k)
    assert isinstance(res, Refusal)
    assert "xy_coeff" in res.reason
    assert res.evidence["x2_coeff"] == "0"
    assert res.evidence["xy_coeff"] == "0"


def test_certify_bowtie_six():
    cert = certify_bowtie_cycle(6)
    assert isinstance(cert, Certificate)
    assert verify_certificate(cert)


def test_certificate_json_round_trip():
    cert = certify_bowtie_cycle(5)
    data = json.loads(json.dumps(cert.to_json()))
    back = Certificate.from_json(data)
    assert back == cert
    assert verify_certificate(back)


def test_tampered_certificate_fails():
    cert = certify_bowtie_cycle(5)
    data = cert.to_json()
    data["value"] = "-1/7"
    assert not verify_certificate(Certificate.from_json(data))
    data = cert.to_json()
    data["witness"]["entries"][0][0] = "1/3"
    assert not verify_certificate(Certificate.from_json(data))
    data = cert.to_json()
    data["value"] = "5"  # a non-negative value can never certify
    assert not verify_certificate(Certificate.from_json(data))


def test_zero_value_certificate_does_not_verify():
    # the curvature of K_2 at [[1/2]] along [1] is exactly 0: the value
    # matches, but a curvature of 0 refutes nothing
    k2 = Graph(2, ((0, 1),))
    witness = SymRationalMatrix.from_rows([[Fraction(1, 2)]])
    assert line_curvature(k2, witness, ((0, 0),), (1,)) == 0
    cert = Certificate(
        kind="not_weakly_norming",
        graph=k2,
        n=1,
        witness=witness,
        pairs=((0, 0),),
        direction=(Fraction(1),),
        value=Fraction(0),
    )
    assert verify_certificate(cert) is False


def test_weak_certificate_needs_a_witness_in_the_unit_interval():
    # kpm 5's certificate relabelled as a weak-norming refutation: its value
    # still matches exactly, but its witness holds -1, so it is no graphon
    cert = certify_kpm(5)
    data = cert.to_json()
    data["kind"] = "not_weakly_norming"
    relabelled = Certificate.from_json(data)
    assert line_curvature(cert.graph, cert.witness, cert.pairs, cert.direction) == cert.value
    assert relabelled.value == cert.value
    assert not relabelled.witness.entries_in(0, 1)
    assert not verify_certificate(relabelled)


def test_certify_kpm_five():
    cert = certify_kpm(5)
    assert isinstance(cert, Certificate)
    assert cert.kind == "not_norming"
    ev = cert.degree_evidence
    assert ev["thresholds"] == {"x2": 8, "xy": 5, "y2_vanish_upto": 2}
    assert ev["observed_min_eps_degree"]["x2"] >= 8
    assert ev["observed_min_eps_degree"]["xy"] >= 5
    assert Fraction(ev["xy_coeff_at_threshold"]) != 0
    y2min = ev["observed_min_eps_degree"]["y2"]
    assert y2min is None or y2min > 2
    assert Fraction(ev["epsilon"]) > 0
    assert cert.value < 0
    assert verify_certificate(cert)


# SHA-256 of each certificate's JSON (sorted keys, tool_version left out):
# the pipelines' outputs are pinned byte for byte, whatever the engine does
GOLDEN = {
    ("bowtie", 5): "83999373b058ce9df1974ccc5dbcc593b265c008c75f53581af9f9adc0561206",
    ("bowtie", 6): "6189eb6b44e43d709db14f92576c02a2e3f7e7785d1acb2ee3cf221993bd1e99",
    ("bowtie", 7): "5c17387f89bace0206cb9f09aaae7341d2dff740fbd68f8d1f2b8f63bec017a7",
    ("bowtie", 8): "c33542367ca035381f641fa3d2a24b29124ccb55bf3c77fd3965aee95762cc75",
    ("kpm", 4): "054aa36dc4a994229f2f33f5247d104a485fb0186cf2a5a8f858206053b6730a",
    ("kpm", 5): "8775cd0b18f45ac4eaf6de0dd5321b49d9f52d99c30e0ba404bce363e0552c9c",
    ("kpm", 6): "d58b4ba0b66db96648bd22ebe5b1f9abfc30b463fa55bcd402d98a77b6d91bce",
    ("kpm", 7): "e6207ad863f0cfa6921fd45af5e8841597d6f092cdba0b82e07828b51afe1a9c",
}


@pytest.mark.parametrize(
    "family, k", sorted(GOLDEN), ids=[f"{f}{k}" for f, k in sorted(GOLDEN)]
)
def test_certificates_are_byte_identical_to_golden(family, k):
    cert = (certify_bowtie_cycle if family == "bowtie" else certify_kpm)(k)
    data = cert.to_json()
    del data["tool_version"]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN[family, k]
    assert verify_certificate(cert)


# the same recipe for the witness search, at the benchmark's search panel
# and the two edge-transitive and four weakly norming rows of
# scripts/certify_all.py's panel: a digest where a trial finds a
# certificate, None where the budget runs out
SEARCH_GOLDEN = {
    ("mobius", "weakly_norming", 0, 60): "1d6537c92df202ffcc705e86dc33505c2633a25ab0a0a4686cece2cdca002341",
    ("mobius", "weakly_norming", 1, 60): "1103167f0c6f70bf5e817c9c682fa5549c31588d6d063b2adb59f3e00bfeeb5d",
    ("mobius", "weakly_norming", 2, 60): "6e48cef7796b92769b3d96df319024ed34569e0ec80bf35a8af48de1c94ba99c",
    ("kpm5", "norming", 0, 20): "3c7beb9889b71ede60bf9f61ed985234f4be51843ac24683c158deee5571b7b7",
    ("kpm5", "norming", 1, 20): "f6faa989b6cf594af04bfb8e4c7366a172f032c9e6027e0831c1564c07ee6108",
    ("kpm5", "norming", 2, 20): "86bad688b5e7ecebbe4fdff69767f84d4369fe31ed3c9769bb4064150f830725",
    ("kpm5", "norming", 3, 20): "48b287470e93750b9279766ef084e85bf1a730a9661a3e61627f97682a4e9660",
    ("k33", "weakly_norming", 2, 100): None,
    ("q3", "weakly_norming", 2, 50): None,
    ("c6", "norming", 2, 100): None,
    ("heawood", "weakly_norming", 23, 30): "5a09defd82c7de9cde18ccfb995a10071ba4d0d749a63cc9718aca17d0751bae",
    ("mkantor", "weakly_norming", 22, 10): "fc00db557ab6b00f8ae68d3ce260b68d0e53ab42fcab2f958feb09f75cffde78",
    ("k44", "weakly_norming", 0, 300): None,
    ("q3", "weakly_norming", 0, 300): None,
    ("c8", "weakly_norming", 0, 300): None,
    ("kpm4", "weakly_norming", 0, 300): None,
}
SEARCH_GRAPHS = {
    "mobius": lambda: bowtie_blowup(cycle_graph(5)),
    "kpm5": lambda: kpm_graph(5),
    "k33": lambda: complete_bipartite(3, 3),
    "q3": lambda: hypercube_graph(3),
    "c6": lambda: cycle_graph(6),
    "k44": lambda: complete_bipartite(4, 4),
    "c8": lambda: cycle_graph(8),
    "kpm4": lambda: kpm_graph(4),
    # the edge lists of scripts/certify_all.py
    "heawood": lambda: _load_script().heawood_graph(),
    "mkantor": lambda: _load_script().mobius_kantor_graph(),
}


@pytest.mark.parametrize(
    "name, mode, seed, trials",
    sorted(SEARCH_GOLDEN),
    ids=[f"{name}-seed{seed}" for name, _, seed, _ in sorted(SEARCH_GOLDEN)],
)
def test_search_certificates_are_byte_identical_to_golden(name, mode, seed, trials):
    cert = random_witness_search(SEARCH_GRAPHS[name](), 3, trials, mode, seed=seed)
    if cert is None:
        assert SEARCH_GOLDEN[name, mode, seed, trials] is None
        return
    data = cert.to_json()
    del data["tool_version"]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == SEARCH_GOLDEN[name, mode, seed, trials]
    assert verify_certificate(cert)


@pytest.mark.parametrize(
    "name, seed, trials", [("heawood", 23, 30), ("mkantor", 22, 10)], ids=["heawood", "mkantor"]
)
def test_edge_transitive_finds_match_the_engine_free_oracle(name, seed, trials):
    # bench/oracle.py imports no package code: it sums the count along the
    # line from the witness in the direction over one independent set
    oracle = _load_script(SCRIPT.parents[1] / "bench" / "oracle.py")
    g = SEARCH_GRAPHS[name]()
    cert = random_witness_search(g, 3, trials, "weakly_norming", seed=seed)
    value = oracle.second_derivative(
        g.n, list(g.edges), cert.witness.rows(), list(cert.pairs), list(cert.direction)
    )
    assert cert.value < 0 and value == cert.value


def test_certify_kpm_refusals_and_screen():
    res = certify_kpm(3)
    assert isinstance(res, Refusal)
    screen = certify_kpm(4)
    assert isinstance(screen, Certificate)
    assert screen.kind == "screening_failure" and screen.reason == "non-eulerian"
    assert verify_certificate(screen)
    with pytest.raises(UsageError):
        certify_kpm(1)


def test_positivize_fails_for_weakly_norming_graphs():
    # the 3-cube and C_4 both keep a PSD Hessian on positive matrices: no
    # step of the bowtie template's eta walk gives a non-PSD (x, y) Hessian
    t = SymbolicTemplate.from_rows([[1, 1, "y"], [1, "z", 1], ["y", 1, "x"]])
    for g in (bowtie_blowup(cycle_graph(4)), cycle_graph(4)):
        profile = symbolic_profile(g, t)
        for j in range(1, 25):
            point = dict.fromkeys(t.symbols, Fraction(1, 2**j))
            assert psd_certify(profile.hessian(("x", "y"), point)).is_psd


def test_random_search_finds_p4_witness():
    cert = random_witness_search(path_graph(4), 3, 10**4, "weakly_norming", seed=0)
    assert cert is not None
    assert cert.kind == "not_weakly_norming"
    assert all(x >= 0 for x in cert.witness.tri)
    assert verify_certificate(cert)
    again = random_witness_search(path_graph(4), 3, 10**4, "weakly_norming", seed=0)
    assert again == cert


def test_random_search_finds_mobius_witness():
    g = bowtie_blowup(cycle_graph(5))
    cert = random_witness_search(g, 3, 200, "weakly_norming", seed=0)
    assert cert is not None
    assert all(x >= 0 for x in cert.witness.tri)
    assert verify_certificate(cert)


def test_random_search_respects_c4():
    assert random_witness_search(cycle_graph(4), 2, 500, "weakly_norming", seed=0) is None
    assert random_witness_search(cycle_graph(4), 2, 500, "norming", seed=0) is None


def test_random_search_bounds_its_zero_pattern_cache():
    # C_4 at n = 4 costs the engine 4^2 colourings per enumeration, but
    # every trial would read a polynomial in 10 cell symbols
    with pytest.raises(SizeGuardError, match="the symbols it reads every trial"):
        random_witness_search(cycle_graph(4), 4, 10, "weakly_norming")


def _trial_matrices(n, mode, seed, trials):
    from graphnorms.matrices import sample_matrix

    matrix_class = "nonnegative" if mode == "weakly_norming" else "signed"
    for trial in range(trials):
        trial_seed = (seed * 0x9E3779B1 + trial) % 2**63
        yield trial, sample_matrix(n, matrix_class, trial_seed)


def _plain_search(g, n, trials, mode, seed):
    """The witness search with one fresh hessian_matrix per trial; returns
    the certificate JSON, or None."""
    from graphnorms.hessians import hessian_matrix, psd_certify
    from graphnorms.matrices import pair_list

    matrix_class = "nonnegative" if mode == "weakly_norming" else "signed"
    kind = "not_weakly_norming" if mode == "weakly_norming" else "not_norming"
    for trial, a in _trial_matrices(n, mode, seed, trials):
        res = psd_certify(hessian_matrix(g, a).matrix)
        if not res.is_psd:
            cert = Certificate(
                kind=kind,
                graph=g,
                n=n,
                witness=a,
                pairs=tuple(pair_list(n)),
                direction=res.witness,
                value=res.value,
                theorem=(
                    "randomized refutation: the count-polynomial Hessian has a "
                    f"negative direction at a {matrix_class} step matrix "
                    f"(trial {trial})"
                ),
                seed=seed,
            )
            return json.dumps(cert.to_json(), indent=2)
    return None


@pytest.mark.parametrize(
    "g, mode, seed, trials",
    [
        (bowtie_blowup(cycle_graph(5)), "weakly_norming", 0, 60),
        (bowtie_blowup(cycle_graph(5)), "weakly_norming", 3, 60),
        (kpm_graph(5), "norming", 1, 20),
        (kpm_graph(5), "norming", 7, 20),
        (complete_bipartite(3, 3), "weakly_norming", 7, 40),
        (cycle_graph(6), "norming", 5, 40),
    ],
    ids=["mobius-0", "mobius-3", "kpm5-1", "kpm5-7", "k33-7", "c6-5"],
)
def test_search_matches_plain_loop(g, mode, seed, trials):
    want = _plain_search(g, 3, trials, mode, seed)
    got = random_witness_search(g, 3, trials, mode, seed)
    assert (None if got is None else json.dumps(got.to_json(), indent=2)) == want


def test_search_enumerates_once_per_search(monkeypatch):
    import graphnorms.homs as homs

    calls = []
    real = homs.profile_map

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(homs, "profile_map", counting)
    g = complete_bipartite(3, 3)  # weakly norming: every trial runs
    assert random_witness_search(g, 3, 40, "weakly_norming", seed=11) is None
    patterns = {
        tuple(x == 0 for x in a.tri)
        for _, a in _trial_matrices(3, "weakly_norming", 11, 40)
    }
    assert len(patterns) == 19
    # one uncapped enumeration with every cell a plain symbol, field f on
    # cell f, read 19 ways; the template is symmetric under relabelling
    # colours, so the engine colours the first cover vertex 0 alone
    assert len(calls) == 1
    assert calls[0][1:] == (3, [(f, 0, 1) for f in range(6)], {})
    assert homs._relabels(g, *calls[0][2:])
    assert random_witness_search(g, 3, 0, "weakly_norming", seed=11) is None
    assert len(calls) == 1


def test_psd_certify_runs_only_on_the_refuted_point(monkeypatch):
    # a deterministic count: every point is decided on the read's integer
    # totals, and only the one that is not PSD becomes a Fraction matrix
    # for psd_certify, in all three walks
    import graphnorms.certificates as certs

    certified, decided = [], []
    real_certify, real_eliminate = certs.psd_certify, certs._eliminate
    monkeypatch.setattr(certs, "psd_certify", lambda m: certified.append(m) or real_certify(m))
    monkeypatch.setattr(certs, "_eliminate", lambda *a: decided.append(a) or real_eliminate(*a))
    cert = certs.random_witness_search(bowtie_blowup(cycle_graph(5)), 3, 60, "weakly_norming", seed=0)
    trial = int(cert.theorem.rsplit("trial ", 1)[1].rstrip(")"))
    assert trial > 0 and len(decided) == trial + 1 and len(certified) == 1
    assert certs.random_witness_search(complete_bipartite(3, 3), 3, 100, "weakly_norming", seed=2) is None
    assert len(decided) == trial + 101 and len(certified) == 1
    for certify in (lambda: certify_bowtie_cycle(5), lambda: certify_kpm(5)):
        certified.clear()
        assert isinstance(certify(), Certificate) and len(certified) == 1


def test_disagreeing_psd_decisions_are_a_fault(monkeypatch, capsys, tmp_path):
    # K_{3,3} is weakly norming, so every point of its search is PSD; an
    # elimination that calls one not PSD disagrees with psd_certify on the
    # same point, which is a fault in the toolkit, not a certificate
    import graphnorms.certificates as certs
    from graphnorms.cli import main

    monkeypatch.setattr(certs, "_eliminate", lambda k, totals: ([], 0, None, 1))
    g = complete_bipartite(3, 3)
    with pytest.raises(RuntimeError, match="not PSD on its totals, PSD as fractions"):
        certs.random_witness_search(g, 3, 5, "weakly_norming", seed=2)
    path = tmp_path / "k33.json"
    path.write_text(json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}))
    code = main(["certify", "search", "-g", str(path), "--mode", "weak", "--trials", "5"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert json.loads(captured.err)["kind"] == "internal"


def test_search_plans_its_hessian_read_once(monkeypatch):
    # a deterministic counter in place of a timing: each of the three walks
    # plans its selection once and reads every point through that plan
    from graphnorms.polys import SparsePoly

    plans, made, reads = [], [], []
    real_plan, real_read = SparsePoly._plan, SparsePoly._integer_hessian

    def planning(self, symbols):
        plans.append(tuple(symbols))
        made.append(real_plan(self, symbols))
        return made[-1]

    def reading(self, plan, point):
        reads.append(plan)
        return real_read(self, plan, point)

    monkeypatch.setattr(SparsePoly, "_plan", planning)
    monkeypatch.setattr(SparsePoly, "_integer_hessian", reading)
    g = complete_bipartite(3, 3)  # weakly norming: every trial runs
    assert random_witness_search(g, 3, 100, "weakly_norming", seed=5) is None
    assert plans == [tuple(f"c{idx:02d}" for idx in range(6))]
    assert len(reads) == 100 and all(plan is made[0] for plan in reads)
    # bowtie 5 refutes at eta = 2^-11, kpm 5 at eps = 1/2
    for certify, steps in ((lambda: certify_bowtie_cycle(5), 11), (lambda: certify_kpm(5), 1)):
        plans.clear()
        made.clear()
        reads.clear()
        assert isinstance(certify(), Certificate)
        assert plans == [("x", "y")]
        assert len(reads) == steps and all(plan is made[0] for plan in reads)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "g",
    [path_graph(4), cycle_graph(6), complete_bipartite(3, 3), bowtie_blowup(cycle_graph(5))],
    ids=["p4", "c6", "k33", "mobius"],
)
def test_search_reads_the_hessian_matrix_on_every_zero_pattern(monkeypatch, g, n):
    """Every trial reads its Hessian from the one uncapped polynomial, and
    the integer matrix it decides is den beta_p beta_q H_pq exactly, H the
    matrix hessian_matrix builds with the zero cells capped, beta the
    cells times the lcm L of their denominators (1 at a zero cell) and
    den = L^(e(H) - 2), whatever the zero pattern."""
    import itertools
    from math import lcm

    import graphnorms.certificates as certs
    from graphnorms.hessians import hessian_matrix
    from graphnorms.matrices import SymRationalMatrix, pair_list
    from graphnorms.polys import SparsePoly

    ncells = n * (n + 1) // 2
    matrices = [
        SymRationalMatrix(
            n, tuple(Fraction(0) if z else Fraction(idx + 1, idx + 2) for idx, z in enumerate(zeros))
        )
        for zeros in itertools.product([False, True], repeat=ncells)
    ]
    drawn = iter(matrices)
    read, decided = [], []
    real_read = SparsePoly._integer_hessian

    def recording(self, plan, point):
        read.append(self)
        return real_read(self, plan, point)

    def deciding(k, totals):
        decided.append((k, totals))
        return None  # PSD: the search goes on

    monkeypatch.setattr(SparsePoly, "_integer_hessian", recording)
    monkeypatch.setattr(certs, "sample_matrix", lambda *args: next(drawn))
    monkeypatch.setattr(certs, "_eliminate", deciding)
    assert certs.random_witness_search(g, n, len(matrices), "norming") is None
    assert len(decided) == len(read) == 2**ncells
    assert all(p is read[0] for p in read)
    for a, (k, totals) in zip(matrices, decided):
        scale = lcm(*(x.denominator for x in a.tri))
        beta = [int(x * scale) or 1 for x in a.tri]
        den = scale ** (g.edge_count - 2)
        h = hessian_matrix(g, a).matrix
        assert k == ncells and all(type(t) is int for t in totals)
        assert list(totals) == [den * beta[p] * beta[q] * h.at(p, q) for p, q in pair_list(k)]
