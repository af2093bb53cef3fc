"""Acceptance suite: every exit criterion, timed where required, one
PASS/FAIL line printed per criterion (run with -s to see them live)."""

import time
from fractions import Fraction

import numpy as np

from graphnorms import (
    Certificate,
    Graph,
    Refusal,
    SymRationalMatrix,
    bowtie_blowup,
    cartesian_k2,
    certify_bowtie_cycle,
    certify_kpm,
    complete_bipartite,
    counting_lemma_check,
    cycle_graph,
    density,
    hatami_box_check,
    hessian_matrix,
    hypercube_graph,
    psd_certify,
    quadratic_form,
    random_witness_search,
    verify_bowtie_structure,
    verify_certificate,
)
from graphnorms.matrices import block_pm_ones
from oracles import (
    blowup_to_cartesian,
    brute_template_coefficients,
    eulerian,
    fd_hessian_entry,
    maps_onto,
    path_graph,
    random_graph,
    random_sym_matrix,
    symbolic_hessian_entry,
)


def finish(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"criterion {name}: {detail}"


def test_criterion_1_mobius_refutation():
    t0 = time.perf_counter()
    cert = certify_bowtie_cycle(5)
    elapsed = time.perf_counter() - t0
    problems = []
    if not isinstance(cert, Certificate):
        problems.append("no certificate emitted")
    else:
        if cert.degree_evidence["x2_coeff"] != "0":
            problems.append("x^2 coefficient not exactly 0")
        if Fraction(cert.degree_evidence["xy_coeff"]) < 1:
            problems.append("xy coefficient below 1")
        if not all(x > 0 for x in cert.witness.tri):
            problems.append("witness not strictly positive")
        if not (cert.value < 0 and verify_certificate(cert)):
            problems.append("quadratic form does not re-verify negative")
    if elapsed >= 5.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    finish("1 (mobius ladder refutation)", not problems,
           "; ".join(problems) or f"{elapsed:.2f}s")


def test_criterion_2_twisted_blowups_six_seven():
    problems = []
    cert6 = certify_bowtie_cycle(6)
    if not isinstance(cert6, Certificate) or not verify_certificate(cert6):
        problems.append("k=6 failed")
    t0 = time.perf_counter()
    cert7 = certify_bowtie_cycle(7)
    elapsed = time.perf_counter() - t0
    if not isinstance(cert7, Certificate) or not verify_certificate(cert7):
        problems.append("k=7 failed")
    if elapsed >= 120.0:
        problems.append(f"k=7 too slow: {elapsed:.1f}s")
    finish("2 (blow-ups k=6,7)", not problems,
           "; ".join(problems) or f"k=7 in {elapsed:.1f}s")


def test_criterion_3_negative_controls_refuse():
    problems = []
    for k in (3, 4):
        res = certify_bowtie_cycle(k)
        if not isinstance(res, Refusal):
            problems.append(f"k={k} did not refuse")
    if not isinstance(certify_kpm(3), Refusal):
        problems.append("kpm m=3 did not refuse")
    finish("3 (negative controls refuse)", not problems, "; ".join(problems))


def test_criterion_3_reported_q_coefficient():
    # At the boundary witness [[1,1,0],[1,0,1],[0,1,0]] the Hessian in the
    # (2,2) and (0,2) cells is [[2q, l], [l, 2r]], with q, l, r the x^2, xy
    # and y^2 coefficients of the count polynomial into
    # [[1,1,y],[1,0,1],[y,1,x]]. Direct enumeration gives (q, l, r) =
    # (0, 0, 36) for k=3 (K_{3,3}) and (0, 0, 132) for k=4 (the 3-cube), so
    # q_xx(0,0) = 2q = 0 and the refusal comes from l = 0. That is forced:
    # both graphs are weakly norming (Hatami 2010), so their density is convex
    # on the nonnegative orthant and the boundary Hessian is PSD, which with
    # q = 0 leaves only l = 0. By hand for K_{3,3}: two edges in the (2,2)
    # cell form a path b-a-b' (two disjoint ones would put four there); the
    # other two a's then sit at 1, since 0 would add a y, and the last b,
    # adjacent to a at 2 and to both a's at 1, has no value left (2 adds a
    # third x, 0 adds a y, 1 hits the zero (1,1) cell), so q = 0. For k=5
    # the same enumeration gives (0, 20), the coefficients that certify.
    template = [[1, 1, "y"], [1, 0, 1], ["y", 1, "x"]]
    problems = []
    for k in (3, 4, 5):
        brute = brute_template_coefficients(bowtie_blowup(cycle_graph(k)), template)
        q = brute.get(("x", "x"), Fraction(0))
        l = brute.get(("x", "y"), Fraction(0))
        r = brute.get(("y", "y"), Fraction(0))
        res = certify_bowtie_cycle(k)
        ev = res.degree_evidence if isinstance(res, Certificate) else res.evidence
        if (Fraction(ev["x2_coeff"]), Fraction(ev["xy_coeff"])) != (q, l):
            problems.append(
                f"k={k}: reported (x2, xy) = ({ev['x2_coeff']}, {ev['xy_coeff']}), "
                f"enumeration gives ({q}, {l})"
            )
        if k == 5:
            if (q, l) != (0, 20) or not isinstance(res, Certificate):
                problems.append(
                    f"k=5: expected (0, 20) and a certificate, got ({q}, {l})"
                )
            continue
        if not (isinstance(res, Refusal) and "xy_coeff" in res.reason
                and "x2_coeff" not in res.reason):
            problems.append(f"k={k}: refusal not driven by xy_coeff alone")
        if (q, l) != (0, 0):
            problems.append(f"k={k}: enumeration gives (x2, xy) = ({q}, {l})")
        if not (q >= 0 and r >= 0 and 4 * q * r - l * l >= 0):
            problems.append(
                f"k={k}: boundary Hessian [[{2 * q}, {l}], [{l}, {2 * r}]] not PSD"
            )
    finish("3 (reported q_xx(0,0) = 0 for k=3,4)", not problems, "; ".join(problems))


def test_criterion_4_kpm_five():
    t0 = time.perf_counter()
    cert = certify_kpm(5)
    elapsed = time.perf_counter() - t0
    problems = []
    if not isinstance(cert, Certificate):
        problems.append("no certificate")
    else:
        ev = cert.degree_evidence
        obs = ev["observed_min_eps_degree"]
        if not (obs["x2"] is None or obs["x2"] >= 8):
            problems.append("x^2 eps-degree below 8")
        if Fraction(ev["xy_coeff_at_threshold"]) == 0 or obs["xy"] < 5:
            problems.append("xy coefficient condition failed")
        if not (obs["y2"] is None or obs["y2"] > 2):
            problems.append("y^2 coefficients do not vanish through eps^2")
        eps = Fraction(ev["epsilon"])
        h = hessian_matrix(cert.graph, cert.witness, cert.pairs)
        det = (
            h.matrix.at(0, 0) * h.matrix.at(1, 1) - h.matrix.at(0, 1) ** 2
        )
        if not (eps > 0 and det < 0):
            problems.append("no explicit eps with negative determinant")
        if not verify_certificate(cert):
            problems.append("certificate does not re-verify")
    if elapsed >= 60.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    finish("4 (kpm m=5)", not problems, "; ".join(problems) or f"{elapsed:.1f}s")


def test_criterion_4_stretch_kpm_seven():
    t0 = time.perf_counter()
    cert = certify_kpm(7)
    elapsed = time.perf_counter() - t0
    problems = []
    if not isinstance(cert, Certificate):
        problems.append("no certificate")
    else:
        ev = cert.degree_evidence
        if ev["thresholds"] != {"x2": 14, "xy": 9, "y2_vanish_upto": 4}:
            problems.append("unexpected thresholds")
        obs = ev["observed_min_eps_degree"]
        if obs["x2"] is not None and obs["x2"] < 14:
            problems.append("x^2 eps-degree below 14")
        if obs["xy"] < 9 or Fraction(ev["xy_coeff_at_threshold"]) == 0:
            problems.append("xy condition failed")
        if obs["y2"] is not None and obs["y2"] <= 4:
            problems.append("y^2 vanishing failed")
        if not verify_certificate(cert):
            problems.append("does not re-verify")
    if elapsed >= 1800.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    finish("4-stretch (kpm m=7)", not problems, "; ".join(problems) or f"{elapsed:.1f}s")


def test_criterion_5_block_matrix_kernel():
    cases = ((cycle_graph(4), 1), (cycle_graph(4), 2), (cycle_graph(6), 1))
    problems = []
    for g, half in cases:
        h = hessian_matrix(g, block_pm_ones(half))
        if any(sum(row) != 0 for row in h.matrix.rows()):
            problems.append(f"kernel failed for v={g.n}, half={half}")
        if not psd_certify(h.matrix).is_psd:
            problems.append(f"hessian not psd for v={g.n}, half={half}")
    finish("5 (singular hessian kernel)", not problems, "; ".join(problems))


def test_criterion_6_eulerian_indicator():
    t0 = time.perf_counter()
    problems = []
    for i in range(100):
        g = random_graph(1000 + i, 2 + i % 5)
        for half in (1, 2):
            d = density(g, block_pm_ones(half))
            expected = Fraction(1) if eulerian(g) else Fraction(0)
            if d != expected:
                problems.append(f"seed {1000 + i} half {half}: density {d}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    finish("6 (eulerian indicator)", not problems,
           "; ".join(problems[:3]) or f"100 graphs in {elapsed:.1f}s")


def test_criterion_7_hessian_correctness():
    graphs = [cycle_graph(4), complete_bipartite(2, 3), path_graph(4)]
    problems = []
    for i in range(50):
        g = graphs[i % 3]
        a = random_sym_matrix(2000 + i, 2, lo=0, hi=1)
        h = hessian_matrix(g, a)
        for r, p in enumerate(h.pairs):
            for s, q in enumerate(h.pairs):
                if s < r:
                    continue
                exact = h.matrix.at(r, s)
                if exact != symbolic_hessian_entry(g, a, p, q):
                    problems.append(f"instance {i} symbolic mismatch at {p},{q}")
                fd = float(fd_hessian_entry(g, a, p, q))
                if abs(fd - float(exact)) > 1e-6 * max(1.0, abs(float(exact))):
                    problems.append(f"instance {i} fd mismatch at {p},{q}")
    finish("7 (hessian correctness)", not problems, "; ".join(problems[:3]))


def test_criterion_8_inequality_suites():
    g = cycle_graph(4)
    problems = []
    for i in range(200):
        n = 2 + i % 2
        a = random_sym_matrix(3000 + i, n)
        b = random_sym_matrix(4000 + i, n)
        if not counting_lemma_check(g, a, b):
            problems.append(f"counting lemma violated at seed {3000 + i}")
        if not hatami_box_check(g, a, b):
            problems.append(f"box inequality violated at seed {3000 + i}")
    finish("8 (inequality suites)", not problems, "; ".join(problems[:3]))


def test_criterion_9_psd_kernel_against_float_oracle():
    import random as _random

    problems = []
    compared = 0
    for seed in range(1000):
        if seed % 2 == 0:
            rng = _random.Random(10**6 + seed)
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(6)] for _ in range(6)]
            m = SymRationalMatrix.from_rows(
                [
                    [sum(rows[k][i] * rows[k][j] for k in range(6)) for j in range(6)]
                    for i in range(6)
                ]
            )
        else:
            m = random_sym_matrix(10**6 + seed, 6)
        res = psd_certify(m)
        eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in m.rows()]))
        if not res.is_psd:
            if quadratic_form(m, res.witness) != res.value or res.value >= 0:
                problems.append(f"witness recheck failed at seed {seed}")
        if abs(eigs[0]) <= 1e-9:
            continue  # inside the oracle's own margin
        compared += 1
        if (eigs[0] > 0) != res.is_psd:
            problems.append(f"verdict mismatch at seed {seed}: min eig {eigs[0]:.2e}")
    finish("9 (psd kernel vs float oracle)", not problems,
           "; ".join(problems[:3]) or f"{compared} decisive comparisons")


def test_criterion_10_search_refutation():
    problems = []
    cert = random_witness_search(path_graph(4), 3, 10**4, "weakly_norming", seed=0)
    if cert is None:
        problems.append("no witness found for P4 in 10^4 trials")
    elif not verify_certificate(cert):
        problems.append("P4 witness does not re-verify")
    if random_witness_search(cycle_graph(4), 2, 500, "weakly_norming", seed=0):
        problems.append("spurious witness for C4 (weak mode)")
    if random_witness_search(cycle_graph(4), 2, 500, "norming", seed=0):
        problems.append("spurious witness for C4 (norming mode)")
    finish("10 (search refutation)", not problems, "; ".join(problems))


def test_criterion_11_structure_suite():
    t0 = time.perf_counter()
    problems = []
    # each claim is an explicit vertex map of the blow-up onto the target
    if bowtie_blowup(cycle_graph(3)) != complete_bipartite(3, 3):
        problems.append("blow-up of C3 is not K_{3,3}")
    # through C4 box K2 (fixing 0, 2, 4, 6), then C4 in Gray-code order on the cube
    if not maps_onto(bowtie_blowup(cycle_graph(4)), [0, 5, 3, 6, 4, 1, 7, 2], hypercube_graph(3)):
        problems.append("blow-up of C4 is not Q_3")
    ten_cycle = [(0, 5), (5, 1), (1, 6), (6, 2), (2, 7), (7, 3), (3, 8), (8, 4), (4, 9), (9, 0)]
    removed = {(min(u, v), max(u, v)) for (u, v) in ten_cycle}
    mobius = Graph.from_edges(10, set(complete_bipartite(5, 5).edges) - removed)
    # v -> v and 5+v -> 5+(v+2) mod 5
    if not maps_onto(bowtie_blowup(cycle_graph(5)), [0, 1, 2, 3, 4, 7, 8, 9, 5, 6], mobius):
        problems.append("blow-up of C5 is not the explicit ladder")
    c6 = cycle_graph(6)
    if not maps_onto(bowtie_blowup(c6), blowup_to_cartesian(c6), cartesian_k2(c6)):
        problems.append("blow-up of C6 is not C6 box K2")
    for k in (5, 6, 7, 8):
        rep = verify_bowtie_structure(bowtie_blowup(cycle_graph(k)))
        if rep["edge_in_unique_4cycle"] is None or not rep["two_edge_sets_ok"]:
            problems.append(f"structure conditions failed for k={k}")
    for k in (3, 4):
        rep = verify_bowtie_structure(bowtie_blowup(cycle_graph(k)))
        if rep["edge_in_unique_4cycle"] is not None:
            problems.append(f"condition (i) unexpectedly holds for k={k}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    finish("11 (structure suite)", not problems,
           "; ".join(problems) or f"{elapsed:.1f}s")
