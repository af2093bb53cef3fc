#!/usr/bin/env python3
"""Run every refutation pipeline and print a summary table.

Certificates are written as JSON next to each other in --out (default
./certificates) and re-verified from those files, so the directory is a
self-contained audit trail; two runs can be compared with `diff -r`. A case
past the enumeration or structure limits prints a REFUSED row and the sweep
goes on. Exits 1 when a written certificate fails to verify, 0 otherwise.
"""

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path

from graphnorms import (
    Certificate,
    Graph,
    Refusal,
    SizeGuardError,
    allones_hessian,
    annihilates_ones,
    bowtie_blowup,
    certify_bowtie_cycle,
    certify_kpm,
    complete_bipartite,
    cycle_graph,
    hypercube_graph,
    kpm_graph,
    psd_certify,
    random_witness_search,
    verify_bowtie_structure,
    verify_certificate,
)


def heawood_graph():
    """The Heawood graph, the incidence graph of the Fano plane: points 0-6,
    lines 7-13, and line 7 + j holds the points j, j + 1 and j + 3 mod 7."""
    return Graph.from_edges(14, [((j + d) % 7, 7 + j) for j in range(7) for d in (0, 1, 3)])


def mobius_kantor_graph():
    """The Moebius-Kantor graph, the generalized Petersen graph GP(8, 3):
    the outer cycle 0-7, the spokes (i, 8 + i) and the inner edges
    (8 + i, 8 + (i + 3) mod 8)."""
    outer = [(i, (i + 1) % 8) for i in range(8)]
    spokes = [(i, 8 + i) for i in range(8)]
    inner = [(8 + i, 8 + (i + 3) % 8) for i in range(8)]
    return Graph.from_edges(16, outer + spokes + inner)


# the random witness search at n = 3: (label, graph, mode, seed, trials).
# The Moebius ladder and K_{5,5} minus a matching find a certificate at
# these seeds. The edge-transitive Heawood and Moebius-Kantor graphs find
# one at trials 24 and 8 of these seeds. K_{3,3}, K_{4,4}, Q_3, C_8 and
# K_{4,4} minus a matching are weakly norming, so any certificate for them
# would be a fault: each must spend its budget.
SEARCH_PANEL = (
    *(
        (f"search mobius seed={seed}", bowtie_blowup(cycle_graph(5)), "weakly_norming", seed, 60)
        for seed in (0, 1, 2)
    ),
    *((f"search kpm5 seed={seed}", kpm_graph(5), "norming", seed, 20) for seed in range(4)),
    ("search k33 seed=2", complete_bipartite(3, 3), "weakly_norming", 2, 100),
    ("search heawood seed=23", heawood_graph(), "weakly_norming", 23, 30),
    ("search mkantor seed=22", mobius_kantor_graph(), "weakly_norming", 22, 10),
    ("search k44 seed=0", complete_bipartite(4, 4), "weakly_norming", 0, 300),
    ("search q3 seed=0", hypercube_graph(3), "weakly_norming", 0, 300),
    ("search c8 seed=0", cycle_graph(8), "weakly_norming", 0, 300),
    ("search kpm4 seed=0", kpm_graph(4), "weakly_norming", 0, 300),
)


def run_pipeline(label, fn, out_dir):
    """Run one pipeline; False only when its certificate fails to verify.
    A pipeline that returns None (a search that found nothing) writes no
    file, and a size limit's refusal is a row like a pipeline's."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except SizeGuardError as exc:
        result = Refusal(label, str(exc), {})
    elapsed = time.perf_counter() - t0
    if result is None:
        print(f"{label:24s} NONE     {elapsed:7.2f}s  no certificate within the budget")
        return True
    if isinstance(result, Refusal):
        print(f"{label:24s} REFUSED  {elapsed:7.2f}s  {result.reason}")
        return True
    path = out_dir / f"{label.replace(' ', '_')}.json"
    path.write_text(json.dumps(result.to_json(), indent=2) + "\n")
    reloaded = Certificate.from_json(json.loads(path.read_text()))
    ok = verify_certificate(reloaded)
    print(
        f"{label:24s} {result.kind:20s} {elapsed:7.2f}s  "
        f"verified={ok}  -> {path.name}"
    )
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="certificates")
    parser.add_argument("--k-max", type=int, default=7, help="largest cycle blow-up")
    parser.add_argument("--m-max", type=int, default=7, help="largest matching complement")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    unverified = []
    print("== cycle blow-up pipelines ==")
    for k in range(3, args.k_max + 1):
        label = f"bowtie k={k}"
        if not run_pipeline(label, lambda k=k: certify_bowtie_cycle(k), out_dir):
            unverified.append(label)

    print("\n== complete bipartite minus matching ==")
    for m in range(3, args.m_max + 1):
        label = f"kpm m={m}"
        if not run_pipeline(label, lambda m=m: certify_kpm(m), out_dir):
            unverified.append(label)

    print("\n== random witness search, n = 3 ==")
    for label, g, mode, seed, trials in SEARCH_PANEL:
        search = partial(random_witness_search, g, 3, trials, mode, seed)
        if not run_pipeline(label, search, out_dir):
            unverified.append(label)

    print("\n== structural checks on blow-ups ==")
    for k in range(3, args.k_max + 1):
        try:
            rep = verify_bowtie_structure(bowtie_blowup(cycle_graph(k)))
        except SizeGuardError as exc:
            print(f"blow-up k={k}: REFUSED  {exc}")
            continue
        print(
            f"blow-up k={k}: unique-4-cycle edge={rep['edge_in_unique_4cycle']}  "
            f"two-edge sets ok={rep['two_edge_sets_ok']}"
        )

    print("\n== singular Hessian kernel at the +/- block matrix ==")
    for g, half in ((cycle_graph(4), 1), (cycle_graph(4), 2), (cycle_graph(6), 1)):
        h = allones_hessian(g, half)
        kernel = annihilates_ones(h)
        verdict = psd_certify(h).verdict
        print(f"C_{g.n} at half={half}: kernel annihilated={kernel}, hessian {verdict}")

    if unverified:
        print(f"failed to verify: {', '.join(unverified)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
