#!/usr/bin/env python3
"""Run every refutation pipeline and print a summary table.

Certificates are written as JSON next to each other in --out (default
./certificates) and re-verified from those files, so the directory is a
self-contained audit trail.
"""

import argparse
import json
import time
from pathlib import Path

from graphnorms import (
    Certificate,
    Refusal,
    allones_hessian,
    annihilates_ones,
    bowtie_blowup,
    certify_bowtie_cycle,
    certify_kpm,
    cycle_graph,
    psd_certify,
    verify_bowtie_structure,
    verify_certificate,
)


def run_pipeline(label, fn, out_dir):
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    if isinstance(result, Refusal):
        print(f"{label:24s} REFUSED  {elapsed:7.2f}s  {result.reason}")
        return
    path = out_dir / f"{label.replace(' ', '_')}.json"
    path.write_text(json.dumps(result.to_json(), indent=2) + "\n")
    reloaded = Certificate.from_json(json.loads(path.read_text()))
    ok = verify_certificate(reloaded)
    print(
        f"{label:24s} {result.kind:20s} {elapsed:7.2f}s  "
        f"verified={ok}  -> {path.name}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="certificates")
    parser.add_argument("--k-max", type=int, default=7, help="largest cycle blow-up")
    parser.add_argument("--m-max", type=int, default=7, help="largest matching complement")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    print("== cycle blow-up pipelines ==")
    for k in range(3, args.k_max + 1):
        run_pipeline(f"bowtie k={k}", lambda k=k: certify_bowtie_cycle(k), out_dir)

    print("\n== complete bipartite minus matching ==")
    for m in range(3, args.m_max + 1):
        run_pipeline(f"kpm m={m}", lambda m=m: certify_kpm(m), out_dir)

    print("\n== structural checks on blow-ups ==")
    for k in range(3, args.k_max + 1):
        rep = verify_bowtie_structure(bowtie_blowup(cycle_graph(k)))
        print(
            f"blow-up k={k}: unique-4-cycle edge={rep.edge_in_unique_4cycle}  "
            f"two-edge sets ok={rep.two_edge_sets_ok}"
        )

    print("\n== singular Hessian kernel at the +/- block matrix ==")
    for g, half in ((cycle_graph(4), 1), (cycle_graph(4), 2), (cycle_graph(6), 1)):
        h = allones_hessian(g, half)
        kernel = annihilates_ones(h)
        verdict = psd_certify(h).verdict
        print(f"C_{g.n} at half={half}: kernel annihilated={kernel}, hessian {verdict}")


if __name__ == "__main__":
    main()
