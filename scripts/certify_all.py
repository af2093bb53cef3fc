#!/usr/bin/env python3
"""Run every refutation pipeline and print a summary table.

Certificates are written as JSON next to each other in --out (default
./certificates) and re-verified from those files, so the directory is a
self-contained audit trail. Exits 1 when a written certificate fails to
verify, 0 otherwise.
"""

import argparse
import json
import sys
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
    """Run one pipeline; False only when its certificate fails to verify."""
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
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

    if unverified:
        print(f"failed to verify: {', '.join(unverified)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
