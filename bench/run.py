#!/usr/bin/env python3
"""End-to-end benchmark of graphnorms, with a traced per-layer run.

    python3 bench/run.py --workload {certify,search,queries} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a checkout and imports the package from ``src/``.
Every call runs in this one process with threads=1. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Times are in reference seconds, with the host's speed
divided out (hostspeed.py). The result (and, traced, the spans) also go to
.bench_out/.
See bench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
from spans import Tracer
from workloads import WORKLOADS, Failed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9  # set-ups per run, each in a fresh interpreter but the last
SETUP_TIMEOUT_S = 60


def load_program():
    """Import graphnorms from the checkout's src/ directory."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        gn = importlib.import_module("graphnorms")
        importlib.import_module("graphnorms.cli")  # the package does not import it
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import graphnorms from {ROOT / 'src'}: {exc}")
    return gn


def set_up(workload, seed, workdir):
    """Import the program and build the workload's inputs."""
    return WORKLOADS[workload](load_program(), seed, workdir)


def timed_set_up(workload, seed, workdir):
    """set_up with the host sampled; (workload object, reference seconds)."""
    work, reference_s, _ = hostspeed.timed(set_up, workload, seed, workdir)
    return work, reference_s


def child_setup_seconds(workload, seed):
    """One set-up in a fresh interpreter, so the import is paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Recorder:
    """Times each operation and keeps its output for the checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stamps = []  # (name, start, end, is_verify)
        self.times = []  # (name, reference seconds, is_verify, wall seconds), see finish()
        self.outputs = {}
        self.attempted = 0
        self.failed = []

    def __call__(self, name, fn, *args, verify=False):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                result = self.tracer.span(name, "bench", fn, *args)
        except Failed as exc:
            self.failed.append(f"{name}: {exc}")
            return None
        except Exception as exc:  # any other crash also counts as a failed operation
            self.failed.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.stamps.append((name, t0, time.perf_counter(), verify))
        self.outputs.setdefault(name, []).append(result)
        return result

    def finish(self, timeline):
        """Turn the operations' wall times into reference seconds."""
        self.times = []
        for name, t0, t1, verify in self.stamps:
            reference, wall = timeline.reference_s(t0, t1)
            self.times.append((name, reference, verify, wall))

    def total_s(self, verify_only=False):
        return sum(t for _, t, v, _ in self.times if v or not verify_only)


def timed_phase(work, rounds):
    """Whole rounds with the host sampled; returns the recorder and the
    median host speed (1 is the reference host)."""
    rec = Recorder()
    timeline = hostspeed.Timeline()
    with timeline.running():
        for _ in range(rounds):
            work.run_round(rec)
    rec.finish(timeline)
    return rec, timeline.speed()


def traced_phase(args, work, rounds, workdir):
    """Untraced and traced rounds, alternating so that both see the same
    drift in host speed. The traced rounds use inputs set up again under
    the tracer, so graph construction shows in graphs.s. The overhead is
    the difference of the two sides' reference seconds (hostspeed)."""
    tracer = Tracer()
    rec, traced = Recorder(), Recorder(tracer)
    (workdir / "traced").mkdir()
    with tracer.installed():
        traced_work = tracer.span(
            "set-up", "bench", set_up, args.workload, args.seed, workdir / "traced"
        )
    timeline = hostspeed.Timeline()
    with timeline.running():
        for _ in range(rounds):
            work.run_round(rec)
            with tracer.installed():
                traced_work.run_round(traced)
    rec.finish(timeline)
    traced.finish(timeline)
    for name in tracer.absent:
        print(f"bench: boundary {name} no longer exists; reported as absent", file=sys.stderr)
    for name, results in traced.outputs.items():
        rec.outputs.setdefault(name, []).extend(results)
    return rec, tracer, traced.total_s() - rec.total_s()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "search", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        work, setup_s = timed_set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        return run(args, work, setup_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, work, setup_s, workdir):
    rounds = max(1, round(args.seconds / work.nominal_round_s))
    tracer = None
    if args.trace:
        rec, tracer, overhead_s = traced_phase(args, work, rounds, workdir)
    else:
        setups = [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        setups.append(setup_s)
        rec, host_speed = timed_phase(work, rounds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = work.check(rec.outputs)
    for line in problems:
        print(f"bench: WRONG {line}", file=sys.stderr)
    for line in rec.failed:
        print(f"bench: FAILED {line}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": rec.total_s(), "unit": "s"},
            "verify_s": {"value": rec.total_s(verify_only=True), "unit": "s"},
            "op_p50_s": {"value": statistics.median(t for _, t, _, _ in rec.times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    result = {
        "correct": not problems,
        "attempted": rec.attempted,
        "failed": len(rec.failed),
        "metrics": metrics,
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, rounds=rounds, problems=problems, failures=rec.failed)
    if not args.trace:
        detail["setups_s"] = setups
        detail["host_speed"] = host_speed
        detail["raw_wall_s"] = sum(w for _, _, _, w in rec.times)
    detail["operations_s"] = per_operation(rec.times)
    if tracer is not None:
        detail["absent"] = tracer.absent
        detail["traced_operations"] = tracer.per_operation()
        tracer.write(OUT / f"{stem}.trace.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def per_operation(times):
    by_name = {}
    for name, t, _, _ in times:
        by_name.setdefault(name, []).append(t)
    return {name: statistics.median(ts) for name, ts in by_name.items()}


if __name__ == "__main__":
    sys.exit(main())
