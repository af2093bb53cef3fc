"""Command-line surface tying the toolkit together.

Exit codes: 0 = certified / holds, 1 = refuted / refused / violated,
2 = inconclusive (a size guard fired), 3 = usage error, 4 = internal error
(a fault in the toolkit, reported on stderr with nothing on stdout). All
other output is a single JSON document on stdout unless --plain is given.

Each subcommand's parser carries its handler as the default ``run`` and
its inputs, keys of ``INPUTS``, as ``inputs``. main parses the arguments,
reads each input in that order (at most one from stdin, ``-``), puts what
it holds on the namespace in place of its path, and calls ``ns.run(ns)``.
"""

import argparse
import json
import os
import sys
from functools import partial

from . import __version__
from .certificates import (
    Certificate,
    Refusal,
    certify_bowtie_cycle,
    certify_kpm,
    random_witness_search,
    verify_certificate,
)
from .errors import SizeGuardError, UsageError, load_json
from .graphs import (
    bowtie_blowup,
    cartesian_k2,
    complete_bipartite,
    cycle_graph,
    hypercube_graph,
    is_eulerian,
    kpm_graph,
    load_graph_text,
    structural_report,
    verify_bowtie_structure,
)
from .hessians import allones_hessian, annihilates_ones, hessian_matrix, psd_certify
from .homs import (
    counting_lemma_check,
    eulerian_indicator_check,
    hatami_box_check,
    norm_powers,
    sidorenko_check,
)
from .matrices import cut_norm, load_matrix_text
from .rationals import format_rational, kth_root_interval


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_certificate(text: str) -> Certificate:
    return Certificate.from_json(load_json(text, "certificate"))


# input -> (its flags, the reader of its text), in the order main reads them
INPUTS = {
    "graph": (("-g", "--graph"), load_graph_text),
    "matrix": (("-m", "--matrix"), load_matrix_text),
    "second_matrix": (("-w", "--second-matrix"), load_matrix_text),
    "certificate": (("-c", "--certificate"), _load_certificate),
}


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    """Parse a pair selection like "0,2;2,2"."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad pair {chunk!r}; expected 'i,j'")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise UsageError(f"bad pair {chunk!r}: {exc}") from exc
    return pairs


def _one_line(value) -> bool:
    """A scalar, or a list of scalars (shown with its items space-separated)."""
    if isinstance(value, list):
        return not any(isinstance(v, (dict, list)) for v in value)
    return not isinstance(value, dict)


def _render_plain(payload, indent: str = "") -> str:
    """``key: value`` per line; a list of scalars is one line, any other
    container sits indented under its key, a list's items one per line."""
    if _one_line(payload):
        items = payload if isinstance(payload, list) else [payload]
        return indent + " ".join(map(str, items))
    if isinstance(payload, list):
        return "\n".join(_render_plain(value, indent) for value in payload)
    lines = []
    for key, value in payload.items():
        if _one_line(value):
            lines.append(f"{indent}{key}: {_render_plain(value)}")
        else:
            lines += [f"{indent}{key}:", _render_plain(value, indent + "  ")]
    return "\n".join(lines)


def _emit(payload, plain: bool):
    """Print the payload. A reader that closed stdout ends the output, not
    the command: no traceback, the exit code stays the command's, and
    stdout is pointed at the null device so the flush at shutdown cannot
    fail again."""
    try:
        print(_render_plain(payload) if plain else json.dumps(payload, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# construct family -> (constructor, its integer arguments); none: it takes the graph
FAMILIES = {
    "cycle": (cycle_graph, ["k"]),
    "kbip": (complete_bipartite, ["m", "n"]),
    "kpm": (kpm_graph, ["m"]),
    "hypercube": (hypercube_graph, ["d"]),
    "bowtie": (bowtie_blowup, []),
    "boxk2": (cartesian_k2, []),
}


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    common.add_argument("--plain", action="store_true")

    def leaf(sub, name, run, *inputs):
        """A subcommand that takes the common options and ``inputs`` (keys of
        INPUTS, in INPUTS order) and runs ``run(ns)``."""
        p = sub.add_parser(name, parents=[common])
        for key in inputs:
            p.add_argument(*INPUTS[key][0], required=True)
        p.set_defaults(run=run, inputs=inputs)
        return p

    # --help shows the docstring but its last paragraph, on the code (None under -OO)
    description = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = _Parser(prog="graphnorms", description=description)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c_sub = sub.add_parser("construct").add_subparsers(dest="family", required=True)
    for name, (_, ints) in FAMILIES.items():
        p = leaf(c_sub, name, _cmd_construct, *(() if ints else ("graph",)))
        for a in ints:
            p.add_argument(a, type=int)

    leaf(sub, "density", _cmd_density, "graph", "matrix")
    p = leaf(sub, "hessian", _cmd_hessian, "graph", "matrix")
    p.add_argument("--pairs", help="restrict to pairs, e.g. '0,2;2,2'")
    leaf(sub, "psd", _cmd_psd, "matrix")
    leaf(sub, "cutnorm", _cmd_cutnorm, "matrix")

    k_sub = sub.add_parser("check").add_subparsers(dest="what", required=True)
    kernel_checks = (
        ("sidorenko", sidorenko_check, ("graph", "matrix")),
        ("hatami", hatami_box_check, ("graph", "matrix", "second_matrix")),
        ("counting", counting_lemma_check, ("graph", "matrix", "second_matrix")),
    )
    for name, test, inputs in kernel_checks:
        leaf(k_sub, name, partial(_check_inputs, test), *inputs)
    for name, run in (("euler-indicator", _check_euler_indicator), ("prop42", _check_prop42)):
        p = leaf(k_sub, name, run, "graph")
        p.add_argument("--n", type=int, default=1, help="half-block size")
    leaf(k_sub, "bowtie-lemma", _check_bowtie_lemma, "graph")

    y_sub = sub.add_parser("certify").add_subparsers(dest="pipeline", required=True)
    families = (("bowtie-cycle", certify_bowtie_cycle, "k"), ("kpm", certify_kpm, "m"))
    for name, pipeline, arg in families:
        p = leaf(y_sub, name, partial(_certify_family, pipeline, arg))
        p.add_argument(f"--{arg}", type=int, required=True)
    p = leaf(y_sub, "search", _certify_search, "graph")
    p.add_argument("--mode", choices=("weak", "norming"), required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    leaf(sub, "verify", _cmd_verify, "certificate")

    return parser


def _cmd_construct(ns) -> tuple[int, dict]:
    make, ints = FAMILIES[ns.family]
    g = make(*(getattr(ns, a) for a in ints)) if ints else make(ns.graph)
    payload = g.to_json()
    payload["structure"] = structural_report(g)
    return 0, payload


def _cmd_density(ns) -> tuple[int, dict]:
    g = ns.graph
    powers = norm_powers(g, ns.matrix)
    payload = {key: format_rational(value) for key, value in powers.items()}
    if g.edge_count > 0:
        for key in ("norm", "weak_norm"):
            lo, hi = kth_root_interval(powers[f"{key}_pow"], g.edge_count)
            payload[f"{key}_root_interval"] = [format_rational(lo), format_rational(hi)]
    return 0, payload


def _cmd_hessian(ns) -> tuple[int, dict]:
    pairs = None if ns.pairs is None else _parse_pairs(ns.pairs)
    h = hessian_matrix(ns.graph, ns.matrix, pairs)
    return 0, {"pairs": [list(p) for p in h.pairs], "matrix": h.matrix.to_json()}


def _cmd_psd(ns) -> tuple[int, dict]:
    res = psd_certify(ns.matrix)
    if res.is_psd:
        return 0, {"verdict": "psd"}
    return 1, {
        "verdict": "not_psd",
        "witness": [format_rational(x) for x in res.witness],
        "value": format_rational(res.value),
    }


def _cmd_cutnorm(ns) -> tuple[int, dict]:
    return 0, {"cut_norm": format_rational(cut_norm(ns.matrix))}


def _verdict(ns, holds: bool, **extra) -> tuple[int, dict]:
    """The outcome of check ``ns.what``: exit 0 when it holds, else 1."""
    return (0 if holds else 1), {"check": ns.what, "holds": holds, **extra}


def _check_inputs(test, ns) -> tuple[int, dict]:
    """Check ``test`` on the subcommand's inputs, in order."""
    return _verdict(ns, test(*(getattr(ns, key) for key in ns.inputs)))


def _check_euler_indicator(ns) -> tuple[int, dict]:
    g = ns.graph
    return _verdict(ns, eulerian_indicator_check(g, ns.n), eulerian=is_eulerian(g))


def _check_prop42(ns) -> tuple[int, dict]:
    h = allones_hessian(ns.graph, ns.n)
    holds = annihilates_ones(h)
    verdict = psd_certify(h).verdict
    payload = {"check": "prop42", "kernel_annihilated": holds, "hessian_psd": verdict}
    return (0 if holds else 1), payload


def _check_bowtie_lemma(ns) -> tuple[int, dict]:
    report = verify_bowtie_structure(ns.graph)
    holds = report["edge_in_unique_4cycle"] is not None and report["two_edge_sets_ok"]
    return _verdict(ns, holds, **report)


def _certify_family(pipeline, arg, ns) -> tuple[int, dict]:
    result = pipeline(getattr(ns, arg))
    return (1 if isinstance(result, Refusal) else 0), result.to_json()


def _certify_search(ns) -> tuple[int, dict]:
    mode = "weakly_norming" if ns.mode == "weak" else "norming"
    found = random_witness_search(ns.graph, ns.n, ns.trials, mode, ns.seed)
    if found is None:
        return 1, {"found": False, "mode": mode, "trials": ns.trials, "seed": ns.seed}
    return 0, found.to_json()


def _cmd_verify(ns) -> tuple[int, dict]:
    ok = verify_certificate(ns.certificate)
    return (0 if ok else 1), {"valid": ok, "kind": ns.certificate.kind}


_parser = None  # built on the first main() call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        ns = _parser.parse_args(argv)
        stdin_used = False
        for key in ns.inputs:
            path = getattr(ns, key)
            if path == "-":
                if stdin_used:
                    raise UsageError("stdin ('-') may be used for at most one input")
                stdin_used = True
                text = sys.stdin.read()
            else:
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        text = fh.read()
                except (OSError, UnicodeDecodeError) as exc:
                    raise UsageError(f"cannot read {path}: {exc}") from exc
            setattr(ns, key, INPUTS[key][1](text))
        code, payload = ns.run(ns)
    except UsageError as exc:
        _emit({"error": str(exc), "kind": "usage"}, False)
        return 3
    except SizeGuardError as exc:
        _emit({"error": str(exc), "kind": "inconclusive"}, False)
        return 2
    except Exception as exc:
        # a fault in the toolkit is no verdict: exit 1 would read as "refuted"
        error = {"error": f"{type(exc).__name__}: {exc}", "kind": "internal"}
        print(json.dumps(error, indent=2), file=sys.stderr)
        return 4
    _emit(payload, ns.plain)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
