"""Command-line surface tying the toolkit together.

Exit codes: 0 = certified / holds, 1 = refuted / refused / violated,
2 = inconclusive (a size guard fired), 3 = usage error, 4 = internal error
(a fault in the toolkit, reported on stderr with nothing on stdout). All
other output is a single JSON document on stdout unless --plain is given.

Each subcommand's handler sits on its own parser as the default ``run``;
main parses the arguments and calls ``ns.run(ns, state)``.
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
from .errors import SizeGuardError, UsageError
from .graphs import (
    Graph,
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
from .matrices import SymRationalMatrix, cut_norm, load_matrix_text
from .rationals import format_rational, kth_root_interval


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_input(path: str, state: dict) -> str:
    if path == "-":
        if state.get("stdin_used"):
            raise UsageError("stdin ('-') may be used for at most one input")
        state["stdin_used"] = True
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str, state: dict) -> Graph:
    return load_graph_text(_read_input(path, state))


def _load_matrix(path: str, state: dict) -> SymRationalMatrix:
    return load_matrix_text(_read_input(path, state))


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


def _render_plain(payload, indent: str = "") -> str:
    lines = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_plain(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.append(_render_plain(value, indent + "  "))
            else:
                lines.append(f"{indent}{value}")
    else:
        lines.append(f"{indent}{payload}")
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


# construct family -> (constructor, its integer arguments); none: it reads -g
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

    def leaf(sub, name, run):
        """A subcommand that takes the common options and runs ``run(ns, state)``."""
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(run=run)
        return p

    # --help shows the docstring but its last paragraph, on the code (None under -OO)
    description = __doc__ and __doc__.rsplit("\n\n", 1)[0]
    parser = _Parser(prog="graphnorms", description=description)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c_sub = sub.add_parser("construct").add_subparsers(dest="family", required=True)
    for name, (_, ints) in FAMILIES.items():
        p = leaf(c_sub, name, _cmd_construct)
        for a in ints:
            p.add_argument(a, type=int)
        if not ints:
            p.add_argument("-g", "--graph", required=True)

    p_density = leaf(sub, "density", _cmd_density)
    p_density.add_argument("-g", "--graph", required=True)
    p_density.add_argument("-m", "--matrix", required=True)

    p_hessian = leaf(sub, "hessian", _cmd_hessian)
    p_hessian.add_argument("-g", "--graph", required=True)
    p_hessian.add_argument("-m", "--matrix", required=True)
    p_hessian.add_argument("--pairs", help="restrict to pairs, e.g. '0,2;2,2'")

    leaf(sub, "psd", _cmd_psd).add_argument("-m", "--matrix", required=True)
    leaf(sub, "cutnorm", _cmd_cutnorm).add_argument("-m", "--matrix", required=True)

    k_sub = sub.add_parser("check").add_subparsers(dest="what", required=True)
    p = leaf(k_sub, "sidorenko", _check_sidorenko)
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-m", "--matrix", required=True)
    pair_checks = (("hatami", hatami_box_check), ("counting", counting_lemma_check))
    for name, test in pair_checks:
        p = leaf(k_sub, name, partial(_check_two_kernels, test))
        p.add_argument("-g", "--graph", required=True)
        p.add_argument("-m", "--matrix", required=True)
        p.add_argument("-w", "--second-matrix", required=True)
    p = leaf(k_sub, "euler-indicator", _check_euler_indicator)
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--n", type=int, default=1, help="half-block size")
    p = leaf(k_sub, "prop42", _check_prop42)
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--n", type=int, default=1, help="half-block size")
    p = leaf(k_sub, "bowtie-lemma", _check_bowtie_lemma)
    p.add_argument("-g", "--graph", required=True)

    y_sub = sub.add_parser("certify").add_subparsers(dest="pipeline", required=True)
    families = (("bowtie-cycle", certify_bowtie_cycle, "k"), ("kpm", certify_kpm, "m"))
    for name, pipeline, arg in families:
        p = leaf(y_sub, name, partial(_certify_family, pipeline, arg))
        p.add_argument(f"--{arg}", type=int, required=True)
    p = leaf(y_sub, "search", _certify_search)
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--mode", choices=("weak", "norming"), required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    leaf(sub, "verify", _cmd_verify).add_argument("-c", "--certificate", required=True)

    return parser


def _cmd_construct(ns, state) -> tuple[int, dict]:
    make, ints = FAMILIES[ns.family]
    if ints:
        g = make(*(getattr(ns, a) for a in ints))
    else:
        g = make(_load_graph(ns.graph, state))
    payload = g.to_json()
    payload["structure"] = structural_report(g).to_json()
    return 0, payload


def _cmd_density(ns, state) -> tuple[int, dict]:
    g = _load_graph(ns.graph, state)
    a = _load_matrix(ns.matrix, state)
    powers = norm_powers(g, a)
    payload = {key: format_rational(value) for key, value in powers.items()}
    if g.edge_count > 0:
        for key in ("norm", "weak_norm"):
            lo, hi = kth_root_interval(powers[f"{key}_pow"], g.edge_count)
            payload[f"{key}_root_interval"] = [format_rational(lo), format_rational(hi)]
    return 0, payload


def _cmd_hessian(ns, state) -> tuple[int, dict]:
    g = _load_graph(ns.graph, state)
    a = _load_matrix(ns.matrix, state)
    pairs = None if ns.pairs is None else _parse_pairs(ns.pairs)
    h = hessian_matrix(g, a, pairs)
    return 0, {"pairs": [list(p) for p in h.pairs], "matrix": h.matrix.to_json()}


def _cmd_psd(ns, state) -> tuple[int, dict]:
    res = psd_certify(_load_matrix(ns.matrix, state))
    if res.is_psd:
        return 0, {"verdict": "psd"}
    return 1, {
        "verdict": "not_psd",
        "witness": [format_rational(x) for x in res.witness],
        "value": format_rational(res.value),
    }


def _cmd_cutnorm(ns, state) -> tuple[int, dict]:
    return 0, {"cut_norm": format_rational(cut_norm(_load_matrix(ns.matrix, state)))}


def _verdict(ns, holds: bool, **extra) -> tuple[int, dict]:
    """The outcome of check ``ns.what``: exit 0 when it holds, else 1."""
    return (0 if holds else 1), {"check": ns.what, "holds": holds, **extra}


def _check_sidorenko(ns, state) -> tuple[int, dict]:
    g = _load_graph(ns.graph, state)
    return _verdict(ns, sidorenko_check(g, _load_matrix(ns.matrix, state)))


def _check_two_kernels(test, ns, state) -> tuple[int, dict]:
    g = _load_graph(ns.graph, state)
    a, w = _load_matrix(ns.matrix, state), _load_matrix(ns.second_matrix, state)
    return _verdict(ns, test(g, a, w))


def _check_euler_indicator(ns, state) -> tuple[int, dict]:
    g = _load_graph(ns.graph, state)
    return _verdict(ns, eulerian_indicator_check(g, ns.n), eulerian=is_eulerian(g))


def _check_prop42(ns, state) -> tuple[int, dict]:
    h = allones_hessian(_load_graph(ns.graph, state), ns.n)
    holds = annihilates_ones(h)
    verdict = psd_certify(h).verdict
    payload = {"check": "prop42", "kernel_annihilated": holds, "hessian_psd": verdict}
    return (0 if holds else 1), payload


def _check_bowtie_lemma(ns, state) -> tuple[int, dict]:
    report = verify_bowtie_structure(_load_graph(ns.graph, state))
    holds = report.edge_in_unique_4cycle is not None and report.two_edge_sets_ok
    return _verdict(ns, holds, **report.to_json())


def _certify_family(pipeline, arg, ns, state) -> tuple[int, dict]:
    result = pipeline(getattr(ns, arg))
    return (1 if isinstance(result, Refusal) else 0), result.to_json()


def _certify_search(ns, state) -> tuple[int, dict]:
    g = _load_graph(ns.graph, state)
    mode = "weakly_norming" if ns.mode == "weak" else "norming"
    found = random_witness_search(g, ns.n, ns.trials, mode, ns.seed)
    if found is None:
        return 1, {"found": False, "mode": mode, "trials": ns.trials, "seed": ns.seed}
    return 0, found.to_json()


def _cmd_verify(ns, state) -> tuple[int, dict]:
    text = _read_input(ns.certificate, state)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
        raise UsageError(f"bad certificate JSON: {exc}") from exc
    cert = Certificate.from_json(data)
    ok = verify_certificate(cert)
    return (0 if ok else 1), {"valid": ok, "kind": cert.kind}


_parser = None  # built on the first main() call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    state: dict = {}
    try:
        ns = _parser.parse_args(argv)
        code, payload = ns.run(ns, state)
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
