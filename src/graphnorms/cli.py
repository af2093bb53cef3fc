"""Command-line surface tying the toolkit together.

Exit codes: 0 = certified / holds, 1 = refuted / refused / violated,
2 = inconclusive (a size guard fired), 3 = usage error, 4 = internal error
(a fault in the toolkit, reported on stderr with nothing on stdout). All
other output is a single JSON document on stdout unless --plain is given.
"""

import argparse
import json
import sys
from fractions import Fraction

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
    if not pairs:
        raise UsageError("empty pair selection")
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
    if plain:
        print(_render_plain(payload))
    else:
        print(json.dumps(payload, indent=2))


def _root_interval_str(value: Fraction, k: int) -> list[str]:
    lo, hi = kth_root_interval(value, k)
    return [format_rational(lo), format_rational(hi)]


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    common.add_argument("--plain", action="store_true")

    parser = _Parser(prog="graphnorms", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct")
    c_sub = p_construct.add_subparsers(dest="family", required=True)
    for name, args in (
        ("cycle", ["k"]),
        ("kbip", ["m", "n"]),
        ("kpm", ["m"]),
        ("hypercube", ["d"]),
    ):
        p = c_sub.add_parser(name, parents=[common])
        for a in args:
            p.add_argument(a, type=int)
    for name in ("bowtie", "boxk2"):
        p = c_sub.add_parser(name, parents=[common])
        p.add_argument("-g", "--graph", required=True)

    p_density = sub.add_parser("density", parents=[common])
    p_density.add_argument("-g", "--graph", required=True)
    p_density.add_argument("-m", "--matrix", required=True)

    p_hessian = sub.add_parser("hessian", parents=[common])
    p_hessian.add_argument("-g", "--graph", required=True)
    p_hessian.add_argument("-m", "--matrix", required=True)
    p_hessian.add_argument("--pairs", help="restrict to pairs, e.g. '0,2;2,2'")

    p_psd = sub.add_parser("psd", parents=[common])
    p_psd.add_argument("-m", "--matrix", required=True)

    p_cut = sub.add_parser("cutnorm", parents=[common])
    p_cut.add_argument("-m", "--matrix", required=True)

    p_check = sub.add_parser("check")
    k_sub = p_check.add_subparsers(dest="what", required=True)
    p = k_sub.add_parser("sidorenko", parents=[common])
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-m", "--matrix", required=True)
    for name in ("hatami", "counting"):
        p = k_sub.add_parser(name, parents=[common])
        p.add_argument("-g", "--graph", required=True)
        p.add_argument("-m", "--matrix", required=True)
        p.add_argument("-w", "--second-matrix", required=True)
    p = k_sub.add_parser("euler-indicator", parents=[common])
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--n", type=int, default=1, help="half-block size")
    p = k_sub.add_parser("prop42", parents=[common])
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--n", type=int, default=1, help="half-block size")
    p = k_sub.add_parser("bowtie-lemma", parents=[common])
    p.add_argument("-g", "--graph", required=True)

    p_certify = sub.add_parser("certify")
    y_sub = p_certify.add_subparsers(dest="pipeline", required=True)
    p = y_sub.add_parser("bowtie-cycle", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p = y_sub.add_parser("kpm", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p = y_sub.add_parser("search", parents=[common])
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--mode", choices=("weak", "norming"), required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p_verify = sub.add_parser("verify", parents=[common])
    p_verify.add_argument("-c", "--certificate", required=True)

    return parser


def _cmd_construct(ns, state) -> tuple[int, dict]:
    if ns.family == "cycle":
        g = cycle_graph(ns.k)
    elif ns.family == "kbip":
        g = complete_bipartite(ns.m, ns.n)
    elif ns.family == "kpm":
        g = kpm_graph(ns.m)
    elif ns.family == "hypercube":
        g = hypercube_graph(ns.d)
    elif ns.family == "bowtie":
        g = bowtie_blowup(_load_graph(ns.graph, state))
    else:
        g = cartesian_k2(_load_graph(ns.graph, state))
    payload = g.to_json()
    payload["structure"] = structural_report(g).to_json()
    return 0, payload


def _cmd_density(ns, state) -> tuple[int, dict]:
    g = _load_graph(ns.graph, state)
    a = _load_matrix(ns.matrix, state)
    powers = norm_powers(g, a)
    e = g.edge_count
    payload = {
        "count": format_rational(powers["count"]),
        "density": format_rational(powers["density"]),
        "norm_pow": format_rational(powers["norm_pow"]),
        "weak_norm_pow": format_rational(powers["weak_norm_pow"]),
    }
    if e > 0:
        payload["norm_root_interval"] = _root_interval_str(powers["norm_pow"], e)
        payload["weak_norm_root_interval"] = _root_interval_str(
            powers["weak_norm_pow"], e
        )
    return 0, payload


def _cmd_hessian(ns, state) -> tuple[int, dict]:
    g = _load_graph(ns.graph, state)
    a = _load_matrix(ns.matrix, state)
    pairs = None if ns.pairs is None else _parse_pairs(ns.pairs)
    h = hessian_matrix(g, a, pairs)
    return 0, {
        "pairs": [list(p) for p in h.pairs],
        "matrix": h.matrix.to_json(),
    }


def _cmd_psd(ns, state) -> tuple[int, dict]:
    res = psd_certify(_load_matrix(ns.matrix, state))
    if res.is_psd:
        return 0, {"verdict": "psd"}
    return 1, {
        "verdict": "not_psd",
        "witness": [format_rational(x) for x in res.witness],
        "value": format_rational(res.value),
    }


def _cmd_check(ns, state) -> tuple[int, dict]:
    g = _load_graph(ns.graph, state)
    if ns.what == "sidorenko":
        holds = sidorenko_check(g, _load_matrix(ns.matrix, state))
        return (0 if holds else 1), {"check": "sidorenko", "holds": holds}
    if ns.what == "hatami":
        holds = hatami_box_check(
            g,
            _load_matrix(ns.matrix, state),
            _load_matrix(ns.second_matrix, state),
        )
        return (0 if holds else 1), {"check": "hatami", "holds": holds}
    if ns.what == "counting":
        holds = counting_lemma_check(
            g,
            _load_matrix(ns.matrix, state),
            _load_matrix(ns.second_matrix, state),
        )
        return (0 if holds else 1), {"check": "counting", "holds": holds}
    if ns.what == "euler-indicator":
        holds = eulerian_indicator_check(g, ns.n)
        return (0 if holds else 1), {
            "check": "euler-indicator",
            "holds": holds,
            "eulerian": is_eulerian(g),
        }
    if ns.what == "prop42":
        h = allones_hessian(g, ns.n)
        holds = annihilates_ones(h)
        verdict = psd_certify(h).verdict
        return (0 if holds else 1), {
            "check": "prop42",
            "kernel_annihilated": holds,
            "hessian_psd": verdict,
        }
    report = verify_bowtie_structure(g)
    holds = report.edge_in_unique_4cycle is not None and report.two_edge_sets_ok
    payload = {"check": "bowtie-lemma", "holds": holds}
    payload.update(report.to_json())
    return (0 if holds else 1), payload


def _cmd_certify(ns, state) -> tuple[int, dict]:
    if ns.pipeline == "bowtie-cycle":
        result = certify_bowtie_cycle(ns.k)
    elif ns.pipeline == "kpm":
        result = certify_kpm(ns.m)
    else:
        g = _load_graph(ns.graph, state)
        mode = "weakly_norming" if ns.mode == "weak" else "norming"
        found = random_witness_search(g, ns.n, ns.trials, mode, ns.seed)
        if found is None:
            return 1, {
                "found": False,
                "mode": mode,
                "trials": ns.trials,
                "seed": ns.seed,
            }
        return 0, found.to_json()
    if isinstance(result, Refusal):
        return 1, result.to_json()
    return 0, result.to_json()


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
        if ns.command == "construct":
            code, payload = _cmd_construct(ns, state)
        elif ns.command == "density":
            code, payload = _cmd_density(ns, state)
        elif ns.command == "hessian":
            code, payload = _cmd_hessian(ns, state)
        elif ns.command == "psd":
            code, payload = _cmd_psd(ns, state)
        elif ns.command == "cutnorm":
            code, payload = 0, {
                "cut_norm": format_rational(cut_norm(_load_matrix(ns.matrix, state)))
            }
        elif ns.command == "check":
            code, payload = _cmd_check(ns, state)
        elif ns.command == "certify":
            code, payload = _cmd_certify(ns, state)
        else:
            code, payload = _cmd_verify(ns, state)
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
