import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import graphnorms
from graphnorms.cli import main
from graphnorms.graphs import Graph, load_graph_text

SRC = Path(graphnorms.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def c4_file(tmp_path, capsys):
    path = tmp_path / "c4.json"
    code, out = run(capsys, "construct", "cycle", "4")
    assert code == 0
    path.write_text(out)
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text('{"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}')
    return str(path)


@pytest.fixture
def pm_file(tmp_path):
    path = tmp_path / "pm.json"
    path.write_text('{"n": 2, "entries": [["1", "-1"], ["-1", "1"]]}')
    return str(path)


def test_construct_payload(capsys):
    code, data = run_json(capsys, "construct", "kbip", "2", "3")
    assert code == 0
    assert data["n"] == 5
    assert len(data["edges"]) == 6
    assert data["structure"]["bipartite"] is True
    code, data = run_json(capsys, "construct", "hypercube", "3")
    assert data["structure"]["regular"] == 3


def test_construct_two_stage(capsys, c4_file):
    code, data = run_json(capsys, "construct", "bowtie", "-g", c4_file)
    assert code == 0
    assert data["n"] == 8 and len(data["edges"]) == 12
    code, data2 = run_json(capsys, "construct", "boxk2", "-g", c4_file)
    assert data2["n"] == 8 and len(data2["edges"]) == 12


def test_density_command(capsys, c4_file, pm_file):
    code, data = run_json(capsys, "density", "-g", c4_file, "-m", pm_file)
    assert code == 0
    assert data["count"] == "16"
    assert data["density"] == "1"
    assert data["norm_pow"] == "1"
    lo, hi = data["norm_root_interval"]
    assert lo.startswith("1") or hi.startswith("1")


def test_psd_exit_codes(capsys, tmp_path):
    good = tmp_path / "id.json"
    good.write_text('{"n": 2, "entries": [[1, 0], [0, 1]]}')
    code, data = run_json(capsys, "psd", "-m", str(good))
    assert code == 0 and data == {"verdict": "psd"}
    bad = tmp_path / "offdiag.json"
    bad.write_text('{"n": 2, "entries": [[0, 1], [1, 0]]}')
    code, data = run_json(capsys, "psd", "-m", str(bad))
    assert code == 1
    assert data["verdict"] == "not_psd"
    assert data["witness"] == ["1", "-1"]
    assert data["value"] == "-2"


def test_cutnorm_command(capsys, pm_file):
    code, data = run_json(capsys, "cutnorm", "-m", pm_file)
    assert code == 0 and data["cut_norm"] == "1/4"


def test_hessian_command_with_pairs(capsys, c4_file, pm_file):
    code, data = run_json(
        capsys, "hessian", "-g", c4_file, "-m", pm_file, "--pairs", "0,0;0,1"
    )
    assert code == 0
    assert data["pairs"] == [[0, 0], [0, 1]]
    assert data["matrix"]["n"] == 2


def test_check_commands(capsys, c4_file, pm_file, tmp_path):
    ones = tmp_path / "ones.json"
    ones.write_text('{"n": 2, "entries": [[1, 1], [1, 1]]}')
    code, data = run_json(capsys, "check", "sidorenko", "-g", c4_file, "-m", str(ones))
    assert code == 0 and data["holds"] is True
    code, data = run_json(
        capsys, "check", "counting", "-g", c4_file, "-m", str(ones), "-w", pm_file
    )
    assert code == 0 and data["holds"] is True
    code, data = run_json(
        capsys, "check", "hatami", "-g", c4_file, "-m", str(ones), "-w", pm_file
    )
    assert code == 0
    code, data = run_json(capsys, "check", "euler-indicator", "-g", c4_file, "--n", "2")
    assert code == 0 and data["holds"] is True
    code, data = run_json(capsys, "check", "prop42", "-g", c4_file, "--n", "1")
    assert code == 0
    assert data["kernel_annihilated"] is True and data["hessian_psd"] == "psd"


def test_check_bowtie_lemma(capsys, tmp_path):
    code, out = run(capsys, "construct", "cycle", "5")
    c5 = tmp_path / "c5.json"
    c5.write_text(out)
    code, out = run(capsys, "construct", "bowtie", "-g", str(c5))
    mob = tmp_path / "mob.json"
    mob.write_text(out)
    code, data = run_json(capsys, "check", "bowtie-lemma", "-g", str(mob))
    assert code == 0 and data["holds"] is True
    assert data["edge_in_unique_4cycle"] is not None


def test_certify_and_verify_round_trip(capsys, tmp_path):
    code, out = run(capsys, "certify", "bowtie-cycle", "--k", "5")
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, data = run_json(capsys, "verify", "-c", str(cert))
    assert code == 0 and data["valid"] is True


@pytest.mark.parametrize(
    "field, bad",
    [
        ("direction", 5),
        ("direction", "12"),
        ("pairs", 5),
        ("value", [1]),
        ("value", {"a": 1}),
        ("value", "not a rational"),
        ("value", True),
        ("direction", [True, 1]),
        ("n", "three"),
        # JSON null reads as a missing field; n must agree with the 3x3 witness
        ("value", None),
        ("n", None),
        ("n", 4),
    ],
)
def test_malformed_certificate_is_a_usage_error(capsys, tmp_path, field, bad):
    code, out = run(capsys, "certify", "bowtie-cycle", "--k", "5")
    assert code == 0
    cert = json.loads(out)
    cert[field] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    code, data = run_json(capsys, "verify", "-c", str(path))
    assert code == 3 and data["kind"] == "usage"


def test_boolean_matrix_entries_are_a_usage_error(capsys, c4_file, tmp_path):
    # JSON true and false are ints to Python, not rationals
    path = tmp_path / "bool.json"
    path.write_text('{"n": 2, "entries": [[true, false], [false, true]]}')
    code, data = run_json(capsys, "density", "-g", c4_file, "-m", str(path))
    assert code == 3 and data["kind"] == "usage"


def test_rational_spellings_format_rational_never_writes_are_a_usage_error(capsys, tmp_path):
    # int() reads "1_0" as 10; a matrix holding it is malformed
    path = tmp_path / "underscore.json"
    path.write_text('{"n": 2, "entries": [["1_0", "0"], ["0", "1"]]}')
    code, data = run_json(capsys, "psd", "-m", str(path))
    assert code == 3 and data["kind"] == "usage"
    assert "malformed rational '1_0'" in data["error"]


@pytest.mark.parametrize("line", ["0 1_0", "+1 ٢", " 1 ２"])
def test_edge_list_endpoints_are_ascii_digits(capsys, tmp_path, line):
    # int() reads "1_0" as 10, "+1" as 1 and "٢" or "２" as 2
    path = tmp_path / "edges.txt"
    path.write_text(line + "\n", encoding="utf-8")
    code, data = run_json(capsys, "construct", "bowtie", "-g", str(path))
    assert code == 3 and data["kind"] == "usage"
    assert "bad edge line" in data["error"]
    path.write_text("0 1\n")
    assert load_graph_text(path.read_text()) == Graph(2, ((0, 1),))
    code, data = run_json(capsys, "construct", "bowtie", "-g", str(path))
    assert code == 0 and data["n"] == 4  # the blow-up of K_2


def test_zero_value_certificate_is_invalid(capsys, tmp_path):
    # the curvature of K_2 at [[1/2]] along [1] really is 0, so the value
    # matches and only its sign refuses it
    cert = {
        "kind": "not_weakly_norming",
        "graph": {"n": 2, "edges": [[0, 1]]},
        "n": 1,
        "witness": {"n": 1, "entries": [["1/2"]]},
        "pairs": [[0, 0]],
        "direction": ["1"],
        "value": "0",
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cert))
    code, data = run_json(capsys, "verify", "-c", str(path))
    assert code == 1 and data["valid"] is False


def test_density_enumerates_once_per_kernel(capsys, monkeypatch, c4_file, pm_file, tmp_path):
    import graphnorms.homs as homs

    calls = []
    real = homs.profile_map

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(homs, "profile_map", counting)
    nonneg = tmp_path / "nonneg.json"
    nonneg.write_text('{"n": 2, "entries": [["1/2", "0"], ["0", "1"]]}')
    code, data = run_json(capsys, "density", "-g", c4_file, "-m", str(nonneg))
    assert code == 0 and data["norm_pow"] == data["weak_norm_pow"] == "17/256"
    assert len(calls) == 1
    calls.clear()
    code, data = run_json(capsys, "density", "-g", c4_file, "-m", pm_file)
    assert code == 0 and data["weak_norm_pow"] == "1"
    assert len(calls) == 2


def test_certify_refusal_exit_code(capsys):
    code, data = run_json(capsys, "certify", "bowtie-cycle", "--k", "4")
    assert code == 1
    assert data["refused"] is True


def test_certify_kpm_screening(capsys, tmp_path):
    code, out = run(capsys, "certify", "kpm", "--m", "4")
    data = json.loads(out)
    assert code == 0
    assert data["kind"] == "screening_failure"
    assert data["value"] == "non-eulerian"
    # the reason travels in "value" and survives the round trip
    path = tmp_path / "screen.json"
    path.write_text(out)
    code, data = run_json(capsys, "verify", "-c", str(path))
    assert code == 0 and data["valid"] is True


def test_certify_search(capsys, tmp_path):
    path = tmp_path / "p4.json"
    path.write_text('{"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}')
    code, data = run_json(
        capsys, "certify", "search", "-g", str(path), "--mode", "weak",
        "--n", "3", "--trials", "200", "--seed", "0",
    )
    assert code == 0
    assert data["kind"] == "not_weakly_norming"
    c4 = tmp_path / "c4.json"
    c4.write_text('{"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}')
    code, data = run_json(
        capsys, "certify", "search", "-g", str(c4), "--mode", "weak",
        "--n", "2", "--trials", "50", "--seed", "0",
    )
    assert code == 1 and data["found"] is False


def test_certify_search_trial_count(capsys, c4_file):
    # a negative budget is a usage error, not a search that found nothing
    args = ("certify", "search", "-g", c4_file, "--mode", "weak", "--n", "2")
    code, data = run_json(capsys, *args, "--trials", "-3")
    assert code == 3
    assert data == {"error": "trials must be >= 0, got -3", "kind": "usage"}
    code, data = run_json(capsys, *args, "--trials", "0")
    assert code == 1
    assert data == {"found": False, "mode": "weakly_norming", "trials": 0, "seed": 0}


def test_seed_is_an_option_of_the_search_alone(capsys, c4_file, pm_file):
    # only the witness search draws random matrices
    code, data = run_json(capsys, "density", "-g", c4_file, "-m", pm_file, "--seed", "0")
    assert code == 3 and data["kind"] == "usage"
    args = ("certify", "search", "-g", c4_file, "--mode", "weak", "--n", "2")
    code, data = run_json(capsys, *args, "--trials", "5", "--seed", "3")
    assert code == 1
    assert data == {"found": False, "mode": "weakly_norming", "trials": 5, "seed": 3}


def test_certify_search_with_no_trials_enumerates_nothing(capsys, tmp_path):
    # bowtie(C_9) is past the work limit, so only a search that enumerates
    # reaches the guard
    c9 = tmp_path / "c9.json"
    c9.write_text(run(capsys, "construct", "cycle", "9")[1])
    graph = tmp_path / "bowtie9.json"
    graph.write_text(run(capsys, "construct", "bowtie", "-g", str(c9))[1])
    args = ("certify", "search", "-g", str(graph), "--mode", "weak", "--n", "3")
    code, data = run_json(capsys, *args, "--trials", "0")
    assert code == 1
    assert data == {"found": False, "mode": "weakly_norming", "trials": 0, "seed": 0}
    code, data = run_json(capsys, *args, "--trials", "1")
    assert code == 2
    assert data == {
        "error": "enumeration guard: 3^9 = 19683 colourings > 10000",
        "kind": "inconclusive",
    }


@pytest.mark.parametrize("trials", ["0", "5"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_certify_search_refuses_an_empty_matrix(capsys, p4_file, n, trials):
    # no step matrix has n < 1 cells, whether or not a trial would sample one
    code, data = run_json(
        capsys, "certify", "search", "-g", p4_file, "--mode", "weak",
        "--n", n, "--trials", trials,
    )
    assert code == 3
    assert data == {"error": f"n must be >= 1, got {n}", "kind": "usage"}


def test_hessian_empty_pair_selection_is_a_usage_error(capsys, c4_file, pm_file):
    for pairs in ("", " ; "):
        code, data = run_json(
            capsys, "hessian", "-g", c4_file, "-m", pm_file, "--pairs", pairs
        )
        assert code == 3
        assert data == {"error": "empty pair selection", "kind": "usage"}


def test_stdin_input(capsys, monkeypatch, pm_file):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(Path(pm_file).read_text()))
    code, data = run_json(capsys, "cutnorm", "-m", "-")
    assert code == 0 and data["cut_norm"] == "1/4"


def test_stdin_names_at_most_one_input(capsys, monkeypatch, c4_file):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(Path(c4_file).read_text()))
    code, data = run_json(capsys, "density", "-g", "-", "-m", "-")
    assert code == 3
    assert data == {"error": "stdin ('-') may be used for at most one input", "kind": "usage"}


@pytest.mark.parametrize(
    "pairs, message",
    [
        ("0,1,2", "bad pair '0,1,2'; expected 'i,j'"),
        ("a,b", "bad pair 'a,b': invalid literal for int() with base 10: 'a'"),
    ],
    ids=["three-indices", "not-ints"],
)
def test_bad_pair_selection_is_a_usage_error(capsys, c4_file, pm_file, pairs, message):
    code, data = run_json(capsys, "hessian", "-g", c4_file, "-m", pm_file, "--pairs", pairs)
    assert code == 3
    assert data == {"error": message, "kind": "usage"}


def test_inputs_are_read_in_order_and_the_first_error_is_reported(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, data = run_json(capsys, "density", "-g", str(bad), "-m", str(bad))
    assert code == 3
    assert data["error"].startswith("bad graph JSON: ")
    # a graph that cannot be read is reported before a matrix that cannot
    # be parsed, and before the pair selection
    missing = tmp_path / "missing.json"
    argv = ("hessian", "-g", str(missing), "-m", str(bad), "--pairs", "a,b")
    code, data = run_json(capsys, *argv)
    assert code == 3
    assert data["error"].startswith(f"cannot read {missing}: ")


@pytest.mark.parametrize(
    "content",
    ['{"n": ' + "[" * 100000 + "]" * 100000 + "}", '{"n": ' + "1" * 5000 + "}"],
    ids=["deep-nesting", "long-integer"],
)
@pytest.mark.parametrize(
    "argv, what",
    [
        (("construct", "bowtie", "-g"), "graph"),
        (("cutnorm", "-m"), "matrix"),
        (("verify", "-c"), "certificate"),
    ],
    ids=["graph", "matrix", "certificate"],
)
def test_unparsable_json_names_its_input(capsys, tmp_path, content, argv, what):
    # the message is the input's name and json's own reason, whatever the input
    with pytest.raises((ValueError, RecursionError)) as info:
        json.loads(content)
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, data = run_json(capsys, *argv, str(path))
    assert code == 3
    assert data == {"error": f"bad {what} JSON: {info.value}", "kind": "usage"}


def test_usage_and_guard_exit_codes(capsys, tmp_path, pm_file):
    code, data = run_json(capsys, "nonsense")
    assert code == 3
    code, data = run_json(capsys, "cutnorm", "-m", str(tmp_path / "missing.json"))
    assert code == 3
    # C_28 colours 14 vertices, 2^14 colourings at n = 2: past the limit
    path = tmp_path / "c28.json"
    path.write_text(json.dumps({"n": 28, "edges": [[i, (i + 1) % 28] for i in range(28)]}))
    code, data = run_json(capsys, "density", "-g", str(path), "-m", pm_file)
    assert code == 2
    assert data == {
        "error": "enumeration guard: 2^14 = 16384 colourings > 10000",
        "kind": "inconclusive",
    }


def test_plain_output(capsys, pm_file):
    code, out = run(capsys, "cutnorm", "-m", pm_file, "--plain")
    assert code == 0
    assert "cut_norm: 1/4" in out


def test_plain_output_keeps_each_list_of_scalars_on_one_line(capsys):
    code, out = run(capsys, "construct", "cycle", "4", "--plain")
    assert code == 0
    assert out.splitlines() == [
        "n: 4",
        "edges:",
        "  0 1",
        "  0 3",
        "  1 2",
        "  2 3",
        "structure:",
        "  vertices: 4",
        "  edges: 4",
        "  degree_sequence: 2 2 2 2",
        "  bipartite: True",
        "  classes:",
        "    0 2",
        "    1 3",
        "  eulerian: True",
        "  regular: 2",
    ]


def test_plain_certificate_keeps_witness_rows_and_pairs(capsys):
    code, out = run(capsys, "certify", "kpm", "--m", "5", "--plain")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("witness:")
    assert lines[start : start + 10] == [
        "witness:",
        "  n: 3",
        "  entries:",
        "    0 0 1/2",
        "    0 1 1",
        "    1/2 1 -1",
        "pairs:",
        "  0 0",
        "  0 1",
        "direction: -1600 199",
    ]
    assert "  edges:" in lines and "    0 6" in lines


def test_threads_do_not_change_output(capsys, tmp_path):
    # --threads is still accepted, and the output must not depend on it
    code, out1 = run(capsys, "certify", "bowtie-cycle", "--k", "6", "--threads", "1")
    code, out2 = run(capsys, "certify", "bowtie-cycle", "--k", "6", "--threads", "2")
    assert out1 == out2


def test_parser_is_built_once(capsys, monkeypatch):
    import graphnorms.cli as cli

    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    run(capsys, "construct", "cycle", "4")
    run(capsys, "construct", "kbip", "2", "3")
    assert len(builds) == 1


@pytest.mark.parametrize(
    "argv", [["bowtie-cycle", "--k", "9"], ["kpm", "--m", "9"]], ids=["bowtie", "kpm"]
)
def test_certify_past_the_limit_is_inconclusive(capsys, argv):
    # both 18-vertex graphs colour one 9-vertex side of the bipartition
    code, data = run_json(capsys, "certify", *argv)
    assert code == 2
    assert data == {
        "error": "enumeration guard: 3^9 = 19683 colourings > 10000",
        "kind": "inconclusive",
    }


@pytest.mark.parametrize(
    "length, message",
    [
        (27, "enumeration guard: 1^14 colourings priced as 2^14 = 16384 > 10000"),
        (3000, "enumeration guard: 1^1500 colourings priced as 2^1500 > 10000"),
    ],
    ids=["c27", "c3000"],
)
def test_one_colour_kernel_is_held_to_the_limit(capsys, tmp_path, length, message):
    # a 1x1 kernel gives 1^|C| = 1 colouring at any size; each cover vertex is
    # priced as 2 colours so the search depth stays bounded (C_26 colours 13)
    one = tmp_path / "one.json"
    one.write_text('{"n": 1, "entries": [["1"]]}')
    for k in (26, length):
        graph = tmp_path / f"c{k}.json"
        graph.write_text(run(capsys, "construct", "cycle", str(k))[1])
        code, data = run_json(capsys, "density", "-g", str(graph), "-m", str(one))
        if k == 26:
            assert code == 0 and data["density"] == "1"
    assert code == 2
    assert data == {"error": message, "kind": "inconclusive"}


HUGE = str(10**4000)  # below the 4300 digits int() parses, above what str() prints


@pytest.mark.parametrize(
    "argv, guard, sizes",
    [
        (["construct", "cycle", "100000000"], "construct", "100000000 vertices + 100000000 edges"),
        (["construct", "kpm", "100000"], "construct", "200000 vertices + 9999900000 edges"),
        (["construct", "kbip", "100000", "100000"], "construct", "200000 vertices + 10000000000 edges"),
        (["construct", "hypercube", "40"], "construct", "1099511627776 vertices + 21990232555520 edges"),
        (["construct", "bowtie", "-g"], "construct", "2000000000000 vertices + 1000000000002 edges"),
        (["construct", "boxk2", "-g"], "construct", "2000000000000 vertices + 1000000000002 edges"),
        (["certify", "kpm", "--m", "100001"], "construct", "200002 vertices + 10000100000 edges"),
        (["certify", "bowtie-cycle", "--k", "100000000"], "construct", "100000000 vertices + 100000000 edges"),
        # past 10^18 no count is printed, and 2^(10^100) is never computed
        (["construct", "kbip", HUGE, HUGE], "construct", "over 10^18 vertices + edges"),
        (["construct", "hypercube", str(10**100)], "construct", "over 10^18 vertices + edges"),
        (["check", "euler-indicator", "--n", str(10**2200), "-g"], "matrix", "over 10^18 entries"),
    ],
    ids=[
        "cycle", "kpm", "kbip", "hypercube", "bowtie", "boxk2", "certify-kpm", "certify-bowtie",
        "kbip-huge", "hypercube-huge", "euler-indicator-huge",
    ],
)
def test_oversized_constructed_graph_is_refused_at_once(capsys, tmp_path, argv, guard, sizes):
    import time

    if argv[-1] == "-g":
        # one edge among a trillion vertices: cheap to read, too large to build on
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**12, "edges": [[0, 1]]}))
        argv = argv + [str(path)]
    start = time.perf_counter()
    code, data = run_json(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert data == {"error": f"{guard} guard: {sizes} > 10000", "kind": "inconclusive"}


def test_constructed_graph_within_the_limit_is_built(capsys):
    # 5000 vertices + 5000 edges, the limit's own size
    code, data = run_json(capsys, "construct", "cycle", "5000")
    assert code == 0
    assert data["n"] == 5000 and len(data["edges"]) == 5000


def test_internal_error_is_exit_four_on_stderr(capsys, monkeypatch, pm_file):
    import graphnorms.cli as cli

    def broken(matrix):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "psd_certify", broken)
    code = main(["psd", "-m", pm_file])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "RuntimeError: engine fault",
        "kind": "internal",
    }


@pytest.mark.parametrize(
    "reason, edges",
    [
        ("non-bipartite", [[0, 1], [0, 2], [1, 2]]),
        ("non-eulerian", [[0, 1], [1, 2], [2, 3]]),
        ("odd edge count", [[0, 1], [0, 2], [1, 2]]),
    ],
)
def test_screening_verify_does_not_scale_with_claimed_n(capsys, tmp_path, reason, edges):
    import time

    # a trillion vertices, all but a handful isolated
    cert = {
        "kind": "screening_failure",
        "graph": {"n": 10**12, "edges": edges},
        "value": reason,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cert))
    start = time.perf_counter()
    code, data = run_json(capsys, "verify", "-c", str(path))
    assert code == 0 and data == {"valid": True, "kind": "screening_failure"}
    assert time.perf_counter() - start < 0.5


def test_curvature_verify_refuses_a_claimed_trillion_vertices_at_once(capsys, tmp_path):
    import time

    code, out = run(capsys, "certify", "bowtie-cycle", "--k", "5")
    assert code == 0
    cert = json.loads(out)
    cert["graph"]["n"] = 10**12
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cert))
    start = time.perf_counter()
    code, data = run_json(capsys, "verify", "-c", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and data == {
        "error": "enumeration guard: 3^5 = 243 colourings + 999999999990 isolated "
        "vertices > 10000",
        "kind": "inconclusive",
    }


def test_curvature_verify_refuses_a_large_star_at_once(capsys, tmp_path):
    import time

    code, out = run(capsys, "certify", "bowtie-cycle", "--k", "5")
    assert code == 0
    cert = json.loads(out)
    # one cover vertex: 3 colourings, but 2000 leaves to sum out
    cert["graph"] = {"n": 2001, "edges": [[0, i] for i in range(1, 2001)]}
    path = tmp_path / "star.json"
    path.write_text(json.dumps(cert))
    start = time.perf_counter()
    code, data = run_json(capsys, "verify", "-c", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and data == {
        "error": "enumeration guard: summing out the independent set touches"
        " > 10000 profile entries per colouring",
        "kind": "inconclusive",
    }


@pytest.mark.parametrize("check", ["prop42", "euler-indicator"])
def test_block_kernel_checks_refuse_a_huge_block_at_once(capsys, c4_file, check):
    import time

    start = time.perf_counter()
    code, data = run_json(capsys, "check", check, "-g", c4_file, "--n", "100000")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and data == {
        "error": "matrix guard: 200000^2 = 40000000000 entries > 10000",
        "kind": "inconclusive",
    }


@pytest.mark.parametrize(
    "content",
    [
        "[" * 100000 + "]" * 100000,
        '{"kind": ' + "1" * 5000 + "}",
        b'{"kind": "\xff"}',
    ],
    ids=["deep-nesting", "long-integer", "invalid-utf8"],
)
def test_unreadable_certificate_text_is_a_usage_error(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, data = run_json(capsys, "verify", "-c", str(path))
    assert code == 3 and data["kind"] == "usage"


@pytest.mark.parametrize(
    "path, bad",
    [
        (("witness", "n"), "three"),
        (("witness", "n"), None),
        (("witness", "n"), float("inf")),
        (("witness", "n"), 3.0),
        (("graph", "n"), float("inf")),
        (("graph", "n"), 10.7),
        (("graph", "edges", 0, 1), 1.5),
        (("graph", "edges", 0, 1), 6.0),
        (("graph", "edges", 0, 1), True),
        (("pairs", 0, 0), float("inf")),
        (("pairs", 0, 0), 1.5),
    ],
    ids=["witness-n-text", "witness-n-null", "witness-n-inf", "witness-n-float",
         "graph-n-inf", "graph-n-fraction", "edge-fraction", "edge-float", "edge-bool",
         "pair-inf", "pair-fraction"],
)
def test_malformed_nested_field_is_a_usage_error(capsys, tmp_path, path, bad):
    code, out = run(capsys, "certify", "bowtie-cycle", "--k", "5")
    assert code == 0
    cert = json.loads(out)
    node = cert
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(cert))
    code, data = run_json(capsys, "verify", "-c", str(file))
    assert code == 3 and data["kind"] == "usage"


def _module_cli(*argv, **kwargs):
    """``python -m graphnorms.cli argv`` in a fresh interpreter, through
    entry() and the process's real standard streams."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "graphnorms.cli", *argv]
    return subprocess.Popen(command, env=env, text=True, **kwargs)


def test_module_round_trip_through_a_pipe():
    certify = _module_cli("certify", "bowtie-cycle", "--k", "5", stdout=subprocess.PIPE)
    verify = _module_cli(
        "verify", "-c", "-", stdin=certify.stdout, stdout=subprocess.PIPE
    )
    certify.stdout.close()  # verify holds the only read end
    out, _ = verify.communicate(timeout=60)
    assert certify.wait(timeout=60) == 0
    assert verify.returncode == 0
    assert json.loads(out) == {"valid": True, "kind": "not_weakly_norming"}


@pytest.mark.parametrize(
    "argv, code",
    [
        (("certify", "bowtie-cycle", "--k", "5"), 0),
        (("certify", "bowtie-cycle", "--k", "4"), 1),
        (("certify", "bowtie-cycle", "--k", "2"), 3),
    ],
    ids=["certified", "refused", "usage"],
)
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # the reader is gone before the command writes: no traceback, and the
    # exit code is the command's own (exit 1 would read as "refuted")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = _module_cli(*argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    _, err = child.communicate(timeout=60)
    assert child.returncode == code
    assert err == ""


def test_module_malformed_stdin_exits_three():
    verify = _module_cli(
        "verify", "-c", "-", stdin=subprocess.PIPE, stdout=subprocess.PIPE
    )
    out, _ = verify.communicate("{not json", timeout=60)
    assert verify.returncode == 3
    assert json.loads(out)["kind"] == "usage"


def test_readme_library_example():
    # runs README's "Library use" block and checks the values its comments quote
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    assert "# Fraction(185, 59049), exact" in block
    assert "# not_psd, direction (47, -1), value -940" in block
    names = {}
    exec(block, names)
    assert names["density"](names["mobius"], names["kernel"]) == Fraction(185, 59049)
    res = names["psd_certify"](names["h"].matrix)
    assert (res.verdict, res.witness, res.value) == ("not_psd", (47, -1), -940)
    assert names["verify_certificate"](names["cert"])
