"""A standing mutation panel: seeded faults, each with the test that must
catch it.

Each row of ``MUTANTS`` names a file of ``src/graphnorms``, an exact text
in it, the text's replacement, and the cheapest test that fails on the
mutant. Run from anywhere:

    python tests/mutants.py

For each row it copies ``src/`` to a temporary directory, applies the row
and runs only the row's test against the copy. It refuses a row whose
text occurs in its file 0 times or more than once, so a refactor that
moves the code breaks the panel loudly instead of mutating nothing. It
exits 1 when a row is refused, when a test passes on its mutant, or when
a test run fails for any reason but a failing test. pytest does not
collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (file under src/graphnorms, exact text, replacement, test)
MUTANTS = (
    (
        "homs.py",
        "{0: const, inc: slope}",
        "{0: const, inc: const}",
        "tests/test_homs.py::test_affine_cells_match_brute_force",
    ),
    (
        "homs.py",
        "s = row[x]\n                if s is None:\n                    break\n                key += s[0]",
        "s = row[x]\n                if s is None:\n                    break\n                key += 0",
        "tests/test_homs.py::test_symbolic_profile_boundary_coefficients",
    ),
    (
        "homs.py",
        "visited += len(choices)",
        "visited += 1",
        "tests/test_homs.py::test_visited_counts_pin_reuse",
    ),
    (
        "homs.py",
        "terms = {exp: cnt * scale_pow[sum(exp)] for",
        "terms = {exp: cnt for",
        "tests/test_homs.py::test_count_polynomial_matches_brute_force",
    ),
    (
        "homs.py",
        "bits = max(3, g.edge_count.bit_length())",
        "bits = max(2, g.edge_count.bit_length() - 1)",
        "tests/test_homs.py::test_profile_map_matches_brute_force_on_random_cases",
    ),
    (
        "homs.py",
        "factor = n**isolated",
        "factor = n ** max(isolated - 1, 0)",
        "tests/test_homs.py::test_colour_class_build_matches_brute_force",
    ),
    (
        "plans.py",
        "    for positions in alike.values():",
        "    if sum(map(len, alike.values())) >= 2:\n        return True\n    for positions in alike.values():",
        "tests/test_homs.py::test_every_memo_table_has_a_key_that_repeats",
    ),
    (
        "polys.py",
        "second = map(sub, first, repeat(1)) if p == q else compress(columns[q], mp)",
        "second = first if p == q else compress(columns[q], mp)",
        "tests/test_polys.py::test_derivative_examples",
    ),
    (
        "polys.py",
        "g = off[p] + off[q]",
        "g = off[p] | off[q]",
        "tests/test_hessians.py::test_hessian_zero_cells_follow_formal_derivative",
    ),
    (
        "hessians.py",
        "if i < j and ai[j]:",
        "if i < j and ai[j] > 0:",
        "tests/test_hessians.py::test_psd_zero_diagonal_cases",
    ),
    (
        "hessians.py",
        "return 2 * line.coefficient_of(s=2) / scale**2",
        "return 2 * line.coefficient_of(s=2) / scale",
        "tests/test_line_curvature.py::test_line_matches_the_hessian_on_random_graphs",
    ),
    (
        "hessians.py",
        "caps = {name: 2 for",
        "caps = {name: 1 for",
        "tests/test_hessians.py::test_hessian_zero_cells_follow_formal_derivative",
    ),
    (
        "certificates.py",
        'if cert.kind == "not_weakly_norming" and not cert.witness.entries_in(0, 1):',
        'if cert.kind == "not_weakly_norming" and not cert.witness.entries_in(-1, 1):',
        "tests/test_certificates.py::test_weak_certificate_needs_a_witness_in_the_unit_interval",
    ),
    (
        "certificates.py",
        '"xy": 4 * s - 3',
        '"xy": 4 * s - 2',
        "tests/test_certificates.py::test_certify_kpm_five",
    ),
    (
        "rationals.py",
        'digits = [p.removeprefix("-")]',
        'digits = [p.removeprefix("-").removeprefix("+")]',
        "tests/test_rationals.py::test_format_and_parse",
    ),
    (
        "certificates.py",
        "if cert.value >= 0:",
        "if cert.value > 0:",
        "tests/test_certificates.py::test_zero_value_certificate_does_not_verify",
    ),
    (
        "homs.py",
        "if not (k + off) & guard:\n                    out[k] = get(k, 0) + c * c2",
        "if True:\n                    out[k] = get(k, 0) + c * c2",
        "tests/test_homs.py::test_shared_side_maps_match_brute_force",
    ),
    (
        "homs.py",
        "if v and not (k + bias) & guard}",
        "if v}",
        "tests/test_homs.py::test_capped_counts_pin_cap_sites",
    ),
    (
        "homs.py",
        "sorted(bare) == list(range(len(cells)))",
        "len(set(bare)) == len(cells)",
        "tests/test_homs.py::test_relabelled_profile_map_matches_brute_force",
    ),
    (
        "homs.py",
        "return g.edge_count > 0 and not caps and",
        "return not caps and",
        "tests/test_homs.py::test_relabelled_profile_map_matches_brute_force",
    ),
    (
        "certificates.py",
        "if res.is_psd:",
        "if False:",
        "tests/test_certificates.py::test_disagreeing_psd_decisions_are_a_fault",
    ),
    (
        "plans.py",
        "if {tuple(sorted((sigma[b], sigma[q]))) for b, q in edges} != edges:",
        "if False:",
        "tests/test_homs.py::test_memo_plan_refuses_near_mirrors",
    ),
    (
        "plans.py",
        "if sorted(later) != sorted(tuple(sorted([sigma[a] for a in nbrs])) for nbrs in later):",
        "if False:",
        "tests/test_homs.py::test_memo_plan_refuses_near_mirrors",
    ),
    (
        "plans.py",
        "sigma[positions[0]] = b[0]",
        "sigma[positions[0]] = positions[0]",
        "tests/test_homs.py::test_memo_plan_refuses_near_mirrors",
    ),
    (
        "plans.py",
        "for nbrs in closing[q]]",
        "for nbrs in closing[q] if nbrs[0] >= p]",
        "tests/test_homs.py::test_memo_plan_refuses_near_mirrors",
    ),
    (
        "polys.py",
        "map(g.__eq__, grade)",
        "map(g.__le__, grade)",
        "tests/test_polys.py::test_zero_grade_splits_by_entry",
    ),
    (
        "polys.py",
        "ea, eb = zip(*map(divmod, distinct, repeat(w)))",
        "eb, ea = zip(*map(divmod, distinct, repeat(w)))",
        "tests/test_polys.py::test_derivative_examples",
    ),
    (
        "polys.py",
        "gaps if any(gaps) else ()",
        "gaps if all(gaps) else ()",
        "tests/test_polys.py::test_integer_hessian_read_low_degree_and_mixed_denominators",
    ),
    (
        "errors.py",
        "if type(other) is not type(self):",
        "if not isinstance(other, Record):",
        "tests/test_records.py::test_records_with_the_same_fields_and_different_types_differ",
    ),
    (
        "certificates.py",
        'theorem="",',
        "theorem=None,",
        "tests/test_records.py::test_keyword_construction_takes_the_defaults",
    ),
    (
        "homs.py",
        "self._fill(n, tuple(map(_cell, cells)))",
        "self._fill(n, tuple(cells))",
        "tests/test_records.py::test_a_template_reads_its_cells_when_built",
    ),
)


def mutate(source: str, text: str, replacement: str) -> str:
    """``source`` with its one occurrence of ``text`` replaced; a
    ``ValueError`` when ``text`` occurs 0 times or more than once."""
    found = source.count(text)
    if found != 1:
        raise ValueError(f"the text occurs {found} times, not once: {text!r}")
    return source.replace(text, replacement)


def run_row(file: str, text: str, replacement: str, test: str) -> str:
    """Apply one row to a copy of ``src/`` and run its test there: "killed"
    when the test fails, "survived" when it passes, else pytest's exit
    code and output."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "graphnorms" / file
        path.write_text(mutate(path.read_text(), text, replacement))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", test],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    if run.returncode == 1:
        return "killed"
    if run.returncode == 0:
        return "survived"
    return f"pytest exit {run.returncode}:\n{run.stdout}{run.stderr}"


def main() -> int:
    faults = 0
    for file, text, replacement, test in MUTANTS:
        try:
            verdict = run_row(file, text, replacement, test)
        except ValueError as exc:
            verdict = f"refused: {exc}"
        faults += verdict != "killed"
        head, _, detail = verdict.partition("\n")
        print(f"{file:16s} {head:10s} {test}", flush=True)
        if detail:
            print(detail)
    print(f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
