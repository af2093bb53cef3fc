"""Properties of the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import graphnorms


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so an invariant written as one
    # would silently stop being checked
    root = Path(graphnorms.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_cold_import_loads_no_dataclasses():
    # dataclasses imports inspect (and with it ast, dis and tokenize), and
    # every start of a one-shot command pays for that import; the records
    # are slotted classes over errors.Record instead
    root = Path(graphnorms.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "dataclasses"]
    assert found == []
    # -S keeps site's own imports out, so what is loaded is the package's doing
    probe = "import sys, graphnorms.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(root.parent)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def _broad_handler(node) -> bool:
    """A bare ``except:`` or one that names Exception or BaseException."""
    if node.type is None:
        return True
    names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(
        isinstance(n, ast.Name) and n.id in ("Exception", "BaseException") for n in names
    )


def test_broad_exception_handlers_only_in_cli_main():
    # cli.main turns an unexpected fault into exit 4; anywhere else a
    # catch-all would hide a failure of the engine
    root = Path(graphnorms.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path.name == "cli.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "main":
                    allowed = {id(n) for n in ast.walk(node)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and _broad_handler(node)
            and id(node) not in allowed
        ]
    assert found == []


def test_size_guards_only_at_the_remaining_limits():
    # one work limit on the enumeration engine (also pricing a dense
    # Hessian, the dense block matrix and every graph built from size
    # parameters), one sweep limit, and the search's bound on the symbols it
    # reads every trial; a size knob on any function would bring back
    # per-call limits
    root = Path(graphnorms.__file__).parent
    raising, knobs = set(), []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Raise)
                    and isinstance(inner.exc, ast.Call)
                    and isinstance(inner.exc.func, ast.Name)
                    and inner.exc.func.id == "SizeGuardError"
                ):
                    raising.add(f"{path.stem}.{node.name}")
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            knobs += [
                f"{path.stem}.{node.name}({a.arg})"
                for a in args
                if a.arg in ("max_vertices", "max_size")
            ]
    assert raising == {
        "homs.profile_map",
        "hessians.hessian_matrix",  # the dense Hessian's k^2 entries
        "matrices.block_pm_ones",
        "matrices.cut_norm",
        "graphs._check_size",
        "graphs.verify_bowtie_structure",
        "certificates.random_witness_search",
    }
    assert knobs == []


def _scopes_holding(matches):
    """The scopes (module, then nested defs) of every node in the package
    source that ``matches``, one entry per node."""
    root = Path(graphnorms.__file__).parent
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if matches(child):
                found.append(where)
            visit(child, inner)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    return found


def test_profile_map_is_read_only_by_the_count_polynomial():
    # one builder turns the enumeration into numbers; a second reader of
    # profile_map (a call, an import or an alias) would be a second numeric
    # engine beside it
    def named(node):
        return (
            (isinstance(node, ast.Name) and node.id == "profile_map")
            or (isinstance(node, ast.Attribute) and node.attr == "profile_map")
            or (isinstance(node, ast.alias) and "profile_map" in (node.name, node.asname))
        )

    assert _scopes_holding(named) == ["homs.symbolic_profile"]


def test_sparse_poly_is_built_only_by_the_count_polynomial():
    # every pipeline reads the one polynomial the builder returns; a
    # SparsePoly made anywhere else (a filtered or rescaled copy) would be
    # a second polynomial beside it
    def built(node):
        return isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "SparsePoly")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "SparsePoly")
        )

    assert _scopes_holding(built) == ["homs.symbolic_profile"]


def _calls(name):
    """Matches a call of ``name``, plain or as an attribute."""

    def matches(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (isinstance(func, ast.Name) and func.id == name) or (
            isinstance(func, ast.Attribute) and func.attr == name
        )

    return matches


def test_certificates_are_made_in_one_assembly_and_the_screens():
    # every curvature certificate reads its pairs off its template in one
    # function; a pipeline that made its own would state its cells twice
    scopes = [s for s in _scopes_holding(_calls("Certificate")) if s.startswith("certificates.")]
    assert sorted(scopes) == ["certificates._curvature_certificate", "certificates.screen_necessary"]


def test_certificates_read_hessians_only_in_the_refutation_loop():
    # every curvature certificate is the first non-PSD Hessian that the one
    # loop finds; a Hessian read or PSD decision elsewhere in the pipelines
    # would be a second refutation loop beside it. The loop reads each point
    # once, in integers, and decides it by the elimination psd_certify runs
    for name in ("psd_certify", "_integer_hessian", "_eliminate"):
        scopes = [s for s in _scopes_holding(_calls(name)) if s.startswith("certificates.")]
        assert scopes == ["certificates._first_non_psd"], name
    assert not [s for s in _scopes_holding(_calls("hessian")) if s.startswith("certificates.")]
    # the elimination is one routine: psd_certify runs it, no copy beside it
    scopes = [s for s in _scopes_holding(_calls("_eliminate")) if s.startswith("hessians.")]
    assert scopes == ["hessians.psd_certify"]


def test_count_polynomial_denominator_is_chosen_once():
    # the builder puts every numerator over L^e(H) and the Hessian read
    # returns the matrix the PSD test takes; a Fraction per term, an lcm
    # over the coefficients or a re-wrap of the read's rows would make that
    # format decision a second time
    assert "homs.symbolic_profile" not in _scopes_holding(_calls("Fraction"))
    lcms = [s for s in _scopes_holding(_calls("lcm")) if s.startswith("polys.")]
    assert lcms == ["polys.SparsePoly._integer_hessian"]  # the point's denominators
    rewraps = set(_scopes_holding(_calls("from_rows")))
    assert not rewraps & {"certificates._first_non_psd", "hessians.hessian_matrix"}


def test_sparse_poly_is_read_only():
    # the count polynomial is an IR the pipelines only read; arithmetic,
    # substitution or serialization on it would be a second engine beside
    # the one builder, homs.symbolic_profile
    from graphnorms.polys import SparsePoly

    reads = {"hessian", "coefficient_of"}
    public = {
        name
        for name in dir(SparsePoly)
        if not name.startswith("_") and callable(getattr(SparsePoly, name))
    }
    assert public == reads
    path = Path(graphnorms.__file__).parent / "polys.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [node.name for node in tree.body if hasattr(node, "name")] == ["SparsePoly"]
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    defined = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert {name for name in defined if not name.startswith("_")} == reads
    # dunders such as __add__ or __mul__ would bring operators back
    assert {name for name in defined if name.startswith("__")} == {"__init__"}


def test_sparse_poly_inherits_no_operator():
    # the record base lives in errors.py, which the AST check above never
    # reads: every dunder method SparsePoly has beyond object's, inherited
    # ones included, is a record's, never an operator
    from graphnorms.polys import SparsePoly

    methods = {
        name
        for klass in SparsePoly.__mro__[:-1]
        for name, value in vars(klass).items()
        if name.startswith("__") and (callable(value) or isinstance(value, classmethod))
    }
    assert methods == {
        "__init__",
        "__init_subclass__",
        "__eq__",
        "__hash__",
        "__repr__",
        "__reduce__",
        "__setattr__",
        "__delattr__",
    }


def test_records_bind_their_arguments_in_their_own_init():
    # each record declares its __init__ and sets its fields through
    # Record._fill: no post-init hook, no table of defaults, and no
    # object.__setattr__ past a record's read-only fields but errors._set
    root = Path(graphnorms.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = (
                getattr(node, "name", None)
                or getattr(node, "id", None)
                or getattr(node, "attr", None)
            )
            if name in ("__post_init__", "_defaults"):
                found.append(f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__":
                found.append(f"{path.name}:{node.lineno} object.__setattr__")
    source = (root / "errors.py").read_text(encoding="utf-8")
    line = source[: source.index("\n_set = object.__setattr__")].count("\n") + 2
    assert found == [f"errors.py:{line} object.__setattr__"]


def test_profile_map_answers_for_every_map():
    # the engine decides the colour-relabelling shortcut from its own
    # inputs and returns every map, keyed by exponent tuples: no flag asks
    # for one colour class, and no packed-key layout (a field width or
    # count) leaves the one function that packs the keys
    import inspect

    from graphnorms.homs import ProfileMap, profile_map

    assert list(inspect.signature(profile_map).parameters) == ["g", "n", "cells", "caps"]
    assert not {"width", "fields"} & set(ProfileMap._fields)
    path = Path(graphnorms.__file__).parent / "homs.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (engine,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "profile_map"
    ]
    inside = {id(node) for node in ast.walk(engine)}
    decoded_outside = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift)
        and id(node) not in inside
    ]
    assert decoded_outside == []


def test_profile_map_has_one_recursion():
    # the search is one memoised function returning its subtree's map; a
    # second search convention (a map carried down and added into a sink)
    # would bring back a second engine beside it
    path = Path(graphnorms.__file__).parent / "homs.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (engine,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "profile_map"
    ]
    nested = [
        node
        for node in ast.walk(engine)
        if isinstance(node, ast.FunctionDef) and node is not engine
    ]
    assert sorted(node.name for node in nested) == ["convolve", "side", "sub"]
    recursive = [
        node.name
        for node in nested
        if any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]
    assert recursive == ["sub"]


def test_cli_main_compares_no_namespace_attribute_against_a_string():
    # each subcommand's handler sits on its parser; a string comparison on
    # the parsed namespace in main would declare the subcommands a second time
    path = Path(graphnorms.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (main,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    ]
    found = []
    for node in ast.walk(main):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) for o in operands) and any(
                isinstance(o, ast.Constant) and isinstance(o.value, str) for o in operands
            ):
                found.append(node.lineno)
    assert found == []


def test_each_cli_input_option_is_declared_once():
    # one table declares the inputs and main reads them; a flag spelled out
    # again at a subcommand would declare, and read, that input a second time
    path = Path(graphnorms.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    flags = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("-g", "-m", "-w", "-c")
    ]
    assert sorted(flags) == ["-c", "-g", "-m", "-w"]


def test_every_cli_leaf_parser_sets_run():
    import argparse

    from graphnorms.cli import build_parser

    def leaves(parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            return [parser]
        return [leaf for a in subs for p in a.choices.values() for leaf in leaves(p)]

    found = leaves(build_parser())
    assert len(found) == 20
    assert [p.prog for p in found if not callable(p.get_default("run"))] == []


def test_every_package_definition_has_a_caller():
    # a function, method or class that only the tests reach is surface the
    # package carries for nothing; re-exports in __init__.py are imports, not
    # uses, and a reference inside the definition's own body (a recursion)
    # does not count
    package = Path(graphnorms.__file__).parent
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    defined, references = [], []

    def visit(path, node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                dunder = name.startswith("__") and name.endswith("__")
                if path.parent == package and not dunder:
                    defined.append((f"{path.stem}.{name}", name, id(child)))
                inner = enclosing | {id(child)}
            if isinstance(child, ast.Name):
                references.append((child.id, enclosing))
            elif isinstance(child, ast.Attribute):
                references.append((child.attr, enclosing))
            visit(path, child, inner)

    for path in sorted([*package.glob("*.py"), *scripts.glob("*.py")]):
        visit(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), frozenset())
    uncalled = [
        where
        for where, name, node in defined
        if not any(ref == name and node not in around for ref, around in references)
    ]
    assert uncalled == []
