"""Properties of the package source itself."""

import ast
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
