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
