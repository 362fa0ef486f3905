"""Source checks on the package itself."""

import ast
from pathlib import Path

import modtors


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # vanish from the certificates; every check raises explicitly instead
    root = Path(modtors.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
