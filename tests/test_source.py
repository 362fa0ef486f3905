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


def test_only_the_kernel_lattice_imports_lattice():
    # the program holds a lattice as its Hermite basis, an integer array:
    # in the package only `jacobian`, for the return value of
    # `hecke_kernel_lattice`, and `__init__` import `modtors.lattice`
    root = Path(modtors.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        package = ["modtors", *path.relative_to(root).parent.parts]
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else []
                module = ".".join(base + ([node.module] if node.module else []))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if "modtors.lattice" in names:
                found.append(str(path.relative_to(root)))
    assert sorted(set(found)) == ["__init__.py", "jacobian.py"]
