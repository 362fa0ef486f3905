"""Source checks on the package itself."""

import ast
from pathlib import Path

import modtors
from test_bench_targets import _load_spans

# Uncalled by the program, kept for the `cubic` certificate chain (ROADMAP
# item 3), which is to call them or delete them.
HELD_FOR_CUBIC_CHAIN = {"no_cubic_points_certificate", "rational_cusp_count"}


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


def test_every_def_has_a_caller_in_the_program():
    # a def or class must be read somewhere in src/ (a loaded name or
    # attribute; re-exports in __init__ and __all__ do not count), be wrapped
    # by name in bench/spans.py, or be held above: what only the tests call
    # belongs in tests/
    root = Path(modtors.__file__).parent
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(root.rglob("*.py"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    wrapped = {attr.split(".")[-1] for _, _, attr in _load_spans().TARGETS}
    found = [f"{path.relative_to(root)}:{node.lineno} {node.name}"
             for path, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and not (node.name.startswith("__") and node.name.endswith("__"))
             and node.name not in read | wrapped | HELD_FOR_CUBIC_CHAIN]
    assert found == []
