"""Source checks on the package itself."""

import ast
from pathlib import Path

import modtors
from test_bench_targets import BENCH, _load_spans

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


def _from_module(package, node):
    """The module an `ImportFrom` node imports from, for a file of the
    package `package`, a list of names from "modtors" down."""
    base = package[: len(package) - node.level + 1] if node.level else []
    return ".".join(base + ([node.module] if node.module else []))


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
                module = _from_module(package, node)
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if "modtors.lattice" in names:
                found.append(str(path.relative_to(root)))
    assert sorted(set(found)) == ["__init__.py", "jacobian.py"]


def _inner_defs(scope, prefix):
    """(qualified name, def node, whether its scope is a class) for every
    def or class below the def or class `scope`, dunder methods left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if not isinstance(node, defs):
            stack += ast.iter_child_nodes(node)
            continue
        name = f"{prefix}.{node.name}"
        if not (node.name.startswith("__") and node.name.endswith("__")):
            yield name, node, isinstance(scope, ast.ClassDef)
        yield from _inner_defs(node, name)


def test_every_def_has_a_caller_in_the_program():
    # a def or class must be read in src/, be wrapped in bench/spans.py, or
    # be held above: what only the tests call belongs in tests/.  A
    # module-level def is read through its binding: a name loaded in its own
    # module, or an import of it by another module (a package __init__'s
    # re-export does not count, but is followed to the defining module); an
    # attribute that shares its name does not count.  A def inside a class
    # is read only through an attribute load of its name, in src/ or in
    # bench/spans.py; a def nested in a function only through a name load.
    root = Path(modtors.__file__).parent
    modules = {}  # module name -> (package, tree)
    for path in sorted(root.rglob("*.py")):
        package = ["modtors", *path.relative_to(root).parent.parts]
        name = ".".join(package if path.stem == "__init__" else [*package, path.stem])
        modules[name] = (package, ast.parse(path.read_text(), str(path)))
    loaded, names_read, attrs_read, reexported, imported = {}, set(), set(), {}, set()
    for module, (package, tree) in modules.items():
        loaded[module] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded[module].add(node.id)
                names_read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs_read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                source = _from_module(package, node)
                for alias in node.names:
                    if module == ".".join(package):  # an __init__
                        reexported[module, alias.asname or alias.name] = (source, alias.name)
                    else:
                        imported.add((source, alias.name))
    spans_path = BENCH / "spans.py"
    attrs_read |= {node.attr for node in ast.walk(ast.parse(spans_path.read_text(), str(spans_path)))
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    bound = set()
    for binding in imported:
        while binding in reexported:
            binding = reexported[binding]
        bound.add(binding)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    uncalled = []  # (module, qualified name)
    for module, (_, tree) in modules.items():
        for top in tree.body:
            if not isinstance(top, defs):
                continue
            if top.name not in loaded[module] and (module, top.name) not in bound:
                uncalled.append((module, top.name))
            uncalled += [(module, name) for name, node, in_class in _inner_defs(top, top.name)
                         if node.name not in (attrs_read if in_class else names_read)]
    wrapped = {(module, attr) for _, module, attr in _load_spans().TARGETS}
    found = [f"{module}.{name}" for module, name in uncalled
             if (module, name) not in wrapped and name not in HELD_FOR_CUBIC_CHAIN]
    assert found == []
    assert HELD_FOR_CUBIC_CHAIN <= {name for _, name in uncalled}


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               for d in node.decorator_list)


def test_every_stored_attribute_is_read():
    # an attribute assigned on `self`, or a dataclass field, must be loaded
    # as an attribute of that name somewhere in src/ or in bench/spans.py:
    # a value stored and never read is dead state
    root = Path(modtors.__file__).parent
    paths = [*sorted(root.rglob("*.py")), BENCH / "spans.py"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    attrs_read = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    stored = set()  # (module, class, attribute)
    for path in paths[:-1]:
        module = ".".join(["modtors", *path.relative_to(root).with_suffix("").parts])
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_dataclass(cls):
                stored |= {(module, cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
            stored |= {(module, cls.name, node.attr) for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                       and isinstance(node.value, ast.Name) and node.value.id == "self"}
    found = sorted(f"{module}.{cls}.{attr}" for module, cls, attr in stored if attr not in attrs_read)
    assert found == []
