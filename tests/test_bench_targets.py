"""The traced benchmark wraps program functions by name; a rename or a
deletion in src/ must fail here, not silently in `bench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    spans = _load_spans()
    assert spans.TARGETS
    for prefix, modname, attr in spans.TARGETS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{prefix}: {modname}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{prefix}: {modname}.{attr} is not callable"


def test_fresh_process_guard_names_exist():
    # bench/child.py checks that these caches are empty before a pass
    from modtors import jacobian
    from modtors.modsym import operators, space

    assert jacobian._MD_CACHE == {}
    assert space._SPACE_CACHE == {}
    assert operators.merel_family.cache_info().currsize >= 0
