"""One pass of a workload in a fresh interpreter, started by run.py.

The program keeps in-process caches (the space cache, the Manin-Drinfeld
projector cache, the merel_family lru_cache and the per-space operator
caches), so every pass runs in its own process, as every CLI call of a
user does.  Library threads are pinned to one before numpy is imported.

Usage: child.py WORKLOAD SEED LAUNCH [--smoke] [--setup-only] [--trace PATH]

LAUNCH is the parent's time.monotonic() just before it started this
process; setup_s runs from then until modtors.cli is imported and the
inputs are generated.  The last line of stdout is a JSON result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import modtors.cli  # noqa: E402

import workloads  # noqa: E402


def fresh_process_guard():
    """Refuse to time a pass whose caches are already warm."""
    from modtors import jacobian
    from modtors.modsym import operators, space

    if not Path(modtors.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"modtors imported from {modtors.cli.__file__}, not {ROOT / 'src'}")
    if operators.merel_family.cache_info().currsize != 0:
        raise RuntimeError("merel_family cache is not empty")
    if space._SPACE_CACHE or jacobian._MD_CACHE:
        raise RuntimeError("space or projector cache is not empty")


def run_invocation(argv, expected):
    """Run one CLI call and check its items; returns a list of item records."""
    keys = workloads.expected_keys(argv)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = modtors.cli.main(argv)
        got = workloads.items_of_report(argv, json.loads(out.getvalue()))
    except Exception:  # a raising call fails all of its items
        traceback.print_exc()
        return [{"key": k, "passed": False, "wrong": True, "why": ["raised"]} for k in keys]
    records = []
    for key in keys:
        passed, wrong, why = workloads.check_item(expected[key], got.get(key))
        if code != 0:
            passed, wrong, why = False, True, why + [f"exit code {code}"]
        records.append({"key": key, "passed": passed, "wrong": wrong, "why": why})
    return records


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("launch", type=float)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans to this file")
    args = ap.parse_args()

    fresh_process_guard()
    calls = workloads.invocations(args.workload, args.seed, args.smoke)
    expected = workloads.load_expected()
    setup_s = time.monotonic() - args.launch
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    layer_metrics = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        layer_metrics = spans.install(recorder)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    items = []
    for argv in calls:
        items += run_invocation(argv, expected)
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result.update(
        wall_s=wall_s,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mib=ru1.ru_maxrss / 1024,
        items=items,
        invocations=[" ".join(a) for a in calls],
    )
    if args.trace:
        result["per_layer"] = layer_metrics()
        result["run_id"] = recorder.run_id
        recorder.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
