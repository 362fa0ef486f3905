"""Benchmark of the modtors CLI: three workloads, end-to-end metrics with
tracing off, per-layer metrics from a traced run.

    python3 bench/run.py --workload rank-gamma1 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all [--smoke]

Every pass of a workload runs in a fresh interpreter (child.py) with one
library thread, one process at a time.  With --trace 0, passes repeat
until --seconds have elapsed (at least one) and the end-to-end metrics
are medians over passes; setup_s is the median over several fresh
set-ups.  With --trace 1, one untraced and one traced pass give the
per-layer metrics and the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.

`--workload all` runs every workload in both modes and prints every
metric by name with its unit; `--smoke` swaps in tiny levels to check the
plumbing.  Every run checks its metric names and units against
BENCHMARK.json.  README.md says why each workload exists.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "pass_frac": "ratio",
}
SETUP_SAMPLES = 4  # set-up-only processes per run, besides each pass's own
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def read_proc():
    """Load average and cumulative steal/total CPU jiffies, if readable."""
    snap = {}
    try:
        snap["loadavg"] = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
        cpu = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
        snap["steal_jiffies"] = cpu[7]
        snap["total_jiffies"] = sum(cpu[:8])
    except (OSError, ValueError, IndexError):
        pass
    return snap


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(start, end):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": start.get("loadavg"),
        "loadavg_end": end.get("loadavg"),
    }
    if "total_jiffies" in start and "total_jiffies" in end:
        total = end["total_jiffies"] - start["total_jiffies"]
        steal = end["steal_jiffies"] - start["steal_jiffies"]
        env["steal_frac"] = steal / total if total else 0.0
    return env


class Runner:
    def __init__(self, workload, seed, smoke):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.start = time.monotonic()

    def child(self, *extra):
        """Run child.py to completion and return its JSON result."""
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise BenchError("out of time before starting a pass")
        env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        argv = [sys.executable, str(BENCH / "child.py"), self.workload,
                str(self.seed), repr(time.monotonic()), *extra]
        if self.smoke:
            argv.append("--smoke")
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env,
                                  cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a pass of {self.workload} ran past the {DEADLINE_S} s deadline")
        if proc.returncode != 0:
            raise BenchError(f"child exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def measure(self, seconds):
        """End-to-end metrics: passes until `seconds` elapse, medians."""
        setups = [self.child("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
        passes = []
        t0 = time.monotonic()
        while True:
            passes.append(self.child())
            setups.append(passes[-1]["setup_s"])
            elapsed = time.monotonic() - t0
            left = DEADLINE_S - (time.monotonic() - self.start)
            if elapsed >= seconds or left < 2 * passes[-1]["wall_s"] + 10:
                break
        items = [it for p in passes for it in p["items"]]
        passed = sum(it["passed"] for it in items)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
            "pass_frac": passed / len(items),
        }
        return metrics, END_TO_END, passes, {"setup_samples": setups}

    def measure_traced(self):
        """Per-layer metrics from one traced pass next to an untraced one."""
        OUT.mkdir(exist_ok=True)
        plain = self.child()
        traced = self.child("--trace", str(OUT / f"spans-{self.workload}.jsonl"))
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        return metrics, units, [plain, traced], {"run_id": traced["run_id"]}


def run_one(workload, seed, seconds, trace, smoke):
    """One benchmark run; returns (result line, full record)."""
    runner = Runner(workload, seed, smoke)
    before = read_proc()
    if trace:
        metrics, units, passes, extra = runner.measure_traced()
    else:
        metrics, units, passes, extra = runner.measure(seconds)
    after = read_proc()
    items = [it for p in passes for it in p["items"]]
    failed = [it for it in items if not it["passed"]]
    line = {
        "correct": not any(it["wrong"] for it in items),
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "environment": environment(before, after),
        "invocations": passes[0]["invocations"],
        "passes": [{k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")}
                   for p in passes],
        "fail_frac": len(failed) / len(items),
        "failed_items": sorted({(it["key"], "; ".join(it["why"])) for it in failed}),
        **extra,
        "result": line,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{'smoke-' if smoke else ''}{workload}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return line, record


def print_metrics(workload, line, record):
    env = record["environment"]
    print(f"# {workload} seed={record['seed']} trace={record['trace']} "
          f"attempted={line['attempted']} failed={line['failed']} "
          f"correct={line['correct']} fail_frac={record['fail_frac']:.4f}")
    print(f"#   sha={env['git_sha']} python={env['python']} numpy={env['numpy']} "
          f"sympy={env['sympy']} nproc={env['nproc']} load={env['loadavg_start']}"
          f"->{env['loadavg_end']} steal_frac={env.get('steal_frac')}")
    for key, why in record["failed_items"]:
        print(f"#   failed item {key}: {why}")
    for name, m in line["metrics"].items():
        print(f"{workload:16s} {name:48s} {m['value']:>16.6g} {m['unit']}")


def check_names(trace, line):
    """Refuse a result whose metric names or units differ from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in line["metrics"].items()}
    if got != declared:
        raise BenchError(f"metric names or units differ from BENCHMARK.json: "
                         f"{sorted(set(got.items()) ^ set(declared.items()))}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny levels, plumbing check")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "modtors" / "cli.py").is_file():
        print(f"bench: no modtors source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    everything = args.workload == "all"
    lines = {}
    try:
        for name in workloads.WORKLOADS if everything else [args.workload]:
            for trace in (0, 1) if everything else [args.trace]:
                line, record = run_one(name, args.seed, args.seconds, trace, args.smoke)
                print_metrics(name, line, record)
                check_names(trace, line)
                lines[f"{name}/trace{trace}"] = line
        print(json.dumps(lines if everything else line))
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
