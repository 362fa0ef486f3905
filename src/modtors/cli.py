"""Command-line surface: rank sweeps, torsion reports, place counts,
finite-field scans and formal-immersion certificates.

Reports are deterministic JSON (or text) embedding the tool version;
torsion reports also name the kill operator, the operator list and the
primes, so every number is reproducible from the report alone.  Level
sweeps checkpoint each level in the cache directory and resume on rerun;
a level that fails is reported as an error record, gets no checkpoint and
makes the sweep exit 1.  Golden mode compares against the shipped
reference sets and exits 0 on match, 1 on mismatch, 2 on a resource
refusal.  Invalid arguments are refused before anything is computed: one
line on stderr, nothing on stdout, exit code 2.
"""

import argparse
import json
import os
import sys
import traceback
from contextlib import nullcontext
from functools import partial

from . import __version__
from .arith import isprime
from .jacobian import (
    AUXILIARY_PRIMES_RULE,
    MAX_AUXILIARY_PRIMES,
    check_auxiliary_primes,
    is_rank_zero,
    torsion_report,
)
from .modsym import GroupSpec, build_space

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
# Names the kill operator T_q - q<q> - 1 (Eq. 4.1) in torsion reports and
# torsion checkpoint keys.
NORMALIZATION = "eq41"


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return json.load(fh)


def make_spec(kind, level):
    if kind == "gamma0":
        return GroupSpec.gamma0(level)
    if kind == "gamma1":
        return GroupSpec.gamma1(level)
    if kind == "x1-2-2n":
        if level % 2:
            raise ValueError(f"X1(2,2N) takes the even number 2N, not {level}")
        return GroupSpec.x1_2_2n(level // 2)
    raise ValueError(f"unknown group kind {kind!r}")


def parse_levels(arg):
    out = []
    for part in arg.split(","):
        if "-" in part:
            a, b = map(int, part.split("-"))
            if a > b:
                raise ValueError(f"reversed range {part}")
            out.extend(range(a, b + 1))
        else:
            out.append(int(part))
    return out


def level_specs(args):
    """(levels, specs) of a sweep, every spec built before the sweep
    starts; a bad level list is reported in one line on stderr and gives
    None."""
    try:
        levels = parse_levels(args.levels)
        return levels, [make_spec(args.kind, n) for n in levels]
    except ValueError as exc:
        refuse(f"invalid levels {args.levels!r}", exc)
        return None


def parse_primes(arg):
    """The explicit auxiliary primes of `--primes`: at least two distinct
    primes."""
    primes = [int(p) for p in arg.split(",")]
    check_auxiliary_primes(primes)
    bad = [p for p in primes if not isprime(p)]
    if bad:
        raise ValueError(f"not prime: {bad}")
    return primes


def refuse(what, exc):
    """Report a refused command in one line on stderr; returns exit code 2."""
    print(f"{what}: {exc}", file=sys.stderr)
    return 2


def checkpoint_path(cache_dir, command, key):
    """Checkpoint file of one result; the key carries the tool version, so
    a sweep never resumes from results of another version."""
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, f"{command}-{key}-{__version__}.json")


def read_checkpoint(cache_dir, command, key):
    """The checkpointed result under key, or None."""
    if not cache_dir:
        return None
    path = checkpoint_path(cache_dir, command, key)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def write_checkpoint(cache_dir, command, key, result):
    """Checkpoint result under key and return it.

    The result is written to a temporary file in the same directory and
    renamed into place, so an interrupted write leaves no checkpoint.
    """
    if not cache_dir:
        return result
    path = checkpoint_path(cache_dir, command, key)
    # created by open(), so the checkpoint gets the umask's default mode
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            json.dump(result, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return result


def _guarded(compute, task):
    """compute(task), or {"level": ..., "error": "<Type>: <msg>"} if it
    raises (the traceback goes to stderr); a resource refusal is raised
    on."""
    try:
        return compute(task)
    except (ResourceWarning, MemoryError):
        raise
    except Exception as exc:
        traceback.print_exc()
        return {"level": task[1], "error": f"{type(exc).__name__}: {exc}"}


def sweep(args, command, compute, tasks, keys):
    """[compute(task) for task in tasks], checkpointed per task.

    Each task is a tuple (spec, level, ...).  The checkpoints that exist are
    read first and only the missing tasks are computed, each result
    checkpointed as it arrives; with `--jobs` above 1 they are computed in a
    pool of processes.  Serial and parallel sweeps thus write and resume the
    same checkpoints.  A task that fails gives an error record and no
    checkpoint, and the other tasks go on.
    """
    results = [read_checkpoint(args.cache_dir, command, key) for key in keys]
    missing = [i for i, r in enumerate(results) if r is None]
    workers = min(args.jobs, len(missing))
    if workers > 1:  # the pool's modules cost start-up time, so only then
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        mapper = pool.map if pool else map
        computed = mapper(partial(_guarded, compute), [tasks[i] for i in missing])
        for i, result in zip(missing, computed):
            if "error" not in result:
                write_checkpoint(args.cache_dir, command, keys[i], result)
            results[i] = result
    return results


def report_header(command):
    return {"tool": f"modtors {__version__}", "command": command}


def _rank_one(task):
    spec, level = task
    return is_rank_zero(build_space(spec)).to_json() | {"level": level}


def cmd_rank(args):
    sweep_levels = level_specs(args)
    if sweep_levels is None:
        return 2
    levels, specs = sweep_levels
    report = report_header("rank")
    tasks = list(zip(specs, levels))
    # "cert": the results carry their certificate fields, so results of a
    # program that did not report them are not read back
    keys = [f"{args.kind}-{n}-cert" for n in levels]
    try:
        results = sweep(args, "rank", _rank_one, tasks, keys)
    except (ResourceWarning, MemoryError) as exc:
        return refuse("resource refusal", exc)
    report["results"] = results
    emit(report, args)
    if args.golden:
        sets = load_golden("rank_sets.json")
        want_zero = {
            "gamma0": set(sets["S0"]),
            "gamma1": set(sets["gamma1_rank0"]),
            "x1-2-2n": {2 * n for n in sets["S1"]},
        }[args.kind]
        bad = [
            r["level"]
            for r in results
            if "error" not in r
            and (r["verdict"] == "rank_zero") != (r["level"] in want_zero)
        ]
        if bad:
            print(f"golden mismatch at levels {bad}", file=sys.stderr)
            return 1
    return int(any("error" in r for r in results))


def _torsion_one(task):
    spec, level, primes = task
    return torsion_report(build_space(spec), primes=primes) | {"level": level}


def cmd_torsion(args):
    sweep_levels = level_specs(args)
    if sweep_levels is None:
        return 2
    levels, specs = sweep_levels
    try:
        primes = parse_primes(args.primes) if args.primes else None
    except ValueError as exc:
        return refuse(f"invalid primes {args.primes!r}", exc)
    report = report_header("torsion")
    report["normalization"] = NORMALIZATION
    report["primes"] = primes or (
        "per level: the two smallest good primes, then, while M_H is not inside Cl^cc, "
        "each next good prime that strictly shrinks M_H, skipping at most "
        f"{MAX_AUXILIARY_PRIMES} in a row, up to {MAX_AUXILIARY_PRIMES} primes"
    )
    report["operators"] = ["T_q - q<q> - 1 for each listed prime q", "star - 1"]
    tasks = [(spec, n, primes) for spec, n in zip(specs, levels)]
    # results of the automatic choice depend on its rule
    prime_key = args.primes or f"auto-{AUXILIARY_PRIMES_RULE}"
    keys = [f"{args.kind}-{n}-{prime_key}-{NORMALIZATION}" for n in levels]
    try:
        results = sweep(args, "torsion", _torsion_one, tasks, keys)
    except (ResourceWarning, MemoryError) as exc:
        return refuse("resource refusal", exc)
    report["results"] = results
    emit(report, args)
    if args.golden:
        table = load_golden(
            "table1.json" if args.kind == "gamma1" else "table2.json"
        )
        bad = []
        for r in results:
            lv = r["level"]
            want = table.get(str(lv))
            if want is None or "error" in r:
                continue
            got = r["clcc_Q"]
            if got != [x for x in want if x > 1]:
                bad.append((lv, got, want))
        if bad:
            print(f"golden mismatch: {bad}", file=sys.stderr)
            return 1
    return int(any("error" in r for r in results))


def cmd_places(args):
    from .ecff import places_of_degree

    try:
        counts = [
            places_of_degree(args.level, args.prime, d)
            for d in range(1, args.maxdeg + 1)
        ]
    except ResourceWarning as exc:
        return refuse("resource refusal", exc)
    except ValueError as exc:
        return refuse("invalid arguments", exc)
    report = report_header("places") | {
        "level": args.level,
        "prime": args.prime,
        "places_by_degree": counts,
    }
    emit(report, args)
    return 0


def cmd_ecscan(args):
    from .ecff import exists_point_of_order, hasse_excludes

    try:
        fields = parse_levels(args.fields)
    except ValueError as exc:
        return refuse(f"invalid fields {args.fields!r}", exc)
    results = []
    for q in fields:
        row = {"q": q, "N": args.order, "hasse_excluded": hasse_excludes(q, args.order)}
        try:
            row["exists_point_of_order"] = exists_point_of_order(q, args.order)
        except ResourceWarning as exc:
            return refuse("resource refusal", exc)
        except ValueError as exc:
            return refuse("invalid arguments", exc)
        results.append(row)
    emit(report_header("ecscan") | {"results": results}, args)
    return 0


def cmd_immersion(args):
    from .immersion import immersion_certificate

    try:
        cert = immersion_certificate(
            args.level,
            args.prime,
            count=args.count,
            rows_mode=args.rows_mode,
            refine="auto" if args.refine else False,
        )
    except (ResourceWarning, MemoryError) as exc:
        return refuse("resource refusal", exc)
    except ValueError as exc:
        return refuse("invalid arguments", exc)
    report = report_header("immersion") | cert
    emit(report, args)
    if args.golden:
        return 0 if cert["all_pass"] else 1
    return 0


def emit(report, args):
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=1))
    else:
        _emit_text(report)


def _emit_text(report, indent=0):
    pad = " " * indent
    if isinstance(report, dict):
        for k in sorted(report):
            v = report[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 2)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(report, list):
        for v in report:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
                print(f"{pad}-")
            else:
                print(f"{pad}{v}")
    else:
        print(f"{pad}{report}")


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--cache-dir", default=None)
    common.add_argument("--jobs", type=int, default=1)
    parser = argparse.ArgumentParser(
        prog="modtors",
        description="exact computations with modular symbols, torsion of "
        "modular Jacobians, and cubic-point certificates",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("rank", help="rank-zero certification of J(N)")
    p.add_argument("kind", choices=("gamma0", "gamma1", "x1-2-2n"))
    p.add_argument("levels", help="e.g. 11 or 1-100 or 11,37,65")
    p.add_argument("--golden", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = add_parser("torsion", help="torsion reports and class groups")
    p.add_argument("kind", choices=("gamma0", "gamma1", "x1-2-2n"))
    p.add_argument("levels")
    p.add_argument("--primes", default=None, help="comma-separated")
    p.add_argument("--golden", action="store_true")
    p.set_defaults(func=cmd_torsion)

    p = add_parser("places", help="degree-d place counts of X1(N) mod p")
    p.add_argument("level", type=int)
    p.add_argument("prime", type=int)
    p.add_argument("--maxdeg", type=int, default=3)
    p.set_defaults(func=cmd_places)

    p = add_parser("ecscan", help="torsion existence over finite fields")
    p.add_argument("order", type=int, help="torsion order N")
    p.add_argument("fields", help="field sizes, e.g. 5,25,125")
    p.set_defaults(func=cmd_ecscan)

    p = add_parser("immersion", help="formal-immersion certificate chain")
    p.add_argument("level", type=int)
    p.add_argument("prime", type=int)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--rows-mode", choices=("full", "degeneracy"), default="full")
    p.add_argument("--no-refine", dest="refine", action="store_false")
    p.add_argument("--golden", action="store_true")
    p.set_defaults(func=cmd_immersion)

    args = parser.parse_args(argv)
    if args.jobs < 1:
        return refuse(f"invalid --jobs {args.jobs}", "need at least one process")
    if getattr(args, "maxdeg", 1) < 1:
        return refuse(f"invalid --maxdeg {args.maxdeg}", "need at least degree 1")
    if getattr(args, "count", 1) < 1:
        return refuse(f"invalid --count {args.count}", "need at least one coefficient")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
