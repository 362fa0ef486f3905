"""Workload definitions: the CLI invocations of each workload, their
seed-dependent order, and the per-item checks against `expected.json`.

An item is one level of a rank or torsion sweep, one place count or
finite-field scan, or one immersion certificate.  The seed only permutes
the order of invocations and of levels inside a level list, so the total
work of a workload does not depend on it.  See README.md for why each
workload exists.
"""

import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = {
    "rank-gamma1": [
        "rank gamma1 52-58",
        "rank x1-2-2n 38,40,42",
    ],
    "torsion-gamma1": [
        "torsion gamma1 21-30",
        "torsion x1-2-2n 18",
    ],
    "ffscan": [
        "immersion 121 5",
        "immersion 65 3",
        "immersion 121 3 --rows-mode degeneracy --no-refine",
        "places 22 3",
        "places 25 3",
        "places 29 7",
        "ecscan 11 727",
    ],
}

# Tiny inputs touching the same CLI commands, for checking the plumbing
# and the metric names in a few seconds.
SMOKE = {
    "rank-gamma1": ["rank gamma1 11-13", "rank x1-2-2n 10"],
    "torsion-gamma1": ["torsion gamma1 13", "torsion x1-2-2n 10"],
    "ffscan": ["immersion 65 3", "places 22 3", "ecscan 121 5,25"],
}


def parse_list(arg):
    """Expand a CLI level list such as '52-58' or '38,40,42'."""
    out = []
    for part in arg.split(","):
        a, _, b = part.partition("-")
        out.extend(range(int(a), int(b or a) + 1))
    return out


def invocations(workload, seed, smoke=False):
    """The argv lists of one pass, ordered by the seed."""
    rng = random.Random(seed)
    out = []
    for line in (SMOKE if smoke else WORKLOADS)[workload]:
        argv = line.split()
        if argv[0] in ("rank", "torsion"):
            levels = parse_list(argv[2])
            rng.shuffle(levels)
            argv[2] = ",".join(map(str, levels))
        out.append(argv)
    rng.shuffle(out)
    return out


def item_key(argv, *extra):
    """Key of an item in expected.json: the command, its positional
    arguments up to the level list, then the level (or field size)."""
    head = argv[:2] if argv[0] in ("rank", "torsion", "ecscan") else argv
    return " ".join(map(str, [*head, *extra]))


def expected_keys(argv):
    """Keys of the items one invocation must produce."""
    if argv[0] in ("rank", "torsion", "ecscan"):
        return [item_key(argv, x) for x in parse_list(argv[2])]
    return [item_key(argv)]


def items_of_report(argv, report):
    """Map item key -> result dict for one CLI JSON report."""
    cmd = argv[0]
    if cmd in ("rank", "torsion"):
        return {item_key(argv, r["level"]): r for r in report["results"]}
    if cmd == "ecscan":
        return {item_key(argv, r["q"]): r for r in report["results"]}
    if cmd == "immersion":
        ranks = [t["rank"] for t in report["per_target"]]
        return {item_key(argv): dict(report, ranks=ranks)}
    return {item_key(argv): report}


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["items"]


def weaker_verdict(field, want, got):
    """True when `got` is a sound but weaker pipeline verdict than `want`.

    "index-divides-k" only bounds the index of the cuspidal classes in the
    rational torsion; the true index 1 divides every k, so it does not
    contradict "equal".  Such an item fails (the paper's verdict was not
    reached) but its output is not wrong.
    """
    return (
        field == "pipeline_verdict"
        and want == "equal"
        and isinstance(got, str)
        and got.startswith("index-divides-")
    )


def check_item(expected, got):
    """Compare one item's result with its expected fields.

    Returns (passed, wrong, mismatches): `wrong` is False only when every
    mismatch is a weaker verdict in the sense of `weaker_verdict`.
    """
    if got is None:
        return False, True, ["missing from the report"]
    mismatches = []
    wrong = False
    for field, (want, source) in expected.items():
        have = got.get(field)
        if have != want:
            mismatches.append(f"{field}: got {have!r}, want {want!r} ({source})")
            wrong = wrong or not weaker_verdict(field, want, have)
    return not mismatches, wrong, mismatches
