"""Default JSON output of the CLI, frozen byte for byte.

Each file under snapshots/ is the stdout of one command with default
options.  A refactor that changes no number must leave every byte of
them as it is; a change that means to alter a number updates the file
in the same commit.
"""

from pathlib import Path

import pytest

SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"

COMMANDS = {
    "rank_gamma1_11-13": ["rank", "gamma1", "11-13"],
    "rank_x1-2-2n_10": ["rank", "x1-2-2n", "10"],
    "rank_gamma1_37": ["rank", "gamma1", "37"],
    "rank_x1-2-2n_22": ["rank", "x1-2-2n", "22"],
    "rank_gamma1_52-58": ["rank", "gamma1", "52-58"],
    "rank_x1-2-2n_38_40_42": ["rank", "x1-2-2n", "38,40,42"],
    "torsion_gamma1_13_16": ["torsion", "gamma1", "13,16"],
    "torsion_x1-2-2n_10": ["torsion", "x1-2-2n", "10"],
    "torsion_gamma1_21-30": ["torsion", "gamma1", "21-30"],
    "torsion_x1-2-2n_18": ["torsion", "x1-2-2n", "18"],
    "immersion_65_3": ["immersion", "65", "3"],
    "places_22_3": ["places", "22", "3"],
    "places_29_7": ["places", "29", "7"],
    "ecscan_11_727": ["ecscan", "11", "727"],
    "immersion_121_5": ["immersion", "121", "5"],
}


def test_every_snapshot_has_a_command():
    assert sorted(p.stem for p in SNAPSHOTS.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_default_json_is_unchanged(name, capsys):
    from modtors import cli

    assert cli.main(COMMANDS[name]) == 0
    out, _ = capsys.readouterr()
    assert out == (SNAPSHOTS / f"{name}.json").read_text()
