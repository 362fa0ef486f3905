import json
import os
import subprocess
import sys

import pytest


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "modtors.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_rank_json_and_golden():
    proc = run_cli("rank", "gamma0", "11,37", "--golden")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "rank"
    # only torsion reports use a kill operator and name it
    assert "normalization" not in report
    verdicts = {r["level"]: r["verdict"] for r in report["results"]}
    assert verdicts == {11: "rank_zero", 37: "positive_rank"}
    assert report["tool"].startswith("modtors ")


def test_golden_mismatch_exit_code(tmp_path):
    # claim X1(2,2N) rank-zero pattern against gamma0 golden data to force
    # a mismatch: level 37 is positive rank but sits in no golden set gap;
    # instead check by asking for gamma1 at 63 (positive) vs S0-based set
    proc = run_cli("rank", "gamma0", "37")
    assert proc.returncode == 0
    # mismatch case: compare gamma1(63) (positive rank) against golden,
    # which correctly expects positive -> still 0; craft a real mismatch by
    # giving the x1-2-2n kind an odd level
    proc = run_cli("rank", "x1-2-2n", "27")
    assert proc.returncode != 0


@pytest.mark.parametrize("command", ["rank", "torsion"])
def test_invalid_level_is_refused_before_the_sweep(command, tmp_path):
    # 3 is odd, so no X1(2,2N) has it, and a reversed range names no level;
    # nothing may be computed or printed
    for kind, levels, reason in (
        ("x1-2-2n", "2-4", "not 3"),
        ("gamma1", "58-52", "reversed range 58-52"),
    ):
        proc = run_cli(command, kind, levels, "--cache-dir", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert reason in proc.stderr
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv,reason",
    [
        (("torsion", "gamma1", "13", "--primes", "x"), "invalid primes 'x'"),
        (("torsion", "gamma1", "13", "--primes", "5"), "at least two"),
        (("torsion", "gamma1", "13", "--primes", "5,9"), "not prime: [9]"),
        (("places", "22", "11"), "divides 2N"),
        (("places", "4", "3"), "at least 5"),
        (("ecscan", "0", "5"), "order must be positive"),
        (("ecscan", "11", "6"), "not a prime power"),
        (("immersion", "121", "11"), "divides 2N"),
        (("immersion", "11", "4"), "not prime"),
    ],
)
def test_invalid_arguments_are_refused(argv, reason, tmp_path, capsys):
    from modtors import cli

    # refused before anything is printed or checkpointed, in one line
    assert cli.main([*argv, "--cache-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert reason in err
    assert not any(tmp_path.iterdir())


def test_prime_dividing_one_level_gives_an_error_record(capsys):
    from modtors import cli

    # 7 divides 2N at 14 only: that level is an error record, 13 is computed
    assert cli.main(["torsion", "gamma1", "13,14", "--primes", "5,7"]) == 1
    first, second = json.loads(capsys.readouterr().out)["results"]
    assert first["clcc_Q"] == [19]
    assert second == {"level": 14, "error": "ValueError: p = 7 divides 2N for N = 14"}


def test_sweep_holds_one_space_at_a_time(monkeypatch, capsys):
    import gc
    import weakref

    from modtors import cli

    build, refs = cli.build_space, []

    def tracked(spec):
        assert all(r() is None for r in refs), "an earlier level's space is alive"
        space = build(spec)
        refs.append(weakref.ref(space))
        return space

    monkeypatch.setattr(cli, "build_space", tracked)
    # reference counting alone must free each level's space
    gc.disable()
    try:
        assert cli.main(["rank", "gamma1", "11-16"]) == 0
    finally:
        gc.enable()
    assert len(refs) == 6 and all(r() is None for r in refs)


def test_immersion_builds_one_space(monkeypatch, capsys):
    from modtors import cli, immersion
    from modtors.modsym import ModSymSpace

    init, targets = ModSymSpace.__init__, immersion.reduction_targets
    built, targets_of = [], []

    def counted(self, spec):
        init(self, spec)
        built.append(self)

    def recorded(space, *args, **kwargs):
        targets_of.append(space)
        return targets(space, *args, **kwargs)

    monkeypatch.setattr(ModSymSpace, "__init__", counted)
    monkeypatch.setattr(immersion, "reduction_targets", recorded)
    assert cli.main(["immersion", "121", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"] is True
    assert len(built) == 1 and targets_of == built


def test_torsion_command_golden(tmp_path):
    proc = run_cli(
        "torsion", "gamma1", "13,21",
        "--primes", "5,11",
        "--golden",
        "--cache-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["normalization"] == "eq41"
    got = {r["level"]: r["clcc_Q"] for r in report["results"]}
    assert got == {13: [19], 21: [364]}
    # warm-cache rerun must be byte-identical
    proc2 = run_cli(
        "torsion", "gamma1", "13,21",
        "--primes", "5,11",
        "--golden",
        "--cache-dir", str(tmp_path),
    )
    assert proc2.stdout == proc.stdout


def test_torsion_primes_reported_and_keyed(tmp_path):
    # a checkpoint stored under the key the two-prime default used must not
    # be read back for the automatic prime choice
    stale = {"level": 13, "pipeline_verdict": "stale", "primes": [3, 5]}
    (tmp_path / "torsion-gamma1-13-auto-eq41.json").write_text(json.dumps(stale))
    proc = run_cli("torsion", "gamma1", "13", "--cache-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    (result,) = json.loads(proc.stdout)["results"]
    assert result["pipeline_verdict"] == "equal"
    assert result["primes"] == [3, 5] and result["primes_capped"] is False
    # an explicit list is reported as given
    proc = run_cli("torsion", "gamma1", "13", "--primes", "5,11")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["primes"] == [5, 11]
    assert report["results"][0]["primes"] == [5, 11]
    assert set(report["results"][0]["local_orders"]) == {"5", "11"}


def test_places_command():
    proc = run_cli("places", "22", "3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["places_by_degree"] == [10, 0, 0]
    # resource refusals: F_9 above --q-bound, F_2401 above the table limit
    proc = run_cli("places", "22", "3", "--q-bound", "8")
    assert (proc.returncode, proc.stdout) == (2, "")
    proc = run_cli("places", "5", "7", "--maxdeg", "4", "--q-bound", "100000")
    assert (proc.returncode, proc.stdout) == (2, "")


def test_ecscan_command():
    proc = run_cli("ecscan", "121", "5,25", "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert [r["exists_point_of_order"] for r in report["results"]] == [False, False]
    # resource refusal
    proc = run_cli("ecscan", "11", "2187")
    assert proc.returncode == 2
    # a field above the arithmetic-table limit is refused whatever --q-bound
    proc = run_cli("ecscan", "5", "6561,19683", "--q-bound", "100000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "resource refusal" in proc.stderr
    # a reversed range of field sizes is refused like a reversed level range
    proc = run_cli("ecscan", "121", "25-5")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "reversed range 25-5" in proc.stderr


def test_immersion_command():
    proc = run_cli("immersion", "65", "3", "--golden")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["all_pass"] is True
    assert len(report["per_target"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("torsion", "gamma1", "13", "--normalization", "diamondless"),
        ("immersion", "65", "3", "--verbose"),
    ],
    ids=["torsion-normalization", "immersion-verbose"],
)
def test_removed_flags_are_refused(argv):
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")


def test_text_format():
    proc = run_cli("places", "22", "3", "--format", "text")
    assert proc.returncode == 0
    assert "places_by_degree" in proc.stdout


def test_rank_checkpoint_of_another_version_not_reused(tmp_path, monkeypatch, capsys):
    from modtors import cli

    def verdict():
        assert cli.main(["rank", "gamma0", "11", "--cache-dir", str(tmp_path)]) == 0
        return json.loads(capsys.readouterr().out)["results"][0]["verdict"]

    monkeypatch.setattr(cli, "__version__", "0.0.0-old")
    assert verdict() == "rank_zero"
    (path,) = tmp_path.iterdir()
    path.write_text(json.dumps({"level": 11, "verdict": "stale"}))
    assert verdict() == "stale"  # same version: the checkpoint is read back
    monkeypatch.undo()
    assert verdict() == "rank_zero"


def test_interrupted_checkpoint_write_leaves_no_file(tmp_path):
    from modtors.cli import checkpoint_path, read_checkpoint, write_checkpoint

    # json.dump writes "a" before failing on the unserializable "b"
    with pytest.raises(TypeError):
        write_checkpoint(str(tmp_path), "rank", "gamma0-11", {"a": 1, "b": object()})
    assert not os.path.exists(checkpoint_path(str(tmp_path), "rank", "gamma0-11"))
    assert list(tmp_path.iterdir()) == []
    assert read_checkpoint(str(tmp_path), "rank", "gamma0-11") is None
    assert write_checkpoint(str(tmp_path), "rank", "gamma0-11", {"a": 1}) == {"a": 1}
    assert read_checkpoint(str(tmp_path), "rank", "gamma0-11") == {"a": 1}


def test_checkpoint_file_mode_follows_umask(tmp_path):
    from modtors.cli import checkpoint_path, write_checkpoint

    umask = os.umask(0o022)
    try:
        write_checkpoint(str(tmp_path), "rank", "gamma0-11", {"a": 1})
    finally:
        os.umask(umask)
    mode = os.stat(checkpoint_path(str(tmp_path), "rank", "gamma0-11")).st_mode
    assert mode & 0o777 == 0o644


@pytest.mark.parametrize(
    "argv",
    [
        ("rank", "gamma0", "11,14,37"),
        ("torsion", "gamma1", "13,14,16", "--primes", "5,11"),
    ],
)
def test_parallel_sweep_matches_serial_and_checkpoints(tmp_path, argv):
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    serial = run_cli(*argv, "--cache-dir", str(serial_dir))
    parallel = run_cli(*argv, "--jobs", "2", "--cache-dir", str(parallel_dir))
    assert serial.returncode == parallel.returncode == 0, parallel.stderr
    assert parallel.stdout == serial.stdout
    names = sorted(p.name for p in serial_dir.iterdir())
    assert len(names) == 3
    assert sorted(p.name for p in parallel_dir.iterdir()) == names
    for name in names:
        assert (parallel_dir / name).read_bytes() == (serial_dir / name).read_bytes()
    # a parallel rerun resumes from the checkpoints: a tampered one is read
    # back, and only the level whose checkpoint is gone is computed again
    tampered = json.loads((parallel_dir / names[0]).read_text()) | {"stale": True}
    (parallel_dir / names[0]).write_text(json.dumps(tampered))
    (parallel_dir / names[1]).unlink()
    rerun = run_cli(*argv, "--jobs", "2", "--cache-dir", str(parallel_dir))
    assert rerun.returncode == 0, rerun.stderr
    stale = [r.get("stale", False) for r in json.loads(rerun.stdout)["results"]]
    assert sorted(stale) == [False, False, True]
    assert sorted(p.name for p in parallel_dir.iterdir()) == names


def test_rank_report_says_how_it_decided():
    proc = run_cli("rank", "gamma0", "1,11,37")
    assert proc.returncode == 0, proc.stderr
    results = {r["level"]: r for r in json.loads(proc.stdout)["results"]}
    assert results[1]["hecke_range_used"] == 0  # genus 0: nothing swept
    assert 1 <= results[11]["hecke_range_used"] <= results[11]["sturm_bound"]
    assert "functional_support" not in results[11]
    assert results[37]["functional_support"] > 0
    assert "hecke_range_used" not in results[37]
    for r in results.values():
        assert {"group", "verdict", "sturm_bound", "span_dim", "plus_dim"} <= set(r)


def test_failing_level_is_recorded_and_the_sweep_goes_on(tmp_path, monkeypatch, capsys):
    from modtors import cli

    rank = cli.is_rank_zero

    def flaky(space, refusal=False):
        if space.level == 14:
            raise (ResourceWarning if refusal else ArithmeticError)("level 14 fails")
        return rank(space)

    monkeypatch.setattr(cli, "is_rank_zero", flaky)
    outs = []
    for jobs in ("1", "2"):
        cache = tmp_path / f"jobs{jobs}"
        code = cli.main(["rank", "gamma0", "11,14,37", "--jobs", jobs, "--cache-dir", str(cache)])
        outs.append(capsys.readouterr().out)
        assert code == 1
        names = sorted(p.name for p in cache.iterdir())
        assert len(names) == 2 and not any("-14-" in name for name in names)
    assert outs[0] == outs[1]
    results = json.loads(outs[0])["results"]
    assert results[1] == {"level": 14, "error": "ArithmeticError: level 14 fails"}
    assert [results[0]["verdict"], results[2]["verdict"]] == ["rank_zero", "positive_rank"]
    # a resource refusal still stops the sweep with code 2 and no output
    monkeypatch.setattr(cli, "is_rank_zero", lambda space: flaky(space, refusal=True))
    for jobs in ("1", "2"):
        code = cli.main(["rank", "gamma0", "11,14,37", "--jobs", jobs])
        assert (code, capsys.readouterr().out) == (2, "")
