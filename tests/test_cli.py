from __future__ import annotations

import errno
import hashlib
import os
import resource
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import adsim
from adsim.auction import MAX_HISTORY
from adsim.bench import ScenarioConfig, ShapeViolation
from adsim.cli import main
from adsim.core import ClickEvent, EventLog, read_log, write_log

MINIMAL_INI = """\
[scenario]
seed = 3
horizon_ms = 8000
tick_ms = 1000

[auction]
num_slots = 2

[bids]
a = 400
b = 200

[traffic]
queries_per_second = 4.0

[base_ctr]
a = 0.3
b = 0.2

[estimators]
specs = relative time:3000

[fraud:burst]
kind = scripted
target = a
start_ms = 2000
count = 10
interval_ms = 150
"""


@pytest.fixture()
def ini(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(MINIMAL_INI)
    return path


def test_run_writes_the_three_artifacts(tmp_path, ini, capsys):
    out = tmp_path / "out"
    assert main(["run", str(ini), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    log = read_log(out / "events.jsonl")
    clicks = sum(isinstance(e, ClickEvent) for e in log)
    assert f"events: {len(log)} ({clicks} clicks) over 8 ticks\n" in stdout
    assert 0 < clicks < len(log) and "detector:" in stdout
    for name in ("events.jsonl", "series.csv", "series.svg"):
        assert (out / name).is_file()
    header = (out / "series.csv").read_text().splitlines()[0]
    # ctr columns come in the fixed schema order, not configuration order
    assert header == "time,impressions,clicks,total_clicks,ctr_time,ctr_relative"
    assert len((out / "series.csv").read_text().splitlines()) == 9  # header + 8 ticks


def test_run_artifacts_get_the_umask_mode(tmp_path, ini):
    old = os.umask(0o022)
    try:
        assert main(["run", str(ini), "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    for name in ("events.jsonl", "series.csv", "series.svg"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644, name
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "events.jsonl", "scenario.ini", "series.csv", "series.svg"
    ]  # no temp files left behind


def test_run_is_byte_deterministic(tmp_path, ini):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", str(ini), "--out", str(out1)]) == 0
    assert main(["run", str(ini), "--out", str(out2)]) == 0
    for name in ("events.jsonl", "series.csv", "series.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_drop_flagged_changes_the_series_not_the_log(tmp_path, ini, capsys):
    kept, dropped = tmp_path / "kept", tmp_path / "dropped"
    assert main(["run", str(ini), "--out", str(kept)]) == 0
    assert main(["run", str(ini), "--out", str(dropped), "--drop-flagged"]) == 0
    assert "dropped from series" in capsys.readouterr().out
    assert (kept / "events.jsonl").read_bytes() == (dropped / "events.jsonl").read_bytes()
    assert (kept / "series.csv").read_bytes() != (dropped / "series.csv").read_bytes()


def test_run_reports_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_reports_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"\xff" + MINIMAL_INI.encode())
    assert main(["run", str(path)]) == 2
    assert f"error: {path}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_run_reports_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(MINIMAL_INI.replace("seed = 3", "seed = tomorrow"))
    assert main(["run", str(path)]) == 2
    assert "scenario.seed" in capsys.readouterr().err


def test_run_reports_a_bad_window_at_its_spec(tmp_path, capsys):
    # the time fold's own check, behind the key and the token
    path = tmp_path / "bad.ini"
    path.write_text(MINIMAL_INI.replace("specs = relative time:3000", "specs = time:0"))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: estimators.specs: window_ms: must be >= 1, got 0 in 'time:0' "
        "(expected time:<ms> | impressions:<n> | clicks:<n> | relative[:<ms>])\n"
    )


def test_run_reports_a_bad_fraud_seed(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    crew = "\n[fraud:crew]\nkind = human\ntarget = b\nstart_ms = 0\ncount = 5\n"
    path.write_text(MINIMAL_INI + crew + "mean_gap_ms = 100\ngap_sigma = 0.5\nseed = -1\n")
    assert main(["run", str(path)]) == 2
    assert "fraud:crew.seed" in capsys.readouterr().err


def test_tables_prints_the_ledger_and_shape_checks(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "errata ledger (4 entries)" in out
    assert "shape check ctr_old: strictly increasing over 20 steps: PASS" in out
    assert "rise to t=4 then strictly decreasing over 20 steps: PASS" in out
    assert "table 1 row 9 [ctr]: printed 3, reconstructed 0.3" in out


def test_tables_csv_output(tmp_path, capsys):
    out = tmp_path / "tables"
    assert main(["tables", "--csv", str(out)]) == 0
    legacy = (out / "reference_legacy.csv").read_text().splitlines()
    relative = (out / "reference_relative.csv").read_text().splitlines()
    assert len(legacy) == len(relative) == 21
    assert legacy[0] == "time,impressions,clicks,total_clicks,ctr_old"
    assert legacy[1] == "1,16,2,22,0.1111"
    assert relative[1] == "1,16,2,22,0.0909"


def test_the_tables_command_prints_and_writes_the_pinned_bytes(tmp_path, capsys):
    # sha256 of the stdout and of the two CSV files; this module loads no numpy
    assert main(["tables"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "3f8d49328695457acc89a7f6969de0b7bf0420f776936bc56239b86eac8dd01d"
    )
    assert main(["tables", "--csv", str(tmp_path)]) == 0
    assert {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("reference_legacy.csv", "reference_relative.csv")
    } == {
        "reference_legacy.csv": "c0bd385ce3213f49356a908e4faa6e5e4807449ee6db1bb7b404d5c89c14fb2b",
        "reference_relative.csv": "9333ef8dd5e754c320390f4c6332c91ac2c9b29a267bf1b9665ae13bd76044cc",
    }


def test_compare_runs_all_four_estimators(tmp_path, ini, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", str(ini), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    for label in ("ctr_time", "ctr_impr", "ctr_click", "ctr_relative"):
        assert label in stdout
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert header == (
        "time,impressions,clicks,total_clicks,ctr_time,ctr_impr,ctr_click,ctr_relative"
    )
    assert (out / "compare.svg").is_file()


def test_compare_ranks_with_the_configured_primary_estimator(tmp_path, example_ini, capsys):
    # relative is configured first; by_ctr_weighted ranking lets it move the slots
    text = example_ini.read_text()
    for adv, old, new in (("alpha", 1000, 400), ("bravo", 300, 500), ("delta", 500, 450)):
        assert f"{adv} = {old}\n" in text
        text = text.replace(f"{adv} = {old}\n", f"{adv} = {new}\n")
    ini = tmp_path / "scenario.ini"
    ini.write_text(text)
    assert main(["run", str(ini), "--out", str(tmp_path / "run")]) == 0
    assert main(["compare", str(ini), "--out", str(tmp_path / "cmp")]) == 0
    capsys.readouterr()
    series = (tmp_path / "run" / "series.csv").read_bytes()
    assert (tmp_path / "cmp" / "compare.csv").read_bytes() == series


def test_compare_checks_its_scenario_once_and_runs_no_detector(tmp_path, ini, capsys, monkeypatch):
    checks = []
    check = ScenarioConfig.__post_init__
    monkeypatch.setattr(ScenarioConfig, "__post_init__", lambda cfg: checks.append(check(cfg)))

    def never(*args, **kwargs):
        raise AssertionError("compare prints no detector flags")

    monkeypatch.setattr("adsim.bench.detect_scripted", never)
    assert main(["compare", str(ini)]) == 0
    assert "ctr_relative" in capsys.readouterr().out
    assert len(checks) == 1


def test_replay_round_trips_a_run_log(tmp_path, ini, capsys):
    out = tmp_path / "out"
    main(["run", str(ini), "--out", str(out)])
    capsys.readouterr()
    assert main(["replay", str(out / "events.jsonl"), "--advertiser", "a"]) == 0
    stdout = capsys.readouterr().out
    assert "replayed estimates for 'a'" in stdout
    assert "ctr_relative" in stdout


def test_replay_with_specs_and_csv(tmp_path, ini, capsys):
    out = tmp_path / "out"
    main(["run", str(ini), "--out", str(out)])
    dest = tmp_path / "replay.csv"
    code = main(
        [
            "replay", str(out / "events.jsonl"),
            "--spec", "time:2000", "--spec", "impressions:50",
            "--csv", str(dest),
        ]
    )
    assert code == 0
    assert dest.read_text().splitlines()[0].endswith("ctr_time,ctr_impr")


def test_replay_loads_no_numpy(tmp_path, ini):
    # in a fresh interpreter, since the test modules import numpy themselves
    out = tmp_path / "out"
    assert main(["run", str(ini), "--out", str(out)]) == 0
    argv = ["replay", str(out / "events.jsonl"), "--csv", str(tmp_path / "replay.csv")]
    code = f"import sys; from adsim.cli import main; assert main({argv!r}) == 0; print('numpy' in sys.modules)"
    src = str(Path(adsim.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "replay.csv").read_text().startswith("time,")


def test_a_rate_whose_tick_cannot_be_held_exits_2(tmp_path, example_ini):
    # one 1 s tick's draw would need 7 PiB; the rate fails at load, and the
    # child's address space is capped so that no rate can really allocate
    ini = tmp_path / "huge.ini"
    rate = "queries_per_second = "
    ini.write_text(example_ini.read_text().replace(rate + "5.0", rate + "1e15"))
    cap = 2 * 2**30
    src = str(Path(adsim.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "adsim.cli", "run", str(ini), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: traffic.queries_per_second: must be <= 8333.33 (1000000 impressions in 2 slots), "
        "got 1000000000000000.0\n"
    )


@pytest.mark.parametrize(
    "command, error",
    [
        ("run", "scenario.horizon_ms: must be <= 1000000000, got 99999999999999999999999"),
        (
            "replay",
            "--tick-ms: must be >= 100000000000000000 for the log's horizon "
            "99999999999999999999999, got 1000",
        ),
    ],
)
def test_a_horizon_of_too_many_ticks_exits_2_at_once(tmp_path, example_ini, command, error):
    vast = "99999999999999999999999"  # 10^20 ticks of 1000 ms
    if command == "run":
        ini = tmp_path / "vast.ini"
        ini.write_text(example_ini.read_text().replace("horizon_ms = 60000", f"horizon_ms = {vast}"))
        argv = ["run", str(ini), "--out", str(tmp_path / "out")]
    else:
        log = tmp_path / "events.jsonl"
        log.write_text(f'{{"horizon":{vast},"kind":"header"}}\n')
        argv = ["replay", str(log), "--advertiser", "alpha"]
    # in a child with a timeout and a capped address space, so that a walk over every tick fails
    cap = 2**30
    src = str(Path(adsim.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "adsim.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "edits, error",
    [
        (  # ten billion clicks: too many to list
            {"count = 50": "count = 10000000000"},
            "fraud:burst.count: must be <= 1000000, got 10000000000",
        ),
        (  # a billion clicks 1 ms apart, inside a 10^12 ms horizon of one tick
            {"count = 50": "count = 1000000000", "interval_ms = 100": "interval_ms = 1",
             "horizon_ms = 60000": "horizon_ms = 1000000000000",
             "tick_ms = 1000 ": "tick_ms = 1000000000000 "},
            "fraud:burst.count: must be <= 1000000, got 1000000000",
        ),
        (  # a thousand clicks 100 ms apart: past the horizon
            {"count = 50": "count = 1000"},
            "fraud:burst.start_ms: clicks reach t=119900, beyond horizon_ms=60000",
        ),
        (  # a log-normal gap this wide draws infinity; every gap stops at the horizon
            {"mean_gap_ms = 1500": "mean_gap_ms = 1e308", "gap_sigma = 0.8": "gap_sigma = 2"},
            "fraud:crew.start_ms: clicks reach t=1750000, beyond horizon_ms=60000",
        ),
    ],
    ids=["scripted-count", "huge-plan", "scripted-late", "human-gap"],
)
def test_a_fraud_plan_past_the_horizon_exits_2_before_it_draws(tmp_path, example_ini, edits, error):
    text = example_ini.read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    ini = tmp_path / "plan.ini"
    ini.write_text(text)
    cap = 2**30  # a plan lists its clicks, at most MAX_EVENTS of them, before it checks the horizon
    src = str(Path(adsim.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "adsim.cli", "run", str(ini), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {error}\n")


def test_replay_of_the_example_reproduces_its_series(tmp_path, example_ini, capsys):
    # the saved log alone gives the run's series, byte for byte
    out, dest = tmp_path / "out", tmp_path / "replay.csv"
    assert main(["run", str(example_ini), "--out", str(out)]) == 0
    code = main(
        [
            "replay", str(out / "events.jsonl"), "--advertiser", "alpha", "--tick-ms", "1000",
            "--spec", "relative", "--spec", "time:10000", "--spec", "impressions:200",
            "--spec", "clicks:20", "--csv", str(dest),
        ]
    )
    assert code == 0
    assert dest.read_bytes() == (out / "series.csv").read_bytes()


def test_replay_rejects_duplicate_spec_kinds(tmp_path, ini, capsys):
    out = tmp_path / "out"
    main(["run", str(ini), "--out", str(out)])
    code = main(["replay", str(out / "events.jsonl"), "--spec", "time:1", "--spec", "time:2"])
    assert code == 2


def test_replay_rejects_bad_flags_before_reading_the_log(tmp_path, ini, capsys):
    out = tmp_path / "out"
    main(["run", str(ini), "--out", str(out)])
    capsys.readouterr()
    assert main(["replay", str(out / "events.jsonl"), "--advertiser", "nobody"]) == 2
    assert "advertiser: 'nobody' is not in the log" in capsys.readouterr().err
    # only an absent flag defaults to the first advertiser
    assert main(["replay", str(out / "events.jsonl"), "--advertiser", ""]) == 2
    assert capsys.readouterr().err == "error: --advertiser: '' is not in the log\n"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["replay", str(bad), "--tick-ms", "0"]) == 2
    assert "tick-ms" in capsys.readouterr().err


def test_replay_rejects_malformed_logs(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["replay", str(bad)]) == 2
    assert f"error: {bad}: line 1: invalid JSON" in capsys.readouterr().err


def test_replay_reports_a_missing_log(tmp_path, capsys):
    path = tmp_path / "nope.jsonl"
    assert main(["replay", str(path)]) == 2
    assert f"error: {path}: No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["run --out FILE", "tables --csv FILE/x", "replay --csv MISSING/x.csv", "replay --csv DIR"]
)
def test_an_unwritable_output_path_exits_2(tmp_path, ini, capsys, case):
    taken = tmp_path / "taken"
    taken.write_text("")
    log = tmp_path / "events.jsonl"
    write_log(EventLog(1_000), log)
    replay = ["replay", str(log), "--advertiser", "a", "--csv"]
    argv, path, reason = {
        "run --out FILE": (["run", str(ini), "--out"], taken, "File exists"),
        "tables --csv FILE/x": (["tables", "--csv"], taken / "x", "Not a directory"),
        "replay --csv MISSING/x.csv": (replay, tmp_path / "missing" / "x.csv", "No such file or directory"),
        "replay --csv DIR": (replay, tmp_path, "Is a directory"),
    }[case]
    assert main([*argv, str(path)]) == 2
    # the path the user typed, never the temp file beside it, and no traceback
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_unusable_out_path_is_reported_before_simulating(
    tmp_path, ini, capsys, monkeypatch, command
):
    taken = tmp_path / "taken"
    taken.write_text("")

    def never(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr("adsim.cli.run_scenario", never)
    monkeypatch.setattr("adsim.cli.simulate", never)
    assert main([command, str(ini), "--out", str(taken)]) == 2
    assert capsys.readouterr().err == f"error: {taken}: File exists\n"


def test_replay_reports_a_log_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.jsonl"
    write_log(EventLog(1_000), path)
    path.write_bytes(path.read_bytes() + b"\xff\n")
    assert main(["replay", str(path), "--advertiser", "a"]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 2: not UTF-8: invalid start byte\n"


def test_replay_of_an_empty_log_needs_an_explicit_advertiser(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    write_log(EventLog(1_000), path)
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == "error: --advertiser: the log is empty, specify one explicitly\n"
    assert main(["replay", str(path), "--advertiser", "a"]) == 0


def test_demo_gfp_detects_the_textbook_cycle(capsys):
    assert main(["demo-gfp"]) == 0
    out = capsys.readouterr().out
    assert "start: a=1000  b=300" in out
    assert "period 8" in out


def test_demo_gfp_without_enough_steps_reports_no_cycle(capsys):
    assert main(["demo-gfp", "--steps", "3"]) == 3
    assert "no cycle" in capsys.readouterr().out


def test_demo_gfp_with_a_huge_slot_count_returns_at_once():
    # in a child with a timeout, so that a walk over every slot fails instead of hanging
    argv = ["demo-gfp", "--values", "0,0", "--slots", "100000000000000000000", "--steps", "1"]
    src = str(Path(adsim.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "adsim.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 3  # no cycle in one step
    assert "step   1 (a moves): a=0  b=300" in done.stdout


def test_demo_gfp_past_the_history_bound_exits_2_at_once():
    # in a child with a timeout, so that a run of 10^8 steps fails instead of hanging
    src = str(Path(adsim.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "adsim.cli", "demo-gfp", "--steps", "100000000"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: --steps: must be <= {MAX_HISTORY // 2 - 1}, got 100000000\n"


def test_demo_gfp_argument_validation(capsys):
    assert main(["demo-gfp", "--bids", "100"]) == 2
    assert main(["demo-gfp", "--bids", "1,2", "--values", "1,2,3"]) == 2
    assert main(["demo-gfp", "--bids", "ten,3"]) == 2
    assert main(["demo-gfp", "--epsilon", "0"]) == 2
    assert main(["demo-gfp", "--slots", "0"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--slots", "0"], "error: --slots: must be >= 1, got 0"),
        (["--reserve", "-5"], "error: --reserve: must be >= 0, got -5"),
        (["--epsilon", "0"], "error: --epsilon: must be >= 1"),
        (["--bids", "1,2", "--values", "1"], "error: --values: need exactly one value per bid"),
        (["--bids", "5", "--values", "9"], "error: --bids: need at least two bidders"),
        (["--steps", "0"], "error: --steps: must be >= 1"),
        (["--bids=-1,5"], "error: --bids: amounts must be >= 0"),
    ],
    ids=["slots", "reserve", "epsilon", "values", "one_bidder", "steps", "negative_bid"],
)
def test_demo_gfp_errors_name_the_flag(capsys, argv, message):
    assert main(["demo-gfp", *argv]) == 2
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tick-ms", "0"], "error: --tick-ms: must be >= 1"),
        (["--spec", "time:1", "--spec", "time:2"], "error: --spec: estimator kinds must be unique"),
        (["--spec", "time:x"], "error: --spec: bad window parameter in 'time:x'"),
        (["--spec", "clicks"], "error: --spec: size: must be a number, got None in 'clicks' (expected time:<ms> | impressions:<n> | clicks:<n> | relative[:<ms>])"),
    ],
    ids=["tick_ms", "duplicate_kinds", "bad_param", "missing_window"],
)
def test_replay_errors_name_the_flag(tmp_path, capsys, argv, message):
    # like demo-gfp's, with its dashes, and before the log is read
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["replay", str(bad), *argv]) == 2
    assert capsys.readouterr().err.strip() == message


def test_an_os_error_that_names_no_path_is_not_hidden(monkeypatch):
    # only a path the user gave becomes exit 2; any other OSError keeps its traceback
    def full(*_):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("adsim.cli.replay_reference_tables", full)
    with pytest.raises(OSError, match="No space left on device"):
        main(["tables"])


def test_a_shape_violation_exits_3(monkeypatch, capsys):
    def broken(*_):
        raise ShapeViolation(7, "ctr_old stopped increasing: 0.300000 -> 0.290000")

    monkeypatch.setattr("adsim.cli.curve_shape_check", broken)
    assert main(["tables"]) == 3
    assert capsys.readouterr().err == (
        "shape violation: t=7: ctr_old stopped increasing: 0.300000 -> 0.290000\n"
    )


def test_help_and_unknown_commands_use_argparse_conventions(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
