from __future__ import annotations

import os
import stat

import pytest

from adsim.cli import main
from adsim.core import EventLog, write_log

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
    assert "events:" in stdout and "detector:" in stdout
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
    assert main(["replay", str(path), "--advertiser", "a"]) == 0


def test_demo_gfp_detects_the_textbook_cycle(capsys):
    assert main(["demo-gfp"]) == 0
    out = capsys.readouterr().out
    assert "start: a=1000  b=300" in out
    assert "period 8" in out


def test_demo_gfp_without_enough_steps_reports_no_cycle(capsys):
    assert main(["demo-gfp", "--steps", "3"]) == 3
    assert "no cycle" in capsys.readouterr().out


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
    ],
    ids=["slots", "reserve", "epsilon", "values"],
)
def test_demo_gfp_errors_name_the_flag(capsys, argv, message):
    assert main(["demo-gfp", *argv]) == 2
    assert capsys.readouterr().err.strip() == message


def test_help_and_unknown_commands_use_argparse_conventions(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
