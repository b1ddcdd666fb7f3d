from __future__ import annotations

import configparser
import csv
import math
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

import adsim.bench
from adsim.auction import (
    BY_CTR_WEIGHTED,
    AuctionConfig,
    Bid,
    SlotAllocation,
    gfp_best_response_step,
    rank,
)
from adsim.bench import (
    _KEYS,
    _PLAN_KEYS,
    MAX_TICKS,
    PRINTED_CLICKS,
    PRINTED_IMPRESSIONS,
    PRINTED_LEGACY_CTR,
    PRINTED_RELATIVE_CTR,
    PRINTED_TOTAL_CLICKS,
    RECONSTRUCTED_TOTAL_CLICKS,
    REFERENCE_STEPS,
    SHAPE_INCREASING,
    SHAPE_RISE_THEN_FALL,
    ConfigError,
    ScenarioConfig,
    Series,
    ShapeViolation,
    build_series,
    curve_shape_check,
    emit_csv,
    emit_plot,
    format_rate,
    load_config,
    reconstructed_clicks,
    reconstructed_impressions,
    replay_reference_tables,
    run_scenario,
    simulate,
)
from adsim.cli import main
from adsim.core import ClickEvent, ClickSource, ImpressionEvent
from adsim.estimators import (
    ESTIMATOR_KINDS,
    ClickWindowCtr,
    ImpressionWindowCtr,
    RelativeCtr,
    TimeWindowCtr,
    WindowSpec,
    ctr_legacy,
    ctr_relative,
)
from adsim.traffic import (
    FRAUD_QUERY_ID_BASE,
    HUMAN,
    MAX_EVENTS,
    PLAN_FIELDS,
    SCRIPTED,
    FraudPlan,
    TrafficConfig,
    detect_scripted,
    fraud_events,
)
from helpers import log_of, row_of, rows
from oracles import (
    click_window_brute,
    impression_window_brute,
    random_log,
    relative_brute,
    simulate_every_tick,
    time_window_brute,
)


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        seed=7,
        horizon_ms=20_000,
        tick_ms=1_000,
        focus="a",
        bids={"a": 1000, "b": 300},
        auction=AuctionConfig(2),
        traffic=TrafficConfig(4.0, {"a": 0.3, "b": 0.2}),
        estimators=(WindowSpec("relative"), WindowSpec("time", 5_000)),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Reference tables.


def test_reconstruction_formulas():
    assert [reconstructed_impressions(t) for t in (1, 2, 7, 20)] == [16, 28, 88, 244]
    assert [reconstructed_clicks(t) for t in (1, 2, 7, 20)] == [2, 6, 36, 114]
    assert RECONSTRUCTED_TOTAL_CLICKS[0] == 22
    assert RECONSTRUCTED_TOTAL_CLICKS[-1] == 1580
    # totals grow by 28 + 6(t-2) per step: quadratic second difference of 6
    diffs = [
        b - a for a, b in zip(RECONSTRUCTED_TOTAL_CLICKS, RECONSTRUCTED_TOTAL_CLICKS[1:])
    ]
    assert [y - x for x, y in zip(diffs, diffs[1:])] == [6] * 18


def test_printed_columns_have_twenty_rows():
    for col in (
        PRINTED_IMPRESSIONS,
        PRINTED_CLICKS,
        PRINTED_LEGACY_CTR,
        PRINTED_TOTAL_CLICKS,
        PRINTED_RELATIVE_CTR,
    ):
        assert len(col) == REFERENCE_STEPS == 20


def test_replay_emits_exactly_the_four_documented_errata():
    replay = replay_reference_tables()
    assert [
        (e.table, e.row, e.column, e.printed_value, e.reconstructed_value)
        for e in replay.errata
    ] == [
        (1, 7, "clicks", 42.0, 36.0),
        (1, 9, "ctr", 3.0, 0.3),
        (2, 19, "total_clicks", 0.317, 1444.0),
        (2, 20, "total_clicks", 1444.0, 1580.0),
    ]
    assert all(e.justification for e in replay.errata)


def test_replay_matches_the_printed_ctr_columns():
    replay = replay_reference_tables()
    errata_cells = {(e.table, e.row, e.column) for e in replay.errata}
    for t in range(1, REFERENCE_STEPS + 1):
        old = rows(replay.legacy_rows)[t - 1].ctr["ctr_old"]
        if (1, t, "ctr") not in errata_cells:
            assert old == pytest.approx(PRINTED_LEGACY_CTR[t - 1], abs=0.001)
        new = rows(replay.relative_rows)[t - 1].ctr["ctr_new"]
        assert new == pytest.approx(PRINTED_RELATIVE_CTR[t - 1], abs=0.001)


def test_replay_row_bookkeeping():
    replay = replay_reference_tables()
    assert len(replay.legacy_rows) == len(replay.relative_rows) == 20
    for t, (old, new) in enumerate(zip(rows(replay.legacy_rows), rows(replay.relative_rows)), start=1):
        assert old.time_index == new.time_index == t
        assert old.impressions == new.impressions == reconstructed_impressions(t)
        assert old.clicks == new.clicks == reconstructed_clicks(t)
        assert old.total_clicks == RECONSTRUCTED_TOTAL_CLICKS[t - 1]


@pytest.mark.parametrize(
    "name, row, cell",
    [
        ("PRINTED_CLICKS", 12, 66),  # the row's own value, not the next row's 72
        ("PRINTED_LEGACY_CTR", 3, 0.3),  # a row the column's note does not cover
        ("PRINTED_TOTAL_CLICKS", 5, 171),  # counts compare exactly
        ("PRINTED_RELATIVE_CTR", 5, 0.2),  # a column with no note
    ],
)
def test_a_printed_cell_no_note_explains_fails_the_replay(monkeypatch, name, row, cell):
    cells = list(getattr(adsim.bench, name))
    cells[row - 1] = cell
    monkeypatch.setattr(adsim.bench, name, tuple(cells))
    with pytest.raises(AssertionError, match=f"t={row}$"):
        replay_reference_tables()


# ---------------------------------------------------------------------------
# Shape checks.


def curve(*values, column="x"):
    """A series of ``values`` in one rate column, from tick 1, with zero counts."""
    zeros = [0] * len(values)
    return Series(zeros, zeros, zeros, {column: list(values)})


@pytest.mark.parametrize(
    "counts, message",
    [
        (([0, -1], [0, 0], [0, 0]), "impressions: must be >= 0, got -1"),
        (([0, 0], [0, -1], [0, 0]), "clicks: must be >= 0, got -1"),
        (([0, 0], [0, 0], [0, -1]), "total_clicks: must be >= 0, got -1"),
    ],
    ids=["impressions", "clicks", "total_clicks"],
)
def test_a_series_counts_nothing_negative(counts, message):
    with pytest.raises(ValueError) as err:
        Series(*counts, {})
    assert str(err.value) == message


_ONE_IMPRESSION = log_of([ImpressionEvent(0, "alpha", 1, 0)], 3_000)
# every numeric bound outside the scenario config: its field and a call that puts v there
# (test_estimators.py checks that the windowed folds reject None)
_BOUNDS = [
    ("amount", lambda v: Bid("a", v)),
    ("slot", lambda v: SlotAllocation(v, "a", 0, 0.0)),
    ("price_per_click", lambda v: SlotAllocation(1, "a", v, 0.0)),
    ("rank_score", lambda v: SlotAllocation(1, "a", 0, v)),
    ("epsilon", lambda v: gfp_best_response_step({"a": 1}, {"a": 5}, "a", v, AuctionConfig(1))),
    ("window_ms", TimeWindowCtr),
    ("size", ImpressionWindowCtr),
    ("size", ClickWindowCtr),
    ("interval_ms", RelativeCtr),
    ("clicks", lambda v: ctr_legacy(v, 1)),
    ("impressions", lambda v: ctr_legacy(1, v)),
    ("clicks", lambda v: ctr_relative(v, 10)),
    ("total_clicks", lambda v: ctr_relative(1, v)),
    ("min_run", lambda v: detect_scripted(_ONE_IMPRESSION, v)),
    ("interval_tolerance_ms", lambda v: detect_scripted(_ONE_IMPRESSION, 5, v)),
    ("impressions", lambda v: Series([v], [0], [0], {})),
    ("clicks", lambda v: Series([0], [v], [0], {})),
    ("total_clicks", lambda v: Series([0], [0], [v], {})),
    ("traffic.position_decay", lambda v: TrafficConfig(1.0, {}, v)),
]  # and build_series's tick_ms, below


@pytest.mark.parametrize("field, call", _BOUNDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_every_bound_rejects_nan_and_infinity_naming_its_field(field, call, value):
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{field}: must be a finite number, got {value}"


def test_a_bound_that_is_not_a_number_is_a_located_value_error():
    with pytest.raises(ValueError) as err:
        tiny_config(seed="1")
    assert str(err.value) == "scenario.seed: must be a number, got '1'"


@pytest.mark.parametrize("value, message", [
    ("0.5", "must be a number, got '0.5'"),
    (None, "must be a number, got None"),
    (0, "outside (0, 1]: 0"),  # the open interval keeps its own messages
    (1.5, "outside (0, 1]: 1.5"),
])
def test_position_decay_is_a_number_in_its_open_interval(value, message):
    with pytest.raises(ValueError) as err:
        TrafficConfig(1.0, {}, value)
    assert str(err.value) == f"traffic.position_decay: {message}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_build_series_rejects_an_infinite_tick_at_once(monkeypatch, value):
    # an infinite tick never passes the closing tick's end, so ticks would be added forever
    def unread():
        raise AssertionError("build_series read the log")

    monkeypatch.setattr(_ONE_IMPRESSION, "records", unread)
    with pytest.raises(ValueError) as err:
        build_series(_ONE_IMPRESSION, "alpha", [WindowSpec("relative")], value)
    assert str(err.value) == f"tick_ms: must be a finite number, got {value}"


def test_shape_check_increasing():
    assert curve_shape_check(curve(*(t / 10 for t in range(1, 6))), "x", SHAPE_INCREASING) is None
    with pytest.raises(ShapeViolation) as err:
        curve_shape_check(curve(0.1, 0.2, 0.2), "x", SHAPE_INCREASING)
    assert err.value.time_index == 3


def test_shape_check_rise_then_fall():
    assert curve_shape_check(curve(0.1, 0.3, 0.25, 0.2), "x", SHAPE_RISE_THEN_FALL) == 2
    # a rebound after the peak is a violation at the offending tick
    with pytest.raises(ShapeViolation) as err:
        curve_shape_check(curve(0.1, 0.3, 0.25, 0.26), "x", SHAPE_RISE_THEN_FALL)
    assert err.value.time_index == 4
    # monotone series have no interior peak
    with pytest.raises(ShapeViolation):
        curve_shape_check(curve(*(t / 10 for t in range(1, 5))), "x", SHAPE_RISE_THEN_FALL)


@pytest.mark.parametrize(
    "shape, values, message",
    [
        (SHAPE_INCREASING, (0.1, math.nan, 0.3), "t=2: column 'x' NaN"),
        (SHAPE_INCREASING, (math.nan, math.nan, math.nan), "t=1: column 'x' NaN"),
        (SHAPE_RISE_THEN_FALL, (0.1, 0.5, math.nan, 0.2), "t=3: column 'x' NaN"),  # not a peak at t=2 and a fall
        (SHAPE_INCREASING, (0.1, None, math.nan), "t=2: column 'x' undefined"),
        (SHAPE_RISE_THEN_FALL, (0.1, math.nan, None, 0.2), "t=2: column 'x' NaN"),
    ],
    ids=["increasing-nan-inside", "increasing-all-nan", "rise_then_fall-nan-after-peak",
         "undefined-before-nan", "nan-before-undefined"],
)
def test_shape_check_breaks_at_the_first_nan_or_undefined_cell(shape, values, message):
    # every comparison with NaN is false, so a NaN cell breaks the curve at its own tick
    with pytest.raises(ShapeViolation) as err:
        curve_shape_check(curve(*values), "x", shape)
    assert str(err.value) == message


def test_shape_check_rejects_gaps_and_bad_arguments():
    with pytest.raises(ShapeViolation) as err:
        curve_shape_check(curve(0.1, None), "x", SHAPE_INCREASING)
    assert err.value.time_index == 2
    with pytest.raises(ShapeViolation) as err:  # a column the series lacks is undefined at tick 1
        curve_shape_check(curve(0.1, 0.2), "y", SHAPE_INCREASING)
    assert str(err.value) == "t=1: column 'y' undefined"
    with pytest.raises(ValueError):
        curve_shape_check(curve(0.1), "x", "sideways")
    with pytest.raises(ValueError):
        curve_shape_check(curve(), "x", SHAPE_INCREASING)


@pytest.mark.parametrize(
    "values, shape, message",
    [
        ((0.1, 0.2, 0.2), SHAPE_INCREASING, "t=3: x stopped increasing: 0.200000 -> 0.200000"),
        (
            (0.1, 0.3, 0.2, 0.5, 0.4), SHAPE_RISE_THEN_FALL,
            "t=3: x dipped before its peak: 0.300000 -> 0.200000",
        ),
        (
            (0.1, 0.3, 0.25, 0.26), SHAPE_RISE_THEN_FALL,
            "t=4: x rose after its peak: 0.250000 -> 0.260000",
        ),
        (  # a flat step after the peak breaks the strict fall
            (0.1, 0.3, 0.2, 0.2), SHAPE_RISE_THEN_FALL,
            "t=4: x rose after its peak: 0.200000 -> 0.200000",
        ),
        ((0.3, 0.2, 0.1), SHAPE_RISE_THEN_FALL, "t=1: x has no interior peak"),
        ((0.1, 0.2, 0.3), SHAPE_RISE_THEN_FALL, "t=3: x has no interior peak"),
    ],
)
def test_shape_violations_name_the_tick_and_the_step(values, shape, message):
    with pytest.raises(ShapeViolation) as err:
        curve_shape_check(curve(*values), "x", shape)
    assert str(err.value) == message
    assert message.startswith(f"t={err.value.time_index}: ")


def test_replayed_curves_have_the_expected_shapes():
    replay = replay_reference_tables()
    assert curve_shape_check(replay.legacy_rows, "ctr_old", SHAPE_INCREASING) is None
    assert curve_shape_check(replay.relative_rows, "ctr_new", SHAPE_RISE_THEN_FALL) == 4


# ---------------------------------------------------------------------------
# Rate formatting.


def test_format_rate_rounds_half_up_to_four_decimals():
    assert format_rate(0.12857142) == "0.1286"
    assert format_rate(0.00005) == "0.0001"
    assert format_rate(0.3) == "0.3000"
    assert format_rate(1.0) == "1.0000"
    assert format_rate(2 / 18) == "0.1111"
    # the sign of a zero, an exponent repr and an int, as the series reuses them
    assert format_rate(-0.0) == "-0.0000"
    assert format_rate(1e-05) == "0.0000"
    assert format_rate(5e-05) == "0.0001"
    assert format_rate(1) == "1.0000"


# ---------------------------------------------------------------------------
# Scenario configuration.


def test_scenario_config_cross_checks():
    with pytest.raises(ValueError):
        tiny_config(focus="nobody")
    with pytest.raises(ValueError):
        tiny_config(tick_ms=30_000)
    with pytest.raises(ValueError):
        tiny_config(estimators=())
    with pytest.raises(ValueError):
        tiny_config(estimators=(WindowSpec("relative"), WindowSpec("relative", 99)))
    with pytest.raises(ValueError, match="^detector.min_run:"):
        tiny_config(detector_min_run=2)
    with pytest.raises(ValueError, match="^bids: empty advertiser id$"):  # no INI key is empty
        tiny_config(bids={"a": 1000, "": 300}, traffic=TrafficConfig(4.0, {"a": 0.3, "": 0.2}))
    with pytest.raises(ValueError):
        tiny_config(
            fraud_plans=(
                FraudPlan(kind=SCRIPTED, target="z", start_ms=0, count=5, interval_ms=10),
            )
        )
    assert tiny_config().advertisers == ["a", "b"]


_EARLY = FraudPlan(kind=HUMAN, target="b", start_ms=0, count=3, mean_gap_ms=5.0, gap_sigma=0.2)


@pytest.mark.parametrize(
    "horizon_ms, plan, message",
    [
        (
            20_000,
            FraudPlan(kind=SCRIPTED, target="z", start_ms=0, count=5, interval_ms=10),
            "fraud_plans[1].target: 'z' has no bid",
        ),
        (  # the last click lands on the horizon itself
            1_250,
            FraudPlan(kind=SCRIPTED, target="a", start_ms=500, count=4, interval_ms=250),
            "fraud_plans[1].start_ms: clicks reach t=1250, beyond horizon_ms=1250",
        ),
        (
            60,
            FraudPlan(kind=SCRIPTED, target="a", start_ms=50, count=2, interval_ms=10),
            "fraud_plans[1].start_ms: clicks reach t=60, beyond horizon_ms=60",
        ),
        (  # every drawn gap is capped at the horizon, infinity included
            20_000,
            FraudPlan(kind=HUMAN, target="a", start_ms=100, count=3, mean_gap_ms=1e308, gap_sigma=2.0),
            "fraud_plans[1].start_ms: clicks reach t=40100, beyond horizon_ms=20000",
        ),
    ],
    ids=["unknown-target", "scripted-late", "second-plan-late", "human-gap"],
)
def test_scenario_config_checks_each_fraud_plan_by_index(horizon_ms, plan, message):
    with pytest.raises(ValueError) as err:
        tiny_config(horizon_ms=horizon_ms, tick_ms=10, fraud_plans=(_EARLY, plan))
    assert str(err.value) == message
    assert tiny_config(horizon_ms=horizon_ms, tick_ms=10, fraud_plans=(_EARLY,)).fraud_plans == (_EARLY,)


def test_a_scripted_plan_is_checked_without_listing_its_clicks():
    # a scripted plan's clicks are a range, so its last one costs no list of MAX_EVENTS ints
    plan = FraudPlan(kind=SCRIPTED, target="a", start_ms=0, count=MAX_EVENTS, interval_ms=1)
    tracemalloc.start()
    try:
        tiny_config(horizon_ms=MAX_EVENTS + 1, fraud_plans=(plan,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_load_config_reads_a_config_saved_with_a_byte_order_mark(tmp_path, example_ini):
    path = tmp_path / "bom.ini"
    path.write_bytes(b"\xef\xbb\xbf" + example_ini.read_bytes())
    assert load_config(path) == load_config(example_ini)


def test_load_config_reads_the_annotated_example(example_ini):
    cfg = load_config(example_ini)
    assert cfg.seed == 42
    assert cfg.horizon_ms == 60_000 and cfg.tick_ms == 1_000
    assert cfg.focus == "alpha"
    assert cfg.bids == {"alpha": 1000, "bravo": 300, "delta": 500}
    assert cfg.auction == AuctionConfig(2, 0, BY_CTR_WEIGHTED)
    assert cfg.traffic.queries_per_second == 5.0
    assert cfg.traffic.base_ctr == {"alpha": 0.30, "bravo": 0.20, "delta": 0.10}
    assert [s.label for s in cfg.estimators] == [
        "ctr_relative", "ctr_time", "ctr_impr", "ctr_click",
    ]
    assert cfg.default_ctr == 0.1
    assert cfg.detector_min_run == 5 and cfg.detector_tolerance_ms == 10
    kinds = [(p.kind, p.target) for p in cfg.fraud_plans]
    assert kinds == [("scripted", "alpha"), ("human", "bravo")]
    assert cfg.fraud_plans[1].seed == 99


MINIMAL_INI = """\
[scenario]
seed = 1
horizon_ms = 5000
tick_ms = 500

[auction]
num_slots = 1

[bids]
a = 100

[traffic]
queries_per_second = 2.0

[base_ctr]
a = 0.2

[estimators]
specs = relative
"""


def write_ini(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_ini(tmp_path, MINIMAL_INI))
    assert cfg.focus == "a"  # first advertiser by id
    assert cfg.auction == AuctionConfig(1, 0, "by_bid")
    assert cfg.default_ctr == 0.1
    assert cfg.fraud_plans == ()
    assert cfg.traffic.position_decay == 0.6


def test_absent_optional_keys_take_the_dataclass_defaults(tmp_path):
    # the loader restates no default: each one lives only on its dataclass
    cfg = load_config(write_ini(tmp_path, MINIMAL_INI))
    assert cfg == ScenarioConfig(
        seed=1,
        horizon_ms=5000,
        tick_ms=500,
        focus="a",
        bids={"a": 100},
        auction=AuctionConfig(1),
        traffic=TrafficConfig(2.0, {"a": 0.2}),
        estimators=(WindowSpec("relative"),),
    )


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda s: s.replace("[auction]\nnum_slots = 1\n", ""), "auction: missing section"),
        (lambda s: s.replace("seed = 1", "seed = soon"), "scenario.seed: expected an integer"),
        (lambda s: s.replace("tick_ms = 500", "tick_ms = 9999999"), "scenario.tick_ms"),
        (lambda s: s + "\n[scenario2]\nx = 1\n", "scenario2: unknown section"),
        (lambda s: s.replace("seed = 1", "seed = 1\nwhat = no"), "scenario.what: unknown key"),
        (lambda s: s.replace("a = 100", "a = -5"), "bids.a"),
        (lambda s: s.replace("[bids]\na = 100\n", "[bids]\n"), "bids: at least one advertiser"),
        (lambda s: s.replace("a = 0.2", "a = 1.2"), "base_ctr.a"),
        (lambda s: s.replace("[base_ctr]\na = 0.2", "[base_ctr]\nzz = 0.2"), "base_ctr"),
        (lambda s: s.replace("a = 100", "a = 100\nb = 50"), "base_ctr.b: missing"),
        (lambda s: s.replace("specs = relative", "specs = weekly:3"), "unknown estimator"),
        (lambda s: s.replace("specs = relative", "specs = time:abc"), "bad window parameter"),
        (lambda s: s.replace("specs = relative", "specs = time:5 time:9"), "must be unique"),
        (
            lambda s: s.replace("specs = relative", "specs = relative relative:500"),
            "estimators.specs",
        ),
        (
            lambda s: s + "\n[fraud:x]\nkind = scripted\ntarget = a\nstart_ms = 4990\ncount = 5\ninterval_ms = 100\n",
            "beyond horizon_ms",
        ),
        (
            lambda s: s + "\n[fraud:x]\nkind = human\ntarget = a\nstart_ms = 4000\ncount = 50\nmean_gap_ms = 100\ngap_sigma = 0.1\n",
            "fraud:x.start_ms",
        ),
        (
            lambda s: s + "\n[fraud:x]\nkind = slow\ntarget = a\nstart_ms = 0\ncount = 5\n",
            "fraud:x.kind",
        ),
        (
            lambda s: s + "\n[fraud:x]\nkind = scripted\ntarget = q\nstart_ms = 0\ncount = 5\ninterval_ms = 10\n",
            "fraud:x.target",
        ),
        (lambda s: s + "\n[detector]\nmin_run = 2\n", "detector.min_run"),
        (lambda s: s + "\n[detector]\ntolerance_ms = -1\n", "detector.tolerance_ms"),
        (lambda s: s.replace("num_slots = 1", "num_slots = 1\nranking = best"), "auction.ranking"),
        (
            lambda s: s.replace("queries_per_second = 2.0", "queries_per_second = 2.0\nposition_decay = 0"),
            "traffic.position_decay",
        ),
        (lambda s: s.replace("tick_ms = 500", "tick_ms = 500\nfocus = zz"), "scenario.focus"),
        (
            lambda s: s + "\n[fraud:x]\nkind = human\ntarget = a\nstart_ms = 0\ncount = 5\nmean_gap_ms = 0.5\ngap_sigma = 0.1\n",
            "fraud:x.mean_gap_ms",
        ),
        (
            lambda s: s + "\n[fraud:x]\nkind = human\ntarget = a\nstart_ms = 0\ncount = 5\nmean_gap_ms = 100\ngap_sigma = 0.1\nseed = -1\n",
            "fraud:x.seed",
        ),
        (  # the auction section still reports before the estimators
            lambda s: s.replace("num_slots = 1", "num_slots = 0").replace("specs = relative", "specs = time:0"),
            "auction.num_slots: must be >= 1, got 0",
        ),
    ],
)
def test_config_errors_name_the_offending_field(tmp_path, mangle, fragment):
    path = write_ini(tmp_path, mangle(MINIMAL_INI))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert fragment in str(err.value)


_PLAN_VALUES = {"interval_ms": "100", "mean_gap_ms": "100", "gap_sigma": "0.1"}


def _fraud_ini(kind: str, fields: dict) -> str:
    body = "".join(f"{key} = {value}\n" for key, value in fields.items())
    return MINIMAL_INI + f"\n[fraud:x]\nkind = {kind}\ntarget = a\nstart_ms = 0\ncount = 5\n{body}"


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, fields in PLAN_FIELDS.items() for key in fields]
)
def test_each_plan_field_is_required_typed_and_kept_to_its_kind(tmp_path, kind, key):
    good = {k: _PLAN_VALUES[k] for k in PLAN_FIELDS[kind]}
    (other,) = set(PLAN_FIELDS) - {kind}
    other_good = {k: _PLAN_VALUES[k] for k in PLAN_FIELDS[other]}
    what = "an integer" if PLAN_FIELDS[kind][key][0] is int else "a number"
    assert load_config(write_ini(tmp_path, _fraud_ini(kind, good))).fraud_plans[0].kind == kind
    cases = [
        (_fraud_ini(kind, {k: v for k, v in good.items() if k != key}), f"fraud:x.{key}: missing"),
        (_fraud_ini(kind, {**good, key: "lots"}), f"fraud:x.{key}: expected {what}, got 'lots'"),
        (_fraud_ini(other, {**other_good, key: good[key]}), f"fraud:x.{key}: unknown key"),
    ]
    for text, message in cases:
        with pytest.raises(ConfigError) as err:
            load_config(write_ini(tmp_path, text))
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:  # the dataclass reads the same table
        FraudPlan(kind, "a", 0, 5, **{k: float(v) for k, v in good.items() if k != key})
    assert str(err.value) == f"{key}: required by a {kind} plan"


EXAMPLE_INI = Path(__file__).resolve().parent.parent / "scenario.example.ini"


def _example_key_lines() -> list[tuple[str, str, int]]:
    """``(section, key, line index)`` for each ``key = value`` line of the annotated example."""
    section, found = None, []
    for i, line in enumerate(EXAMPLE_INI.read_text().splitlines()):
        if line.startswith("["):
            section = line[1 : line.index("]")]
        elif match := re.match(r"(\w+) *=", line):
            found.append((section, match.group(1), i))
    return found


@pytest.mark.parametrize("value", ["abc", "-1", "nan"])
@pytest.mark.parametrize(
    "section, key, index",
    [pytest.param(*line, id=f"{line[0]}.{line[1]}") for line in _example_key_lines()],
)
def test_a_bad_value_on_any_example_line_is_reported_at_its_key(tmp_path, section, key, index, value):
    # one bad value is named before anything its key decides, such as a fraud kind's other keys
    lines = EXAMPLE_INI.read_text().splitlines()
    lines[index] = f"{key} = {value}"
    with pytest.raises(ConfigError) as err:
        load_config(write_ini(tmp_path, "\n".join(lines) + "\n"))
    assert str(err.value).startswith(f"{section}.{key}: ")


def test_the_example_sets_every_key_the_loader_reads():
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    parser.read(EXAMPLE_INI, encoding="utf-8")
    for section, keys in _KEYS.items():
        if isinstance(keys, dict):
            assert set(parser[section]) == set(keys), section
        else:  # one key per advertiser
            assert parser[section], section
    fraud_keys = {key for name in parser.sections() if name.startswith("fraud:") for key in parser[name]}
    plan_keys = {key for fields in PLAN_FIELDS.values() for key in fields}
    assert fraud_keys == {*_PLAN_KEYS, *plan_keys, "seed"}


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/scenario.ini")


def test_a_config_path_that_cannot_be_opened_says_why(tmp_path, capsys):
    # configparser.read skips a file it cannot open, which read as a missing section
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path)
    assert str(err.value) == f"{tmp_path}: Is a directory"
    assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, key, value",
    [
        pytest.param(line, key, value, id=f"{key}={value}")
        for line, key, value in [
            ("alpha = 0.30", "base_ctr.alpha", "nan"),
            ("queries_per_second = 5.0", "traffic.queries_per_second", "nan"),
            ("queries_per_second = 5.0", "traffic.queries_per_second", "inf"),
            ("default_ctr = 0.1", "scenario.default_ctr", "nan"),
            ("mean_gap_ms = 1500", "fraud:crew.mean_gap_ms", "inf"),
            ("gap_sigma = 0.8", "fraud:crew.gap_sigma", "nan"),
        ]
    ],
)
def test_a_number_that_is_not_finite_is_a_config_error(tmp_path, capsys, example_ini, line, key, value):
    text = example_ini.read_text()
    assert text.count(line) == 1
    path = write_ini(tmp_path, text.replace(line, f"{line.split(' = ')[0]} = {value}"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{key}: must be a finite number, got {value}"
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {key}: must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("qps, tick_ms", [("1e30", 1000), ("1e19", 1000), ("1e20", 100)])
def test_a_rate_too_large_to_draw_is_a_config_error(tmp_path, capsys, example_ini, qps, tick_ms):
    text = example_ini.read_text().replace("queries_per_second = 5.0", f"queries_per_second = {qps}")
    path = write_ini(tmp_path, text.replace("tick_ms = 1000 ", f"tick_ms = {tick_ms} "))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    # the bound is on the whole run, whatever the tick: 60 s of queries, each shown in 2 slots
    bound = MAX_EVENTS * 1000 / 60_000 / 2
    assert str(err.value) == (
        f"traffic.queries_per_second: must be <= {bound:g} ({MAX_EVENTS} impressions in 2 slots), "
        f"got {float(qps)}"
    )
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: traffic.queries_per_second: must be <= " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_poisson_draw_takes_every_tick_mean_the_event_bound_allows():
    # a tick's mean is at most the run's expected impressions, so at most MAX_EVENTS
    np.random.default_rng(0).poisson(MAX_EVENTS)


@pytest.mark.parametrize(
    "at_bound, past, error",
    [
        (
            {"horizon_ms = 60000": f"horizon_ms = {MAX_TICKS * 1000}",
             "queries_per_second = 5.0": "queries_per_second = 0.0"},
            {f"horizon_ms = {MAX_TICKS * 1000}": f"horizon_ms = {MAX_TICKS * 1000 + 1}"},
            f"scenario.horizon_ms: must be <= {MAX_TICKS * 1000}, got {MAX_TICKS * 1000 + 1}",
        ),
        (  # 100 s of queries, each shown in 2 slots
            {"horizon_ms = 60000": "horizon_ms = 100000",
             "queries_per_second = 5.0": f"queries_per_second = {MAX_EVENTS / 200:.1f}"},
            {f"queries_per_second = {MAX_EVENTS / 200:.1f}":
             f"queries_per_second = {math.nextafter(MAX_EVENTS / 200, math.inf)!r}"},
            f"traffic.queries_per_second: must be <= {MAX_EVENTS / 200:g} ({MAX_EVENTS} impressions "
            f"in 2 slots), got {math.nextafter(MAX_EVENTS / 200, math.inf)!r}",
        ),
        (  # clicks 1 ms apart from 20 s, the last one inside the horizon
            {"count = 50": f"count = {MAX_EVENTS}", "interval_ms = 100": "interval_ms = 1",
             "horizon_ms = 60000": f"horizon_ms = {20_000 + MAX_EVENTS}"},
            {f"count = {MAX_EVENTS}": f"count = {MAX_EVENTS + 1}"},
            f"fraud:burst.count: must be <= {MAX_EVENTS}, got {MAX_EVENTS + 1}",
        ),
    ],
    ids=["ticks", "organic", "plan"],
)
def test_a_run_at_its_size_bounds_loads_and_one_step_past_fails(tmp_path, example_ini, at_bound, past, error):
    text = example_ini.read_text()
    for edits in (at_bound, past):
        assert load_config(write_ini(tmp_path, text))
        for old, new in edits.items():
            assert text.count(old) == 1
            text = text.replace(old, new)
    with pytest.raises(ConfigError) as err:
        load_config(write_ini(tmp_path, text))
    assert str(err.value) == error


# ---------------------------------------------------------------------------
# Scenario runs.


def test_simulate_is_deterministic_and_labels_fraud():
    cfg = tiny_config(
        fraud_plans=(
            FraudPlan(kind=SCRIPTED, target="a", start_ms=5_000, count=20, interval_ms=200),
        )
    )
    log = simulate(cfg)
    assert log == simulate(cfg)
    assert log.horizon == cfg.horizon_ms
    fraud_clicks = [
        e for e in log
        if isinstance(e, ClickEvent) and e.source is ClickSource.SCRIPTED_FRAUD
    ]
    assert len(fraud_clicks) == 20
    assert all(c.impression_ref >= FRAUD_QUERY_ID_BASE for c in fraud_clicks)
    organic_imps = [
        e for e in log
        if isinstance(e, ImpressionEvent) and e.query_id < FRAUD_QUERY_ID_BASE
    ]
    assert organic_imps, "organic traffic missing"


def test_simulate_writes_exactly_the_fraud_events():
    cfg = tiny_config(
        fraud_plans=(
            FraudPlan(kind=SCRIPTED, target="a", start_ms=5_000, count=20, interval_ms=200),
            FraudPlan(
                kind=HUMAN, target="b", start_ms=1_000, count=30,
                mean_gap_ms=300.0, gap_sigma=0.4, seed=3,
            ),
        )
    )

    def query_id(e):
        return e.query_id if isinstance(e, ImpressionEvent) else e.impression_ref

    fraud = [e for e in simulate(cfg) if query_id(e) >= FRAUD_QUERY_ID_BASE]
    assert [row_of(e) for e in fraud] == list(fraud_events(cfg.fraud_plans, cfg.horizon_ms))


def test_simulate_tallies_the_cohort_once_per_tick(monkeypatch):
    calls = []
    tally = RelativeCtr.tally

    def counted(self, now):
        calls.append(now)
        return tally(self, now)

    monkeypatch.setattr(RelativeCtr, "tally", counted)
    cfg = tiny_config(
        tick_ms=250,
        bids={"a": 1000, "b": 300, "c": 500},
        traffic=TrafficConfig(1.0, {"a": 0.3, "b": 0.2, "c": 0.1}),
    )
    log = simulate(cfg)
    # the auction runs, and so ranks on a tally, only on a tick that draws a
    # query: every query shows slot 1, so the ticks with queries are those
    # holding organic impressions
    query_ticks = sorted({
        e.t - e.t % cfg.tick_ms
        for e in log
        if isinstance(e, ImpressionEvent) and e.query_id < FRAUD_QUERY_ID_BASE
    })
    assert calls == query_ticks
    assert 0 < len(query_ticks) < cfg.horizon_ms // cfg.tick_ms  # some tick draws none


@pytest.mark.parametrize("interval", [None, 1_500])
def test_simulate_feeds_the_primary_every_row_in_log_order(interval, monkeypatch):
    observed = []
    observe = RelativeCtr.observe

    def spy(self, *row):
        observed.append(row)
        return observe(self, *row)

    cfg = tiny_config(
        estimators=(WindowSpec("relative", interval),),
        fraud_plans=(FraudPlan(kind=SCRIPTED, target="a", start_ms=5_000, count=20, interval_ms=200),),
    )
    want, _ = simulate_every_tick(cfg)  # feeds the primary every event
    monkeypatch.setattr(RelativeCtr, "observe", spy)
    log = simulate(cfg)
    # the tally is handed each row as the log takes it, and passes over impressions
    assert observed == list(log.records())
    assert observed and list(log) == want


PRIMARY_KINDS = (
    WindowSpec("relative"),
    WindowSpec("relative", 40),
    WindowSpec("relative", 1_500),
    WindowSpec("time", 2_000),
    WindowSpec("impressions", 20),
    WindowSpec("clicks", 5),
)


@pytest.mark.parametrize("tick_ms", [50, 250, 1_000])
@pytest.mark.parametrize("qps", [0.3, 3.0, 30.0])
@pytest.mark.parametrize(
    "primary", PRIMARY_KINDS, ids=lambda spec: f"{spec.kind}:{spec.param}"
)
def test_simulate_equals_the_auction_run_on_every_tick(primary, qps, tick_ms, monkeypatch):
    ranked = []

    def counted(*args):
        ranked.append(args)
        return rank(*args)

    monkeypatch.setattr(adsim.bench, "rank", counted)
    for seed in (1, 2, 3):
        cfg = tiny_config(
            seed=seed,
            tick_ms=tick_ms,
            # "e" bids nothing, so it ranks last and never takes one of the 3 slots
            bids={"a": 400, "b": 500, "c": 600, "d": 900, "e": 0},
            auction=AuctionConfig(3, ranking=BY_CTR_WEIGHTED),
            traffic=TrafficConfig(qps, {"a": 0.5, "b": 0.35, "c": 0.3, "d": 0.1, "e": 0.2}),
            estimators=(primary,),
            fraud_plans=(
                FraudPlan(kind=SCRIPTED, target="a", start_ms=3_000, count=25, interval_ms=150),
                FraudPlan(
                    kind=HUMAN, target="c", start_ms=1_000, count=15,
                    mean_gap_ms=300.0, gap_sigma=0.5, seed=seed,
                ),
            ),
        )
        ranked.clear()
        want, query_ticks = simulate_every_tick(cfg)
        log = simulate(cfg)
        assert list(log) == want
        # rank runs on a query tick only when its CTR map differs from the last auction's
        assert [ctrs for _, ctrs, _ in ranked] == [k for k, _ in groupby(query_ticks.values())]
        assert "e" not in {row[1] for row in log.records()}
        if qps * tick_ms < 1_000:  # under one query per tick on average
            assert len(query_ticks) < cfg.horizon_ms // tick_ms  # so ticks are skipped
        if (primary, qps, tick_ms, seed) == (WindowSpec("relative", 40), 0.3, 50, 1):
            assert (len(query_ticks), len(ranked)) == (5, 1)  # the kept allocation is reused


def test_series_rows_are_cumulative_and_cover_every_tick():
    cfg = tiny_config()
    result = run_scenario(cfg)
    assert len(result.rows) == cfg.horizon_ms // cfg.tick_ms
    assert [r.time_index for r in rows(result.rows)] == list(range(1, 21))
    for prev, cur in zip(rows(result.rows), rows(result.rows)[1:]):
        assert cur.impressions >= prev.impressions
        assert cur.clicks >= prev.clicks
        assert cur.total_clicks >= prev.total_clicks
    last = rows(result.rows)[-1]
    assert set(last.ctr) == {"ctr_relative", "ctr_time"}
    # cumulative counts agree with the log itself
    assert last.clicks == sum(
        1 for e in result.log if isinstance(e, ClickEvent) and e.advertiser == "a"
    )
    assert last.total_clicks == len(
        [e for e in result.log if isinstance(e, ClickEvent)]
    )
    assert last.impressions == sum(
        1 for e in result.log
        if isinstance(e, ImpressionEvent) and e.advertiser == "a"
    )


def test_build_series_hand_checked():
    events = [
        ImpressionEvent(100, "a", 1, 0),
        ClickEvent(100, "a", 1, 0, None),
        ImpressionEvent(1_200, "a", 1, 1),
        ImpressionEvent(2_500, "a", 1, 2),
        ClickEvent(2_500, "a", 1, 2, None),
        ImpressionEvent(2_500, "b", 2, 2),
        ClickEvent(2_500, "b", 2, 2, None),
    ]
    log = log_of(events, 3_000)
    series = rows(build_series(log, "a", (WindowSpec("relative"),), 1_000))
    assert [(r.impressions, r.clicks, r.total_clicks) for r in series] == [
        (1, 1, 1),
        (2, 1, 1),
        (3, 2, 3),
    ]
    assert series[0].ctr["ctr_relative"] == 1.0
    assert series[2].ctr["ctr_relative"] == pytest.approx(2 / 3)


def test_build_series_orders_columns_canonically():
    log = log_of([ImpressionEvent(0, "a", 1, 0)], 1_000)
    series = build_series(
        log,
        "a",
        (WindowSpec("relative"), WindowSpec("clicks", 3), WindowSpec("time", 100)),
        1_000,
    )
    assert list(rows(series)[0].ctr) == ["ctr_time", "ctr_click", "ctr_relative"]


def test_build_series_rejects_duplicate_kinds():
    log = log_of([ImpressionEvent(0, "alpha", 1, 0)], 3_000)
    specs = [WindowSpec("time", 1_000), WindowSpec("time", 30_000)]
    with pytest.raises(ValueError, match="estimator kinds must be unique"):
        build_series(log, "alpha", specs, 1_000)


@pytest.mark.parametrize("tick_ms", [0, -1_000])
def test_build_series_rejects_a_tick_below_one_ms(tick_ms):
    log = log_of([ImpressionEvent(0, "alpha", 1, 0)], 3_000)
    with pytest.raises(ValueError) as err:
        build_series(log, "alpha", [WindowSpec("relative")], tick_ms)
    assert str(err.value) == f"tick_ms: must be >= 1, got {tick_ms}"


def test_build_series_holds_the_log_to_max_ticks(monkeypatch):
    # a library caller gets the bound that load_config and adsim replay apply
    monkeypatch.setattr(adsim.bench, "MAX_TICKS", 10)
    log = log_of([ImpressionEvent(0, "alpha", 1, 0)], 50)
    with pytest.raises(ValueError, match=r"^tick_ms: must be >= 5, got 1$"):
        build_series(log, "alpha", [WindowSpec("relative")], 1)
    assert len(build_series(log, "alpha", [WindowSpec("relative")], 5)) == 10


def _build_series_peak(impressions: int) -> int:
    """``build_series``' traced peak with a ``clicks:10`` column on a log of
    ``impressions`` impressions of ``a`` over 100 ticks, with the same 200
    clicks at the same times whatever ``impressions`` is."""
    events = [ImpressionEvent(i * 10_000 // impressions, "a", 1, i) for i in range(impressions)]
    events += [ClickEvent(k * 50 + 1, "a", 1, k * impressions // 200, None) for k in range(200)]
    log = log_of(events, 10_000)
    tracemalloc.start()
    build_series(log, "a", [WindowSpec("clicks", 10)], 100)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_build_series_click_column_does_not_grow_with_unclicked_impressions():
    # the click fold keeps an ordinal only for impressions a kept click names; the
    # plain fold's one per impression would add about 1.1 MB here
    small = _build_series_peak(2_000)  # first, so caches that any first run fills count against it
    assert _build_series_peak(20_000) - small < 100_000


def _empty_ticks_peak(ticks: int) -> int:
    """``build_series``' traced peak, its result included, with all four kinds over
    ``ticks`` ticks of 100 ms that hold one focus impression, at t=0, between them."""
    log = log_of([ImpressionEvent(0, "a", 1, 0)], ticks * 100)
    specs = [WindowSpec(kind, 1_000 if kind == "time" else None if kind == "relative" else 5)
             for kind in ESTIMATOR_KINDS]
    tracemalloc.start()
    series = build_series(log, "a", specs, 100)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(series) == ticks
    return peak


def test_an_empty_tick_adds_at_most_100_bytes_to_the_series():
    # seven columns of one list slot each take about 63 B a tick with the lists'
    # spare room; a row object with its own rate dict took 337 B
    small = _empty_ticks_peak(20_000)  # first, so caches that any first run fills count against it
    assert (_empty_ticks_peak(80_000) - small) / 60_000 <= 100


def test_build_series_exclude_drops_clicks_from_counts_and_estimates():
    events = [
        ImpressionEvent(100, "a", 1, 0),
        ClickEvent(100, "a", 1, 0, None),
        ImpressionEvent(200, "a", 1, 1),
        ClickEvent(200, "a", 1, 1, None),
    ]
    log = log_of(events, 1_000)
    first = rows(build_series(
        log, "a", (WindowSpec("relative"),), 1_000, exclude={("a", 1)}
    ))[0]
    assert first.clicks == 1
    assert first.total_clicks == 1
    assert first.impressions == 2


def series_brute(log, focus, specs, tick_ms, exclude) -> list[tuple]:
    """``build_series``'s rows as tuples, from the brute-force oracles run on
    the log with the excluded clicks taken out."""
    kept = list(log_of(  # one object view for every tick's scans
        [e for e in log if not isinstance(e, ClickEvent)
         or (e.advertiser, e.impression_ref) not in exclude],
        log.horizon,
    ))
    windowed = {"time": time_window_brute, "impressions": impression_window_brute,
                "clicks": click_window_brute}
    rows = []
    for time_index, tick_start in enumerate(range(0, log.horizon, tick_ms), start=1):
        now = min(tick_start + tick_ms, log.horizon)
        seen = [e for e in kept if e.t < now]
        ctr = {}
        for spec in specs:
            if spec.kind == "relative":
                counts = relative_brute(kept, spec.param, now)
                total = sum(counts.values())
                ctr[spec.label] = counts.get(focus, 0) / total if total else None
            else:
                defined, c, d = windowed[spec.kind](kept, focus, spec.param, now)
                ctr[spec.label] = c / d if defined else None
        rows.append((
            time_index,
            sum(isinstance(e, ImpressionEvent) and e.advertiser == focus for e in seen),
            sum(isinstance(e, ClickEvent) and e.advertiser == focus for e in seen),
            sum(isinstance(e, ClickEvent) for e in seen),
            ctr,
        ))
    return rows


def check_series_against_the_oracles(seed, focus, excluding, max_queries, ticks_ms, at_edges=False):
    """``build_series`` against ``series_brute`` on a drawn log, windows, exclusions
    and tick. ``at_edges`` draws the tick first, then time and relative windows of
    one or two ticks or a fraction of one, and draws the log's times from each
    tick's end less each window and a millisecond either side of that."""
    rng = random.Random(seed)
    times = ()
    if at_edges:
        tick_ms = rng.choice(ticks_ms)
        time_ms, relative_ms = (rng.choice([tick_ms, 2 * tick_ms, tick_ms // 5, tick_ms // 2]) for _ in "tr")
        ends = range(tick_ms, 10_000 + tick_ms, tick_ms)  # random_log's horizon, 10 s, ends the last
        times = sorted({t for end in ends for window in (time_ms, relative_ms) for d in (-1, 0, 1)
                        if 0 <= (t := min(end, 10_000) - window + d) < 10_000})
    log = random_log(seed, max_queries=rng.choice(max_queries), times=times)
    specs = (
        WindowSpec("time", time_ms if at_edges else rng.randint(1, 4_000)),
        WindowSpec("impressions", rng.randint(1, 12)),
        WindowSpec("clicks", rng.randint(1, 6)),
        WindowSpec("relative", relative_ms if at_edges else rng.choice([None, rng.randint(1, 3_000)])),
    )
    clicks = [(e.advertiser, e.impression_ref) for e in log if isinstance(e, ClickEvent)]
    exclude = {key for key in clicks if rng.random() < 0.3} if excluding else set()
    if not at_edges:
        tick_ms = rng.choice(ticks_ms)
    series = build_series(log, focus, specs, tick_ms, exclude or None)
    got = [(r.time_index, r.impressions, r.clicks, r.total_clicks, dict(r.ctr)) for r in rows(series)]
    assert got == series_brute(log, focus, specs, tick_ms, exclude)
    # an unchanged rate is the same float, which the emitters format once
    for rates in series.ctr.values():
        assert all(a is b for a, b in zip(rates, rates[1:]) if a == b)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("focus", ["a", "nobody"])
@pytest.mark.parametrize("excluding", [False, True], ids=["all_clicks", "exclude"])
def test_build_series_matches_the_oracles(seed, focus, excluding):
    check_series_against_the_oracles(seed, focus, excluding, [40, 150], [300, 700, 2_500, 10_000])


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("focus", ["a", "nobody"])
@pytest.mark.parametrize("excluding", [False, True], ids=["all_clicks", "exclude"])
def test_build_series_matches_the_oracles_on_short_ticks_of_a_sparse_log(seed, focus, excluding):
    # most ticks get no focus row or no click, so most columns reuse the last tick's rate
    check_series_against_the_oracles(seed, focus, excluding, [40], [50, 100])


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("focus", ["a", "nobody"])
@pytest.mark.parametrize("excluding", [False, True], ids=["all_clicks", "exclude"])
def test_build_series_matches_the_oracles_at_a_windows_edge(seed, focus, excluding):
    # the folds drop a row at t < now - window, so a time column read past its edge
    # a tick late would repeat a stale rate; a sparse log moves few keys to hide that
    check_series_against_the_oracles(seed, focus, excluding, [20, 40], [50, 100, 300], at_edges=True)


def test_drop_flagged_removes_scripted_clicks_from_the_series():
    cfg = tiny_config(
        fraud_plans=(
            FraudPlan(kind=SCRIPTED, target="a", start_ms=5_000, count=30, interval_ms=100),
        )
    )
    kept = run_scenario(cfg, drop_flagged=False)
    dropped = run_scenario(cfg, drop_flagged=True)
    assert kept.flags and kept.flags == dropped.flags
    flagged_for_focus = {
        ref
        for f in kept.flags
        if f.advertiser == "a"
        for ref in f.flagged_click_ids
    }
    # organic clicks of the same advertiser can split the run and shield its
    # edges, so the flag set is large but not necessarily the whole injection
    assert rows(kept.rows)[-1].clicks - rows(dropped.rows)[-1].clicks == len(flagged_for_focus)
    assert len(flagged_for_focus) >= 20
    assert rows(dropped.rows)[-1].impressions == rows(kept.rows)[-1].impressions


def test_flags_found_by_run_scenario_cover_the_injection():
    # the target draws no organic clicks, so the injected run survives intact
    cfg = tiny_config(
        traffic=TrafficConfig(4.0, {"a": 0.3, "b": 0.0}),
        fraud_plans=(
            FraudPlan(kind=SCRIPTED, target="b", start_ms=2_000, count=25, interval_ms=300),
        ),
    )
    result = run_scenario(cfg)
    fraud_refs = {
        e.impression_ref
        for e in result.log
        if isinstance(e, ClickEvent) and e.source is ClickSource.SCRIPTED_FRAUD
    }
    flagged = {
        ref
        for f in result.flags
        if f.advertiser == "b"
        for ref in f.flagged_click_ids
    }
    assert flagged == fraud_refs


# ---------------------------------------------------------------------------
# Emitters.


def sample_series():
    return Series([10, 30], [2, 6], [5, 12], {"ctr_time": [None, 0.2], "ctr_relative": [0.4, 0.5]})


def test_emit_csv_layout(tmp_path):
    path = tmp_path / "series.csv"
    emit_csv(sample_series(), path)
    text = path.read_text()
    assert text == (
        "time,impressions,clicks,total_clicks,ctr_time,ctr_relative\n"
        "1,10,2,5,,0.4000\n"
        "2,30,6,12,0.2000,0.5000\n"
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "impressions", "clicks", "total_clicks", "ctr_time", "ctr_relative"]
    assert rows[1][4] == ""


def test_emit_csv_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(sample_series(), a)
    emit_csv(sample_series(), b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_plot_draws_one_polyline_per_column(tmp_path):
    path = tmp_path / "series.svg"
    emit_plot(sample_series(), path, title="demo")
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    # the undefined first tick is simply absent from the polyline
    pts = polylines[0].attrib["points"].split()
    assert len(pts) == 1
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "ctr_time" in texts and "ctr_relative" in texts and "demo" in texts


def test_a_series_checks_its_counts_and_column_lengths_when_built():
    series = sample_series()
    assert len(series) == 2
    assert series == sample_series() and series != Series([], [], [], {})
    assert (series == rows(series)) is False  # a series equals a series, not a list
    with pytest.raises(ValueError, match="^impressions: must be >= 0, got -1$"):
        Series([-1], [0], [0], {})
    with pytest.raises(ValueError, match="^series columns differ in length$"):
        Series([1, 2], [0, 0], [0, 0], {"ctr_time": [None]})
    with pytest.raises(TypeError):  # columns, not rows
        series[0]
    with pytest.raises(TypeError):
        iter(series)
