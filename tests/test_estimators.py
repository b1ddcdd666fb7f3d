from __future__ import annotations

import random
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsim.bench import parse_spec
from adsim.core import ClickEvent, EventLog, ImpressionEvent
from adsim.estimators import (
    ESTIMATOR_KINDS,
    ClickWindowCtr,
    CtrEstimate,
    ImpressionWindowCtr,
    RelativeCtr,
    TimeWindowCtr,
    WindowSpec,
    ctr_legacy,
    ctr_relative,
)
from helpers import estimate_at, log_of, row_of
from oracles import (
    click_window_brute,
    est_counts,
    impression_window_brute,
    random_log,
    relative_brute,
    time_window_brute,
)


def imp(t, adv="a", qid=0):
    return ImpressionEvent(t, adv, 1, qid)


def clk(t, adv="a", ref=0):
    return ClickEvent(t, adv, 1, ref)


def small_log() -> EventLog:
    """Impressions for a at t=0,10,20,30; clicks on qids 0 and 2."""
    events = [
        imp(0, qid=0),
        clk(0, ref=0),
        imp(10, qid=1),
        imp(20, qid=2),
        clk(20, ref=2),
        imp(30, qid=3),
        imp(30, "b", qid=3),
    ]
    return log_of(events, 100)


# ---------------------------------------------------------------------------
# CtrEstimate.


def test_estimate_value_must_match_counts():
    with pytest.raises(ValueError):
        CtrEstimate(-1, 1)
    with pytest.raises(ValueError):
        CtrEstimate(0, -1)
    assert CtrEstimate(1, 4).value == 0.25 and CtrEstimate(1, 4).defined
    assert CtrEstimate(0, 3).defined and CtrEstimate(0, 3).value == 0.0
    undefined = CtrEstimate(0, 0)
    assert not undefined.defined and undefined.value == 0.0


# ---------------------------------------------------------------------------
# WindowSpec.


def test_spec_labels_and_dispatch():
    cases = [
        (WindowSpec("time", 500), "ctr_time", TimeWindowCtr),
        (WindowSpec("impressions", 10), "ctr_impr", ImpressionWindowCtr),
        (WindowSpec("clicks", 3), "ctr_click", ClickWindowCtr),
        (WindowSpec("relative"), "ctr_relative", RelativeCtr),
    ]
    for spec, label, cls in cases:
        assert spec.label == label
        assert ESTIMATOR_KINDS[spec.kind] == (label, cls)
    assert list(ESTIMATOR_KINDS) == [spec.kind for spec, _, _ in cases]  # column order
    assert WindowSpec("relative", 2_000).param == 2_000


def test_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec("bogus", 1)
    with pytest.raises(ValueError):
        WindowSpec("time", 0)
    with pytest.raises(ValueError):
        WindowSpec("impressions", 0)
    with pytest.raises(ValueError):
        WindowSpec("clicks", 0)
    with pytest.raises(ValueError):
        WindowSpec("relative", 0)


@pytest.mark.parametrize(
    "fold, field",
    [
        (TimeWindowCtr, "window_ms"),
        (ImpressionWindowCtr, "size"),
        (ClickWindowCtr, "size"),
        (RelativeCtr, "interval_ms"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else f"{v} must be >= 1",
)
def test_a_fold_rejects_a_window_below_one(fold, field):
    with pytest.raises(ValueError) as err:
        fold(0)
    assert str(err.value) == f"{field}: must be >= 1, got 0"
    if fold is not RelativeCtr:  # a missing interval is RelativeCtr's cumulative mode
        with pytest.raises(ValueError) as err:
            fold(None)
        assert str(err.value) == f"{field}: must be a number, got None"


# ---------------------------------------------------------------------------
# Time window: [now - T, now), both numerator and denominator.


def test_time_window_half_open_bounds():
    log = small_log()
    # now=20: the click at t=20 is outside, the one at t=0 sits on the closed edge
    assert est_counts(estimate_at("time", log, "a", 20, 20)) == (True, 1, 2)
    assert est_counts(estimate_at("time", log, "a", 21, 21)) == (True, 2, 3)
    assert est_counts(estimate_at("time", log, "a", 5, 100)) == (False, 0, 0)
    assert est_counts(estimate_at("time", log, "a", 1_000, 31)) == (True, 2, 4)


def test_time_window_cold_start():
    assert not estimate_at("time", EventLog(10), "a", 5, 1).defined


# ---------------------------------------------------------------------------
# Impression window: last N impressions fed before now.


def test_impression_window_counts_only_window_members():
    log = small_log()
    # last 2 impressions of a before now=31: qids 2 and 3; only qid 2 was clicked
    assert est_counts(estimate_at("impressions", log, "a", 2, 31)) == (True, 1, 2)
    # a window of 1 holds qid 3, which was never clicked
    assert est_counts(estimate_at("impressions", log, "a", 1, 31)) == (True, 0, 1)
    # wide window sees both clicks
    assert est_counts(estimate_at("impressions", log, "a", 50, 31)) == (True, 2, 4)
    assert not estimate_at("impressions", log, "a", 3, 0).defined


def test_impression_window_counts_the_events_before_now():
    log = small_log()
    # the impression and click at t=20 are fed for now=21, not for now=20
    assert est_counts(estimate_at("impressions", log, "a", 4, 20)) == (True, 1, 2)
    assert est_counts(estimate_at("impressions", log, "a", 4, 21)) == (True, 2, 3)


def test_click_on_evicted_impression_does_not_count():
    events = [imp(0, qid=0), imp(1, qid=1), imp(2, qid=2), clk(3, ref=0)]
    # by t=3 the window of size 2 holds qids 1 and 2; the click hit qid 0
    fold = ImpressionWindowCtr(2)
    for e in sorted(events, key=lambda e: e.t):
        fold.observe(*row_of(e))
    assert est_counts(fold.estimate(4)) == (True, 0, 2)


# ---------------------------------------------------------------------------
# Click window: last N clicks over impressions since the N-th last click.


def test_click_window_frozen_case():
    events = [imp(i * 10, qid=i) for i in range(6)]
    events += [clk(10, ref=1), clk(30, ref=3), clk(50, ref=5)]
    log = log_of(events, 100)
    # last 2 clicks hit qids 3 and 5; impressions since qid 3: qids 3, 4, 5
    assert est_counts(estimate_at("clicks", log, "a", 2, 51)) == (True, 2, 3)
    # all 3 clicks; impressions since qid 1: five of them
    assert est_counts(estimate_at("clicks", log, "a", 3, 51)) == (True, 3, 5)
    # needs the full complement of clicks
    assert not estimate_at("clicks", log, "a", 4, 51).defined


def test_click_window_shrinks_as_clicks_bunch_up():
    events = [imp(i, qid=i) for i in range(10)]
    events += [clk(8, ref=8), clk(9, ref=9)]
    log = log_of(events, 100)
    assert estimate_at("clicks", log, "a", 2, 10).value == 1.0


# ---------------------------------------------------------------------------
# Relative share of the cohort's clicks.


def test_relative_from_tally():
    tally = {"a": 2, "b": 20}
    total = sum(tally.values())
    assert ctr_relative(tally["a"], total) == CtrEstimate(2, 22)
    assert ctr_relative(tally["b"], total).value == pytest.approx(20 / 22)
    absent = ctr_relative(tally.get("zzz", 0), total)
    assert absent.defined and absent.value == 0.0
    assert not ctr_relative(0, 0).defined
    with pytest.raises(ValueError):
        ctr_relative(3, 2)


def test_relative_cumulative_counts_everything_before_now():
    fold = RelativeCtr()
    for e in small_log():
        fold.observe(*row_of(e))
    assert fold.tally(31) == {"a": 2}
    assert fold.estimate("a", 31).value == 1.0
    # a click exactly at now belongs to the next tick, so it is not fed yet
    fold2 = RelativeCtr()
    for e in small_log():
        if e.t < 20:
            fold2.observe(*row_of(e))
    assert fold2.tally(20) == {"a": 1}


def test_relative_interval_mode_slides():
    fold = RelativeCtr(interval_ms=15)
    for e in small_log():
        fold.observe(*row_of(e))
    assert fold.tally(31) == {"a": 1}  # [16, 31) holds only t=20
    assert fold.tally(40) == {}


def test_relative_shares_sum_to_one_on_random_logs():
    for seed in range(5):
        log = random_log(seed)
        fold = RelativeCtr()
        for e in log:
            fold.observe(*row_of(e))
        counts = fold.tally(10_000)
        if not counts:
            continue
        shares = sum(fold.estimate(a, 10_000).value for a in counts)
        assert shares == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Legacy click-count correction.


def test_legacy_ctr_frozen_values():
    assert ctr_legacy(2, 16) == pytest.approx(2 / 18)
    assert ctr_legacy(18, 52) == pytest.approx(18 / 70)
    assert ctr_legacy(48, 112) == pytest.approx(0.3)


def test_legacy_ctr_errors():
    with pytest.raises(ZeroDivisionError):
        ctr_legacy(0, 0)
    with pytest.raises(ValueError):
        ctr_legacy(-1, 10)
    with pytest.raises(ValueError):
        ctr_legacy(1, -10)


# ---------------------------------------------------------------------------
# Streaming folds agree with brute-force re-scans, including when one fold
# serves many monotone estimate() calls (the scenario loop's usage).


BRUTES = {
    "time": time_window_brute,
    "impressions": impression_window_brute,
    "clicks": click_window_brute,
}


@pytest.mark.parametrize("kind", sorted(BRUTES))
@given(seed=st.integers(0, 10**9), param=st.integers(1, 40), now=st.integers(0, 12_000))
@settings(max_examples=60, deadline=None)
def test_single_shot_matches_oracle(kind, seed, param, now):
    events = list(random_log(seed))
    for adv in ("a", "c"):
        est = estimate_at(kind, events, adv, param, now)
        assert est_counts(est) == BRUTES[kind](events, adv, param, now)


@pytest.mark.parametrize("kind, drop", [
    *(pytest.param(kind, None, id=kind) for kind in sorted(BRUTES)),
    # a click fold given the advertiser's clicked ids, as build_series builds it, fed
    # every click or with some dropped, whose ids the set still names
    pytest.param("clicks", 0.0, id="clicks-given-clicked"),
    pytest.param("clicks", 0.3, id="clicks-given-clicked-dropped"),
])
def test_incremental_estimates_match_oracle(kind, drop):
    for seed in range(25):
        snapshot = list(random_log(seed + 500))  # one object view for every checkpoint
        param = (seed % 13) + 1
        if drop is None:
            fold = ESTIMATOR_KINDS[kind][1](param)
        else:
            clicked = {e.impression_ref for e in snapshot
                       if isinstance(e, ClickEvent) and e.advertiser == "b"}
            fold = ClickWindowCtr(param, clicked)
            rng = random.Random(seed)
            snapshot = [e for e in snapshot if not isinstance(e, ClickEvent) or rng.random() >= drop]
        # every event's own time and the time its window edge reaches it
        checkpoints = {(seed * 37 + k * 997) % 11_000 for k in range(8)}
        checkpoints |= {e.t + d for e in snapshot for d in (0, param)}
        idx = 0
        events = [e for e in snapshot if e.advertiser == "b"]
        for now in sorted(checkpoints):
            while idx < len(events) and events[idx].t < now:
                fold.observe(*row_of(events[idx]))
                idx += 1
            assert est_counts(fold.estimate(now)) == BRUTES[kind](snapshot, "b", param, now)


@pytest.mark.parametrize("interval", [None, 1_500, 40])
def test_relative_matches_oracle(interval):
    for seed in range(25):
        events = list(random_log(seed + 900))  # one object view for every checkpoint
        fold = RelativeCtr(interval_ms=interval)
        checkpoints = {(seed * 53 + k * 887) % 11_000 for k in range(8)}
        # every event's own time and the time the sliding edge reaches it
        checkpoints |= {e.t + d for e in events for d in (0, interval or 0)}
        idx = 0
        for now in sorted(checkpoints):
            while idx < len(events) and events[idx].t < now:
                fold.observe(*row_of(events[idx]))
                idx += 1
            assert fold.tally(now) == relative_brute(events, interval, now)


_STATE_SPECS = [
    "relative",
    "relative:1000",
    "time:1000",
    "impressions:100",
    pytest.param(
        "clicks:10",
        marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 5: ClickWindowCtr._imp_pos keeps every impression",
        ),
    ),
]


def _retained_bytes(spec: str, run_ms: int, rates_every: int | None) -> int:
    """Bytes the folds of one kind keep after one impression and one click
    per ms over ``run_ms``, fed as ``simulate`` feeds them (one fold per
    advertiser, or one ``RelativeCtr`` for the cohort), with an estimate for
    each advertiser every ``rates_every`` ms and once at the end, or, given
    None, never."""
    spec = parse_spec(spec, "spec")
    if spec.kind == "relative":  # one tally takes every row and answers for each advertiser
        shared = RelativeCtr(spec.param)
        folds = dict.fromkeys("abc", shared)
        estimates = [partial(shared.estimate, adv) for adv in "abc"]
    else:
        folds = {adv: ESTIMATOR_KINDS[spec.kind][1](spec.param) for adv in "abc"}
        estimates = [fold.estimate for fold in folds.values()]
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    for t in range(run_ms):
        if rates_every and t % rates_every == 0:
            for estimate in estimates:
                estimate(t)
        adv = "abc"[t % 3]
        folds[adv].observe(*row_of(imp(t, adv, t)))
        folds[adv].observe(*row_of(clk(t, adv, t)))
    if rates_every:
        for estimate in estimates:
            estimate(run_ms)
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return after - before


@pytest.mark.parametrize("spec", _STATE_SPECS)
def test_estimator_state_does_not_grow_with_the_run(spec):
    # the short run first, so caches that any first run fills count against it
    short = _retained_bytes(spec, 3_000, 100)
    assert _retained_bytes(spec, 30_000, 100) - short < 10_000


@pytest.mark.parametrize("spec", _STATE_SPECS)
def test_estimator_state_does_not_grow_between_queries(spec):
    # as in simulate, where ticks without a query take no rates: each window
    # must drop what it no longer covers as it is fed, not only when queried
    short = _retained_bytes(spec, 3_000, None)
    assert _retained_bytes(spec, 30_000, None) - short < 10_000


@given(seed=st.integers(0, 10**9), param=st.integers(1, 30), now=st.integers(0, 12_000))
@settings(max_examples=60, deadline=None)
def test_estimates_are_valid_rates(seed, param, now):
    log = random_log(seed)
    for kind in ("time", "impressions", "clicks"):
        est = estimate_at(kind, log, "a", param, now)
        if est.defined:
            assert 0.0 <= est.value <= 1.0
            assert est.value == est.clicks_in_window / est.denominator
