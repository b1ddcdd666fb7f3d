from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adsim.core import ClickEvent, ClickTally, EventLog, ImpressionEvent
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
from helpers import estimate_at
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
    return EventLog.from_events(events, 100)


# ---------------------------------------------------------------------------
# CtrEstimate.


def test_estimate_value_must_match_counts():
    with pytest.raises(ValueError):
        CtrEstimate(0.5, 1, 3, True)
    with pytest.raises(ValueError):
        CtrEstimate(0.0, 0, 0, True)
    with pytest.raises(ValueError):
        CtrEstimate(0.0, -1, 1, False)
    assert CtrEstimate.ratio(1, 4).value == 0.25
    assert not CtrEstimate.undefined().defined


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


def test_time_window_ignores_other_advertisers():
    est = estimate_at("time", small_log(), "b", 1_000, 31)
    assert est_counts(est) == (True, 0, 1)


# ---------------------------------------------------------------------------
# Impression window: last N impressions at or before now.


def test_impression_window_counts_only_window_members():
    log = small_log()
    # last 2 impressions of a at now=30: qids 2 and 3; only qid 2 was clicked
    assert est_counts(estimate_at("impressions", log, "a", 2, 30)) == (True, 1, 2)
    # a window of 1 holds qid 3, which was never clicked
    assert est_counts(estimate_at("impressions", log, "a", 1, 30)) == (True, 0, 1)
    # wide window sees both clicks
    assert est_counts(estimate_at("impressions", log, "a", 50, 30)) == (True, 2, 4)
    assert not estimate_at("impressions", log, "a", 3, -1).defined


def test_impression_window_is_inclusive_at_now():
    log = small_log()
    assert est_counts(estimate_at("impressions", log, "a", 4, 20)) == (True, 2, 3)


def test_click_on_evicted_impression_does_not_count():
    events = [imp(0, qid=0), imp(1, qid=1), imp(2, qid=2), clk(3, ref=0)]
    # by t=3 the window of size 2 holds qids 1 and 2; the click hit qid 0
    fold = ImpressionWindowCtr("a", 2)
    for e in sorted(events, key=lambda e: e.t):
        fold.observe(e)
    assert est_counts(fold.estimate(3)) == (True, 0, 2)


# ---------------------------------------------------------------------------
# Click window: last N clicks over impressions since the N-th last click.


def test_click_window_frozen_case():
    events = [imp(i * 10, qid=i) for i in range(6)]
    events += [clk(10, ref=1), clk(30, ref=3), clk(50, ref=5)]
    log = EventLog.from_events(events, 100)
    # last 2 clicks hit qids 3 and 5; impressions since qid 3: qids 3, 4, 5
    assert est_counts(estimate_at("clicks", log, "a", 2, 50)) == (True, 2, 3)
    # all 3 clicks; impressions since qid 1: five of them
    assert est_counts(estimate_at("clicks", log, "a", 3, 50)) == (True, 3, 5)
    # needs the full complement of clicks
    assert not estimate_at("clicks", log, "a", 4, 50).defined


def test_click_window_shrinks_as_clicks_bunch_up():
    events = [imp(i, qid=i) for i in range(10)]
    events += [clk(8, ref=8), clk(9, ref=9)]
    log = EventLog.from_events(events, 100)
    assert estimate_at("clicks", log, "a", 2, 9).value == 1.0


# ---------------------------------------------------------------------------
# Relative share of the cohort's clicks.


def test_relative_from_tally():
    t = ClickTally({"a": 2, "b": 20}, 22, (0, 1_000))
    assert ctr_relative(t, "a").value == pytest.approx(2 / 22)
    assert ctr_relative(t, "b").value == pytest.approx(20 / 22)
    absent = ctr_relative(t, "zzz")
    assert absent.defined and absent.value == 0.0
    assert not ctr_relative(ClickTally({}, 0, (0, 1)), "a").defined


def test_relative_cumulative_counts_everything_before_now():
    fold = RelativeCtr()
    for e in small_log():
        fold.observe(e)
    tally = fold.tally(31)
    assert tally.per_advertiser == {"a": 2}
    assert tally.window == (0, 31)
    assert fold.estimate("a", 31).value == 1.0
    # a click exactly at now belongs to the next tick
    fold2 = RelativeCtr()
    for e in small_log():
        fold2.observe(e)
    assert fold2.tally(20).per_advertiser == {"a": 1}


def test_relative_interval_mode_slides():
    fold = RelativeCtr(interval_ms=15)
    for e in small_log():
        fold.observe(e)
    assert fold.tally(21).per_advertiser == {"a": 1}  # [6, 21) holds only t=20
    assert fold.tally(40).per_advertiser == {}


def test_relative_shares_sum_to_one_on_random_logs():
    for seed in range(5):
        log = random_log(seed)
        fold = RelativeCtr()
        for e in log:
            fold.observe(e)
        tally = fold.tally(10_000)
        if tally.total == 0:
            continue
        total = sum(ctr_relative(tally, a).value for a in tally.per_advertiser)
        assert total == pytest.approx(1.0, abs=1e-12)


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
    log = random_log(seed)
    for adv in ("a", "c"):
        est = estimate_at(kind, log, adv, param, now)
        assert est_counts(est) == BRUTES[kind](log, adv, param, now)


@pytest.mark.parametrize("kind", sorted(BRUTES))
def test_incremental_estimates_match_oracle(kind):
    for seed in range(25):
        log = random_log(seed + 500)
        param = (seed % 13) + 1
        fold = ESTIMATOR_KINDS[kind][1]("b", param)
        checkpoints = sorted({(seed * 37 + k * 997) % 11_000 for k in range(8)})
        idx = 0
        events = log.events
        for now in checkpoints:
            while idx < len(events) and events[idx].t <= now:
                fold.observe(events[idx])
                idx += 1
            assert est_counts(fold.estimate(now)) == BRUTES[kind](log, "b", param, now)


@pytest.mark.parametrize("interval", [None, 1_500, 40])
def test_relative_matches_oracle(interval):
    for seed in range(25):
        log = random_log(seed + 900)
        fold = RelativeCtr(interval_ms=interval)
        checkpoints = {(seed * 53 + k * 887) % 11_000 for k in range(8)}
        # clicks at exactly now are fed but belong to the next window
        checkpoints |= {e.t for e in log if isinstance(e, ClickEvent)}
        idx = 0
        events = log.events
        for now in sorted(checkpoints):
            while idx < len(events) and events[idx].t <= now:
                fold.observe(events[idx])
                idx += 1
            assert fold.tally(now).per_advertiser == relative_brute(log, interval, now)


def test_cumulative_relative_state_does_not_grow_with_the_clicks():
    def retained_bytes(n_clicks):
        fold = RelativeCtr()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for k in range(n_clicks):
            fold.observe(clk(k // 3, "abc"[k % 3], k))
        fold.tally(n_clicks)
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return after - before

    assert retained_bytes(30_000) - retained_bytes(300) < 10_000


@pytest.mark.parametrize(
    "kind", ["time", "impressions", "clicks", "relative", "relative:40", "relative:1500"]
)
def test_cohort_estimates_match_one_fold_per_advertiser(kind):
    kind, _, interval = kind.partition(":")
    relative = kind == "relative"
    spec = WindowSpec(kind, int(interval) if interval else None if relative else 25)

    def one_fold(adv):
        if relative:  # a tally of its own per advertiser, read for that one
            fold = RelativeCtr(spec.param)
            return fold, lambda now: fold.estimate(adv, now)
        fold = ESTIMATOR_KINDS[kind][1](adv, spec.param)
        return fold, fold.estimate

    for seed in range(10):
        log = random_log(seed + 2_000)
        advertisers = ["a", "b", "c", "d", "e"]  # "e" never appears in the log
        cohort = spec.build_cohort(advertisers)
        folds = {adv: one_fold(adv) for adv in advertisers}
        idx = 0
        events = log.events
        for now in range(0, 11_000, 500):
            while idx < len(events) and events[idx].t < now:
                cohort.observe(events[idx])
                for fold, _ in folds.values():
                    fold.observe(events[idx])
                idx += 1
            expected = {}
            for adv, (_, estimate) in folds.items():
                est = estimate(now)
                expected[adv] = est.value if est.defined else None
            assert cohort.rates(now) == expected


@given(seed=st.integers(0, 10**9), param=st.integers(1, 30), now=st.integers(0, 12_000))
@settings(max_examples=60, deadline=None)
def test_estimates_are_valid_rates(seed, param, now):
    log = random_log(seed)
    for kind in ("time", "impressions", "clicks"):
        est = estimate_at(kind, log, "a", param, now)
        if est.defined:
            assert 0.0 <= est.value <= 1.0
            assert est.value == est.clicks_in_window / est.denominator
