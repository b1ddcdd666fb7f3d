from __future__ import annotations

import random

import numpy as np
import pytest

from adsim.auction import SlotAllocation
from adsim.core import (
    ClickEvent,
    ClickSource,
    DuplicateImpressionError,
    EventLog,
    ImpressionEvent,
    event_sort_key,
)
from adsim.traffic import (
    FRAUD_QUERY_ID_BASE,
    HUMAN,
    SCRIPTED,
    FraudPlan,
    HorizonExceededError,
    TrafficConfig,
    detect_scripted,
    checked_click_times,
    fraud_events,
    organic_events,
)

from helpers import organic_log, with_fraud
from oracles import detect_scripted_brute, tally_brute


def alloc(*advertisers):
    return tuple(SlotAllocation(i + 1, a, 0, 0) for i, a in enumerate(advertisers))


HORIZON_MS = 30_000


def organic_cfg(**kw):
    kw.setdefault("queries_per_second", 5.0)
    kw.setdefault("base_ctr", {"a": 0.3, "b": 0.3})
    return TrafficConfig(**kw)


def clicks_of(log, adv):
    return [e for e in log if isinstance(e, ClickEvent) and e.advertiser == adv]


# ---------------------------------------------------------------------------
# Config validation.


def test_traffic_config_validation():
    with pytest.raises(ValueError, match="^traffic.queries_per_second:"):
        organic_cfg(queries_per_second=-1.0)
    with pytest.raises(ValueError, match="^base_ctr.a:"):
        organic_cfg(base_ctr={"a": 1.5})
    with pytest.raises(ValueError, match="^traffic.position_decay:"):
        organic_cfg(position_decay=0.0)


def test_fraud_plan_validation():
    with pytest.raises(ValueError):
        FraudPlan(kind="alien", target="a", start_ms=0, count=5, interval_ms=10)
    with pytest.raises(ValueError):
        FraudPlan(kind=SCRIPTED, target="a", start_ms=0, count=5)  # no interval
    with pytest.raises(ValueError):
        FraudPlan(kind=SCRIPTED, target="", start_ms=0, count=5, interval_ms=10)
    with pytest.raises(ValueError):
        FraudPlan(kind=SCRIPTED, target="a", start_ms=0, count=0, interval_ms=10)
    with pytest.raises(ValueError):
        FraudPlan(kind=HUMAN, target="a", start_ms=0, count=5, mean_gap_ms=0.0, gap_sigma=0.5)
    with pytest.raises(ValueError):
        FraudPlan(kind=HUMAN, target="a", start_ms=0, count=5, mean_gap_ms=100.0)
    with pytest.raises(ValueError, match="^mean_gap_ms: must be >= 1.0"):
        FraudPlan(kind=HUMAN, target="a", start_ms=0, count=5, mean_gap_ms=0.5, gap_sigma=0.5)
    with pytest.raises(ValueError, match="^seed:"):
        FraudPlan(kind=SCRIPTED, target="a", start_ms=0, count=5, interval_ms=10, seed=-1)


# ---------------------------------------------------------------------------
# Organic traffic.


def test_organic_generation_is_deterministic():
    cfg = organic_cfg()
    log = organic_log(cfg, alloc("a", "b"), HORIZON_MS, 42)
    assert log == organic_log(cfg, alloc("a", "b"), HORIZON_MS, 42)
    assert log != organic_log(cfg, alloc("a", "b"), HORIZON_MS, 43)


def test_organic_structure():
    log = organic_log(organic_cfg(), alloc("a", "b"), HORIZON_MS, 1)
    imps = [e for e in log if isinstance(e, ImpressionEvent)]
    clicks = [e for e in log if isinstance(e, ClickEvent)]
    assert len(imps) % 2 == 0  # both advertisers shown on every query
    assert all(0 <= e.t < HORIZON_MS for e in log)
    assert all(c.source is ClickSource.ORGANIC for c in clicks)
    by_key = {(e.advertiser, e.query_id): e.t for e in imps}
    # a click lands in the same millisecond as its impression
    assert all(by_key[(c.advertiser, c.impression_ref)] == c.t for c in clicks)
    slots = {e.advertiser: e.slot for e in imps}
    assert slots == {"a": 1, "b": 2}


def test_zero_ctr_never_clicks_and_certain_ctr_always_clicks():
    cfg = organic_cfg(base_ctr={"a": 0.0, "b": 1.0}, position_decay=1.0)
    log = organic_log(cfg, alloc("a", "b"), HORIZON_MS, 3)
    imps = [e for e in log if isinstance(e, ImpressionEvent)]
    assert not clicks_of(log, "a")
    assert len(clicks_of(log, "b")) == len(imps) // 2


def test_organic_events_mints_sequential_query_ids():
    cfg = organic_cfg()
    rng = np.random.default_rng(5)
    events, next_qid = organic_events(cfg, alloc("a", "b"), rng, 0, 10_000, 100)
    imps = [e for e in events if isinstance(e, ImpressionEvent)]
    n_queries = len({e.query_id for e in imps})
    assert next_qid == 100 + n_queries
    assert len(imps) == 2 * n_queries
    assert organic_events(cfg, alloc("a"), rng, 5, 5, 0) == ([], 0)


# ---------------------------------------------------------------------------
# Fraud schedules.


def test_scripted_times_are_an_exact_arithmetic_progression():
    plan = FraudPlan(kind=SCRIPTED, target="z", start_ms=500, count=4, interval_ms=250)
    assert checked_click_times(plan, 1251) == [500, 750, 1000, 1250]
    with pytest.raises(HorizonExceededError, match="beyond horizon_ms=1250"):
        checked_click_times(plan, 1250)


def test_human_times_are_seeded_and_increasing():
    plan = FraudPlan(
        kind=HUMAN, target="z", start_ms=100, count=400,
        mean_gap_ms=1_000.0, gap_sigma=0.5, seed=9,
    )
    times = checked_click_times(plan, 10**9)
    assert times == checked_click_times(plan, 10**9)
    assert times[0] == 100
    assert all(b > a for a, b in zip(times, times[1:]))
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert 800 < sum(gaps) / len(gaps) < 1_200  # parameterized to hit the mean


def test_plan_events_pair_each_click_with_its_own_impression():
    plan = FraudPlan(kind=SCRIPTED, target="z", start_ms=10, count=3, interval_ms=5)
    events = fraud_events([plan], horizon_ms=100)
    assert len(events) == 6
    imps = [e for e in events if isinstance(e, ImpressionEvent)]
    clicks = [e for e in events if isinstance(e, ClickEvent)]
    base = FRAUD_QUERY_ID_BASE
    assert [e.query_id for e in imps] == [base, base + 1, base + 2]
    assert [c.impression_ref for c in clicks] == [base, base + 1, base + 2]
    assert all(c.t == i.t for c, i in zip(clicks, imps))
    assert all(e.slot == 1 for e in events)
    assert all(c.source is ClickSource.SCRIPTED_FRAUD for c in clicks)


def test_fraud_events_number_the_plans_in_order_and_sort_canonically():
    late = FraudPlan(kind=SCRIPTED, target="a", start_ms=50, count=2, interval_ms=10)
    early = FraudPlan(
        kind=HUMAN, target="b", start_ms=0, count=3, mean_gap_ms=5.0, gap_sigma=0.2
    )
    events = fraud_events([late, early], horizon_ms=100)
    assert events == sorted(events, key=event_sort_key)
    clicks = sorted(
        (e.advertiser, e.impression_ref, e.source)
        for e in events
        if isinstance(e, ClickEvent)
    )
    base = FRAUD_QUERY_ID_BASE
    assert clicks == [
        ("a", base, ClickSource.SCRIPTED_FRAUD),
        ("a", base + 1, ClickSource.SCRIPTED_FRAUD),
        ("b", base + 2, ClickSource.HUMAN_FRAUD),
        ("b", base + 3, ClickSource.HUMAN_FRAUD),
        ("b", base + 4, ClickSource.HUMAN_FRAUD),
    ]
    with pytest.raises(HorizonExceededError, match="beyond horizon_ms=60"):
        fraud_events([early, late], horizon_ms=60)


# ---------------------------------------------------------------------------
# Injection.


def test_injection_conserves_the_original_traffic():
    log = organic_log(organic_cfg(), alloc("a", "b"), HORIZON_MS, 8)
    plan = FraudPlan(kind=SCRIPTED, target="a", start_ms=1_000, count=30, interval_ms=400)
    merged = with_fraud(log, [plan])
    assert len(merged) == len(log) + 60
    before = tally_brute(log, 0, log.horizon)
    after = tally_brute(merged, 0, log.horizon)
    assert after["a"] == before.get("a", 0) + 30
    assert after.get("b", 0) == before.get("b", 0)
    # fresh query ids: no collision with organic ones
    organic_ids = {e.query_id for e in log if isinstance(e, ImpressionEvent)}
    fraud_ids = {
        e.impression_ref
        for e in merged
        if isinstance(e, ClickEvent) and e.source is ClickSource.SCRIPTED_FRAUD
    }
    assert not organic_ids & fraud_ids
    assert len(fraud_ids) == 30
    assert len(log) == len(merged) - 60  # input untouched


def test_injection_rejects_plans_past_the_horizon():
    log = organic_log(organic_cfg(), alloc("a", "b"), HORIZON_MS, 8)
    late = FraudPlan(kind=SCRIPTED, target="a", start_ms=29_000, count=10, interval_ms=200)
    with pytest.raises(HorizonExceededError):
        with_fraud(log, [late])


def test_injecting_twice_collides_on_the_fraud_ids():
    log = organic_log(organic_cfg(), alloc("a", "b"), HORIZON_MS, 8)
    plan = FraudPlan(kind=SCRIPTED, target="a", start_ms=1_000, count=3, interval_ms=400)
    once = with_fraud(log, [plan])
    with pytest.raises(DuplicateImpressionError):
        with_fraud(once, [plan])


# ---------------------------------------------------------------------------
# Detection.


def bare_log(times_by_adv, horizon=100_000):
    events = []
    qid = 0
    for adv, times in sorted(times_by_adv.items()):
        for t in times:
            events.append(ImpressionEvent(t, adv, 1, qid))
            events.append(ClickEvent(t, adv, 1, qid, None))
            qid += 1
    return EventLog.from_events(events, horizon)


def test_detector_flags_an_exact_five_click_run():
    log = bare_log({"z": [0, 400, 800, 1200, 1600]})
    flags = detect_scripted(log, min_run=5, interval_tolerance_ms=10)
    assert len(flags) == 1
    flag = flags[0]
    assert flag.advertiser == "z"
    assert flag.span == (0, 1600)
    assert len(flag.flagged_click_ids) == 5
    assert flag.reason == "fixed_interval_run"


def test_detector_needs_min_run_clicks():
    log = bare_log({"z": [0, 400, 800, 1200]})
    assert detect_scripted(log, min_run=5) == []


def test_detector_tolerates_jitter_within_the_band():
    log = bare_log({"z": [0, 400, 805, 1200, 1600, 2000]})
    flags = detect_scripted(log, min_run=5, interval_tolerance_ms=10)
    assert len(flags) == 1
    assert len(flags[0].flagged_click_ids) == 6


def test_detector_breaks_on_jitter_beyond_the_band():
    log = bare_log({"z": [0, 400, 800, 1250, 1650]})
    assert detect_scripted(log, min_run=5, interval_tolerance_ms=10) == []


def test_detector_separates_advertisers():
    log = bare_log({"z": [0, 300, 600, 900, 1200], "a": [10, 170, 420, 1100, 2000]})
    flags = detect_scripted(log, min_run=5, interval_tolerance_ms=10)
    assert [f.advertiser for f in flags] == ["z"]


def test_detector_parameter_validation():
    log = bare_log({"z": [0, 400]})
    with pytest.raises(ValueError):
        detect_scripted(log, min_run=2)
    with pytest.raises(ValueError):
        detect_scripted(log, interval_tolerance_ms=-1)


def test_detector_never_reads_click_labels():
    log = organic_log(organic_cfg(), alloc("a", "b"), HORIZON_MS, 12)
    plan = FraudPlan(kind=SCRIPTED, target="z", start_ms=1_000, count=12, interval_ms=300)
    merged = with_fraud(log, [plan])
    assert detect_scripted(merged) == detect_scripted(merged.stripped())


def test_detector_catches_injected_scripted_runs_in_organic_noise():
    log = organic_log(organic_cfg(), alloc("a", "b"), HORIZON_MS, 12)
    plan = FraudPlan(kind=SCRIPTED, target="z", start_ms=1_000, count=12, interval_ms=300)
    merged = with_fraud(log, [plan])
    fraud_refs = {c.impression_ref for c in clicks_of(merged, "z")}
    flagged = set()
    for f in detect_scripted(merged.stripped()):
        if f.advertiser == "z":
            flagged.update(f.flagged_click_ids)
    assert flagged == fraud_refs


def test_detector_stays_quiet_on_organic_traffic():
    for seed in (21, 22, 23):
        log = organic_log(organic_cfg(), alloc("a", "b"), HORIZON_MS, seed)
        assert detect_scripted(log.stripped()) == []


def jittered_click_times(rng: random.Random) -> dict[str, list[int]]:
    """Click times per advertiser: segments of near-constant gaps, some of
    them zero, with organic clicks landing inside some of the gaps."""
    times_by = {}
    for adv in rng.sample(("a", "b", "c"), rng.randint(1, 3)):
        t = rng.randrange(100)
        times = [t]
        for _ in range(rng.randint(1, 5)):
            base = rng.choice((0, rng.randint(0, 8), rng.randint(10, 60)))
            jitter = rng.randint(0, 12)
            for _ in range(rng.randint(1, 14)):
                gap = max(0, base + rng.randint(-jitter, jitter))
                if rng.random() < 0.15:
                    times.append(t + rng.randint(0, gap))
                t += gap
                times.append(t)
        times_by[adv] = times
    return times_by


def test_detector_matches_the_brute_force_oracle_on_random_logs():
    even_runs = zero_gap_runs = 0
    for seed in range(600):
        rng = random.Random(seed)
        log = bare_log(jittered_click_times(rng))
        min_run, tol = rng.randint(3, 8), rng.randint(0, 15)
        flags = detect_scripted(log, min_run, tol)
        assert flags == detect_scripted_brute(log, min_run, tol), (seed, min_run, tol)
        t_of = {(e.advertiser, e.impression_ref): e.t for e in log if isinstance(e, ClickEvent)}
        for f in flags:
            times = [t_of[f.advertiser, ref] for ref in f.flagged_click_ids]
            gaps = sorted(b - a for a, b in zip(times, times[1:]))
            middle = len(gaps) // 2
            even_runs += len(gaps) % 2 == 0 and gaps[middle - 1] != gaps[middle]
            zero_gap_runs += gaps[0] == 0
    # the sample reaches the two-middles median and zero gaps in flagged runs
    assert even_runs > 50 and zero_gap_runs > 50, (even_runs, zero_gap_runs)


@pytest.mark.parametrize(
    "times, min_run, tol, runs",
    [
        # gaps 0, 10: median 5, both within 5; a third gap of 10 moves it away
        ([0, 0, 10, 20], 3, 5, [[0, 0, 10]]),
        # gaps 0, 11: median 5.5 is 5.5 from each, so the run breaks at once
        ([0, 0, 11, 22, 33], 3, 5, [[0, 11, 22, 33]]),
        # zero gaps only
        ([7, 7, 7, 7, 7], 5, 0, [[7, 7, 7, 7, 7]]),
        # an organic click at 450 splits a 100 ms run into two
        ([0, 100, 200, 300, 400, 450, 500, 600, 700, 800], 4, 10,
         [[0, 100, 200, 300, 400], [500, 600, 700, 800]]),
    ],
)
def test_detector_hand_checked_medians(times, min_run, tol, runs):
    log = bare_log({"z": times})
    flags = detect_scripted(log, min_run, tol)
    assert flags == detect_scripted_brute(log, min_run, tol)
    t_of = {e.impression_ref: e.t for e in log if isinstance(e, ClickEvent)}
    assert [[t_of[ref] for ref in f.flagged_click_ids] for f in flags] == runs
