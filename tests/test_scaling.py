"""No stage may scale worse than linearly in the events it reads.

Each stage runs at two sizes about 4x apart, and its Python-level calls
(``sys.setprofile``'s ``call`` and ``c_call`` events, which include every
generator resume) are counted, not timed, so the rule reads the same on any
host. A stage's call ratio must stay within 1.25x the ratio of the events it
reads; a stage that scans the run once per event would show about the square
of it. The detector reads the log's clicks (its scan of the columns is one C
loop that raises no event), so its ratio is set against theirs. Work done
inside one C call, such as sorting a whole run's gaps, raises one event and
goes unseen.
"""
from __future__ import annotations

import dataclasses
import sys

import pytest

from adsim.auction import AuctionConfig
from adsim.bench import ScenarioConfig, build_series, parse_spec, simulate
from adsim.core import read_log, write_log
from adsim.traffic import SCRIPTED, FraudPlan, TrafficConfig, detect_scripted

SPECS = tuple(parse_spec(tok, "specs") for tok in "relative time:10000 impressions:200 clicks:20".split())
SLACK = 1.25


def organic(qps: float) -> ScenarioConfig:
    """organic_run's scenario (six advertisers, three slots, 1 s ticks)
    without fraud, over a 120 s horizon."""
    base_ctr = {"alpha": 0.08, "bravo": 0.10, "charlie": 0.06, "delta": 0.07, "echo": 0.09, "foxtrot": 0.05}
    bids = {"alpha": 1000, "bravo": 800, "charlie": 650, "delta": 500, "echo": 400, "foxtrot": 300}
    return ScenarioConfig(
        seed=1, horizon_ms=120_000, tick_ms=1_000, focus="alpha", bids=bids,
        auction=AuctionConfig(3, ranking="by_ctr_weighted"),
        traffic=TrafficConfig(qps, base_ctr), estimators=SPECS,
    )


def scripted(count: int) -> ScenarioConfig:
    """One long unbroken scripted run, with a trickle of organic traffic."""
    plan = FraudPlan(SCRIPTED, "charlie", start_ms=1_000, count=count, interval_ms=40)
    return dataclasses.replace(organic(0.2), fraud_plans=(plan,))


def many_ticks(horizon_ms: int) -> ScenarioConfig:
    """fraud_rerank's shape: 20 advertisers, four slots, 100 ms ticks, and a
    scripted run across the whole horizon."""
    advertisers = [f"adv{i:02d}" for i in range(20)]
    plan = FraudPlan(SCRIPTED, "adv19", start_ms=500, count=horizon_ms // 500 - 2, interval_ms=500)
    return ScenarioConfig(
        seed=1, horizon_ms=horizon_ms, tick_ms=100, focus="adv00",
        bids={adv: 2000 - 50 * i for i, adv in enumerate(advertisers)},
        auction=AuctionConfig(4, ranking="by_ctr_weighted"),
        traffic=TrafficConfig(2.0, {adv: 0.1 for adv in advertisers}),
        estimators=SPECS, fraud_plans=(plan,),
    )


def count_calls(fn, *args):
    """``(calls, result)`` of ``fn(*args)``: the profile events it raised."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return calls, result


def stage_calls(cfg: ScenarioConfig, path) -> tuple[dict[str, int], dict[str, int]]:
    """Calls made by each stage of one run of ``cfg``, and the events each read."""
    calls = {}
    calls["simulate"], log = count_calls(simulate, cfg)
    calls["detect_scripted"], _ = count_calls(
        detect_scripted, log, cfg.detector_min_run, cfg.detector_tolerance_ms
    )
    calls["build_series"], _ = count_calls(build_series, log, cfg.focus, cfg.estimators, cfg.tick_ms)
    calls["write_log"], _ = count_calls(write_log, log, path)
    calls["read_log"], back = count_calls(read_log, path)
    assert back == log
    reads = dict.fromkeys(calls, len(log))
    reads["detect_scripted"] = log.clicks()
    return calls, reads


@pytest.mark.parametrize(
    "small, large",
    [(organic(3.5), organic(14.0)), (scripted(400), scripted(1_600)), (many_ticks(30_000), many_ticks(120_000))],
    ids=["organic_qps", "scripted_run", "many_ticks"],
)
def test_every_stage_makes_calls_linear_in_the_events(tmp_path, small, large):
    small_calls, small_reads = stage_calls(small, tmp_path / "small.jsonl")
    large_calls, large_reads = stage_calls(large, tmp_path / "large.jsonl")
    over = {}
    for stage, calls in small_calls.items():
        read_ratio = large_reads[stage] / small_reads[stage]
        assert 3.5 < read_ratio < 4.5, (stage, small_reads[stage], large_reads[stage])
        if large_calls[stage] / calls > SLACK * read_ratio:
            over[stage] = (calls, large_calls[stage], read_ratio)
    assert over == {}
