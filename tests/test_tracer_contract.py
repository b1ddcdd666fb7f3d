"""The benchmark's tracer wraps adsim names by attribute, counts their calls
and reads their return values; all three must keep working."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import adsim.bench
import adsim.core
from adsim.auction import AuctionConfig, SlotAllocation
from adsim.bench import ScenarioConfig
from adsim.core import IMPRESSION, write_log
from adsim.estimators import ESTIMATOR_KINDS, RelativeCtr, WindowSpec
from adsim.traffic import SCRIPTED, FraudPlan, TrafficConfig, query_times
from helpers import row_of
from oracles import random_log

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    return spans


def test_every_name_the_tracer_wraps_exists(monkeypatch):
    spans = load_spans(monkeypatch)
    wrapped = [(owner, attr) for _, owner, attr in spans.STAGES + spans.COUNTED]
    assert len(wrapped) > 10
    missing = [(owner.__name__, attr) for owner, attr in wrapped if attr not in owner.__dict__]
    assert missing == []


def test_the_tracer_reads_work_from_what_the_wrapped_names_return(monkeypatch):
    spans = load_spans(monkeypatch)
    log = random_log(5)

    def fed(fold, events=log):
        for e in events:
            fold.observe(*row_of(e))
        return fold

    own = [e for e in log if e.advertiser == "a"]  # a windowed fold sees one advertiser

    traffic, rng = TrafficConfig(50.0, {"a": 0.5}), np.random.default_rng(1)
    times = query_times(traffic, rng, 0, 1_000)
    # owner -> the results of real calls to its wrapped attribute: a cold
    # (undefined) estimate and one after the whole log for each fold
    results = {
        adsim.bench: lambda fn: [fn(traffic, (SlotAllocation(1, "a", 0, 0),), rng, times, 0)],
        RelativeCtr: lambda fn: [fn(RelativeCtr(), "a", 0), fn(fed(RelativeCtr()), "a", 10_000)],
    }
    for kind, (_, fold) in ESTIMATOR_KINDS.items():
        if fold is not RelativeCtr:
            param = 10_000 if kind == "time" else 3

            def calls(fn, fold=fold, param=param):
                return [fn(fold(param), 0), fn(fed(fold(param), own), 10_000)]

            results[fold] = calls

    work = {}
    for name, owner, attr in spans.COUNTED:
        if name in spans._WORK:
            for result in results[owner](owner.__dict__[attr]):
                work.setdefault((name, owner.__name__), []).append(spans._WORK[name](result))
    assert len(work) == 5  # organic_events and the four folds' estimate
    for key, counts in work.items():
        assert all(isinstance(n, (int, bool)) for n in counts), (key, counts)
    estimates = [counts for (name, _), counts in work.items() if name == "estimators.estimate"]
    assert estimates == [[True, False]] * 4  # one undefined, one defined each
    assert work[("traffic.organic_events", "adsim.bench")][0] > 0


def test_the_tracer_counts_every_row_the_log_takes(tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    # a read log with one spaced line, so its block goes to json.loads, not the pattern
    path = tmp_path / "events.jsonl"
    write_log(random_log(5), path)
    header, first, *rest = path.read_text().splitlines(keepends=True)
    spaced = json.dumps(json.loads(first), separators=(", ", ": ")) + "\n"
    path.write_text("".join([header, spaced, *rest]))
    # a simulated log with organic traffic and a scripted run
    cfg = ScenarioConfig(
        seed=3, horizon_ms=10_000, tick_ms=1_000, focus="a",
        bids={"a": 400, "b": 200}, auction=AuctionConfig(2),
        traffic=TrafficConfig(4.0, {"a": 0.3, "b": 0.2}),
        estimators=(WindowSpec("relative"),),
        fraud_plans=(FraudPlan(SCRIPTED, "a", 2_000, 10, interval_ms=150),),
    )
    for fn, arg in ((adsim.core.read_log, path), (adsim.bench.simulate, cfg)):
        tracer = spans.Tracer()
        log = tracer.run("job", fn, arg)
        assert len(log) > 20
        assert tracer.counters["core.EventLog.append"].calls == len(log), fn.__name__


def reads(rows, tick_ms: int, ticks: int, horizon: int, window: int | None = None) -> int:
    """On how many ticks a column whose fold is fed ``rows`` is estimated: those
    where the count of ``rows`` before the tick's end differs from the tick
    before (the first tick always counts) and, for a window of ``window`` ms,
    those whose end passed the window's edge as it was at the last estimate,
    its oldest held ``t`` plus the window."""
    count = edge = None
    estimates = 0
    for i in range(1, ticks + 1):
        now = min(i * tick_ms, horizon)
        before, count = count, sum(row[0] < now for row in rows)
        if count != before or edge is not None and now > edge:
            estimates += 1
            held = [row[0] for row in rows if window and now - window <= row[0] < now]
            edge = min(held) + window if held else None
    return estimates


RELATIVE = [WindowSpec("relative"), WindowSpec("relative", 1_500)]


def traced_series(monkeypatch, log, tick_ms, exclude, relative):
    """The tracer's counters for ``build_series`` over ``log`` with focus "a", the
    tick count, and the expected estimate calls: a column is estimated on the
    ticks its key moved (the windowed folds' on the focus's rows, the relative
    fold's on the kept clicks) and, for a window measured in time, on those
    where ``now`` passed the window's edge."""
    spans = load_spans(monkeypatch)
    specs = [WindowSpec("time", 1_000), WindowSpec("impressions", 5), WindowSpec("clicks", 3), relative]
    tracer = spans.Tracer()
    ticks = len(tracer.run("job", adsim.bench.build_series, log, "a", specs, tick_ms, exclude))
    kept = [
        row for row in log.records()
        if row[4] is IMPRESSION or not exclude or (row[1], row[3]) not in exclude
    ]
    focus = [row for row in kept if row[1] == "a"]
    kept_clicks = [row for row in kept if row[4] is not IMPRESSION]
    shape = (tick_ms, ticks, log.horizon)
    moved = (reads(focus, *shape, 1_000) + 2 * reads(focus, *shape)
             + reads(kept_clicks, *shape, relative.param))
    return tracer.counters, ticks, focus, kept_clicks, moved


@pytest.mark.parametrize("relative", RELATIVE, ids=["cumulative", "sliding"])
@pytest.mark.parametrize("drop", [False, True], ids=["all clicks", "exclude"])
def test_the_series_pass_feeds_each_fold_only_the_rows_it_reads(monkeypatch, drop, relative):
    log = random_log(7, max_queries=400)
    clicks = [(adv, ref) for _, adv, _, ref, source in log.records() if source is not IMPRESSION]
    exclude = set(clicks[::3]) if drop else None
    counters, ticks, focus, kept_clicks, moved = traced_series(monkeypatch, log, 1_000, exclude, relative)
    assert ticks == 10
    focus_impressions = [row for row in focus if row[4] is IMPRESSION]
    assert len(kept_clicks) > len(focus) - len(focus_impressions) > 10
    # a busy log moves every key on every tick: one estimate per column per tick
    assert counters["estimators.estimate"].calls == moved == 4 * ticks
    # the three windowed folds read the focus's rows, the relative fold every
    # kept click and no impression
    assert counters["estimators.observe"].calls == 3 * len(focus) + len(kept_clicks)


@pytest.mark.parametrize("relative", RELATIVE, ids=["cumulative", "sliding"])
@pytest.mark.parametrize("grid_ms", [1, 100], ids=["any_t", "t_on_tick_ends"])
def test_a_quiet_series_estimates_a_column_only_when_its_key_or_its_edge_moved(
        monkeypatch, relative, grid_ms):
    # on the tick grid a window's edge falls on a tick's end, where nothing leaves it yet
    log = random_log(7, max_queries=30, times=range(0, 10_000, grid_ms))
    clicks = [(adv, ref) for _, adv, _, ref, source in log.records() if source is not IMPRESSION]
    counters, ticks, focus, kept_clicks, moved = traced_series(
        monkeypatch, log, 100, set(clicks[::3]), relative)
    assert ticks == 100
    assert len(focus) > 5 and len(kept_clicks) > 5
    assert counters["estimators.estimate"].calls == moved < 4 * ticks
    assert counters["estimators.observe"].calls == 3 * len(focus) + len(kept_clicks)
