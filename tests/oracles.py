"""Brute-force oracles for the streaming estimators and the fraud detector.

Everything here recomputes results from first principles with plain list
scans and ``random.Random`` (not numpy), so a bug in the package's
incremental bookkeeping cannot hide in the oracle too. The window oracles
scan their events several times per call, so they take a list of event
objects (``list(log)``, taken once per log) rather than the log, whose
iteration builds the objects anew each time. The traffic and
simulator oracles take numpy's generator, since they must reproduce its
draws, and make them one call at a time; they import numpy themselves, so the
other oracles load none. ``fraud_rows_listed`` lists every fraud row of a run
and sorts the list once, against the package's merge of one stream per plan.
The output references format every cell of a series anew, with no text carried
over from the tick before.
"""
from __future__ import annotations

import csv
import io
import math
import random
import statistics
import xml.etree.ElementTree as ET
from typing import Sequence

from adsim.auction import Bid, gsp_allocate, rank
from adsim.bench import format_rate
from adsim.core import ClickEvent, ClickSource, Event, EventLog, ImpressionEvent
from adsim.estimators import ESTIMATOR_KINDS, CtrEstimate
from adsim.traffic import FRAUD_QUERY_ID_BASE, SCRIPTED, FraudFlag
from helpers import event_of, event_sort_key, log_of, row_of


def random_log(
    seed: int,
    *,
    horizon_ms: int = 10_000,
    max_queries: int = 120,
    advertisers: tuple[str, ...] = ("a", "b", "c", "d"),
    click_prob: float = 0.45,
) -> EventLog:
    """An arbitrary but valid log: clicks share their impression's timestamp,
    query ids are unique but deliberately non-contiguous."""
    rng = random.Random(seed)
    events = []
    qid = rng.randrange(50)
    for _ in range(rng.randrange(max_queries + 1)):
        t = rng.randrange(horizon_ms)
        shown = rng.sample(advertisers, rng.randint(1, len(advertisers)))
        for slot, adv in enumerate(shown, start=1):
            events.append(ImpressionEvent(t, adv, slot, qid))
            if rng.random() < click_prob:
                events.append(ClickEvent(t, adv, slot, qid))
        qid += rng.randint(1, 5)
    return log_of(events, horizon_ms)


def organic_events_one_draw_at_a_time(cfg, allocation, rng, t_lo, t_hi, query_id_start):
    """``traffic.query_times`` then ``traffic.organic_events``, drawing each
    query's uniform for each slot with its own ``rng.random()`` call, and the
    query times even when there are none. The batched draw must leave ``rng``
    in the same state."""
    span_ms = t_hi - t_lo
    if span_ms <= 0:
        return [], query_id_start
    n_queries = int(rng.poisson(cfg.queries_per_second * span_ms / 1000.0))
    times = sorted(rng.integers(t_lo, t_hi, size=n_queries).tolist())
    events = []
    qid = query_id_start
    for t in times:
        for alloc in allocation:
            adv = alloc.advertiser
            events.append(ImpressionEvent(t, adv, alloc.slot, qid))
            p = cfg.base_ctr[adv] * cfg.position_decay ** (alloc.slot - 1)
            if rng.random() < p:
                events.append(ClickEvent(t, adv, alloc.slot, qid, ClickSource.ORGANIC))
        qid += 1
    return events, qid


def fraud_rows_listed(plans, horizon_ms: int) -> list[tuple]:
    """Every plan's impression/click rows, listed plan by plan and then sorted
    by ``event_sort_key``. A scripted plan clicks at ``start_ms + i *
    interval_ms``; a human plan draws each log-normal gap with its own
    ``rng.lognormal`` call, caps it at ``horizon_ms`` and rounds it to at least
    1 ms. Query ids count up from ``FRAUD_QUERY_ID_BASE`` through the plans in
    their listed order, whatever their times."""
    events = []
    qid = FRAUD_QUERY_ID_BASE
    for plan in plans:
        if plan.kind == SCRIPTED:
            times = [plan.start_ms + i * plan.interval_ms for i in range(plan.count)]
            source = ClickSource.SCRIPTED_FRAUD
        else:
            import numpy as np

            rng = np.random.default_rng(plan.seed)
            sigma = plan.gap_sigma
            mu = math.log(plan.mean_gap_ms) - sigma * sigma / 2.0  # the mean gap is mean_gap_ms
            times = [plan.start_ms]
            for _ in range(plan.count - 1):
                gap = rng.lognormal(mean=mu, sigma=sigma)
                times.append(times[-1] + max(1, round(min(gap, horizon_ms))))
            source = ClickSource.HUMAN_FRAUD
        for t in times:
            events.append(ImpressionEvent(t, plan.target, 1, qid))
            events.append(ClickEvent(t, plan.target, 1, qid, source))
            qid += 1
    events.sort(key=event_sort_key)
    return [row_of(e) for e in events]


def simulate_every_tick(cfg) -> tuple[list, dict[int, dict[str, float]]]:
    """``bench.simulate`` running the auction on every tick: each advertiser's
    own fold of the primary kind read at the tick start, ``rank`` and
    ``gsp_allocate``, whether or not the tick then draws a query, with the
    traffic drawn by ``organic_events_one_draw_at_a_time``. A windowed fold is
    fed its advertiser's events; a relative one is fed every event and read
    for its advertiser. Returns the events in log order and, for each tick
    that drew at least one query, its start and the CTRs it ranked with."""
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    bid_list = [Bid(a, cfg.bids[a]) for a in cfg.advertisers]
    spec = cfg.estimators[0]
    relative = spec.kind == "relative"
    folds = {adv: ESTIMATOR_KINDS[spec.kind][1](spec.param) for adv in cfg.advertisers}
    fraud = [event_of(row) for row in fraud_rows_listed(cfg.fraud_plans, cfg.horizon_ms)]
    events, query_ticks = [], {}
    qid = 0
    for tick_start in range(0, cfg.horizon_ms, cfg.tick_ms):
        tick_end = min(tick_start + cfg.tick_ms, cfg.horizon_ms)
        ctrs = {}
        for adv, fold in folds.items():
            est = fold.estimate(adv, tick_start) if relative else fold.estimate(tick_start)
            ctrs[adv] = est.value if est.defined else cfg.default_ctr
        allocation = gsp_allocate(rank(bid_list, ctrs, cfg.auction), cfg.auction)
        tick, next_qid = organic_events_one_draw_at_a_time(
            cfg.traffic, allocation, rng, tick_start, tick_end, qid
        )
        if next_qid > qid:
            query_ticks[tick_start] = ctrs
        qid = next_qid
        tick += [e for e in fraud if tick_start <= e.t < tick_end]
        tick.sort(key=event_sort_key)
        for e in tick:
            for adv, fold in folds.items():
                if relative or e.advertiser == adv:
                    fold.observe(*row_of(e))
        events += tick
    return events, query_ticks


def est_counts(est: CtrEstimate) -> tuple[bool, int, int]:
    return (est.defined, est.clicks_in_window, est.denominator)


def tally_brute(events: Sequence[Event], from_ms: int, to_ms: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for e in events:
        if isinstance(e, ClickEvent) and from_ms <= e.t < to_ms:
            counts[e.advertiser] = counts.get(e.advertiser, 0) + 1
    return counts


def time_window_brute(
    events: Sequence[Event], adv: str, window_ms: int, now: int
) -> tuple[bool, int, int]:
    """Clicks/impressions for ``adv`` with ``now - window_ms <= t < now``."""
    lo = now - window_ms
    imps = sum(
        1
        for e in events
        if isinstance(e, ImpressionEvent) and e.advertiser == adv and lo <= e.t < now
    )
    clicks = sum(
        1
        for e in events
        if isinstance(e, ClickEvent) and e.advertiser == adv and lo <= e.t < now
    )
    return (True, clicks, imps) if imps > 0 else (False, 0, 0)


def impression_window_brute(
    events: Sequence[Event], adv: str, size: int, now: int
) -> tuple[bool, int, int]:
    """Clicked fraction of the last ``size`` impressions with ``t < now``."""
    shown = [
        e.query_id
        for e in events
        if isinstance(e, ImpressionEvent) and e.advertiser == adv and e.t < now
    ]
    window = shown[-size:]
    if not window:
        return (False, 0, 0)
    members = set(window)
    clicks = sum(
        1
        for e in events
        if isinstance(e, ClickEvent)
        and e.advertiser == adv
        and e.t < now
        and e.impression_ref in members
    )
    return (True, clicks, len(window))


def click_window_brute(
    events: Sequence[Event], adv: str, size: int, now: int
) -> tuple[bool, int, int]:
    """Last ``size`` clicks over impressions since the one that took the
    oldest of those clicks (inclusive), all restricted to ``t < now``."""
    shown = [
        e.query_id
        for e in events
        if isinstance(e, ImpressionEvent) and e.advertiser == adv and e.t < now
    ]
    clicked = [
        e.impression_ref
        for e in events
        if isinstance(e, ClickEvent) and e.advertiser == adv and e.t < now
    ]
    if len(clicked) < size:
        return (False, 0, 0)
    anchor = shown.index(clicked[-size])
    return (True, size, len(shown) - anchor)


def relative_brute(
    events: Sequence[Event], interval_ms: int | None, now: int
) -> dict[str, int]:
    """Per-advertiser click counts over ``[now - interval, now)`` (whole log
    start when ``interval_ms`` is None)."""
    lo = 0 if interval_ms is None else now - interval_ms
    return {
        adv: n
        for adv, n in tally_brute(events, lo, now).items()
        if n > 0
    }


def detect_scripted_brute(
    log: EventLog, min_run: int = 5, interval_tolerance_ms: int = 10
) -> list[FraudFlag]:
    """The O(L^2)-per-run detector: re-takes the median of the whole candidate
    run and re-checks every gap against it at each click."""
    if min_run < 3:
        raise ValueError(f"min_run must be >= 3, got {min_run}")
    if interval_tolerance_ms < 0:
        raise ValueError(f"negative tolerance: {interval_tolerance_ms}")
    clicks_by: dict[str, list[ClickEvent]] = {}
    for e in log:
        if isinstance(e, ClickEvent):
            clicks_by.setdefault(e.advertiser, []).append(e)
    flags: list[FraudFlag] = []
    for adv in sorted(clicks_by):
        clicks = clicks_by[adv]
        start = 0
        gaps: list[int] = []
        for j in range(1, len(clicks)):
            candidate = gaps + [clicks[j].t - clicks[j - 1].t]
            median = statistics.median(candidate)
            if all(abs(g - median) <= interval_tolerance_ms for g in candidate):
                gaps = candidate
                continue
            if j - start >= min_run:
                flags.append(_flag(adv, clicks[start:j]))
            start = j - 1  # the breaking gap seeds the next run
            gaps = [clicks[j].t - clicks[j - 1].t]
        if len(clicks) - start >= min_run:
            flags.append(_flag(adv, clicks[start:]))
    return flags


def _flag(adv: str, run: list[ClickEvent]) -> FraudFlag:
    return FraudFlag(
        span=(run[0].t, run[-1].t),
        advertiser=adv,
        flagged_click_ids=tuple(c.impression_ref for c in run),
    )


def series_csv_each(series) -> str:
    """``emit_csv``'s text, with ``format_rate`` called on every defined cell."""
    cols = list(series[0].ctr) if series else []
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["time", "impressions", "clicks", "total_clicks", *cols])
    for r in series:
        rates = ["" if (v := r.ctr.get(c)) is None else format_rate(v) for c in cols]
        out.writerow([str(r.time_index), str(r.impressions), str(r.clicks), str(r.total_clicks), *rates])
    return buf.getvalue()


def series_svg_each(series, title: str = "") -> str:
    """``emit_plot``'s text, with ``sx`` and ``sy`` called on every defined cell."""
    width, height, ml, mr, mt, mb = 720, 440, 60, 160, 30, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb
    cols = list(series[0].ctr) if series else []
    times = [r.time_index for r in series]
    t_lo, t_hi = (times[0], times[-1]) if times else (0, 1)
    y_hi = max((v for r in series for v in r.ctr.values() if v is not None), default=1.0)
    y_hi = (y_hi or 1.0) * 1.05

    def sx(t):
        return ml + (t - t_lo) / max(t_hi - t_lo, 1) * plot_w

    def sy(v):
        return mt + plot_h - v / y_hi * plot_h

    svg = ET.Element("svg", {"xmlns": "http://www.w3.org/2000/svg", "version": "1.1",
                             "width": str(width), "height": str(height),
                             "viewBox": f"0 0 {width} {height}"})

    def line(x1, y1, x2, y2, attrs):
        xy = {"x1": f"{x1:.2f}", "y1": f"{y1:.2f}", "x2": f"{x2:.2f}", "y2": f"{y2:.2f}"}
        ET.SubElement(svg, "line", {**xy, **attrs})

    def text(x, y, s, anchor="start", size=11):
        ET.SubElement(svg, "text", {"x": f"{x:.2f}", "y": f"{y:.2f}", "font-family": "sans-serif",
                                    "font-size": str(size), "text-anchor": anchor,
                                    "fill": "#222222"}).text = s

    if title:
        text(ml, mt - 10, title, size=14)
    axis = {"stroke": "#333333", "stroke-width": "1"}
    line(ml, mt + plot_h, ml + plot_w, mt + plot_h, axis)
    line(ml, mt, ml, mt + plot_h, axis)
    for i in range(5):
        line(ml - 4, sy(y_hi * i / 4), ml, sy(y_hi * i / 4), axis)
        text(ml - 8, sy(y_hi * i / 4) + 4, f"{y_hi * i / 4:.3f}", anchor="end")
    for t in times[::max(1, (len(times) + 9) // 10)]:
        line(sx(t), mt + plot_h, sx(t), mt + plot_h + 4, axis)
        text(sx(t), mt + plot_h + 18, str(t), anchor="middle")
    text(ml + plot_w / 2, height - 12, "time", anchor="middle")
    text(18, mt + plot_h / 2, "CTR", anchor="middle")
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    for i, col in enumerate(cols):
        color = palette[i % len(palette)]
        points = [f"{sx(r.time_index):.2f},{sy(v):.2f}" for r in series
                  if (v := r.ctr.get(col)) is not None]
        ET.SubElement(svg, "polyline", {"points": " ".join(points), "fill": "none",
                                        "stroke": color, "stroke-width": "2"})
        ly = mt + 16 + 20 * i
        line(width - mr + 12, ly - 4, width - mr + 36, ly - 4, {"stroke": color, "stroke-width": "2"})
        text(width - mr + 42, ly, col)
    return ET.tostring(svg, encoding="unicode") + "\n"
