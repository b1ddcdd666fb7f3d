"""Log fixtures shared by several test modules, and the event/row conversions.

The package passes events around as the log's rows, ``(t, advertiser, slot,
query id or ref, source)``; the tests' oracles build event objects. ``row_of``
and ``event_of`` convert between the two, and ``event_sort_key`` is the
canonical order written on event objects, independently of ``row_order``.
"""
from __future__ import annotations

from adsim.core import IMPRESSION, ClickEvent, EventLog, ImpressionEvent
from adsim.estimators import ESTIMATOR_KINDS, CtrEstimate
from adsim.traffic import organic_events, query_times


def event_sort_key(e) -> tuple[int, int, str, int]:
    """Canonical total order: time, impressions before clicks, advertiser, ref."""
    if isinstance(e, ImpressionEvent):
        return (e.t, 0, e.advertiser, e.query_id)
    return (e.t, 1, e.advertiser, e.impression_ref)


def row_of(e) -> tuple:
    """The row that ``EventLog.records()`` yields for event ``e``."""
    if isinstance(e, ImpressionEvent):
        return (e.t, e.advertiser, e.slot, e.query_id, IMPRESSION)
    return (e.t, e.advertiser, e.slot, e.impression_ref, e.source)


def event_of(row):
    """The event object of a row, as iterating a log builds it."""
    t, advertiser, slot, ref, source = row
    if source is IMPRESSION:
        return ImpressionEvent(t, advertiser, slot, ref)
    return ClickEvent(t, advertiser, slot, ref, source)


def log_of(events, horizon: int) -> EventLog:
    """A log of ``events`` in canonical order, each row added through ``append``."""
    log = EventLog(horizon)
    for e in sorted(events, key=event_sort_key):
        log.append(*row_of(e))
    return log


def organic_log(cfg, allocation, horizon_ms: int, seed: int) -> EventLog:
    """Organic-only log over ``[0, horizon_ms)`` for a fixed slot allocation."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows, _ = organic_events(cfg, allocation, rng, query_times(cfg, rng, 0, horizon_ms), 0)
    return log_of(map(event_of, rows), horizon_ms)


def with_fraud(log: EventLog, plans) -> EventLog:
    """A new log with the plans' fraud events, as ``oracles.fraud_rows_listed``
    builds them, merged in; ``log`` is untouched."""
    from oracles import fraud_rows_listed  # oracles imports this module

    return log_of([*log, *map(event_of, fraud_rows_listed(plans, log.horizon))], log.horizon)


def estimate_at(kind: str, events, advertiser: str, param: int, now: int) -> CtrEstimate:
    """A fresh windowed ``kind`` fold fed the advertiser's events with ``t < now``,
    estimated at ``now``. ``events`` is a log, or ``list(log)`` to scan it often."""
    fold = ESTIMATOR_KINDS[kind][1](param)
    for e in events:
        if e.t >= now:
            break
        if e.advertiser == advertiser:
            fold.observe(*row_of(e))
    return fold.estimate(now)
