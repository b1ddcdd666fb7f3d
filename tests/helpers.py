"""Log fixtures shared by several test modules."""
from __future__ import annotations

import numpy as np

from adsim.core import EventLog, event_sort_key
from adsim.estimators import ESTIMATOR_KINDS, CtrEstimate
from adsim.traffic import fraud_events, organic_events, query_times


def log_of(events, horizon: int) -> EventLog:
    """A log of ``events`` in canonical order, each added through ``append``."""
    log = EventLog(horizon)
    for e in sorted(events, key=event_sort_key):
        log.append(e)
    return log


def organic_log(cfg, allocation, horizon_ms: int, seed: int) -> EventLog:
    """Organic-only log over ``[0, horizon_ms)`` for a fixed slot allocation."""
    rng = np.random.default_rng(seed)
    events, _ = organic_events(cfg, allocation, rng, query_times(cfg, rng, 0, horizon_ms), 0)
    return log_of(events, horizon_ms)


def with_fraud(log: EventLog, plans) -> EventLog:
    """A new log with the plans' fraud events merged in; ``log`` is untouched."""
    return log_of([*log, *fraud_events(plans, log.horizon)], log.horizon)


def estimate_at(kind: str, events, advertiser: str, param: int, now: int) -> CtrEstimate:
    """A fresh windowed ``kind`` fold fed the advertiser's events with ``t < now``,
    estimated at ``now``. ``events`` is a log, or ``list(log)`` to scan it often."""
    fold = ESTIMATOR_KINDS[kind][1](param)
    for e in events:
        if e.t >= now:
            break
        if e.advertiser == advertiser:
            fold.observe(e)
    return fold.estimate(now)
