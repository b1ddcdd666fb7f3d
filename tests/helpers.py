"""Log fixtures shared by several test modules."""
from __future__ import annotations

import numpy as np

from adsim.core import EventLog
from adsim.estimators import ESTIMATOR_KINDS, CtrEstimate
from adsim.traffic import fraud_events, organic_events


def organic_log(cfg, allocation, horizon_ms: int, seed: int) -> EventLog:
    """Organic-only log over ``[0, horizon_ms)`` for a fixed slot allocation."""
    events, _ = organic_events(cfg, allocation, np.random.default_rng(seed), 0, horizon_ms, 0)
    return EventLog.from_events(events, horizon_ms)


def with_fraud(log: EventLog, plans) -> EventLog:
    """A new log with the plans' fraud events merged in; ``log`` is untouched."""
    return EventLog.from_events([*log, *fraud_events(plans, log.horizon)], log.horizon)


def estimate_at(kind: str, log: EventLog, advertiser: str, param: int, now: int) -> CtrEstimate:
    """A fresh ``kind`` fold fed every event with ``t <= now``, estimated at ``now``."""
    fold = ESTIMATOR_KINDS[kind][1](advertiser, param)
    for e in log:
        if e.t > now:
            break
        fold.observe(e)
    return fold.estimate(now)
