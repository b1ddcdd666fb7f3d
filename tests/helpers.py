"""Log fixtures shared by several test modules."""
from __future__ import annotations

import numpy as np

from adsim.core import EventLog
from adsim.traffic import organic_events


def organic_log(cfg, allocation, horizon_ms: int, seed: int) -> EventLog:
    """Organic-only log over ``[0, horizon_ms)`` for a fixed slot allocation."""
    events, _ = organic_events(cfg, allocation, np.random.default_rng(seed), 0, horizon_ms, 0)
    return EventLog.from_events(events, horizon_ms)
