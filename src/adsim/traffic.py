"""Seeded organic traffic, click-fraud schedules, and fraud detection.

Query arrivals are Poisson; organic click probability is the advertiser's base
CTR damped by slot position. Clicks land at the same millisecond as their
impression. ``fraud_events`` is the one source of fraud clicks: ``simulate``
merges them tick by tick, and ``EventLog.from_events`` merges them into any
other log. With a fixed seed every function here is fully deterministic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    MAX_SEED,
    AdvertiserId,
    ClickEvent,
    ClickSource,
    Event,
    EventLog,
    HorizonExceededError,
    ImpressionEvent,
    Seed,
    check_min,
    check_range,
    event_sort_key,
)
from .auction import SlotAllocation

SCRIPTED = "scripted"
HUMAN = "human"

# Synthetic fraud impressions get query ids from here up, far above anything
# the organic generator can mint in a sane scenario.
FRAUD_QUERY_ID_BASE = 1_000_000_000


@dataclass(frozen=True)
class TrafficConfig:
    """Organic traffic model.

    ``base_ctr`` maps each advertiser to its click probability in slot 1;
    slot s gets ``base_ctr * position_decay ** (s - 1)``.
    """

    queries_per_second: float
    base_ctr: Mapping[AdvertiserId, float]
    position_decay: float = 0.6

    def __post_init__(self):
        check_min("traffic.queries_per_second", self.queries_per_second, 0.0)
        for adv, p in self.base_ctr.items():
            check_range(f"base_ctr.{adv}", p, 0.0, 1.0)
        if not 0.0 < self.position_decay <= 1.0:
            raise ValueError(f"traffic.position_decay: outside (0, 1]: {self.position_decay}")


@dataclass(frozen=True)
class FraudPlan:
    """One attack on one advertiser.

    ``scripted``: ``count`` clicks at exact ``interval_ms`` spacing from
    ``start_ms``. ``human``: a click crew whose inter-click gaps are drawn
    log-normally with mean ``mean_gap_ms`` and shape ``gap_sigma`` (seeded by
    ``seed``). Every fraud click gets its own synthetic impression at the
    same millisecond.
    """

    kind: str
    target: AdvertiserId
    start_ms: int
    count: int
    interval_ms: int | None = None
    mean_gap_ms: float | None = None
    gap_sigma: float | None = None
    seed: Seed = 0

    def __post_init__(self):
        if self.kind not in (SCRIPTED, HUMAN):
            raise ValueError(f"kind: expected scripted or human, got {self.kind!r}")
        if not self.target:
            raise ValueError("target: empty advertiser id")
        check_min("start_ms", self.start_ms, 0)
        check_min("count", self.count, 1)
        if self.kind == SCRIPTED:
            needed = {"interval_ms": 1}
        else:
            needed = {"mean_gap_ms": 1.0, "gap_sigma": 0.0}
        for key, lo in needed.items():
            if getattr(self, key) is None:
                raise ValueError(f"{key}: required by a {self.kind} plan")
            check_min(key, getattr(self, key), lo)
        check_range("seed", self.seed, 0, MAX_SEED)


@dataclass(frozen=True)
class FraudFlag:
    """A detected run of suspiciously regular clicks."""

    span: tuple[int, int]  # [first click t, last click t]
    advertiser: AdvertiserId
    flagged_click_ids: tuple[int, ...]  # impression_refs of the flagged clicks
    reason: str = "fixed_interval_run"


# ---------------------------------------------------------------------------
# Organic traffic.


def organic_events(
    cfg: TrafficConfig,
    allocation: Sequence[SlotAllocation],
    rng: np.random.Generator,
    t_lo: int,
    t_hi: int,
    query_id_start: int,
) -> tuple[list[Event], int]:
    """Draw organic traffic over ``[t_lo, t_hi)``; returns (events, next query id).

    A scenario runner calls this once per tick against the current allocation,
    sharing one RNG across ticks.
    """
    span_ms = t_hi - t_lo
    if span_ms <= 0:
        return [], query_id_start
    n_queries = int(rng.poisson(cfg.queries_per_second * span_ms / 1000.0))
    times = np.sort(rng.integers(t_lo, t_hi, size=n_queries))
    events: list[Event] = []
    qid = query_id_start
    for t in times.tolist():
        for alloc in allocation:
            adv = alloc.advertiser
            events.append(ImpressionEvent(t, adv, alloc.slot, qid))
            p = cfg.base_ctr[adv] * cfg.position_decay ** (alloc.slot - 1)
            if rng.random() < p:
                events.append(ClickEvent(t, adv, alloc.slot, qid, ClickSource.ORGANIC))
        qid += 1
    return events, qid


# ---------------------------------------------------------------------------
# Fraud schedules.


def checked_click_times(plan: FraudPlan, horizon_ms: int) -> list[int]:
    """Millisecond timestamps of the plan's clicks, in increasing order.

    Raises HorizonExceededError if the last click falls at or past
    ``horizon_ms``.
    """
    if plan.kind == SCRIPTED:
        times = [plan.start_ms + k * plan.interval_ms for k in range(plan.count)]
    else:
        rng = np.random.default_rng(plan.seed)
        sigma = plan.gap_sigma
        # Parameterized so the distribution mean equals mean_gap_ms.
        mu = math.log(plan.mean_gap_ms) - sigma * sigma / 2.0
        times = [plan.start_ms]
        for gap in rng.lognormal(mean=mu, sigma=sigma, size=plan.count - 1).tolist():
            times.append(times[-1] + max(1, round(gap)))
    if times[-1] >= horizon_ms:
        raise HorizonExceededError(
            f"clicks reach t={times[-1]}, beyond horizon_ms={horizon_ms}"
        )
    return times


def fraud_events(plans: Sequence[FraudPlan], horizon_ms: int) -> list[Event]:
    """Impression/click pairs for every plan, in canonical order.

    Each click gets its own synthetic impression in slot 1. Their query ids
    run from FRAUD_QUERY_ID_BASE through the plans in order.
    """
    events: list[Event] = []
    qid = FRAUD_QUERY_ID_BASE
    for plan in plans:
        source = ClickSource.SCRIPTED_FRAUD if plan.kind == SCRIPTED else ClickSource.HUMAN_FRAUD
        for t in checked_click_times(plan, horizon_ms):
            events.append(ImpressionEvent(t, plan.target, 1, qid))
            events.append(ClickEvent(t, plan.target, 1, qid, source))
            qid += 1
    events.sort(key=event_sort_key)
    return events


# ---------------------------------------------------------------------------
# Detection.


def detect_scripted(
    log: EventLog, min_run: int = 5, interval_tolerance_ms: int = 10
) -> list[FraudFlag]:
    """Flag runs of near-constant click spacing per advertiser.

    Scans each advertiser's click stream left to right, growing a run while
    every inter-click gap stays within ``interval_tolerance_ms`` of the run's
    median gap. A run that ends with at least ``min_run`` clicks is flagged.
    Never reads click labels, so it behaves identically on stripped views.

    The run's gaps sit in two heaps (lower half negated, upper half) beside
    their running min and max, so each click costs O(log L). The test is done
    in doubled integers: ``m2`` is twice the median, exactly as
    ``statistics.median`` would give it.
    """
    if min_run < 3:
        raise ValueError(f"min_run must be >= 3, got {min_run}")
    if interval_tolerance_ms < 0:
        raise ValueError(f"negative tolerance: {interval_tolerance_ms}")
    tol2 = 2 * interval_tolerance_ms
    clicks_by: dict[str, list[ClickEvent]] = {}
    for e in log:
        if isinstance(e, ClickEvent):
            clicks_by.setdefault(e.advertiser, []).append(e)
    flags: list[FraudFlag] = []
    for adv in sorted(clicks_by):
        clicks = clicks_by[adv]
        start = 0
        lower: list[int] = []  # negated, so -lower[0] is the lower middle
        upper: list[int] = []
        lo = hi = 0
        for j in range(1, len(clicks)):
            gap = clicks[j].t - clicks[j - 1].t
            if j - start > 1:
                if gap <= -lower[0]:
                    heapq.heappush(lower, -gap)
                    if len(lower) > len(upper) + 1:
                        heapq.heappush(upper, -heapq.heappop(lower))
                else:
                    heapq.heappush(upper, gap)
                    if len(upper) > len(lower):
                        heapq.heappush(lower, -heapq.heappop(upper))
                lo, hi = min(lo, gap), max(hi, gap)
                m2 = -2 * lower[0] if len(lower) > len(upper) else upper[0] - lower[0]
                if 2 * hi - m2 <= tol2 and m2 - 2 * lo <= tol2:
                    continue
                if j - start >= min_run:
                    flags.append(_flag(adv, clicks[start:j]))
                start = j - 1  # the breaking gap seeds the next run
            lower, upper, lo, hi = [-gap], [], gap, gap
        if len(clicks) - start >= min_run:
            flags.append(_flag(adv, clicks[start:]))
    return flags


def _flag(adv: str, run: list[ClickEvent]) -> FraudFlag:
    return FraudFlag(
        span=(run[0].t, run[-1].t),
        advertiser=adv,
        flagged_click_ids=tuple(c.impression_ref for c in run),
    )
