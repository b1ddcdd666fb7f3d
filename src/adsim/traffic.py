"""Seeded organic traffic, click-fraud schedules, and fraud detection.

Query arrivals are Poisson; organic click probability is the advertiser's base
CTR damped by slot position. Clicks land at the same millisecond as their
impression. Traffic comes out as the log's rows, ``(t, advertiser, slot,
query id or ref, source)``. ``fraud_events`` is the one source of fraud
clicks, a lazy stream of rows drawn as they are read, and ``simulate``, which
merges them tick by tick, the one place they enter a log.
``PLAN_FIELDS`` holds the fields each plan kind needs, for ``FraudPlan`` and
the config loader alike. With a fixed seed every function here is fully
deterministic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    IMPRESSION,
    MAX_SEED,
    AdvertiserId,
    ClickSource,
    EventLog,
    Seed,
    check_min,
    check_range,
    row_order,
)
from .auction import SlotAllocation

SCRIPTED = "scripted"
HUMAN = "human"
# The fields each plan kind needs: key -> (type a config value is read as, lower bound).
PLAN_FIELDS = {
    SCRIPTED: {"interval_ms": (int, 1)},
    HUMAN: {"mean_gap_ms": (float, 1.0), "gap_sigma": (float, 0.0)},
}

# The most events one source may add to a run: a plan's clicks, or the organic impressions
# ``ScenarioConfig`` expects. Sized in the README.
MAX_EVENTS = 1_000_000

# Synthetic fraud impressions get query ids from here up, far above the organic
# ids: a run expects at most MAX_EVENTS organic impressions, so fewer queries.
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
        check_min("traffic.position_decay", self.position_decay, 0.0)  # a finite number; 0 fails below
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
        if self.kind not in PLAN_FIELDS:
            raise ValueError(f"kind: expected scripted or human, got {self.kind!r}")
        if not self.target:
            raise ValueError("target: empty advertiser id")
        check_min("start_ms", self.start_ms, 0)
        check_range("count", self.count, 1, MAX_EVENTS)
        for key, (_, lo) in PLAN_FIELDS[self.kind].items():
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


# ---------------------------------------------------------------------------
# Organic traffic.


def query_times(
    cfg: TrafficConfig, rng: numpy.random.Generator, t_lo: int, t_hi: int
) -> list[int]:
    """Sorted query arrival times over ``[t_lo, t_hi)``: a Poisson count, then
    that many uniform milliseconds. Draws nothing for an empty span."""
    span_ms = t_hi - t_lo
    if span_ms <= 0:
        return []
    n_queries = int(rng.poisson(cfg.queries_per_second * span_ms / 1000.0))
    if n_queries == 0:
        return []
    times = rng.integers(t_lo, t_hi, size=n_queries)
    times.sort()
    return times.tolist()


def organic_events(
    cfg: TrafficConfig,
    allocation: Sequence[SlotAllocation],
    rng: numpy.random.Generator,
    times: Sequence[int],
    query_id_start: int,
) -> tuple[list[tuple], int]:
    """One impression row per slot of ``allocation``, and its organic click
    row if drawn, for each query arriving at ``times`` (from ``query_times``),
    in draw order; returns (rows, next query id). Query ids run from
    ``query_id_start``.
    """
    shown = [
        (a.advertiser, a.slot, cfg.base_ctr[a.advertiser] * cfg.position_decay ** (a.slot - 1))
        for a in allocation
    ]
    # one uniform per query and slot, drawn query-major as one call per slot would
    draws = iter(rng.random(len(times) * len(shown)).tolist())
    rows = []
    for qid, t in enumerate(times, start=query_id_start):
        for adv, slot, p in shown:
            rows.append((t, adv, slot, qid, IMPRESSION))
            if next(draws) < p:
                rows.append((t, adv, slot, qid, ClickSource.ORGANIC))
    return rows, query_id_start + len(times)


# ---------------------------------------------------------------------------
# Fraud schedules.


def click_times(plan: FraudPlan, horizon_ms: int) -> Iterable[int]:
    """Millisecond timestamps of the plan's clicks, in increasing order: a
    ``range`` for a scripted plan, an iterator over one draw of gaps for a
    human one, each gap capped at ``horizon_ms``. Whether the last click falls
    before it is ``ScenarioConfig``'s check.
    """
    if plan.kind == SCRIPTED:
        return range(plan.start_ms, plan.start_ms + plan.count * plan.interval_ms, plan.interval_ms)
    from numpy.random import default_rng  # numpy loads only where a stream is seeded
    rng = default_rng(plan.seed)
    sigma = plan.gap_sigma
    # Parameterized so the distribution mean equals mean_gap_ms.
    mu = math.log(plan.mean_gap_ms) - sigma * sigma / 2.0
    gaps = rng.lognormal(mean=mu, sigma=sigma, size=plan.count - 1).tolist()
    # a gap as long as the horizon already fails the plan; capped, infinity never rounds
    return accumulate((max(1, round(min(gap, horizon_ms))) for gap in gaps), initial=plan.start_ms)


def fraud_events(plans: Sequence[FraudPlan], horizon_ms: int) -> Iterator[tuple]:
    """Impression/click row pairs for every plan, in ``row_order``, yielded as
    they are read: one lazy stream per plan, merged.

    Each click gets its own synthetic impression in slot 1. Their query ids
    run from FRAUD_QUERY_ID_BASE through the plans in order. ``ScenarioConfig``
    checks each plan against the horizon; ``EventLog.append`` rejects any row
    at or past a log's.
    """
    def rows(plan: FraudPlan, first_qid: int) -> Iterator[tuple]:
        source = ClickSource.SCRIPTED_FRAUD if plan.kind == SCRIPTED else ClickSource.HUMAN_FRAUD
        for qid, t in enumerate(click_times(plan, horizon_ms), start=first_qid):
            yield (t, plan.target, 1, qid, IMPRESSION)
            yield (t, plan.target, 1, qid, source)

    first_qids = accumulate((plan.count for plan in plans), initial=FRAUD_QUERY_ID_BASE)
    return heapq.merge(*map(rows, plans, first_qids), key=row_order)


# ---------------------------------------------------------------------------
# Detection.


def detect_scripted(
    log: EventLog, min_run: int = 5, interval_tolerance_ms: int = 10
) -> list[FraudFlag]:
    """Flag runs of near-constant click spacing per advertiser.

    Scans each advertiser's click stream left to right, growing a run while
    every inter-click gap stays within ``interval_tolerance_ms`` of the run's
    median gap. A run that ends with at least ``min_run`` clicks is flagged.
    Reads each click's time and ref from the log's records, never its label,
    so it behaves identically on stripped views, and builds no event object.

    The run's gaps sit in two heaps (lower half negated, upper half) beside
    their running min and max, so each click costs O(log L). The test is done
    in doubled integers: ``m2`` is twice the median, exactly as
    ``statistics.median`` would give it.
    """
    check_min("min_run", min_run, 3)
    check_min("interval_tolerance_ms", interval_tolerance_ms, 0)
    tol2 = 2 * interval_tolerance_ms
    clicks_by: dict[str, list[tuple[int, int]]] = {}  # advertiser -> [(t, ref)]
    for t, adv, _, ref, source in log.records():
        if source is not IMPRESSION:
            clicks_by.setdefault(adv, []).append((t, ref))
    flags: list[FraudFlag] = []
    for adv in sorted(clicks_by):
        clicks = clicks_by[adv]
        start = 0
        lower: list[int] = []  # negated, so -lower[0] is the lower middle
        upper: list[int] = []
        lo = hi = 0
        for j in range(1, len(clicks)):
            gap = clicks[j][0] - clicks[j - 1][0]
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


def _flag(adv: str, run: list[tuple[int, int]]) -> FraudFlag:
    return FraudFlag(
        span=(run[0][0], run[-1][0]),
        advertiser=adv,
        flagged_click_ids=tuple(ref for _, ref in run),
    )
