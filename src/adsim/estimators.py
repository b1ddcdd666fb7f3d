"""Click-through-rate estimators.

Three windowed estimators (trailing time window, last-N impressions, last-N
clicks) plus a cohort-relative estimator that scores an advertiser by its
share of all clicks. Each is a streaming fold that consumes events in log
order. ``WindowSpec(kind, param).build_cohort(advertisers)`` is how the
simulator runs one kind for a whole cohort: ``observe`` each event once, and
``rates(now)`` maps every advertiser to its rate, or to None while the
estimate is undefined. ``ctr_relative`` and ``ctr_legacy`` score the
reference tables from their counts.

Feeding contract for the folds: call ``observe`` with events in non-decreasing
timestamp order, feed everything with ``t <= now`` before calling
``estimate(now)``, and query with non-decreasing ``now`` values. Each fold
applies its own boundary rule (the time and relative windows are half-open and
exclude ``t == now``; the impression and click windows include it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .core import AdvertiserId, ClickEvent, ClickTally, Event, ImpressionEvent


@dataclass(frozen=True, slots=True)
class CtrEstimate:
    """A click-through-rate estimate with its supporting counts.

    ``defined`` is False when the window holds no denominator yet (cold
    start); consumers substitute their own default in that case.
    """

    value: float
    clicks_in_window: int
    denominator: int
    defined: bool

    def __post_init__(self):
        if self.clicks_in_window < 0 or self.denominator < 0:
            raise ValueError("negative counts")
        if self.defined:
            if self.denominator <= 0:
                raise ValueError("defined estimate needs a positive denominator")
            if self.value != self.clicks_in_window / self.denominator:
                raise ValueError("value does not match clicks/denominator")

    @classmethod
    def ratio(cls, clicks: int, denominator: int) -> "CtrEstimate":
        return cls(clicks / denominator, clicks, denominator, True)

    @classmethod
    def undefined(cls) -> "CtrEstimate":
        return cls(0.0, 0, 0, False)


class TimeWindowCtr:
    """Clicks over impressions within the trailing half-open window [now-T, now)."""

    def __init__(self, advertiser: AdvertiserId, window_ms: int):
        if window_ms < 1:
            raise ValueError("window_ms must be >= 1")
        self.advertiser = advertiser
        self.window_ms = window_ms
        self._imp: deque[int] = deque()
        self._clk: deque[int] = deque()

    def observe(self, e: Event) -> None:
        if e.advertiser != self.advertiser:
            return
        (self._imp if isinstance(e, ImpressionEvent) else self._clk).append(e.t)

    def estimate(self, now: int) -> CtrEstimate:
        lo = now - self.window_ms
        for dq in (self._imp, self._clk):
            while dq and dq[0] < lo:
                dq.popleft()
        y = len(self._imp) - _count_at_or_after(self._imp, now)
        x = len(self._clk) - _count_at_or_after(self._clk, now)
        return CtrEstimate.ratio(x, y) if y > 0 else CtrEstimate.undefined()


def _count_at_or_after(dq: deque, now: int) -> int:
    # Timestamps are fed in order, so anything >= now sits at the tail.
    n = 0
    for t in reversed(dq):
        if t < now:
            break
        n += 1
    return n


class ImpressionWindowCtr:
    """Clicked fraction of the advertiser's last N impressions at or before now."""

    def __init__(self, advertiser: AdvertiserId, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.advertiser = advertiser
        self.size = size
        self._window: deque[int] = deque()  # query ids, oldest first
        self._members: set[int] = set()
        self._clicked: set[int] = set()

    def observe(self, e: Event) -> None:
        if e.advertiser != self.advertiser:
            return
        if isinstance(e, ImpressionEvent):
            self._window.append(e.query_id)
            self._members.add(e.query_id)
            if len(self._window) > self.size:
                old = self._window.popleft()
                self._members.remove(old)
                self._clicked.discard(old)
        elif e.impression_ref in self._members:
            self._clicked.add(e.impression_ref)

    def estimate(self, now: int) -> CtrEstimate:
        y = len(self._window)
        if y == 0:
            return CtrEstimate.undefined()
        return CtrEstimate.ratio(len(self._clicked), y)


class ClickWindowCtr:
    """Last N clicks over the impressions shown since the Nth-most-recent click.

    The denominator counts the advertiser's impressions from the one that
    received that Nth-last click (inclusive) through now.
    """

    def __init__(self, advertiser: AdvertiserId, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.advertiser = advertiser
        self.size = size
        self._imp_pos: dict[int, int] = {}  # query id -> arrival ordinal
        self._imp_count = 0
        self._recent: deque[int] = deque()  # ordinals of last N clicked impressions

    def observe(self, e: Event) -> None:
        if e.advertiser != self.advertiser:
            return
        if isinstance(e, ImpressionEvent):
            self._imp_pos[e.query_id] = self._imp_count
            self._imp_count += 1
        else:
            self._recent.append(self._imp_pos[e.impression_ref])
            if len(self._recent) > self.size:
                self._recent.popleft()

    def estimate(self, now: int) -> CtrEstimate:
        if len(self._recent) < self.size:
            return CtrEstimate.undefined()
        y = self._imp_count - self._recent[0]
        return CtrEstimate.ratio(self.size, y)


class RelativeCtr:
    """Shares each advertiser's clicks against the whole cohort's clicks.

    Cumulative from scenario start by default; pass ``interval_ms`` for a
    sliding half-open window ``[now - interval, now)``. The sliding form keeps
    the click times inside its window; the cumulative one keeps, per
    advertiser, its click count, its last click time and the clicks at that
    time, which are the only ones ``now`` can still exclude.
    """

    def __init__(self, interval_ms: int | None = None):
        if interval_ms is not None and interval_ms < 1:
            raise ValueError("interval_ms must be >= 1")
        self.interval_ms = interval_ms
        self._clicks: dict[str, deque[int]] = {}  # sliding
        self._counts: dict[str, list[int]] = {}  # cumulative: [count, last t, at last t]

    def observe(self, e: Event) -> None:
        if not isinstance(e, ClickEvent):
            return
        if self.interval_ms is not None:
            self._clicks.setdefault(e.advertiser, deque()).append(e.t)
            return
        c = self._counts.setdefault(e.advertiser, [0, e.t, 0])
        c[0] += 1
        if c[1] == e.t:
            c[2] += 1
        else:
            c[1], c[2] = e.t, 1

    def tally(self, now: int) -> ClickTally:
        counts: dict[str, int] = {}
        if self.interval_ms is None:
            lo = 0
            for adv, (n, last, at_last) in sorted(self._counts.items()):
                n -= at_last if last >= now else 0
                if n > 0:
                    counts[adv] = n
        else:
            lo = now - self.interval_ms
            for adv, dq in sorted(self._clicks.items()):
                while dq and dq[0] < lo:
                    dq.popleft()
                n = len(dq) - _count_at_or_after(dq, now)
                if n > 0:
                    counts[adv] = n
        return ClickTally(counts, sum(counts.values()), (max(lo, 0), now))

    def estimate(self, advertiser: AdvertiserId, now: int) -> CtrEstimate:
        return ctr_relative(self.tally(now), advertiser)


# The estimator kinds in CSV column order: kind -> (column label, streaming fold).
ESTIMATOR_KINDS = {
    "time": ("ctr_time", TimeWindowCtr),
    "impressions": ("ctr_impr", ImpressionWindowCtr),
    "clicks": ("ctr_click", ClickWindowCtr),
    "relative": ("ctr_relative", RelativeCtr),
}


@dataclass(frozen=True, slots=True)
class WindowSpec:
    """Selects one estimator family and its window parameter.

    kind="time"        param = trailing window length in ms
    kind="impressions" param = number of most recent impressions
    kind="clicks"      param = number of most recent clicks
    kind="relative"    param = sliding interval in ms, or None for
                       cumulative-from-start counting (the default)
    """

    kind: str
    param: int | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "relative":
            if self.param is not None and self.param < 1:
                raise ValueError("relative interval must be >= 1 ms")
        elif self.param is None or self.param < 1:
            raise ValueError(f"{self.kind} window parameter must be >= 1")

    @property
    def label(self) -> str:
        """Column name used in CSV output and reports."""
        return ESTIMATOR_KINDS[self.kind][0]

    def build_cohort(self, advertisers: Sequence[AdvertiserId]):
        """One estimator for the whole cohort, with ``observe(e)`` and
        ``rates(now) -> {advertiser: rate, or None while undefined}``.

        The relative kind keeps one tally for everyone; the windowed kinds
        keep one fold per advertiser and hand each event only to its own.
        """
        fold = ESTIMATOR_KINDS[self.kind][1]
        if fold is RelativeCtr:
            return _RelativeCohort(advertisers, RelativeCtr(self.param))
        return _FoldCohort({adv: fold(adv, self.param) for adv in advertisers})


class _RelativeCohort:
    """Every advertiser's share, from one tally per ``rates`` call."""

    def __init__(self, advertisers: Sequence[AdvertiserId], shared: RelativeCtr):
        self.advertisers = list(advertisers)
        self.shared = shared
        self.observe = shared.observe  # the one tally sees every event itself

    def rates(self, now: int) -> dict[AdvertiserId, float | None]:
        tally = self.shared.tally(now)
        if tally.total == 0:
            return dict.fromkeys(self.advertisers)
        return {adv: tally.count(adv) / tally.total for adv in self.advertisers}


class _FoldCohort:
    """One windowed fold per advertiser; an event reaches only its own."""

    def __init__(self, folds: dict[AdvertiserId, object]):
        self.folds = folds

    def observe(self, e: Event) -> None:
        fold = self.folds.get(e.advertiser)
        if fold is not None:
            fold.observe(e)

    def rates(self, now: int) -> dict[AdvertiserId, float | None]:
        return {
            adv: est.value if (est := fold.estimate(now)).defined else None
            for adv, fold in self.folds.items()
        }


def ctr_relative(tally: ClickTally, advertiser: AdvertiserId) -> CtrEstimate:
    """The advertiser's share of all clicks in the tally window."""
    if tally.total == 0:
        return CtrEstimate.undefined()
    return CtrEstimate.ratio(tally.count(advertiser), tally.total)


def ctr_legacy(clicks: int, impressions: int) -> float:
    """CTR as clicks/(impressions + clicks).

    For feeds where the impression counter excludes displays that converted
    into clicks, so clicks must be added back to recover the display total.
    Raises ``ZeroDivisionError`` when both counts are zero.
    """
    if clicks < 0 or impressions < 0:
        raise ValueError("counts must be non-negative")
    if impressions + clicks == 0:
        raise ZeroDivisionError("no displays: impressions + clicks == 0")
    return clicks / (impressions + clicks)
