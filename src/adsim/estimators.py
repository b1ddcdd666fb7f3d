"""Click-through-rate estimators.

Three windowed estimators (trailing time window, last-N impressions, last-N
clicks) plus a cohort-relative estimator that scores an advertiser by its
share of all clicks. Each is a streaming fold that consumes events in log
order and answers ``estimate(now)`` with a ``CtrEstimate``: the window's two
counts, clicks over impressions for the windowed kinds and #clicks_i over
#clicks_t for the relative one. ``build_series`` runs one fold per kind for its
focus advertiser; ``simulate`` ranks the whole cohort with its primary kind,
from one ``RelativeCtr.tally`` per auction or from one windowed fold per
advertiser. ``ctr_relative`` and ``ctr_legacy`` score the reference tables
from their counts.

Feeding rule for the folds: ``observe(*row)`` takes an event as
the log's row, ``(t, advertiser, slot, ref, source)``. Feed a windowed fold
one advertiser's events, and ``RelativeCtr`` the whole cohort's clicks, in log
order; feed exactly the events with ``t < now`` before calling
``estimate(now)``, and query with non-decreasing ``now``. An estimate covers
what the fold was fed: ``now`` only sets the trailing edge ``now - T`` of the
time window and of the sliding relative one. As an event at ``t`` is fed, the
queue it joins drops what falls below ``t - T`` (every later ``now`` exceeds
``t``). The time fold's other queue is pruned only by ``estimate(now)``,
which drops what falls below ``now - T`` from every queue. It drops nothing
until ``now`` passes ``edge()``, the oldest held ``t`` plus ``T``, so with
nothing fed since, an estimate at any ``now`` up to the edge repeats the last.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import IMPRESSION, AdvertiserId, check_int, check_min, check_range


@dataclass(frozen=True, slots=True)
class CtrEstimate:
    """A click-through rate as its two counts.

    ``defined`` is False while the window holds no denominator yet (cold
    start); consumers substitute their own default in that case.
    """

    clicks_in_window: int
    denominator: int

    def __post_init__(self):
        if self.clicks_in_window < 0 or self.denominator < 0:
            raise ValueError("negative counts")

    @property
    def defined(self) -> bool:
        return self.denominator > 0

    @property
    def value(self) -> float:
        return self.clicks_in_window / self.denominator if self.denominator else 0.0


class TimeWindowCtr:
    """Clicks over impressions within the trailing half-open window [now-T, now)."""

    def __init__(self, window_ms: int):
        check_int("window_ms", window_ms, 1)
        self.window_ms = window_ms
        self._imp: deque[int] = deque()
        self._clk: deque[int] = deque()

    def observe(self, t, advertiser, slot, ref, source) -> None:
        fed = self._imp if source is IMPRESSION else self._clk
        fed.append(t)
        while fed[0] < t - self.window_ms:  # stops at t itself; the other deque waits for estimate
            fed.popleft()

    def estimate(self, now: int) -> CtrEstimate:
        lo = now - self.window_ms
        for dq in (self._imp, self._clk):
            while dq and dq[0] < lo:
                dq.popleft()
        y = len(self._imp)
        return CtrEstimate(len(self._clk), y) if y else CtrEstimate(0, 0)

    def edge(self) -> int | None:
        """The last ``now`` at which ``estimate`` drops nothing: the oldest held
        ``t`` plus the window; None while the fold holds no event."""
        held = [dq[0] for dq in (self._imp, self._clk) if dq]
        return min(held) + self.window_ms if held else None


class ImpressionWindowCtr:
    """Clicked fraction of the last N impressions fed."""

    def __init__(self, size: int):
        check_int("size", size, 1)
        self.size = size
        self._window: deque[int] = deque()  # query ids, oldest first
        self._members: set[int] = set()
        self._clicked: set[int] = set()

    def observe(self, t, advertiser, slot, ref, source) -> None:
        if source is IMPRESSION:
            self._window.append(ref)
            self._members.add(ref)
            if len(self._window) > self.size:
                old = self._window.popleft()
                self._members.remove(old)
                self._clicked.discard(old)
        elif ref in self._members:
            self._clicked.add(ref)

    def estimate(self, now: int) -> CtrEstimate:
        return CtrEstimate(len(self._clicked), len(self._window))


class ClickWindowCtr:
    """Last N clicks over the impressions shown since the Nth-most-recent click.

    The denominator counts the impressions fed from the one that received that Nth-last
    click (inclusive) through the last one fed. It keeps each impression's arrival ordinal
    for its click; given ``clicked``, the ids later clicks will name (``simulate`` and
    ``build_series`` hand it ``EventLog.clicked``), only those, each dropped as its click arrives.
    """

    def __init__(self, size: int, clicked=None):
        check_int("size", size, 1)
        self.size = size
        self._clicked = clicked
        self._imp_pos: dict[int, int] = {}  # query id -> arrival ordinal
        self._imp_count = 0
        self._recent: deque[int] = deque(maxlen=size)  # ordinals of last N clicked impressions

    def observe(self, t, advertiser, slot, ref, source) -> None:
        if source is IMPRESSION:
            if self._clicked is None or ref in self._clicked:
                self._imp_pos[ref] = self._imp_count
            self._imp_count += 1
        else:
            self._recent.append(self._imp_pos[ref] if self._clicked is None else self._imp_pos.pop(ref))

    def estimate(self, now: int) -> CtrEstimate:
        if len(self._recent) < self.size:
            return CtrEstimate(0, 0)
        return CtrEstimate(self.size, self._imp_count - self._recent[0])


class RelativeCtr:
    """Shares each advertiser's clicks against the whole cohort's clicks.

    Fed the whole cohort's events, it keeps one click count per advertiser:
    cumulative (the default) or, given ``interval_ms``, over the sliding
    half-open window ``[now - interval, now)``, whose clicks it queues in log
    order to take them out of the count as they leave the window.
    """

    def __init__(self, interval_ms: int | None = None):
        if interval_ms is not None:  # None is the cumulative mode
            check_int("interval_ms", interval_ms, 1)
        self.interval_ms = interval_ms
        self._counts: dict[str, int] = {}
        # fed in sliding mode only, so _evict never reads a None interval_ms
        self._window: deque[tuple[int, AdvertiserId]] = deque()

    def observe(self, t, advertiser, slot, ref, source) -> None:
        if source is IMPRESSION:
            return
        self._counts[advertiser] = self._counts.get(advertiser, 0) + 1
        if self.interval_ms is not None:
            self._window.append((t, advertiser))
            self._evict(t)

    def tally(self, now: int) -> dict[AdvertiserId, int]:
        """Clicks per advertiser in the window ending at ``now``; only
        advertisers with clicks there appear."""
        self._evict(now)
        return dict(self._counts)

    def _evict(self, now: int) -> None:
        while self._window and self._window[0][0] < now - self.interval_ms:
            adv = self._window.popleft()[1]
            self._counts[adv] -= 1
            if not self._counts[adv]:
                del self._counts[adv]

    def estimate(self, advertiser: AdvertiserId, now: int) -> CtrEstimate:
        self._evict(now)  # read the counts in place, not a tally's copy
        return ctr_relative(self._counts.get(advertiser, 0), sum(self._counts.values()))

    def edge(self) -> int | None:
        """The last ``now`` at which ``estimate`` drops nothing: the oldest queued
        click's ``t`` plus the interval; None with no click queued, as in the
        cumulative mode."""
        return self._window[0][0] + self.interval_ms if self._window else None


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
        self.fold()  # the fold is the one check of the window

    def fold(self, clicked=None):
        """A fresh streaming fold of this kind over this window, a click window given ``clicked``."""
        make = ESTIMATOR_KINDS[self.kind][1]
        return make(self.param, clicked) if make is ClickWindowCtr else make(self.param)

    @property
    def label(self) -> str:
        """Column name used in CSV output and reports."""
        return ESTIMATOR_KINDS[self.kind][0]


def ctr_relative(clicks: int, total_clicks: int) -> CtrEstimate:
    """An advertiser's share of the cohort's clicks: #clicks_i / #clicks_t."""
    check_min("total_clicks", total_clicks, 0)
    check_range("clicks", clicks, 0, total_clicks)
    return CtrEstimate(clicks, total_clicks)


def ctr_legacy(clicks: int, impressions: int) -> float:
    """CTR as clicks/(impressions + clicks).

    For feeds where the impression counter excludes displays that converted
    into clicks, so clicks must be added back to recover the display total.
    Raises ``ZeroDivisionError`` when both counts are zero.
    """
    check_min("clicks", clicks, 0)
    check_min("impressions", impressions, 0)
    if impressions + clicks == 0:
        raise ZeroDivisionError("no displays: impressions + clicks == 0")
    return clicks / (impressions + clicks)
