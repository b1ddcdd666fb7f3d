"""Domain events, the append-only event log, click tallies, and JSONL persistence.

All timestamps are integer milliseconds from scenario start. Advertiser ids are
opaque strings; their lexicographic order is the global tie-break everywhere.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, Union

AdvertiserId = str

# 64-bit unsigned integer used to derive every random stream.
Seed = int
MAX_SEED = 2**64 - 1


def check_min(path: str, value, lo) -> None:
    """Raise ValueError starting with ``path`` unless ``lo <= value``."""
    if value < lo:
        raise ValueError(f"{path}: must be >= {lo}, got {value}")


def check_range(path: str, value, lo, hi) -> None:
    """Raise ValueError starting with ``path`` unless ``lo <= value <= hi``."""
    check_min(path, value, lo)
    if value > hi:
        raise ValueError(f"{path}: must be <= {hi}, got {value}")


class AdsimError(Exception):
    """Base class for every error raised by this package."""


class OutOfOrderError(AdsimError):
    """Appended event has an earlier timestamp than the log tail."""


class DanglingClickError(AdsimError):
    """Click references an impression that is not in the log."""


class DuplicateClickError(AdsimError):
    """Second click on an impression that was already clicked."""


class DuplicateImpressionError(AdsimError):
    """Second impression with the same advertiser and query id."""


class HorizonExceededError(AdsimError):
    """An event, or a fraud plan's click, falls at or past the log horizon."""


class MalformedRecordError(AdsimError):
    """A persisted record could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class ClickSource(Enum):
    """Ground-truth click label; never consulted by estimators or the detector."""

    ORGANIC = "organic"
    SCRIPTED_FRAUD = "scripted_fraud"
    HUMAN_FRAUD = "human_fraud"


@dataclass(frozen=True, slots=True)
class ImpressionEvent:
    """An ad shown in a result slot. Slots are 1-based, slot 1 is the top position."""

    t: int
    advertiser: AdvertiserId
    slot: int
    query_id: int

    def __post_init__(self):
        _check_common(self.t, self.advertiser, self.slot)


@dataclass(frozen=True, slots=True)
class ClickEvent:
    """A click on an earlier impression.

    ``impression_ref`` is the ``query_id`` of the impression that was clicked;
    together with ``advertiser`` it identifies that impression uniquely.
    ``source`` is ``None`` on label-stripped views.
    """

    t: int
    advertiser: AdvertiserId
    slot: int
    impression_ref: int
    source: ClickSource | None = ClickSource.ORGANIC

    def __post_init__(self):
        _check_common(self.t, self.advertiser, self.slot)
        if self.source is not None and not isinstance(self.source, ClickSource):
            raise ValueError(f"bad click source: {self.source!r}")


Event = Union[ImpressionEvent, ClickEvent]


def _check_common(t: int, advertiser: str, slot: int) -> None:
    if t < 0:
        raise ValueError(f"negative timestamp: {t}")
    if not advertiser:
        raise ValueError("empty advertiser id")
    if slot < 1:
        raise ValueError(f"slot must be >= 1, got {slot}")


def event_sort_key(e: Event) -> tuple[int, int, str, int]:
    """Canonical total order: time, impressions before clicks, advertiser, ref."""
    if isinstance(e, ImpressionEvent):
        return (e.t, 0, e.advertiser, e.query_id)
    return (e.t, 1, e.advertiser, e.impression_ref)


@dataclass(frozen=True)
class ClickTally:
    """Per-advertiser click counts over a half-open window ``[from_ms, to_ms)``."""

    per_advertiser: Mapping[AdvertiserId, int]
    total: int
    window: tuple[int, int]

    def __post_init__(self):
        if any(c < 0 for c in self.per_advertiser.values()):
            raise ValueError("negative click count")
        if self.total != sum(self.per_advertiser.values()):
            raise ValueError("total does not match per-advertiser counts")
        lo, hi = self.window
        if lo > hi:
            raise ValueError(f"inverted window: [{lo}, {hi})")

    def count(self, advertiser: AdvertiserId) -> int:
        return self.per_advertiser.get(advertiser, 0)


class EventLog:
    """Append-only, time-ordered stream of impressions and clicks.

    Single writer; iteration is read-only and may be shared. Every event
    lies in ``[0, horizon)``. Each (advertiser, query id) names at most one
    impression. Clicks must reference an impression already in the log for
    the same advertiser, and each impression can be clicked at most once.
    """

    def __init__(self, horizon: int):
        if horizon < 0:
            raise ValueError(f"negative horizon: {horizon}")
        self.horizon = horizon
        self._events: list[Event] = []
        self._impressions: set[tuple[str, int]] = set()
        self._clicked: set[tuple[str, int]] = set()

    @classmethod
    def from_events(cls, events: Iterable[Event], horizon: int) -> "EventLog":
        """Build a log from an unordered batch, sorting by the canonical key."""
        log = cls(horizon)
        for e in sorted(events, key=event_sort_key):
            log.append(e)
        return log

    def append(self, e: Event) -> None:
        if self._events and e.t < self._events[-1].t:
            raise OutOfOrderError(
                f"event at t={e.t} behind log tail t={self._events[-1].t}"
            )
        if e.t >= self.horizon:
            raise HorizonExceededError(f"event at t={e.t} at or past horizon {self.horizon}")
        if isinstance(e, ClickEvent):
            key = (e.advertiser, e.impression_ref)
            if key not in self._impressions:
                raise DanglingClickError(
                    f"click at t={e.t} references unknown impression "
                    f"{e.impression_ref} of {e.advertiser!r}"
                )
            if key in self._clicked:
                raise DuplicateClickError(
                    f"impression {e.impression_ref} of {e.advertiser!r} already clicked"
                )
            self._clicked.add(key)
        else:
            key = (e.advertiser, e.query_id)
            if key in self._impressions:
                raise DuplicateImpressionError(
                    f"impression {e.query_id} of {e.advertiser!r} already in the log"
                )
            self._impressions.add(key)
        self._events.append(e)

    def stripped(self) -> "EventLog":
        """Label-free copy for estimators and detectors: click sources erased.

        This log's events are already validated, so the copy takes them and
        the index sets over as they are instead of appending each again.
        """
        out = EventLog(self.horizon)
        out._events = [
            ClickEvent(e.t, e.advertiser, e.slot, e.impression_ref, None)
            if isinstance(e, ClickEvent) else e
            for e in self._events
        ]
        out._impressions = set(self._impressions)
        out._clicked = set(self._clicked)
        return out

    def advertisers(self) -> list[AdvertiserId]:
        return sorted({e.advertiser for e in self._events})

    @property
    def events(self) -> Sequence[Event]:
        """Live read-only view; do not mutate."""
        return self._events

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.horizon == other.horizon and self._events == other._events

    def __repr__(self) -> str:
        return f"EventLog(horizon={self.horizon}, events={len(self._events)})"


# ---------------------------------------------------------------------------
# JSONL persistence.
#
# One JSON object per line. The first line is a header carrying the log
# horizon; every following line is an impression or a click:
#
#   {"horizon": 60000, "kind": "header"}
#   {"advertiser": "a", "kind": "impression", "query_id": 0, "slot": 1, "t": 12}
#   {"advertiser": "a", "impression_ref": 0, "kind": "click", "slot": 1,
#    "source": "organic", "t": 12}
#
# Keys are sorted so identical logs serialize to identical bytes.

_IMPRESSION_KEYS = {"kind", "t", "advertiser", "slot", "query_id"}
_CLICK_KEYS = {"kind", "t", "advertiser", "slot", "impression_ref", "source"}


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _event_record(e: Event) -> dict:
    if isinstance(e, ImpressionEvent):
        return {
            "kind": "impression",
            "t": e.t,
            "advertiser": e.advertiser,
            "slot": e.slot,
            "query_id": e.query_id,
        }
    return {
        "kind": "click",
        "t": e.t,
        "advertiser": e.advertiser,
        "slot": e.slot,
        "impression_ref": e.impression_ref,
        "source": None if e.source is None else e.source.value,
    }


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the chunks as UTF-8 to a temp file beside ``path``, then rename it.

    The temp file is created like any new file, so the result gets the mode
    the umask allows, not a private 0600.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_log(log: EventLog, path: str | Path) -> None:
    """Serialize to JSONL, atomically."""
    records = itertools.chain(
        [{"kind": "header", "horizon": log.horizon}], map(_event_record, log)
    )
    write_atomic(path, (_dumps(rec) + "\n" for rec in records))


def _parse_int(rec: dict, key: str, line_no: int) -> int:
    v = rec.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise MalformedRecordError(line_no, f"field {key!r} must be an integer, got {v!r}")
    return v


def _parse_str(rec: dict, key: str, line_no: int) -> str:
    v = rec.get(key)
    if not isinstance(v, str):
        raise MalformedRecordError(line_no, f"field {key!r} must be a string, got {v!r}")
    return v


def read_log(path: str | Path) -> EventLog:
    """Parse a JSONL log. Raises ``MalformedRecordError`` with the offending line."""
    log: EventLog | None = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    raise MalformedRecordError(line_no, "blank line")
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecordError(line_no, f"invalid JSON: {exc.msg}") from exc
                if not isinstance(rec, dict):
                    raise MalformedRecordError(line_no, "record is not an object")
                try:
                    if line_no > 1:
                        log.append(_parse_event(rec, line_no))
                        continue
                    if rec.get("kind") != "header" or set(rec) != {"kind", "horizon"}:
                        raise MalformedRecordError(line_no, "missing header record")
                    log = EventLog(_parse_int(rec, "horizon", line_no))
                except MalformedRecordError:
                    raise
                except (AdsimError, ValueError) as exc:
                    raise MalformedRecordError(line_no, str(exc)) from exc
    except UnicodeDecodeError:
        line_no, reason = _first_undecodable_line(path)
        raise MalformedRecordError(line_no, f"not UTF-8: {reason}") from None
    if log is None:
        raise MalformedRecordError(1, "empty file")
    return log


def _first_undecodable_line(path: str | Path) -> tuple[int, str]:
    # Text mode decodes ahead in chunks, so its error cannot name the line.
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return line_no, exc.reason
    raise AssertionError("decodes line by line but not as a whole")


def _parse_event(rec: dict, line_no: int) -> Event:
    kind = rec.get("kind")
    if kind == "impression":
        if set(rec) != _IMPRESSION_KEYS:
            raise MalformedRecordError(line_no, f"bad impression fields: {sorted(rec)}")
        return ImpressionEvent(
            t=_parse_int(rec, "t", line_no),
            advertiser=_parse_str(rec, "advertiser", line_no),
            slot=_parse_int(rec, "slot", line_no),
            query_id=_parse_int(rec, "query_id", line_no),
        )
    if kind == "click":
        if set(rec) != _CLICK_KEYS:
            raise MalformedRecordError(line_no, f"bad click fields: {sorted(rec)}")
        raw = rec.get("source")
        if raw is None:
            source = None
        else:
            try:
                source = ClickSource(raw)
            except ValueError:
                raise MalformedRecordError(line_no, f"unknown click source {raw!r}")
        return ClickEvent(
            t=_parse_int(rec, "t", line_no),
            advertiser=_parse_str(rec, "advertiser", line_no),
            slot=_parse_int(rec, "slot", line_no),
            impression_ref=_parse_int(rec, "impression_ref", line_no),
            source=source,
        )
    raise MalformedRecordError(line_no, f"unknown record kind {kind!r}")
