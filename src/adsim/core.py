"""Domain events, the append-only event log, and JSONL persistence.

All timestamps are integer milliseconds from scenario start. Advertiser ids are
opaque strings; their lexicographic order is the global tie-break everywhere.
Events are plain records that may hold any values: ``EventLog.append`` is the
one gate for an event, so every log it accepts round-trips through JSONL.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

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


Event = Union[ImpressionEvent, ClickEvent]


def event_sort_key(e: Event) -> tuple[int, int, str, int]:
    """Canonical total order: time, impressions before clicks, advertiser, ref."""
    if isinstance(e, ImpressionEvent):
        return (e.t, 0, e.advertiser, e.query_id)
    return (e.t, 1, e.advertiser, e.impression_ref)


class EventLog:
    """Append-only, time-ordered stream of impressions and clicks.

    ``append`` is the one gate for an event, so any log it accepts round-trips
    through ``write_log``/``read_log``. It wants ``t``, ``slot`` and the query
    id to be ``int`` (not ``bool``), the advertiser a non-empty ``str``, a click
    source a ``ClickSource`` or ``None``, ``slot >= 1``, time order within
    ``[0, horizon)``, one impression per (advertiser, query id), and at most one
    click on each, once it is in the log. Single writer; iteration is read-only.
    """

    def __init__(self, horizon: int):
        if type(horizon) is not int:
            raise ValueError(f"field 'horizon' must be an integer, got {horizon!r}")
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
        """Add ``e`` at the tail; raise ValueError or an AdsimError if it breaks a rule."""
        t, advertiser, slot = e.t, e.advertiser, e.slot
        is_click = isinstance(e, ClickEvent)
        ref = e.impression_ref if is_click else e.query_id
        if type(t) is not int or type(slot) is not int or type(ref) is not int:
            fields = ("t", "slot", "impression_ref" if is_click else "query_id")
            field = next(f for f in fields if type(getattr(e, f)) is not int)
            raise ValueError(f"field {field!r} must be an integer, got {getattr(e, field)!r}")
        if type(advertiser) is not str:
            raise ValueError(f"field 'advertiser' must be a string, got {advertiser!r}")
        if t < 0:
            raise ValueError(f"negative timestamp: {t}")
        if not advertiser:
            raise ValueError("empty advertiser id")
        if slot < 1:
            raise ValueError(f"slot must be >= 1, got {slot}")
        if is_click and e.source is not None and not isinstance(e.source, ClickSource):
            raise ValueError(f"bad click source: {e.source!r}")
        if self._events and t < self._events[-1].t:
            raise OutOfOrderError(f"event at t={t} behind log tail t={self._events[-1].t}")
        if t >= self.horizon:
            raise HorizonExceededError(f"event at t={t} at or past horizon {self.horizon}")
        key = (advertiser, ref)
        if is_click:
            if key not in self._impressions:
                raise DanglingClickError(
                    f"click at t={t} references unknown impression {ref} of {advertiser!r}"
                )
            if key in self._clicked:
                raise DuplicateClickError(f"impression {ref} of {advertiser!r} already clicked")
            self._clicked.add(key)
        elif key in self._impressions:
            raise DuplicateImpressionError(f"impression {ref} of {advertiser!r} already in the log")
        else:
            self._impressions.add(key)
        self._events.append(e)

    def stripped(self) -> "EventLog":
        """Label-free copy: click sources erased. The events passed ``append``
        already, so the copy takes them and the index sets over as they are."""
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
# Keys are sorted so identical logs serialize to identical bytes. The reader
# checks the JSON shape of each record; ``EventLog.append`` checks its values.

_EVENT_KINDS = {"impression": ImpressionEvent, "click": ClickEvent}
_RECORD_KEYS = {cls: {"kind", *cls.__slots__} for cls in _EVENT_KINDS.values()}


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
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:  # name the caller's path, never the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def write_log(log: EventLog, path: str | Path) -> None:
    """Serialize to JSONL, atomically."""
    records = itertools.chain(
        [{"kind": "header", "horizon": log.horizon}], map(_event_record, log)
    )
    write_atomic(path, (_dumps(rec) + "\n" for rec in records))


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
                        log.append(_parse_event(rec))
                    elif rec.get("kind") == "header" and rec.keys() == {"kind", "horizon"}:
                        log = EventLog(rec["horizon"])
                    else:
                        raise ValueError("missing header record")
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


def _parse_event(rec: dict) -> Event:
    kind = rec.get("kind")
    cls = _EVENT_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown record kind {kind!r}")
    if rec.keys() != _RECORD_KEYS[cls]:
        raise ValueError(f"bad {kind} fields: {sorted(rec)}")
    del rec["kind"]
    raw = rec.get("source")
    if raw is not None:
        try:
            rec["source"] = ClickSource(raw)
        except ValueError:
            raise ValueError(f"unknown click source {raw!r}") from None
    return cls(**rec)
