"""Domain events, the append-only event log, and JSONL persistence.

All timestamps are integer milliseconds from scenario start. Advertiser ids are
opaque strings; their lexicographic order is the global tie-break everywhere.
An event is written as a row, ``(t, advertiser, slot, query id or ref,
source)`` with ``IMPRESSION`` as an impression's source, and ``EventLog.append``
is the one gate that checks a row into a log, so every log round-trips through
JSONL. ``ImpressionEvent`` and ``ClickEvent`` are a row's read view, which
iterating a log yields.
"""

from __future__ import annotations

import json
import os
import re
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, KeysView, Union

AdvertiserId = str

# 64-bit unsigned integer used to derive every random stream.
Seed = int
MAX_SEED = 2**64 - 1


def check_min(path: str, value, lo) -> None:
    """Raise ValueError starting with ``path`` unless ``value`` is a finite number ``>= lo``."""
    try:
        if value - value:  # NaN (true) for NaN and +-inf, 0 for any finite number
            raise ValueError(f"{path}: must be a finite number, got {value}")
    except TypeError:  # not a number at all: None, a str, ...
        raise ValueError(f"{path}: must be a number, got {value!r}") from None
    if value < lo:
        raise ValueError(f"{path}: must be >= {lo}, got {value}")


def check_range(path: str, value, lo, hi) -> None:
    """Raise ValueError starting with ``path`` unless ``value`` is a finite number in ``[lo, hi]``."""
    check_min(path, value, lo)
    if value > hi:
        raise ValueError(f"{path}: must be <= {hi}, got {value}")


def check_int(path: str, value, lo, hi=float("inf")) -> None:
    """``check_range``, ``hi`` unbounded by default, and ``value`` must be an ``int``, not a ``bool``."""
    check_range(path, value, lo, hi)
    if type(value) is not int:
        raise ValueError(f"{path}: must be an integer, got {value!r}")


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
    """An event appended to a log falls at or past its horizon."""


class MalformedRecordError(AdsimError):
    """A persisted record could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


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

IMPRESSION = "impression"  # an impression's source in a row and in the log's columns
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]").search


def row_order(row: tuple) -> tuple[int, bool, str, int]:
    """Canonical total order of rows: time, impressions before clicks, advertiser, ref."""
    t, advertiser, _, ref, source = row
    return (t, source is not IMPRESSION, advertiser, ref)


class EventLog:
    """Append-only, time-ordered stream of impressions and clicks.

    It holds its events' fields in parallel columns, which ``records()`` yields
    as rows; iteration builds event objects from the rows.

    ``append(t, advertiser, slot, ref, source)`` is the one gate for a row,
    and the only writer of its columns and indexes, so any log it accepts
    round-trips through ``write_log``/``read_log``. It wants ``t``, ``slot``
    and the query id (``ref``) to be ``int`` (not ``bool``), the advertiser a
    non-empty ``str`` with no surrogate pair (JSON reads one back as one
    character), a click source a ``ClickSource`` or ``None``,
    ``slot >= 1``, time order within ``[0, horizon)``, one impression per
    (advertiser, query id), and at most one click on each, once it is in the
    log. The last two rules read, per advertiser, the clicked query ids (a
    dict's keys, which ``clicked`` shows) and the shown ones as ``range(lo,
    hi)`` plus a set of the others: a new id equal to ``hi`` that the set does
    not hold moves ``hi`` up, so a run of consecutive ids costs no set entry.
    ``simulate``, ``read_log`` and ``stripped()`` all add rows through it.
    """

    def __init__(self, horizon: int):
        if type(horizon) is not int:
            raise ValueError(f"field 'horizon' must be an integer, got {horizon!r}")
        if horizon < 0:
            raise ValueError(f"negative horizon: {horizon}")
        self.horizon = horizon
        self._columns = ([], [], [], [], [])  # t, advertiser, slot, ref, source
        self._impressions: dict[AdvertiserId, list] = {}  # [lo, hi, others]
        self._clicked: defaultdict[AdvertiserId, dict[int, None]] = defaultdict(dict)  # ids as keys

    def append(self, t, advertiser, slot, ref, source) -> None:
        """Add the row at the tail; raise ValueError or an AdsimError if it breaks a rule."""
        is_click = source is not IMPRESSION  # any other source makes the row a click
        if (
            type(t) is not int or type(slot) is not int or type(ref) is not int
            or type(advertiser) is not str
        ):
            ref_field = "impression_ref" if is_click else "query_id"
            for field, value in (("t", t), ("slot", slot), (ref_field, ref)):
                if type(value) is not int:
                    raise ValueError(f"field {field!r} must be an integer, got {value!r}")
            raise ValueError(f"field 'advertiser' must be a string, got {advertiser!r}")
        if t < 0:
            raise ValueError(f"negative timestamp: {t}")
        if not advertiser:
            raise ValueError("empty advertiser id")
        if slot < 1:
            raise ValueError(f"slot must be >= 1, got {slot}")
        if is_click and source is not None and not isinstance(source, ClickSource):
            raise ValueError(f"bad click source: {source!r}")
        times, advertisers, slots, refs, sources = self._columns
        if times and t < times[-1]:
            raise OutOfOrderError(f"event at t={t} behind log tail t={times[-1]}")
        if t >= self.horizon:
            raise HorizonExceededError(f"event at t={t} at or past horizon {self.horizon}")
        shown = self._impressions.get(advertiser)
        if is_click:
            if shown is None or not (shown[0] <= ref < shown[1] or ref in shown[2]):
                raise DanglingClickError(
                    f"click at t={t} references unknown impression {ref} of {advertiser!r}"
                )
            clicked = self._clicked[advertiser]
            if ref in clicked:
                raise DuplicateClickError(f"impression {ref} of {advertiser!r} already clicked")
            clicked[ref] = None
        elif shown is None:  # the advertiser's first impression
            if _SURROGATE_PAIR(advertiser):
                raise ValueError(f"surrogate pair in advertiser id {advertiser!r}")
            self._impressions[advertiser] = [ref, ref + 1, set()]
        else:
            lo, hi, others = shown
            if ref == hi and ref not in others:
                shown[1] = ref + 1
            elif lo <= ref < hi or ref in others:
                raise DuplicateImpressionError(f"impression {ref} of {advertiser!r} already in the log")
            else:
                others.add(ref)
        times.append(t)
        advertisers.append(advertiser)
        slots.append(slot)
        refs.append(ref)
        sources.append(source)

    def stripped(self) -> "EventLog":
        """A new log of the same events, each click's ``source`` set to None."""
        out = EventLog(self.horizon)
        for t, advertiser, slot, ref, source in self.records():
            out.append(t, advertiser, slot, ref, source if source is IMPRESSION else None)
        return out

    def records(self) -> Iterator[tuple]:
        """The rows, ``(t, advertiser, slot, query id or ref, source)``, in log order."""
        return zip(*self._columns)

    def advertisers(self) -> list[AdvertiserId]:
        return sorted(self._impressions)  # a click needs an impression first

    def clicks(self) -> int:
        return sum(map(len, self._clicked.values()))

    def clicked(self, advertiser: AdvertiserId) -> KeysView[int]:
        """A live, read-only view of the query ids of ``advertiser``'s clicked impressions."""
        return self._clicked[advertiser].keys()

    def __iter__(self) -> Iterator[Event]:
        for t, advertiser, slot, ref, source in self.records():
            if source is IMPRESSION:
                yield ImpressionEvent(t, advertiser, slot, ref)
            else:
                yield ClickEvent(t, advertiser, slot, ref, source)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.horizon == other.horizon and self._columns == other._columns

    def __repr__(self) -> str:
        return f"EventLog(horizon={self.horizon}, events={len(self)})"


# ---------------------------------------------------------------------------
# JSONL persistence.
#
# One JSON object per line: a header carrying the log horizon, then one line
# per impression or click. The writer emits exactly these canonical lines, keys
# sorted and no spaces, so identical logs serialize to identical bytes. The
# reader takes any JSON object with these keys, in any order or spacing, as a
# row for ``EventLog.append``, which checks the values of every event.

_HEADER_LINE = '{"horizon":%d,"kind":"header"}\n'
_IMPRESSION_LINE = '{"advertiser":%s,"kind":"impression","query_id":%d,"slot":%d,"t":%d}\n'
_CLICK_LINE = '{"advertiser":%s,"impression_ref":%d,"kind":"click","slot":%d,"source":%s,"t":%d}\n'
_SOURCE_JSON = {None: "null", **{s: json.dumps(s.value) for s in ClickSource}}
_WRITE_BLOCK = 1024  # records per string that write_log hands the file

_RECORD_KEYS = {kind: set(re.findall(r'"(\w+)":', line))  # the keys its template writes
                for kind, line in (("impression", _IMPRESSION_LINE), ("click", _CLICK_LINE))}

_JSON_INT = rb"(-?(?:0|[1-9][0-9]*))"
# any ASCII JSON string, so any str json.dumps writes: plain runs between escapes
_JSON_STRING = rb'("[ !#-\[\]-~]*(?:\\(?:["\\/bfnrt]|u[0-9A-Fa-f]{4})[ !#-\[\]-~]*)*")'
_SOURCE_OF = {v.encode(): k for k, v in _SOURCE_JSON.items()}
_SOURCE = b"(%s)" % b"|".join(map(re.escape, _SOURCE_OF))


def _line_pattern(template: str, *fields: bytes) -> bytes:
    """A line template as a pattern: each ``%d`` slot an integer, each ``%s`` the next of ``fields``."""
    return re.escape(template.encode()).replace(b"%d", _JSON_INT) % fields


# Either template's line, else any other line whole (the last group): one match per line.
_EVENT_RE = re.compile(b"%s|%s|([^\n]+\n?|\n)" % (
    _line_pattern(_IMPRESSION_LINE, _JSON_STRING), _line_pattern(_CLICK_LINE, _JSON_STRING, _SOURCE)))
_READ_BLOCK = 16384  # bytes per read_log block, before it runs on to the next line feed


class _Shared(dict):
    """Field bytes to one shared value each, ``make(raw)`` on first sight."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, raw: bytes):
        value = self[raw] = self.make(raw)
        return value


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
    """Serialize to JSONL, atomically, ``_WRITE_BLOCK`` lines per write. ``append``
    admits only ``int`` fields and ``str`` advertisers, so each record fills its
    line template as it is, spelt out as an f-string per kind."""
    names, sources = {adv: json.dumps(adv) for adv in log.advertisers()}, _SOURCE_JSON
    records = log.records()
    blocks = iter(lambda: "".join([  # the next _WRITE_BLOCK lines, then "" at the end
        f'{{"advertiser":{names[adv]},"kind":"impression","query_id":{ref},"slot":{slot},"t":{t}}}\n'
        if source is IMPRESSION else
        f'{{"advertiser":{names[adv]},"impression_ref":{ref},"kind":"click","slot":{slot},'
        f'"source":{sources[source]},"t":{t}}}\n'
        for t, adv, slot, ref, source in islice(records, _WRITE_BLOCK)
    ]), "")
    write_atomic(path, chain([_HEADER_LINE % log.horizon], blocks))


def read_log(path: str | Path) -> EventLog:
    """Parse a JSONL log. Raises ``MalformedRecordError`` with the offending line.

    A line ends at a line feed alone, as JSON Lines defines. One ``findall``
    splits a block into its lines, and each line takes its own route. A
    ``write_log`` line, whatever its advertiser, matches the event pattern and
    its fields go straight to ``append``, one ``int`` per slot and a ``t`` or
    query id (or ref) equal to the previous matched line's sharing its ``int``.
    Any other line is decoded on its own, so a byte that is not UTF-8 is reported
    on its line, and ``json.loads`` checks it into the same row, with the same
    messages and one ``str`` per advertiser. No route builds an event object."""
    texts = {}  # each advertiser's first str, shared by its matched and parsed lines alike
    names = _Shared(lambda raw: texts.setdefault(s := json.decoder.scanstring(raw.decode(), 1)[0], s))
    slots = _Shared(int)
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise MalformedRecordError(1, "empty file")
        try:
            rec = _json_record(first)
            if rec.get("kind") != "header" or rec.keys() != {"kind", "horizon"}:
                raise ValueError("missing header record")
            log = EventLog(rec["horizon"])
        except ValueError as exc:
            raise MalformedRecordError(1, str(exc)) from exc
        add, findall = log.append, _EVENT_RE.findall
        t_raw = q_raw = None  # the last matched t and query id or ref, as bytes
        line_no = 1
        for block in iter(lambda: fh.read(_READ_BLOCK) + fh.readline(), b""):
            for line_no, row in enumerate(findall(block), line_no + 1):
                advertiser, q_bytes, slot, t_bytes, c_adv, c_q, c_slot, source, c_t, other = row
                try:
                    if t_bytes:  # an impression line
                        source = IMPRESSION
                    elif c_t:  # a click line
                        advertiser, q_bytes, slot, t_bytes = c_adv, c_q, c_slot, c_t
                        source = _SOURCE_OF[source]
                    else:  # any other line
                        when, adv, slot, ref, source = _parse_row(_json_record(other))  # t, q stay shared
                        add(when, texts.setdefault(adv, adv) if type(adv) is str else adv, slot, ref, source)
                        continue
                    if t_bytes != t_raw:  # equal bytes share the previous line's int
                        t_raw, t = t_bytes, int(t_bytes)
                    if q_bytes != q_raw:
                        q_raw, q = q_bytes, int(q_bytes)
                    add(t, names[advertiser], slots[slot], q, source)
                except (AdsimError, ValueError) as exc:
                    raise MalformedRecordError(line_no, str(exc)) from exc
    return log


def _json_record(raw: bytes) -> dict:
    """One line as a JSON object; a ValueError says why it is not one."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc.reason}") from None
    if not line:
        raise ValueError("blank line")
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from exc
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    return rec


def _parse_row(rec: dict) -> tuple:
    """A JSON event record as the log's row; the gate checks its values."""
    kind = rec.get("kind")
    keys = _RECORD_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ValueError(f"unknown record kind {kind!r}")
    if rec.keys() != keys:
        raise ValueError(f"bad {kind} fields: {sorted(rec)}")
    if kind == "impression":
        return rec["t"], rec["advertiser"], rec["slot"], rec["query_id"], IMPRESSION
    source = rec["source"]
    if source is not None:
        try:
            source = ClickSource(source)
        except ValueError:
            raise ValueError(f"unknown click source {source!r}") from None
    return rec["t"], rec["advertiser"], rec["slot"], rec["impression_ref"], source
