from __future__ import annotations

import gc
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adsim import core
from adsim.auction import AuctionConfig
from adsim.bench import ScenarioConfig, simulate
from adsim.core import (
    _CLICK_LINE,
    _EVENT_RE,
    _HEADER_LINE,
    _IMPRESSION_LINE,
    _WRITE_BLOCK,
    IMPRESSION,
    ClickEvent,
    ClickSource,
    DanglingClickError,
    DuplicateClickError,
    DuplicateImpressionError,
    EventLog,
    HorizonExceededError,
    ImpressionEvent,
    MalformedRecordError,
    OutOfOrderError,
    read_log,
    row_order,
    write_log,
)
from adsim.estimators import WindowSpec
from adsim.traffic import TrafficConfig
from helpers import event_sort_key, log_of, row_of
from oracles import random_log


def imp(t, adv="a", slot=1, qid=0):
    return ImpressionEvent(t, adv, slot, qid)


def clk(t, adv="a", slot=1, ref=0, source=ClickSource.ORGANIC):
    return ClickEvent(t, adv, slot, ref, source)


# ---------------------------------------------------------------------------
# Events.


def test_event_validation():
    # an event is a plain record; append is where it is checked
    cases = [
        (imp(-1), "negative timestamp: -1"),
        (imp(0, ""), "empty advertiser id"),
        (imp(0, slot=0), "slot must be >= 1, got 0"),
        (clk(0, source="organic"), "bad click source: 'organic'"),  # must be the enum
        (imp(1.5), "field 't' must be an integer, got 1.5"),
        (imp(0, slot=True), "field 'slot' must be an integer, got True"),
        (imp(0, qid=np.int64(3)), f"field 'query_id' must be an integer, got {np.int64(3)!r}"),
        (clk(0, ref=False), "field 'impression_ref' must be an integer, got False"),
        (imp(0, 7), "field 'advertiser' must be a string, got 7"),
    ]
    for event, message in cases:
        log = log_of([imp(0)], 10)
        with pytest.raises(ValueError) as err:
            log.append(*row_of(event))
        assert str(err.value) == message
        assert list(log) == [imp(0)]
    with pytest.raises(ValueError) as err:
        EventLog(10.5)
    assert str(err.value) == "field 'horizon' must be an integer, got 10.5"


def test_click_source_defaults_to_organic():
    assert ClickEvent(5, "a", 1, 3).source is ClickSource.ORGANIC
    assert ClickEvent(5, "a", 1, 3, source=None).source is None


def test_events_are_immutable():
    e = imp(0)
    with pytest.raises(AttributeError):
        e.t = 1


def test_sort_key_orders_impressions_before_clicks_at_same_time():
    events = [clk(7, "b", ref=1), imp(7, "b", qid=2), clk(7, "a", ref=0), imp(7, "a", qid=9)]
    ordered = sorted(map(row_of, events), key=row_order)
    assert [row[4] is IMPRESSION for row in ordered] == [True, True, False, False]
    assert [row[1] for row in ordered] == ["a", "b", "a", "b"]


def test_sort_key_is_total_on_distinct_events():
    log = random_log(3)
    keys = [row_order(row) for row in log.records()]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert keys == [row_order(row_of(e)) for e in sorted(log, key=event_sort_key)]


# ---------------------------------------------------------------------------
# EventLog.


def test_append_enforces_time_order():
    log = EventLog(100)
    log.append(*row_of(imp(10)))
    log.append(*row_of(imp(10, "b", qid=1)))  # equal times are fine
    with pytest.raises(OutOfOrderError):
        log.append(*row_of(imp(9, qid=2)))


def test_clicks_must_reference_a_prior_impression_of_the_same_advertiser():
    log = EventLog(100)
    log.append(*row_of(imp(10, "a", qid=5)))
    with pytest.raises(DanglingClickError):
        log.append(*row_of(clk(11, "a", ref=6)))
    with pytest.raises(DanglingClickError):
        log.append(*row_of(clk(11, "b", ref=5)))  # right id, wrong advertiser
    log.append(*row_of(clk(11, "a", ref=5)))
    with pytest.raises(DuplicateClickError):
        log.append(*row_of(clk(12, "a", ref=5)))


def test_append_rejects_events_at_or_past_the_horizon():
    log = EventLog(100)
    log.append(*row_of(imp(99, qid=0)))
    with pytest.raises(HorizonExceededError):
        log.append(*row_of(clk(100, ref=0)))
    with pytest.raises(HorizonExceededError):
        EventLog(0).append(*row_of(imp(0)))


def test_impressions_are_unique_per_advertiser_and_query_id():
    log = EventLog(100)
    log.append(*row_of(imp(10, "a", qid=5)))
    log.append(*row_of(imp(10, "b", qid=5)))  # same query, another advertiser
    with pytest.raises(DuplicateImpressionError):
        log.append(*row_of(imp(11, "a", qid=5)))


class _SetGate:
    """The log's duplicate and dangling rules over plain sets of query ids."""

    def __init__(self):
        self.shown: dict[str, set[int]] = {}
        self.clicked: dict[str, set[int]] = {}

    def append(self, t, advertiser, ref, is_click):
        shown = self.shown.get(advertiser, set())
        if is_click:
            if ref not in shown:
                raise DanglingClickError(
                    f"click at t={t} references unknown impression {ref} of {advertiser!r}"
                )
            if ref in self.clicked[advertiser]:
                raise DuplicateClickError(f"impression {ref} of {advertiser!r} already clicked")
            self.clicked[advertiser].add(ref)
        elif ref in shown:
            raise DuplicateImpressionError(f"impression {ref} of {advertiser!r} already in the log")
        else:
            self.shown.setdefault(advertiser, set()).add(ref)
            self.clicked.setdefault(advertiser, set())


# where a row's query id lies against its advertiser's index when it is appended
_AT = ("lo-1", "lo", "hi-1", "hi", "hi+1", "other", "negative", "1e9+k", "2**70")
_INDEX_ROWS = st.integers(2, 3).flatmap(lambda n: st.lists(
    st.tuples(st.sampled_from("abc"[:n]), st.booleans(), st.sampled_from(_AT), st.integers(0, 3)),
    min_size=10, max_size=40,
))


def _query_id(log, advertiser, at, k):
    lo, hi, others = log._impressions.get(advertiser, (0, 0, ()))
    if at == "other":
        return sorted(others)[k % len(others)] if others else hi + 1 + k
    return {"lo-1": lo - 1, "lo": lo, "hi-1": hi - 1, "hi": hi, "hi+1": hi + 1,
            "negative": -1 - k, "1e9+k": 10**9 + k, "2**70": 2**70}[at]


def _outcome(append, *row):
    try:
        append(*row)
    except (ValueError, core.AdsimError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(_INDEX_ROWS)
# the run reaches an id its set already holds: that id is a duplicate
@example([("a", False, "lo", 0), ("a", False, "hi+1", 0), ("a", False, "hi", 0),
          ("a", False, "hi", 0), ("b", False, "lo", 0)])
# a click on an id outside the run, and one below it
@example([("a", False, "1e9+k", 0), ("a", False, "hi+1", 0), ("a", True, "other", 0),
          ("a", False, "lo-1", 0), ("a", True, "other", 0), ("a", True, "other", 0)])
def test_the_impression_index_gates_as_plain_sets_do(rows):
    log, model = EventLog(10**6), _SetGate()
    for t, (advertiser, is_click, at, k) in enumerate(rows):
        ref = _query_id(log, advertiser, at, k)
        source = ClickSource.ORGANIC if is_click else IMPRESSION
        assert _outcome(log.append, t, advertiser, 1, ref, source) == _outcome(
            model.append, t, advertiser, ref, is_click
        ), (t, advertiser, ref, is_click)
        assert log.advertisers() == sorted(model.shown)
        assert log.clicks() == sum(map(len, model.clicked.values()))
        for name in "abc":
            assert log.clicked(name) == model.clicked.get(name, set())


def test_stripped_erases_click_labels_only():
    log = EventLog(50)
    log.append(*row_of(imp(1, qid=0)))
    log.append(*row_of(clk(1, ref=0, source=ClickSource.SCRIPTED_FRAUD)))
    bare = log.stripped()
    assert bare.horizon == log.horizon
    assert len(bare) == 2
    (bare_imp, bare_clk), (log_imp, log_clk) = list(bare), list(log)
    assert bare_imp == log_imp
    assert bare_clk.source is None
    assert bare_clk.t == log_clk.t and bare_clk.impression_ref == 0
    # the original is untouched
    assert log_clk.source is ClickSource.SCRIPTED_FRAUD


def test_appending_to_the_stripped_copy_leaves_the_original_unchanged():
    log = EventLog(50)
    log.append(*row_of(imp(1, qid=0)))
    log.append(*row_of(clk(1, ref=0)))
    bare = log.stripped()
    bare.append(*row_of(imp(2, qid=1)))
    bare.append(*row_of(clk(2, ref=1)))
    # the copy still knows what the original had shown and clicked
    with pytest.raises(DuplicateImpressionError):
        bare.append(*row_of(imp(3, qid=0)))
    with pytest.raises(DuplicateClickError):
        bare.append(*row_of(clk(3, ref=0)))
    assert len(bare) == 4
    assert list(log) == [imp(1, qid=0), clk(1, ref=0)]
    log.append(*row_of(imp(2, qid=1)))  # qid 1 is still new to the original
    log.append(*row_of(clk(2, ref=1)))


def test_log_introspection():
    log = EventLog(100)
    assert log.advertisers() == []
    log.append(*row_of(imp(1, "b", qid=7)))
    log.append(*row_of(imp(2, "a", qid=3)))
    assert log.advertisers() == ["a", "b"]
    assert len(log) == 2
    assert list(log) == [imp(1, "b", qid=7), imp(2, "a", qid=3)]
    log.append(*row_of(clk(3, "b", ref=7)))
    log.append(*row_of(imp(4, "c", qid=7)))
    log.append(*row_of(clk(5, "c", ref=7)))
    with pytest.raises(DanglingClickError):
        log.append(*row_of(clk(6, "d", ref=7)))  # a rejected click names no advertiser
    assert log.advertisers() == ["a", "b", "c"]
    copy = log.stripped()
    assert copy.advertisers() == ["a", "b", "c"]
    # the copy's index is its own: each log goes on taking and refusing alike
    copy.append(*row_of(clk(6, "a", ref=3)))
    with pytest.raises(DuplicateClickError):
        copy.append(*row_of(clk(7, "a", ref=3)))
    log.append(*row_of(clk(7, "a", ref=3)))
    with pytest.raises(DuplicateImpressionError):
        copy.append(*row_of(imp(8, "b", qid=7)))
    copy.append(*row_of(imp(8, "d", qid=7)))
    assert copy.advertisers() == ["a", "b", "c", "d"]
    assert log.advertisers() == ["a", "b", "c"]
    assert len(log) == 6 and len(copy) == 7
    assert repr(log) == "EventLog(horizon=100, events=6)"


def _bookkeeping_per_event(step: int) -> float:
    """Bytes a log keeps per event for 30,000 impressions of 3 advertisers, query
    ids ``step`` apart, and 3,000 clicks, each made inside the traced loop and
    dropped once appended: what stays is all the log keeps."""
    log = EventLog(10_000)
    tracemalloc.start()
    try:
        for q in range(10_000):
            for slot, adv in enumerate(("a", "b", "c"), start=1):
                log.append(*row_of(imp(q, adv, slot, qid=1_000_000 + step * q)))
            if q % 10 == 0:
                for slot, adv in enumerate("abc", 1):
                    log.append(*row_of(clk(q, adv, slot, ref=1_000_000 + step * q)))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) == 33_000
    return held / len(log)


def test_log_bookkeeping_per_event_is_small():
    assert _bookkeeping_per_event(1) < 150


@pytest.mark.parametrize("step, bound", [(1, 100), (2, 150)], ids=["consecutive", "every_other"])
def test_a_run_of_consecutive_query_ids_costs_no_set_entry(step, bound):
    # about 86 B/event when each advertiser's ids are one run, 134 with a set
    # entry per impression, as every other id still takes
    assert _bookkeeping_per_event(step) < bound


def test_log_equality():
    a = log_of([imp(1)], 10)
    b = log_of([imp(1)], 10)
    c = log_of([imp(1)], 11)
    assert a == b
    assert a != c
    assert a != "not a log"
    # a click's source is part of the event, so of the log
    organic = log_of([imp(1), clk(1)], 10)
    scripted = log_of([imp(1), clk(1, source=ClickSource.SCRIPTED_FRAUD)], 10)
    assert organic != scripted
    assert organic.stripped() != organic
    assert organic.stripped() == scripted.stripped()


# ---------------------------------------------------------------------------
# JSONL persistence.


# t = 0, t = horizon - 1, every click source and None, and advertiser ids
# that JSON must escape, that are not ASCII, or that hold control characters
# and U+2028 (a line separator to str.splitlines, but not to JSON Lines); and
# plain ASCII ids, at the ends of the printable range and just past it (DEL).
_EDGE_LOG = log_of(
    [
        imp(0, 'q"\\é', qid=0),
        clk(0, 'q"\\é', ref=0, source=None),
        imp(0, "n\nt\tz\x00l\u2028", slot=2, qid=1),
        imp(0, qid=0),
        clk(0, ref=0, source=ClickSource.SCRIPTED_FRAUD),
        imp(50, " !#[]~", slot=2, qid=3),
        clk(50, " !#[]~", slot=2, ref=3, source=None),
        imp(50, "\x7f", qid=3),
        imp(50, "b", qid=-5),
        imp(60, "b", qid=2**40),
        clk(60, "b", ref=2**40, source=ClickSource.HUMAN_FRAUD),
        imp(60, "b", qid=4),
        clk(61, "b", ref=4),
        imp(99, "广告", slot=3, qid=2**40),
        clk(99, "广告", slot=3, ref=2**40, source=ClickSource.HUMAN_FRAUD),
        imp(99, qid=7),
    ],
    100,
)


@pytest.mark.parametrize(
    "log",
    [
        *(pytest.param(random_log(seed), id=f"seed{seed}") for seed in range(12)),
        pytest.param(_EDGE_LOG, id="edges"),
        pytest.param(EventLog(0), id="empty"),
    ],
)
def test_every_accepted_log_round_trips(tmp_path, log):
    # read back equal, and written again to the same bytes
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_log(log, first)
    # each line is the generic encoder's canonical form of its record
    with open(first, encoding="utf-8", newline="") as fh:
        for line in fh:
            canonical = json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
            assert line == canonical + "\n"
    back = read_log(first)
    assert back == log
    write_log(back, second)
    assert second.read_bytes() == first.read_bytes()


def _rendered(log: EventLog) -> str:
    """The log as its line templates, each filled with ``%`` for one record."""
    def source_json(source):
        return "null" if source is None else json.dumps(source.value)

    return _HEADER_LINE % log.horizon + "".join(
        _IMPRESSION_LINE % (json.dumps(adv), ref, slot, t) if source is IMPRESSION
        else _CLICK_LINE % (json.dumps(adv), ref, slot, source_json(source), t)
        for t, adv, slot, ref, source in log.records()
    )


@pytest.mark.parametrize("extra", [-1, 0, 1, _WRITE_BLOCK + 1], ids=["N-1", "N", "N+1", "2N+1"])
def test_the_writer_renders_the_line_templates(tmp_path, extra):
    # a row count on each side of the writer's block size, every click source,
    # and advertisers that JSON escapes or that a format string could misread
    advertisers = ['q"uote', "back\\slash", "100%d", "{}{0}", "广告", "plain"]
    sources = list(ClickSource)
    rows = []
    for q in range(_WRITE_BLOCK + extra):
        adv = advertisers[q % len(advertisers)]
        rows.append((q, adv, 1 + q % 3, q, IMPRESSION))
        rows.append((q, adv, 1 + q % 3, q, sources[q % len(sources)]))
    log = EventLog(2 * _WRITE_BLOCK)
    for row in rows[: _WRITE_BLOCK + extra]:
        log.append(*row)
    assert len(log) == _WRITE_BLOCK + extra
    for i, written in enumerate((log, log.stripped())):
        path = tmp_path / f"{i}.jsonl"
        write_log(written, path)
        assert path.read_bytes().decode("utf-8") == _rendered(written)
        assert read_log(path) == written


def _record_json_loads(monkeypatch) -> list[str]:
    """The list of every string ``json.loads`` is handed from now on, in order."""
    parsed, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda s: parsed.append(s) or loads(s))
    return parsed


def test_read_log_shares_one_str_per_matched_advertiser(tmp_path, monkeypatch):
    # names JSON escapes, non-ASCII and not, all matched: json.loads sees the header alone
    advertisers = ("alpha", "beta", "广告", 'q"uote', "back\\slash")
    log = EventLog(100)
    for q in range(10):
        for slot, adv in enumerate(advertisers, start=1):
            log.append(*row_of(imp(q, adv, slot, qid=q)))
        log.append(*row_of(clk(q, "beta", 2, ref=q)))
        log.append(*row_of(clk(q, "广告", 3, ref=q)))
    path = tmp_path / "events.jsonl"
    write_log(log, path)
    parsed = _record_json_loads(monkeypatch)
    back = read_log(path)
    assert back == log
    assert parsed == ['{"horizon":100,"kind":"header"}']
    _assert_one_str_per_advertiser(back, advertisers)
    # matched lines, then the one spaced last line parsed on its own: still one str each
    header, *lines, last = path.read_text(encoding="utf-8").splitlines(keepends=True)
    spaced = last.replace(",", ", ", 1)
    path.write_text("".join([header, *lines, spaced]), encoding="utf-8")
    monkeypatch.setattr(core, "_READ_BLOCK", 512)
    parsed.clear()
    back = read_log(path)
    assert back == log
    assert parsed == [header.strip(), spaced.strip()]
    _assert_one_str_per_advertiser(back, advertisers)


def _assert_one_str_per_advertiser(log, advertisers):
    objects = {}
    for _, adv, *_ in log.records():
        objects.setdefault(adv, set()).add(id(adv))
    assert objects.keys() == set(advertisers)
    assert all(len(ids) == 1 for ids in objects.values())


def test_an_escaped_advertiser_reads_as_json_loads_reads_it(tmp_path, monkeypatch):
    # both hex cases and every short escape match the pattern, and decode to
    # the str json.loads gives; each spelling is decoded once
    spellings = [r"\u00e9", r"\u00E9", r"\ud83d\ude00", r"\ud800", r'\"\\\/\b\f\n\r\t']
    lines = [_HEADER_LINE % 10]
    for q, spelling in enumerate(spellings):
        lines.append(_IMPRESSION_LINE % (f'"{spelling}"', q, 1, q))
        lines.append(_CLICK_LINE % (f'"{spelling}"', q, 1, "null", q))
    path = tmp_path / "events.jsonl"
    path.write_text("".join(lines), encoding="ascii")
    parsed = _record_json_loads(monkeypatch)
    back = read_log(path)
    monkeypatch.undo()
    assert parsed == [lines[0].strip()]
    names = [adv for _, adv, *_ in back.records()]
    assert names == [json.loads(f'"{spelling}"') for spelling in spellings for _ in "ic"]
    assert names[:4] == ["é"] * 4
    assert all(imp_name is clk_name for imp_name, clk_name in zip(names[::2], names[1::2]))


# any non-empty str, lone surrogates, quotes, backslashes and control characters included
_ANY_ADVERTISER = st.text(
    st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
    | st.sampled_from('"\\/\b\f\n\r\t\x7f'),
    min_size=1,
)


@settings(max_examples=300, deadline=None)
@given(_ANY_ADVERTISER)
@example("\ud800\udc00")  # a high then a low surrogate: JSON reads them as one character
@example("a\udbff\udfffb")
@example("\udc00\ud800")  # a low then a high one are two lone surrogates, and round-trip
def test_every_line_write_log_writes_matches_the_event_pattern(tmp_path_factory, advertiser):
    log = EventLog(10)
    if re.search("[\ud800-\udbff][\udc00-\udfff]", advertiser):
        with pytest.raises(ValueError) as err:
            log.append(1, advertiser, 2, 3, IMPRESSION)
        assert str(err.value) == f"surrogate pair in advertiser id {advertiser!r}"
        assert len(log) == 0 and log.advertisers() == []
        return
    log.append(1, advertiser, 2, 3, IMPRESSION)
    log.append(4, advertiser, 2, 3, None)
    path = tmp_path_factory.getbasetemp() / "any_advertiser.jsonl"
    write_log(log, path)
    header, *events = path.read_bytes().splitlines(keepends=True)
    assert len(events) == 2
    assert all(_EVENT_RE.fullmatch(line)[10] is None for line in events)  # no catch-all match
    assert read_log(path) == log


def test_read_log_keeps_no_event_objects(tmp_path):
    # matched lines go to the log as fields: no event object outlives read_log
    path = tmp_path / "events.jsonl"
    log = random_log(7)
    write_log(log, path)
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, (ImpressionEvent, ClickEvent))}
    back = read_log(path)
    kept = [
        o for o in gc.get_objects()
        if isinstance(o, (ImpressionEvent, ClickEvent)) and id(o) not in before
    ]
    assert kept == []
    assert back == log


def _read_log_per_event(tmp_path, spacing: int = 0) -> float:
    """Bytes ``read_log`` keeps per event of an organic log of three slots per
    query, with every ``spacing``-th event line re-spaced if ``spacing`` is set."""
    cfg = ScenarioConfig(
        seed=5, horizon_ms=200_000, tick_ms=1_000, focus="a",
        bids={"a": 900, "b": 600, "c": 300}, auction=AuctionConfig(3),
        traffic=TrafficConfig(50.0, {"a": 0.05, "b": 0.04, "c": 0.03}),
        estimators=(WindowSpec("relative"),),
    )
    log = simulate(cfg)
    path = tmp_path / "events.jsonl"
    write_log(log, path)
    if spacing:
        header, *lines = path.read_bytes().splitlines(keepends=True)
        for i in range(spacing - 1, len(lines), spacing):
            lines[i] = json.dumps(json.loads(lines[i]), separators=(", ", ": ")).encode() + b"\n"
        path.write_bytes(b"".join([header, *lines]))
    tracemalloc.start()
    try:
        back = read_log(path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == log
    assert len(log) > 30_000
    return held / len(log)


def test_a_read_log_keeps_no_duplicate_ints(tmp_path):
    # each query's rows hold one t and one query id, and read_log shares them
    # as simulate does: about 150 B/event with a fresh int per t and per query
    # id, 114 shared
    assert _read_log_per_event(tmp_path) < 130


def test_a_read_organic_log_keeps_no_set_entry_per_impression(tmp_path):
    # every advertiser is shown on every query, so its ids are one run: about
    # 66 B/event, 115 with a set entry per impression
    assert _read_log_per_event(tmp_path) < 90


def test_a_read_log_with_scattered_spaced_lines_keeps_as_little(tmp_path):
    # one event line in 40 goes to json.loads alone, and the rest share their
    # ints as before: about 65 B/event, 101 if each such line sent its whole
    # block to json.loads
    assert _read_log_per_event(tmp_path, spacing=40) < 90


def test_a_valid_but_non_canonical_file_still_parses(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(
        b'{ "kind": "header", "horizon": 10 }\r\n'
        b'{"t": 1, "slot": 2, "query_id": 5, "kind": "impression", "advertiser": "a"}\r\n'
        b'  {"source": null, "t": 3, "impression_ref": 5, "advertiser": "a", '
        b'"kind": "click", "slot": 2}  \r\n'
    )
    expected = [imp(1, slot=2, qid=5), clk(3, slot=2, ref=5, source=None)]
    assert read_log(path) == log_of(expected, 10)


def _rewrite(line: str, form: str) -> str:
    """A canonical line as an equal record in another valid form."""
    if form == "canonical":
        return line
    if form == "crlf":
        return line[:-1] + "\r\n"
    if form == "escaped":  # the plain advertiser "a" spelled with a JSON escape
        return line.replace('"advertiser":"a"', '"advertiser":"\\u0061"')
    rec = json.loads(line)
    if form == "spaced":
        return json.dumps(rec, sort_keys=True, separators=(", ", ": ")) + "\n"
    assert form == "reversed"
    return json.dumps(dict(sorted(rec.items(), reverse=True)), separators=(",", ":")) + "\n"


_FORMS = ["canonical", "spaced", "reversed", "escaped", "crlf"]


@pytest.mark.parametrize("form", [*_FORMS, "mixed"])
def test_matched_and_parsed_lines_read_the_same(tmp_path, monkeypatch, form):
    canonical = tmp_path / "canonical.jsonl"
    write_log(_EDGE_LOG, canonical)
    with open(canonical, encoding="utf-8", newline="") as fh:
        lines = list(fh)
    if form == "mixed":  # one line in three spaced
        unmatched = range(2, len(lines), 3)  # the lines the event pattern does not match
        rewritten = [_rewrite(line, "spaced") if i in unmatched else line for i, line in enumerate(lines)]
    else:
        unmatched = () if form in ("canonical", "escaped") else range(1, len(lines))
        rewritten = [_rewrite(line, form) for line in lines]
    path = tmp_path / "rewritten.jsonl"
    path.write_bytes("".join(rewritten).encode("utf-8"))
    parsed = _record_json_loads(monkeypatch)
    back = read_log(path)
    monkeypatch.undo()
    assert back == _EDGE_LOG
    names = {}  # one str per advertiser, matched or parsed
    assert all(names.setdefault(adv, adv) is adv for _, adv, *_ in back.records())
    # json.loads sees the header and each line the pattern does not match, alone
    assert parsed == [rewritten[i].strip() for i in (0, *unmatched)]


# read_log block sizes: one line a block, sizes that cut a line (a canonical
# line here is 60-80 bytes), and the default
_BLOCK_SIZES = [1, 29, 70, 150, core._READ_BLOCK]


def _canonical_lines(tmp_path, log: EventLog) -> list[bytes]:
    path = tmp_path / "canonical.jsonl"
    write_log(log, path)
    return path.read_bytes().split(b"\n")[:-1]


@pytest.mark.parametrize("block", _BLOCK_SIZES)
def test_a_log_reads_the_same_across_block_edges(tmp_path, monkeypatch, block):
    monkeypatch.setattr(core, "_READ_BLOCK", block)
    log = random_log(2, max_queries=20)
    lines = _canonical_lines(tmp_path, log)
    assert sum(map(len, lines)) > 4 * 150  # many blocks but at the default size
    path = tmp_path / "events.jsonl"
    for tail in (b"\n", b""):  # a last line with no line feed still reads
        path.write_bytes(b"\n".join(lines) + tail)
        assert read_log(path) == log
    write_log(_EDGE_LOG, path)  # blocks of escaped, non-ASCII and plain advertisers
    assert read_log(path) == _EDGE_LOG
    edge = _canonical_lines(tmp_path, _EDGE_LOG)
    for i in range(1, len(edge)):  # one parsed line between matched ones
        odd = [*edge]
        odd[i] = json.dumps(json.loads(edge[i]), separators=(", ", ": ")).encode()
        path.write_bytes(b"\n".join(odd) + b"\n")
        assert read_log(path) == _EDGE_LOG
    # a non-canonical line in the middle, and the unterminated last line: at
    # any block size, json.loads sees these two lines and the header alone
    middle = len(lines) // 2
    spaced = [*lines]
    spaced[middle] = json.dumps(json.loads(lines[middle]), separators=(", ", ": ")).encode()
    path.write_bytes(b"\n".join(spaced))
    parsed = _record_json_loads(monkeypatch)
    assert read_log(path) == log
    monkeypatch.undo()
    assert parsed == [lines[0].decode(), spaced[middle].decode(), lines[-1].decode()]


@pytest.mark.parametrize(
    "corrupt, fragment",
    [
        (lambda line: b"not json", "invalid JSON"),  # read line by line
        (lambda line: re.sub(rb'"slot":\d+', b'"slot":0', line), "slot must be >= 1, got 0"),  # matched
        (lambda line: b"x" + line, "invalid JSON"),  # a canonical line hides at its end
        (lambda line: line + b"\r" + line, "invalid JSON"),  # a CR does not end a line
    ],
    ids=["unparsable", "matched", "prefixed", "cr"],
)
def test_a_bad_line_at_any_block_edge_names_its_own_line(tmp_path, monkeypatch, corrupt, fragment):
    lines = _canonical_lines(tmp_path, random_log(1, max_queries=6))
    assert len(lines) > 10
    path = tmp_path / "bad.jsonl"
    for line_no in range(2, len(lines) + 1):
        bad = [*lines]
        bad[line_no - 1] = corrupt(bad[line_no - 1])
        path.write_bytes(b"\n".join(bad) + b"\n")
        messages = set()
        for block in _BLOCK_SIZES:
            monkeypatch.setattr(core, "_READ_BLOCK", block)
            with pytest.raises(MalformedRecordError) as err:
                read_log(path)
            assert err.value.line_no == line_no
            assert fragment in str(err.value)
            messages.add(str(err.value))
        assert len(messages) == 1


_HEADER = '{"horizon":10,"kind":"header"}\n'
_IMP = '{"advertiser":"a","kind":"impression","query_id":%d,"slot":%d,"t":%d}\n'


@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize(
    "lines, message",
    [
        ([_IMP % (0, 1, -1)], "line 2: negative timestamp: -1"),
        ([_IMP % (0, 0, 1)], "line 2: slot must be >= 1, got 0"),
        ([_IMP % (0, 1, 1), _IMP % (0, 1, 2)], "line 3: impression 0 of 'a' already in the log"),
        (
            ['{"advertiser":"a","impression_ref":0,"kind":"click","slot":1,"source":null,"t":1}\n'],
            "line 2: click at t=1 references unknown impression 0 of 'a'",
        ),
    ],
    ids=["negative t", "slot 0", "duplicate impression", "dangling click"],
)
def test_a_record_append_rejects_fails_alike_on_both_paths(tmp_path, lines, message, form):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(_rewrite(line, form) for line in [_HEADER, *lines]), newline="")
    with pytest.raises(MalformedRecordError) as err:
        read_log(path)
    assert str(err.value) == message


def test_file_layout(tmp_path):
    log = EventLog(60)
    log.append(*row_of(imp(1, qid=0)))
    log.append(*row_of(clk(1, ref=0)))
    path = tmp_path / "events.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"kind": "header", "horizon": 60}
    assert json.loads(lines[1])["kind"] == "impression"
    assert json.loads(lines[2])["source"] == "organic"


def test_stripped_click_round_trips_as_null_source(tmp_path):
    log = EventLog(60)
    log.append(*row_of(imp(1, qid=0)))
    log.append(*row_of(clk(1, ref=0)))
    path = tmp_path / "events.jsonl"
    write_log(log.stripped(), path)
    back = read_log(path)
    assert list(back)[1].source is None


@pytest.mark.parametrize(
    "lines, bad_line, fragment",
    [
        ([], 1, "empty file"),
        (['{"kind":"impression"}'], 1, "header"),
        (['{"horizon":10,"kind":"header"}', ""], 2, "blank"),
        (['{"horizon":10,"kind":"header"}', "{nope"], 2, "invalid JSON"),
        (['{"horizon":10,"kind":"header"}', "[1,2]"], 2, "not an object"),
        (['{"horizon":10,"kind":"header"}', '{"kind":"mystery"}'], 2, "unknown record kind"),
        (
            ['{"horizon":10,"kind":"header"}', '{"kind":"impression","t":1}'],
            2,
            "bad impression fields",
        ),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","kind":"impression","query_id":0,"slot":1,"t":1,"x":2}',
            ],
            2,
            "bad impression fields",
        ),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","kind":"impression","query_id":0,"slot":1,"t":"1"}',
            ],
            2,
            "must be an integer",
        ),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","impression_ref":0,"kind":"click","slot":1,'
                '"source":"martian","t":1}',
            ],
            2,
            "unknown click source",
        ),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","impression_ref":0,"kind":"click","slot":1,'
                '"source":"organic","t":1}',
            ],
            2,
            "unknown impression",
        ),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","kind":"impression","query_id":0,"slot":1,"t":1}',
                '{"advertiser":"b","kind":"impression","query_id":0,"slot":1,"t":1}',
                '{"advertiser":"a","kind":"impression","query_id":0,"slot":1,"t":2}',
            ],
            4,
            "already in the log",
        ),
        (['{"horizon":-5,"kind":"header"}'], 1, "negative horizon"),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","kind":"impression","query_id":0,"slot":1,"t":9}',
                '{"advertiser":"a","kind":"impression","query_id":1,"slot":1,"t":50}',
            ],
            3,
            "past horizon",
        ),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","kind":"impression","query_id":0,"slot":1,"t":-1}',
            ],
            2,
            "negative timestamp: -1",
        ),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","kind":"impression","query_id":0,"slot":0,"t":1}',
            ],
            2,
            "slot must be >= 1, got 0",
        ),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"","kind":"impression","query_id":0,"slot":1,"t":1}',
            ],
            2,
            "empty advertiser id",
        ),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","kind":"impression","query_id":true,"slot":1,"t":1}',
            ],
            2,
            "field 'query_id' must be an integer, got True",
        ),
        (['{"horizon":1.5,"kind":"header"}'], 1, "field 'horizon' must be an integer, got 1.5"),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","kind":["impression"],"query_id":0,"slot":1,"t":1}',
            ],
            2,
            "unknown record kind ['impression']",
        ),
        (
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","kind":"impression","query_id":0,"slot":1,"t":1}',
                '{"advertiser":"a","impression_ref":0,"kind":"click","slot":1,'
                '"source":["organic"],"t":1}',
            ],
            3,
            "unknown click source ['organic']",
        ),
        (  # a line ends at a line feed alone, so a bare CR does not split records
            [
                '{"horizon":10,"kind":"header"}\r'
                '{"advertiser":"a","kind":"impression","query_id":0,"slot":1,"t":1}'
            ],
            1,
            "invalid JSON",
        ),
        (  # an impression's row source is no click source, so a click cannot pass for one
            [
                '{"horizon":10,"kind":"header"}',
                '{"advertiser":"a","kind":"impression","query_id":0,"slot":1,"t":1}',
                '{"advertiser":"a","impression_ref":0,"kind":"click","slot":1,'
                '"source":"impression","t":1}',
            ],
            3,
            "unknown click source 'impression'",
        ),
        (  # nesting deeper than the decoder can recurse is bad JSON, not a crash
            ['{"horizon":10,"kind":"header"}', "[" * 100_000],
            2,
            "invalid JSON: nested too deeply",
        ),
    ],
)
def test_malformed_files_report_the_offending_line(tmp_path, lines, bad_line, fragment):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    with pytest.raises(MalformedRecordError) as err:
        read_log(path)
    assert err.value.line_no == bad_line
    assert fragment in str(err.value)


def test_a_byte_that_is_not_utf8_is_reported_on_its_line(tmp_path):
    path = tmp_path / "latin1.jsonl"
    log = log_of([ImpressionEvent(t, "a", 1, t) for t in range(400)], 1_000)
    write_log(log, path)
    lines = path.read_bytes().splitlines(keepends=True)
    assert sum(map(len, lines[:300])) > 8192  # past the text decoder's first chunk
    lines[300] = lines[300].replace(b'"a"', b'"\xe9"')
    path.write_bytes(b"".join(lines))
    with pytest.raises(MalformedRecordError) as err:
        read_log(path)
    assert err.value.line_no == 301
    assert str(err.value) == "line 301: not UTF-8: invalid continuation byte"


def test_out_of_order_lines_are_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"horizon":10,"kind":"header"}\n'
        '{"advertiser":"a","kind":"impression","query_id":1,"slot":1,"t":5}\n'
        '{"advertiser":"a","kind":"impression","query_id":2,"slot":1,"t":4}\n'
    )
    with pytest.raises(MalformedRecordError) as err:
        read_log(path)
    assert err.value.line_no == 3
