from __future__ import annotations

import json

import numpy as np
import pytest

from adsim.core import (
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
    event_sort_key,
    read_log,
    write_log,
)
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
        log = EventLog.from_events([imp(0)], 10)
        with pytest.raises(ValueError) as err:
            log.append(event)
        assert str(err.value) == message
        assert log.events == [imp(0)]
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
    ordered = sorted(events, key=event_sort_key)
    assert [type(e).__name__[0] for e in ordered] == ["I", "I", "C", "C"]
    assert [e.advertiser for e in ordered] == ["a", "b", "a", "b"]


def test_sort_key_is_total_on_distinct_events():
    log = random_log(3)
    keys = [event_sort_key(e) for e in log]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# EventLog.


def test_append_enforces_time_order():
    log = EventLog(100)
    log.append(imp(10))
    log.append(imp(10, "b", qid=1))  # equal times are fine
    with pytest.raises(OutOfOrderError):
        log.append(imp(9, qid=2))


def test_clicks_must_reference_a_prior_impression_of_the_same_advertiser():
    log = EventLog(100)
    log.append(imp(10, "a", qid=5))
    with pytest.raises(DanglingClickError):
        log.append(clk(11, "a", ref=6))
    with pytest.raises(DanglingClickError):
        log.append(clk(11, "b", ref=5))  # right id, wrong advertiser
    log.append(clk(11, "a", ref=5))
    with pytest.raises(DuplicateClickError):
        log.append(clk(12, "a", ref=5))


def test_append_rejects_events_at_or_past_the_horizon():
    log = EventLog(100)
    log.append(imp(99, qid=0))
    with pytest.raises(HorizonExceededError):
        log.append(clk(100, ref=0))
    with pytest.raises(HorizonExceededError):
        EventLog(0).append(imp(0))


def test_impressions_are_unique_per_advertiser_and_query_id():
    log = EventLog(100)
    log.append(imp(10, "a", qid=5))
    log.append(imp(10, "b", qid=5))  # same query, another advertiser
    with pytest.raises(DuplicateImpressionError):
        log.append(imp(11, "a", qid=5))


def test_stripped_erases_click_labels_only():
    log = EventLog(50)
    log.append(imp(1, qid=0))
    log.append(clk(1, ref=0, source=ClickSource.SCRIPTED_FRAUD))
    bare = log.stripped()
    assert bare.horizon == log.horizon
    assert len(bare) == 2
    assert bare.events[0] == log.events[0]
    assert bare.events[1].source is None
    assert bare.events[1].t == log.events[1].t and bare.events[1].impression_ref == 0
    # the original is untouched
    assert log.events[1].source is ClickSource.SCRIPTED_FRAUD


def test_appending_to_the_stripped_copy_leaves_the_original_unchanged():
    log = EventLog(50)
    log.append(imp(1, qid=0))
    log.append(clk(1, ref=0))
    bare = log.stripped()
    bare.append(imp(2, qid=1))
    bare.append(clk(2, ref=1))
    # the copy still knows what the original had shown and clicked
    with pytest.raises(DuplicateImpressionError):
        bare.append(imp(3, qid=0))
    with pytest.raises(DuplicateClickError):
        bare.append(clk(3, ref=0))
    assert len(bare) == 4
    assert log.events == [imp(1, qid=0), clk(1, ref=0)]
    log.append(imp(2, qid=1))  # qid 1 is still new to the original
    log.append(clk(2, ref=1))


def test_from_events_sorts_canonically():
    events = [clk(5, ref=1), imp(5, qid=1), imp(2, "b", qid=0)]
    log = EventLog.from_events(events, 10)
    assert [e.t for e in log] == [2, 5, 5]
    assert isinstance(log.events[1], ImpressionEvent)


def test_log_introspection():
    log = EventLog(100)
    assert log.advertisers() == []
    log.append(imp(1, "b", qid=7))
    log.append(imp(2, "a", qid=3))
    assert log.advertisers() == ["a", "b"]
    assert len(log) == 2
    assert list(log) == [log.events[0], log.events[1]]


def test_log_equality():
    a = EventLog.from_events([imp(1)], 10)
    b = EventLog.from_events([imp(1)], 10)
    c = EventLog.from_events([imp(1)], 11)
    assert a == b
    assert a != c
    assert a != "not a log"


# ---------------------------------------------------------------------------
# JSONL persistence.


# t = 0, t = horizon - 1, every click source and None, and an advertiser id
# that JSON must escape or that is not ASCII.
_EDGE_LOG = EventLog.from_events(
    [
        imp(0, 'q"\\é', qid=0),
        clk(0, 'q"\\é', ref=0, source=None),
        imp(0, qid=0),
        clk(0, ref=0, source=ClickSource.SCRIPTED_FRAUD),
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
    back = read_log(first)
    assert back == log
    write_log(back, second)
    assert second.read_bytes() == first.read_bytes()


def test_a_valid_but_non_canonical_file_still_parses(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(
        b'{ "kind": "header", "horizon": 10 }\r\n'
        b'{"t": 1, "slot": 2, "query_id": 5, "kind": "impression", "advertiser": "a"}\r\n'
        b'  {"source": null, "t": 3, "impression_ref": 5, "advertiser": "a", '
        b'"kind": "click", "slot": 2}  \r\n'
    )
    expected = [imp(1, slot=2, qid=5), clk(3, slot=2, ref=5, source=None)]
    assert read_log(path) == EventLog.from_events(expected, 10)


def test_file_layout(tmp_path):
    log = EventLog(60)
    log.append(imp(1, qid=0))
    log.append(clk(1, ref=0))
    path = tmp_path / "events.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"kind": "header", "horizon": 60}
    assert json.loads(lines[1])["kind"] == "impression"
    assert json.loads(lines[2])["source"] == "organic"


def test_stripped_click_round_trips_as_null_source(tmp_path):
    log = EventLog(60)
    log.append(imp(1, qid=0))
    log.append(clk(1, ref=0))
    path = tmp_path / "events.jsonl"
    write_log(log.stripped(), path)
    back = read_log(path)
    assert back.events[1].source is None


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
    log = EventLog.from_events([ImpressionEvent(t, "a", 1, t) for t in range(400)], 1_000)
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
