"""Event-log serialization: round trips, headers, byte stability, parse checks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from event_records import parse_log
from liftsim.events import (
    ACTION, AD_REQUEST, EVENT_KINDS, FIELDS, IMPRESSION, PAGE_VIEW,
    EventLog, EventLogError,
)
from liftsim.fileio import atomic_write_text

HEADER = '{"format":"liftsim.events","version":1,"seed":0,"config_digest":"x"}'
OPTIONAL_KEYS = ("adv", "topic", "app", "bidder", "price")


def _sample_log():
    return parse_log([
        {"ts": 10, "user": "u0", "kind": AD_REQUEST, "topic": 2},
        {"ts": 11, "user": "u0", "kind": IMPRESSION, "adv": "adv1",
         "bidder": "value", "price": 3_500_000},
        {"ts": 50, "user": "u1", "kind": PAGE_VIEW, "topic": 0},
        {"ts": 99, "user": "u0", "kind": ACTION, "adv": "adv1"},
    ], seed=42, config_digest="abcd1234")


def reference_line(record):
    """JSONL v1 as the per-record encoder wrote it: a dict in key order,
    absent fields omitted, then one ``json.dumps``."""
    line = {key: record[key] for key in ("ts", "user", "kind")}
    line.update((key, record[key]) for key in OPTIONAL_KEYS if key in record)
    return json.dumps(line, separators=(",", ":"), ensure_ascii=True)


def test_round_trip_preserves_everything(tmp_path):
    log = _sample_log()
    path = tmp_path / "events.jsonl"
    atomic_write_text(path, log.dumps())
    loaded = EventLog.read(path)
    for name in FIELDS:
        assert np.array_equal(getattr(loaded, name), getattr(log, name))
    assert loaded.users == ("u0", "u1")
    assert loaded.advertisers == ("adv1",)
    assert loaded.bidders == ("value",)
    assert loaded.seed == 42
    assert loaded.config_digest == "abcd1234"
    assert loaded.dumps() == log.dumps()


def test_columns_index_the_code_tables():
    log = _sample_log()
    assert len(log) == 4
    assert log.ts.tolist() == [10, 11, 50, 99]
    assert [EVENT_KINDS[k] for k in log.kind] == [
        AD_REQUEST, IMPRESSION, PAGE_VIEW, ACTION]
    assert [log.users[u] for u in log.user] == ["u0", "u0", "u1", "u0"]
    assert log.adv.tolist() == [-1, 0, -1, 0]
    assert log.topic.tolist() == [2, -1, 0, -1]
    assert log.price.tolist() == [-1, 3_500_000, -1, -1]


def test_serialization_is_byte_stable(tmp_path):
    log = _sample_log()
    assert log.dumps() == log.dumps()
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    atomic_write_text(a, log.dumps())
    atomic_write_text(b, log.dumps())
    assert a.read_bytes() == b.read_bytes()


def test_header_line_carries_provenance():
    first_line = _sample_log().dumps().splitlines()[0]
    assert '"format":"liftsim.events"' in first_line
    assert '"seed":42' in first_line
    assert '"config_digest":"abcd1234"' in first_line


def test_absent_fields_are_omitted():
    line = _sample_log().dumps().splitlines()[1]
    assert "null" not in line
    assert line == '{"ts":10,"user":"u0","kind":"ad_request","topic":2}'


def test_parse_rejects_foreign_files():
    with pytest.raises(EventLogError):
        EventLog.parse(['{"format":"something.else","version":1}'])
    with pytest.raises(EventLogError):
        EventLog.parse([])


def test_parse_rejects_unknown_kind():
    with pytest.raises(EventLogError):
        EventLog.parse([HEADER, '{"ts":1,"user":"u","kind":"teleport"}'])


GOOD = '{"ts":1,"user":"u","kind":"page_view","topic":0}'


@pytest.mark.parametrize("lines", [
    [GOOD + "," + GOOD],
    [GOOD + "]", "[" + GOOD],
    # Valid JSON once the lines are joined, but no line is one object.
    ['{"ts":1,"user":"u"', '"kind":"page_view"},' + GOOD],
    ['{"ts":1,"user":"u","kind":"page_view","x":[[1', '2]]},' + GOOD],
    ['{"ts":1,"user":"', '"},' + GOOD],
    ['{"ts":1,"user":"u","kind":"page_view","topic":-1}'],
    ['{"ts":1,"user":"u","kind":"page_view","adv":null}'],
    ['{"ts":1,"user":"u","kind":"page_view","extra":0}'],
    ['{"ts":true,"user":"u","kind":"page_view"}'],
    ['{"ts":1.0,"user":"u","kind":"page_view"}'],
    ['{"ts":1,"user":7,"kind":"page_view"}'],
    ['{"ts":1,"user":["u"],"kind":"page_view"}'],
    ['{"ts":18446744073709551616,"user":"u","kind":"page_view"}'],
    ["[" + GOOD + "]"],
], ids=["two-objects", "bracketed", "split-object", "split-array",
        "split-string", "negative-topic", "null-adv", "unknown-key",
        "bool-ts", "float-ts", "int-user", "list-user", "huge-ts",
        "array"])
def test_parse_takes_exactly_one_record_per_line(lines):
    with pytest.raises(EventLogError):
        EventLog.parse([HEADER, GOOD, *lines, GOOD])


def test_parse_rejects_events_out_of_time_order():
    earlier = GOOD.replace('"ts":1', '"ts":0')
    with pytest.raises(EventLogError, match="event 2 is earlier"):
        EventLog.parse([HEADER, GOOD, earlier])


def test_parse_skips_blank_lines_and_reads_many_blocks():
    lines = [HEADER] + [GOOD.replace('"ts":1', f'"ts":{i}')
                        for i in range(20_000)]
    log = EventLog.parse(lines[:5] + ["", "  "] + lines[5:])
    assert len(log) == 20_000
    assert log.ts.tolist() == list(range(20_000))
    assert log.dumps() == "\n".join(lines) + "\n"


IDS = st.text(min_size=0, max_size=6) | st.sampled_from(
    ['u"q', "b\\s", "café", "中", "\U0001f600", "ctrl\n\x00"])
COUNTS = st.integers(0, 10**12)


@st.composite
def records(draw):
    record = {"ts": draw(st.integers(0, 10**6)), "user": draw(IDS),
              "kind": draw(st.sampled_from(EVENT_KINDS))}
    for key in OPTIONAL_KEYS:
        if draw(st.booleans()):
            record[key] = draw(IDS if key in ("adv", "bidder") else COUNTS)
    return record


@settings(max_examples=200, deadline=None)
@given(st.lists(records(), max_size=30), st.integers(0, 2**40), IDS)
def test_dumps_matches_the_per_record_encoder(events, seed, digest):
    events.sort(key=lambda r: r["ts"])
    header = json.dumps({"format": "liftsim.events", "version": 1,
                         "seed": seed, "config_digest": digest},
                        separators=(",", ":"), ensure_ascii=True)
    lines = [header] + [reference_line(r) for r in events]
    assert EventLog.parse(lines).dumps() == "\n".join(lines) + "\n"
