"""Event-log serialization: round trips, headers, byte stability."""

import pytest

from liftsim.events import (
    ACTION, AD_REQUEST, IMPRESSION, PAGE_VIEW,
    EventLog, EventLogError, TimelineEvent,
)


def _sample_log():
    events = [
        TimelineEvent(ts=10, user_id="u0", kind=AD_REQUEST, topic_id=2),
        TimelineEvent(ts=11, user_id="u0", kind=IMPRESSION,
                      advertiser_id="adv1", bidder="value", price=3_500_000),
        TimelineEvent(ts=50, user_id="u1", kind=PAGE_VIEW, topic_id=0),
        TimelineEvent(ts=99, user_id="u0", kind=ACTION, advertiser_id="adv1"),
    ]
    return EventLog(events=events, seed=42, config_digest="abcd1234")


def test_round_trip_preserves_everything(tmp_path):
    log = _sample_log()
    path = tmp_path / "events.jsonl"
    log.write(path)
    loaded = EventLog.read(path)
    assert loaded.events == log.events
    assert loaded.seed == 42
    assert loaded.config_digest == "abcd1234"


def test_serialization_is_byte_stable(tmp_path):
    log = _sample_log()
    assert log.dumps() == log.dumps()
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    log.write(a)
    log.write(b)
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
    header = '{"format":"liftsim.events","version":1,"seed":0,"config_digest":"x"}'
    with pytest.raises(EventLogError):
        EventLog.parse([header, '{"ts":1,"user":"u","kind":"teleport"}'])


def test_of_kind_filters_in_log_order():
    log = _sample_log()
    assert log.of_kind(AD_REQUEST) == [log.events[0]]
    assert [e.ts for e in log.of_kind(IMPRESSION)] == [11]
    assert log.of_kind("click") == []
