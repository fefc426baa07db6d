"""Event-log serialization: round trips, headers, byte stability, parse checks."""

import hashlib
import json
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import liftsim.events
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
    ['u"q', "b\\s", "café", "中", "\U0001f600", "ctrl\n\x00",
     "line\u2028sep", "nel\x85", "adv\x00"])
COUNTS = st.integers(0, 2**63 - 1)


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


def reference_text(log):
    """``log`` as JSONL v1, each event through :func:`reference_line`."""
    header = json.dumps(log.header(), separators=(",", ":"))
    tables = {"user": log.users, "kind": EVENT_KINDS,
              "adv": log.advertisers, "bidder": log.bidders}
    lines = [header]
    for i in range(len(log)):
        record = {}
        for name in FIELDS:
            value = int(getattr(log, name)[i])
            if value >= 0:
                record[name] = tables[name][value] if name in tables else value
        lines.append(reference_line(record))
    return "\n".join(lines) + "\n"


def make_log(n, users=("u",), advertisers=("adv1",), bidders=("value",),
             seed=0, **columns):
    """A log of ``n`` page views at times 0, 1, ...; ``columns`` replace
    any field's column."""
    data = {name: np.full(n, -1, dtype=np.int64) for name in FIELDS}
    data["ts"] = np.arange(n, dtype=np.int64)
    data["user"] = np.zeros(n, dtype=np.int64)
    data["kind"] = np.full(n, EVENT_KINDS.index(PAGE_VIEW), dtype=np.int64)
    data["topic"] = np.zeros(n, dtype=np.int64)
    data.update((name, np.asarray(v, dtype=np.int64))
                for name, v in columns.items())
    return EventLog(**data, users=users, advertisers=advertisers,
                    bidders=bidders, seed=seed, config_digest="edge")


def test_dumps_writes_only_the_header_of_an_empty_log():
    log = make_log(0, users=(), advertisers=(), bidders=(), seed=3)
    assert log.dumps() == reference_text(log)
    assert log.dumps() == json.dumps(log.header(), separators=(",", ":")) + "\n"


# Each line of make_log(n) for n <= 9999 is 16 words of the encoder's
# matrix: {"ts": 2, ts 1, user 3, kind 5, topic 3 + 1, the line end 1. This
# block size makes a block 1024 lines.
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
def test_dumps_across_block_boundaries(monkeypatch, n):
    monkeypatch.setattr(liftsim.events, "_BLOCK_BYTES", 4 * 16 * 1024)
    log = make_log(n, topic=np.arange(n) % 7)
    assert log.dumps() == reference_text(log)


EDGE_NUMBERS = [0, 9, 10, 99, 100, 10**18, 2**63 - 1]


@pytest.mark.parametrize("field", ["ts", "topic", "app", "price"])
def test_dumps_writes_every_digit_count(field):
    values = EDGE_NUMBERS + [-1] * (field != "ts")
    log = make_log(len(values), **{field: values})
    assert log.dumps() == reference_text(log)
    # And each value alone in its block, widest and narrowest.
    for value in values:
        if field != "ts" or value >= 0:
            one = make_log(1, **{field: [value]})
            assert one.dumps() == reference_text(one)


def test_dumps_writes_empty_and_very_long_ids(monkeypatch):
    # The long id sets every line's width in the matrix, which is wider
    # than a block, so each block is one line.
    monkeypatch.setattr(liftsim.events, "_BLOCK_BYTES", 1 << 12)
    long = "l\u00e9\x00" * 3000
    n = 500
    user = np.arange(n) % 3
    bidder = np.where(np.arange(n) % 5 == 0, np.arange(n) % 2, -1)
    log = make_log(n, users=("", long, "x"), bidders=(long, ""),
                   advertisers=("",), user=user, bidder=bidder,
                   adv=np.where(bidder >= 0, 0, -1),
                   price=np.where(bidder >= 0, np.arange(n), -1))
    assert log.dumps() == reference_text(log)


BAD_COLUMNS = {
    "user-past-table": {"user": [2]},
    "user-below-absent": {"user": [-2]},
    "user-absent": {"user": [-1]},
    "kind-past-kinds": {"kind": [len(EVENT_KINDS)]},
    "kind-below-absent": {"kind": [-2]},
    "kind-absent": {"kind": [-1]},
    "adv-past-table": {"adv": [1]},
    "adv-past-empty-table": {"adv": [0], "advertisers": ()},
    "adv-below-absent": {"adv": [-2]},
    "bidder-past-table": {"bidder": [1]},
    "bidder-below-absent": {"bidder": [-2]},
    "ts-absent": {"ts": [-1]},
    "topic-below-absent": {"topic": [-2]},
    "app-below-absent": {"app": [-2]},
    "price-below-absent": {"price": [-2]},
    "short-column": {"price": []},
}


@pytest.mark.parametrize("columns", BAD_COLUMNS.values(),
                         ids=BAD_COLUMNS.keys())
def test_dumps_refuses_columns_that_are_not_a_log(tmp_path, columns):
    log = make_log(1, users=("a", "b"), **columns)
    with pytest.raises(EventLogError):
        log.dumps()
    # write refuses them too, and leaves no file, whole or partial.
    with pytest.raises(EventLogError):
        log.write(tmp_path / "events.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_dumps_refuses_events_out_of_time_order():
    with pytest.raises(EventLogError, match="event 3 is earlier"):
        make_log(3, ts=[0, 5, 4]).dumps()


def test_dumps_refuses_a_code_below_absent_over_a_table():
    # Indexing the fragments with the raw code -2 would write user "b"
    # and kind "action" here.
    log = EventLog(*np.array([[1], [-2], [-2], [-1], [-1], [-1], [-1], [-1]]),
                   users=("a", "b"), advertisers=(), bidders=())
    with pytest.raises(EventLogError, match="user"):
        log.dumps()


def traced(call):
    """``call()``, and the bytes tracemalloc saw held after it and at its
    peak."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_a_long_id_shrinks_the_blocks_not_their_bytes():
    # One event's 20 kB id makes every line 20 kB wide in the matrix, so
    # a block holds 26 lines: the matrices stay within the block size.
    n = 60_000
    log = make_log(n, users=("u", "x" * 20_000),
                   user=(np.arange(n) == 10).astype(np.int64))
    text, _, peak = traced(log.dumps)
    assert text == reference_text(log)
    assert peak <= 3.5 * len(text), peak / len(text)
    with mock.patch.object(np, "empty", wraps=np.empty) as empty:
        log.dumps()
    assert max(4 * np.prod(call.args[0]) for call in empty.call_args_list
               ) <= liftsim.events._BLOCK_BYTES


def simulator_shaped_log():
    """120k events of 2,000 users, a third of them market events with an
    advertiser, bidder and price."""
    rng = np.random.default_rng(5)
    n = 120_000
    kind = rng.integers(0, len(EVENT_KINDS), n)
    market = kind < 4
    return make_log(
        n, users=tuple(f"u{i:06d}" for i in range(2000)),
        bidders=("passive", "value", "lift", "market"),
        ts=np.sort(rng.integers(0, 28 * 86_400, n)),
        user=rng.integers(0, 2000, n), kind=kind,
        adv=np.where(market, 0, -1),
        topic=np.where(market, -1, rng.integers(0, 8, n)),
        bidder=np.where(market, rng.integers(0, 4, n), -1),
        price=np.where(market, rng.integers(0, 10**7, n), -1))


def test_dumps_peak_memory_is_a_small_multiple_of_its_text():
    text, held, peak = traced(simulator_shaped_log().dumps)
    assert len(text) > 6_000_000
    assert peak <= 3.5 * len(text), peak / len(text)
    # Once it returns, dumps holds nothing but its text: a reference cycle
    # would keep its blocks' lines until the next garbage collection.
    assert held <= 1.1 * len(text), held / len(text)


def test_write_holds_neither_the_text_nor_the_stacked_columns(tmp_path):
    # The text goes out one encoded block at a time and the sidecar one
    # column at a time; holding the text once would be 1x by itself.
    log, path = simulator_shaped_log(), tmp_path / "events.jsonl"
    _, _, peak = traced(lambda: log.write(path))
    assert peak <= 0.6 * path.stat().st_size, peak / path.stat().st_size


def test_read_from_the_sidecar_holds_the_columns_alone(tmp_path):
    path = tmp_path / "events.jsonl"
    simulator_shaped_log().write(path)
    log, _, peak = traced(lambda: EventLog.read(path))
    columns = sum(getattr(log, name).nbytes for name in FIELDS)
    assert peak <= 1.25 * columns, peak / columns


def test_read_without_a_sidecar_never_holds_the_text(tmp_path):
    # The parse reads the file a block of lines at a time into columns
    # grown once. The columns are 0.87 times the text, and the measured
    # peak 1.19 times (numpy 2.4.6, Python 3.11.7); the bound leaves 0.21
    # for other interpreters' object sizes. Holding the columns twice
    # would be 1.74 by itself.
    path = tmp_path / "events.jsonl"
    simulator_shaped_log().write(path)
    path.with_suffix(".cols").unlink()
    _, _, peak = traced(lambda: EventLog.read(path))
    assert peak <= 1.4 * path.stat().st_size, peak / path.stat().st_size


def assert_same_log(got, want):
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == np.int64, name
    assert (got.users, got.advertisers, got.bidders) == (
        want.users, want.advertisers, want.bidders)
    assert (got.seed, got.config_digest) == (want.seed, want.config_digest)


def parse_file(path):
    with open(path, encoding="utf-8") as fh:
        return EventLog.parse(fh)


def scrambled(log, unused, rnd):
    """``log``'s events with each id table shuffled and ``unused`` ids
    added, as the simulator's tables list every user in population order."""
    tables = {}
    for table, column in (("users", "user"), ("advertisers", "adv"),
                          ("bidders", "bidder")):
        ids = list(getattr(log, table))
        ids += [s for s in dict.fromkeys(unused) if s not in ids]
        order = rnd.sample(range(len(ids)), len(ids))
        new_code = np.empty(len(ids) + 1, dtype=np.int64)
        new_code[order] = np.arange(len(ids))
        new_code[-1] = -1
        tables[table] = tuple(ids[i] for i in order)
        tables[column] = new_code[getattr(log, column)]
    columns = {name: getattr(log, name) for name in FIELDS} | tables
    return EventLog(**columns, seed=log.seed, config_digest=log.config_digest)


def decoded(log):
    """``log``'s provenance and events, each event's ids in place of its
    codes and None in place of -1."""
    tables = {"user": log.users, "kind": EVENT_KINDS,
              "adv": log.advertisers, "bidder": log.bidders}
    columns = []
    for name in FIELDS:
        values = getattr(log, name).tolist()
        if name in tables:
            values = [tables[name][v] if v >= 0 else None for v in values]
        columns.append(values)
    return log.seed, log.config_digest, list(zip(*columns))


@settings(max_examples=150, deadline=None)
@given(st.lists(records(), max_size=30), st.integers(0, 2**40), IDS,
       st.lists(IDS, max_size=3), st.randoms(use_true_random=False))
def test_the_sidecar_reads_back_the_written_log(events, seed, digest, unused,
                                                rnd):
    # The sidecar keeps the writer's tables, here shuffled and with unused
    # ids; parse builds its own, but both decode to the same events.
    events.sort(key=lambda r: r["ts"])
    header = json.dumps({"format": "liftsim.events", "version": 1,
                         "seed": seed, "config_digest": digest})
    parsed = EventLog.parse([header] + [reference_line(r) for r in events])
    log = scrambled(parsed, unused, rnd)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "events.jsonl")
        log.write(path)
        assert path.read_text(encoding="utf-8") == parsed.dumps()
        with mock.patch.object(EventLog, "parse",
                               side_effect=AssertionError("parsed")):
            from_sidecar = EventLog.read(path)
        assert decoded(from_sidecar) == decoded(parse_file(path))
    assert_same_log(from_sidecar, log)
    assert decoded(from_sidecar) == decoded(parsed)


def test_the_sidecar_keeps_equal_ids_that_parse_merges(tmp_path):
    log = EventLog(*np.array([[1, 2, 3], [2, 1, 0], [5, 5, 5], [-1, -1, -1],
                              [-1, -1, -1], [-1, -1, -1], [-1, -1, -1],
                              [-1, -1, -1]]),
                   users=("a", "b", "a"), advertisers=(), bidders=())
    path = tmp_path / "events.jsonl"
    log.write(path)
    with mock.patch.object(EventLog, "parse", side_effect=AssertionError):
        read = EventLog.read(path)
    assert_same_log(read, log)
    parsed = parse_file(path)
    assert (parsed.users, parsed.user.tolist()) == (("a", "b"), [0, 1, 0])
    assert decoded(read) == decoded(parsed)


# Small id tables, with equal ids and empty ones among them.
TABLES = st.lists(st.sampled_from(["a", "b", "c\x00", "\u00e9"]), max_size=4)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 3000), users=TABLES, advertisers=TABLES,
       bidders=TABLES, seed=st.integers(0, 2**32 - 1))
@example(n=0, users=[], advertisers=[], bidders=[], seed=0)
@example(n=1, users=["a"], advertisers=[], bidders=["b"], seed=0)
@example(n=2000, users=["a", "b", "a"], advertisers=["a", "a"],
         bidders=["b", "a", "b"], seed=1)
def test_the_sidecar_is_a_json_line_then_the_columns(
        n, users, advertisers, bidders, seed):
    if not users:
        n = 0
    rng = np.random.default_rng(seed)

    def optional(high):  # -1 is absent
        return rng.integers(-1, high, n)

    log = make_log(n, users=tuple(users), advertisers=tuple(advertisers),
                   bidders=tuple(bidders), seed=seed,
                   ts=np.sort(rng.integers(0, 10**6, n)),
                   user=rng.integers(0, max(len(users), 1), n),
                   kind=rng.integers(0, len(EVENT_KINDS), n),
                   adv=optional(len(advertisers)), topic=optional(9),
                   app=optional(10**12), bidder=optional(len(bidders)),
                   price=optional(2**62))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "events.jsonl")
        log.write(path)
        sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
        line, newline, columns = path.with_suffix(".cols").read_bytes(
            ).partition(b"\n")
    assert newline and line.isascii()
    meta = {"events": n, "sha256": sha256, "seed": seed,
            "config_digest": "edge", "users": users,
            "advertisers": advertisers, "bidders": bidders}
    own = hashlib.sha256(json.dumps(meta).encode() + columns).hexdigest()
    assert json.loads(line) == {**meta, "sidecar_sha256": own}
    assert columns == b"".join(
        getattr(log, name).astype("<i8").tobytes() for name in FIELDS)


def sidecar_path(path):
    return Path(path).with_suffix(".cols")


def rewrite_sidecar(path, edit, sign=True):
    """Read the sidecar beside ``path``, let ``edit(columns, meta)``
    change them in place, and write it again: with its own hash made
    anew unless ``sign`` is false, so that the fault tested is the edit
    and not the hash."""
    line, _, data = sidecar_path(path).read_bytes().partition(b"\n")
    meta = json.loads(line)
    columns = np.frombuffer(data, "<i8").reshape(len(FIELDS), -1).copy()
    columns = edit(columns, meta)
    if sign:
        del meta["sidecar_sha256"]
        meta["sidecar_sha256"] = hashlib.sha256(
            json.dumps(meta).encode() + columns.tobytes()).hexdigest()
    sidecar_path(path).write_bytes(json.dumps(meta).encode() + b"\n"
                                   + columns.tobytes())


def _set(field, index, value):
    def edit(columns, meta):
        columns[FIELDS.index(field), index] = value
        return columns
    return edit


def _meta(key, value, keep=None):
    """Set ``key`` in the line, keeping the first ``keep`` events."""
    def edit(columns, meta):
        meta[key] = value
        return columns[:, :keep]
    return edit


def _without(key):
    def edit(columns, meta):
        del meta[key]
        return columns
    return edit


def _stale(path):
    # A hand edit of the JSONL: the sidecar now describes other bytes.
    atomic_write_text(path, path.read_text().replace('"ts":99', '"ts":98'))


def _resized(by):
    def fault(path):
        data = sidecar_path(path).read_bytes()
        sidecar_path(path).write_bytes(data[:by] if by < 0
                                       else data + bytes(by))
    return fault


def _flip_first_user_code(path):
    # Code 0 becomes 1, still inside the users table and in time order:
    # only the sidecar's own hash tells it from a sound one.
    data = bytearray(sidecar_path(path).read_bytes())
    at = data.index(b"\n") + 1 + 8 * len(_sample_log()) * FIELDS.index("user")
    assert data[at] == 0
    data[at] ^= 1
    sidecar_path(path).write_bytes(data)


def _not_json(path):
    _, _, data = sidecar_path(path).read_bytes().partition(b"\n")
    sidecar_path(path).write_bytes(b"PK\x03\x04 not json\n" + data)


SIDECAR_FAULTS = {
    "missing": lambda path: sidecar_path(path).unlink(),
    "stale": _stale,
    "not-json": _not_json,
    "one-byte-short": _resized(-1),
    "one-event-short": _resized(-64),
    "one-event-long": _resized(64),
    "a-directory": lambda path: (sidecar_path(path).unlink(),
                                 sidecar_path(path).mkdir()),
    # With one event kept, a bool count would match the file's size.
    "events-bool": lambda path: rewrite_sidecar(path, _meta("events", True, 1)),
    "events-negative": lambda path: rewrite_sidecar(path, _meta("events", -4)),
    # Taken as it stands, this count asks for 64 PB.
    "events-huge": lambda path: rewrite_sidecar(path, _meta("events", 10**15)),
    "no-events": lambda path: rewrite_sidecar(path, _without("events")),
    "hash-mismatch": lambda path: rewrite_sidecar(path, _meta("sha256", "0")),
    "no-seed": lambda path: rewrite_sidecar(path, _without("seed")),
    "user-code-bit-flipped": _flip_first_user_code,
    "seed-edited": lambda path: rewrite_sidecar(path, _meta("seed", 43),
                                                sign=False),
    "no-own-hash": lambda path: rewrite_sidecar(
        path, _without("sidecar_sha256"), sign=False),
    "ts-decreasing": lambda path: rewrite_sidecar(path, _set("ts", 0, 60)),
    "user-absent": lambda path: rewrite_sidecar(path, _set("user", 0, -1)),
    "topic-below-absent": lambda path: rewrite_sidecar(
        path, _set("topic", 0, -2)),
    "user-outside-table": lambda path: rewrite_sidecar(
        path, _set("user", 0, 2)),
    "adv-outside-table": lambda path: rewrite_sidecar(path, _set("adv", 0, 1)),
    "bidder-outside-table": lambda path: rewrite_sidecar(
        path, _set("bidder", 0, 1)),
    "kind-outside-kinds": lambda path: rewrite_sidecar(
        path, _set("kind", 0, len(EVENT_KINDS))),
    "int-id": lambda path: rewrite_sidecar(path, _meta("users", ["u0", 1])),
    "ids-not-a-list": lambda path: rewrite_sidecar(path, _meta("bidders", {})),
}


@pytest.mark.parametrize("fault", SIDECAR_FAULTS.values(),
                         ids=SIDECAR_FAULTS.keys())
def test_a_faulty_sidecar_falls_back_to_the_parser(tmp_path, monkeypatch,
                                                   fault):
    path = tmp_path / "events.jsonl"
    _sample_log().write(path)
    fault(path)
    parse, calls = EventLog.parse, []
    monkeypatch.setattr(EventLog, "parse", classmethod(
        lambda cls, lines: calls.append(1) or parse(lines)))
    # Reading a few hundred bytes of sidecar allocates no more than that,
    # whatever event count its line states.
    log, _, peak = traced(lambda: EventLog.read(path))
    assert calls == [1]
    assert peak < 1 << 20, peak
    assert_same_log(log, parse_file(path))


def test_a_written_log_is_read_from_its_sidecar(tmp_path):
    path = tmp_path / "events.jsonl"
    _sample_log().write(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "events.cols", "events.jsonl"]
    with mock.patch.object(EventLog, "parse", side_effect=AssertionError):
        log = EventLog.read(path)
    assert_same_log(log, _sample_log())


def test_a_log_without_a_sidecar_splits_lines_as_a_text_file(tmp_path):
    # Ids may hold raw U+2028 and U+0085, which str.splitlines would split
    # on; a text file splits on \n, \r and \r\n only.
    path = tmp_path / "events.jsonl"
    path.write_bytes("\r\n".join([
        HEADER, '{"ts":1,"user":"a\u2028b","kind":"page_view"}',
        '{"ts":2,"user":"c\x85d","kind":"page_view"}']).encode("utf-8"))
    log = EventLog.read(path)
    assert log.users == ("a\u2028b", "c\x85d")
    assert log.ts.tolist() == [1, 2]
