"""Replayable event log: int64 columns in memory, JSONL v1 on disk.

:class:`EventLog` holds one array per field, in the file's key order
``ts, user, kind, adv, topic, app, bidder, price``. ``kind`` indexes
:data:`EVENT_KINDS`; ``user``, ``adv`` and ``bidder`` index the tables
``users``, ``advertisers`` and ``bidders``. ``price`` is in micros: the
bid on ``bid`` events, the clearing price on ``auction`` and
``impression`` events. -1 marks an absent field, so no field holds a
negative value. Events are in non-decreasing ``ts`` order.

On disk a header line carries the format version, the world seed and
the config digest. Then each line is one JSON object, keys in the order
above and absent fields omitted; ids are ASCII-escaped and numbers are
integers, so the bytes are the same on every platform.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable

import numpy as np


FORMAT_NAME = "liftsim.events"
FORMAT_VERSION = 1

AD_REQUEST = "ad_request"
BID = "bid"
AUCTION = "auction"
IMPRESSION = "impression"
CLICK = "click"
PAGE_VIEW = "page_view"
SEARCH = "search"
APP_INSTALL = "app_install"
APP_USE = "app_use"
ACTION = "action"

EVENT_KINDS = (
    AD_REQUEST, BID, AUCTION, IMPRESSION, CLICK,
    PAGE_VIEW, SEARCH, APP_INSTALL, APP_USE, ACTION,
)
KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}
FIELDS = ("ts", "user", "kind", "adv", "topic", "app", "bidder", "price")

# Lines per json.loads call in EventLog.parse: few enough that a block's
# records stay small next to the columns, many enough to amortize a call.
_BLOCK_LINES = 8_192
_NOT_A_RECORD = ("not an event record: ts, user and kind are required, "
                 "numbers are non-negative integers, no other key may appear")


class EventLogError(ValueError):
    """Raised on malformed event-log files."""


@dataclass(eq=False)
class EventLog:
    """Event columns plus the provenance needed to replay them."""

    ts: np.ndarray
    user: np.ndarray
    kind: np.ndarray
    adv: np.ndarray
    topic: np.ndarray
    app: np.ndarray
    bidder: np.ndarray
    price: np.ndarray
    users: tuple[str, ...]
    advertisers: tuple[str, ...]
    bidders: tuple[str, ...]
    seed: int = 0
    config_digest: str = ""

    def __len__(self) -> int:
        return len(self.ts)

    def header(self) -> dict[str, object]:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "seed": self.seed,
            "config_digest": self.config_digest,
        }

    def dumps(self) -> str:
        """Header line, then one line per event: one f-string each, from
        per-column fragments that are empty where a field is absent."""
        def coded(key: str, codes: np.ndarray, table) -> np.ndarray:
            # Code -1 (absent) picks the trailing empty fragment.
            fragments = [f',"{key}":{json.dumps(s)}' for s in table] + [""]
            return np.array(fragments, dtype=object)[codes]

        def numbers(key: str, values: np.ndarray) -> list[str]:
            return [f',"{key}":{v}' if v >= 0 else "" for v in values.tolist()]

        parts = zip(self.ts.tolist(), coded("user", self.user, self.users),
                    coded("kind", self.kind, EVENT_KINDS),
                    coded("adv", self.adv, self.advertisers),
                    numbers("topic", self.topic), numbers("app", self.app),
                    coded("bidder", self.bidder, self.bidders),
                    numbers("price", self.price))
        lines = [json.dumps(self.header(), separators=(",", ":"))]
        lines += [f'{{"ts":{ts}{user}{kind}{adv}{topic}{app}{bidder}{price}}}'
                  for ts, user, kind, adv, topic, app, bidder, price in parts]
        return "\n".join(lines) + "\n"

    @classmethod
    def read(cls, path: str | Path) -> "EventLog":
        with Path(path).open(encoding="utf-8") as fh:
            return cls.parse(fh)

    @classmethod
    def parse(cls, lines: Iterable[str]) -> "EventLog":
        """A log from JSONL v1 lines, skipping blank ones; raises
        :class:`EventLogError` on a bad header or line, or on disorder."""
        it = iter(lines)
        try:
            header = json.loads(next(it))
        except StopIteration:
            raise EventLogError("empty event log") from None
        except ValueError:
            raise EventLogError("the header is not JSON") from None
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise EventLogError(f"not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise EventLogError(f"unsupported version {header.get('version')}")
        if not {"seed", "config_digest"} <= header.keys():
            raise EventLogError("the header lacks the seed or config_digest")
        # Code tables in order of first appearance; None (absent) is -1.
        tables = ({None: -1}, {None: -1}, {None: -1})
        stripped = (line for line in map(str.strip, it) if line)
        blocks = [np.empty((len(FIELDS), 0), dtype=np.int64)]
        while block := list(islice(stripped, _BLOCK_LINES)):
            before = sum(b.shape[1] for b in blocks)
            blocks.append(_parse_block(block, before, tables))
        data = np.concatenate(blocks, axis=1)
        backwards = np.flatnonzero(np.diff(data[0]) < 0)
        if backwards.size:
            raise EventLogError(f"event {backwards[0] + 2} is earlier than "
                                "the one before it")
        ids = [tuple(table)[1:] for table in tables]
        if any(type(s) is not str for table in ids for s in table):
            raise EventLogError("a user, adv or bidder id is not a string")
        return cls(*data, *ids, seed=header["seed"],
                   config_digest=header["config_digest"])


def _parse_block(block: list[str], before: int, tables) -> np.ndarray:
    """One block of stripped event lines as an (8, n) column array; new
    ids join the code tables, and ``before`` events precede the block."""
    def fail(index: int, problem: str = _NOT_A_RECORD) -> EventLogError:
        return EventLogError(f"event {before + index + 1}: {problem}")

    # Lines are joined by ",\n", and no JSON string may hold the newline.
    # One value per line, with every line ending in "}", is then one record
    # per line: a record across lines needs a nested value, rejected below.
    text = ",\n".join(block)
    try:
        rows = json.loads("[" + text + "]")
    except (ValueError, RecursionError) as exc:
        raise fail(getattr(exc, "lineno", 1) - 1, "not a JSON object") from None
    closed = text.count("},\n") + text.endswith("}")  # lines ending in "}"
    if len(rows) != len(block) or closed != len(block):
        raise EventLogError(f"events {before + 1}-{before + len(block)}: "
                            "a line is not exactly one JSON object")
    users, advertisers, bidders = tables
    columns: list[list] = [[] for _ in FIELDS]
    ts, user, kind, adv, topic, app, bidder, price = columns
    try:
        for record in rows:
            ts.append(record.get("ts"))
            user.append(users.setdefault(record.get("user"), len(users) - 1))
            kind.append(KIND_CODE.get(record.get("kind"), -1))
            adv.append(advertisers.setdefault(record.get("adv"),
                                              len(advertisers) - 1))
            topic.append(record.get("topic", -1))
            app.append(record.get("app", -1))
            bidder.append(bidders.setdefault(record.get("bidder"),
                                             len(bidders) - 1))
            price.append(record.get("price", -1))
    except (TypeError, AttributeError):  # not an object, or an unhashable id
        raise fail(len(price)) from None
    numbers = ts + topic + app + price
    if set(map(type, numbers)) != {int} or not (
            -1 <= min(numbers) <= max(numbers) < 1 << 63):
        raise fail(next(i for i, v in enumerate(numbers) if type(v) is not int
                        or not -1 <= v < 1 << 63) % len(block))
    data = np.array(columns, dtype=np.int64)
    # Each key of a record is ts, user, kind or an optional field that has
    # a value, so an unknown key, a null or a -1 shows as a width that is off.
    keys = 3 + np.count_nonzero(data[3:] >= 0, axis=0)
    widths = np.array([len(record) for record in rows])
    bad = (data[:3] < 0).any(axis=0) | (widths != keys)
    if bad.any():
        raise fail(int(np.argmax(bad)))
    return data
