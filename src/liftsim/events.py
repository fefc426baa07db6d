"""Replayable event log with line-delimited serialization.

One JSON object per line, keys always emitted in the fixed order
``ts, user, kind, adv, topic, app, bidder, price`` with absent fields
omitted. The first line is a header carrying the format version, the
world seed and the config digest, so any log can be traced back to the
exact inputs that produced it. Serialization is byte-exact across
platforms: timestamps and prices are integers, and no floats appear in
event records.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .fileio import atomic_write_text

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
_KIND_ORDER = {kind: i for i, kind in enumerate(EVENT_KINDS)}


class TimelineEvent(NamedTuple):
    """One timestamped event on a user's timeline.

    ``price`` is in micros: the bid amount on ``bid`` events, the
    clearing price on ``auction`` and ``impression`` events.
    """

    ts: int
    user_id: str
    kind: str
    advertiser_id: str | None = None
    topic_id: int | None = None
    app_id: int | None = None
    bidder: str | None = None
    price: int | None = None

    def sort_key(self) -> tuple:
        return (self.ts, self.user_id, _KIND_ORDER[self.kind])


class EventLogError(ValueError):
    """Raised on malformed event-log files."""


def _event_line(event: TimelineEvent) -> str:
    record: dict[str, object] = {
        "ts": event.ts,
        "user": event.user_id,
        "kind": event.kind,
    }
    if event.advertiser_id is not None:
        record["adv"] = event.advertiser_id
    if event.topic_id is not None:
        record["topic"] = event.topic_id
    if event.app_id is not None:
        record["app"] = event.app_id
    if event.bidder is not None:
        record["bidder"] = event.bidder
    if event.price is not None:
        record["price"] = event.price
    return json.dumps(record, separators=(",", ":"), ensure_ascii=True)


def _parse_event(line: str) -> TimelineEvent:
    record = json.loads(line)
    kind = record["kind"]
    if kind not in _KIND_ORDER:
        raise EventLogError(f"unknown event kind {kind!r}")
    return TimelineEvent(
        ts=record["ts"],
        user_id=record["user"],
        kind=kind,
        advertiser_id=record.get("adv"),
        topic_id=record.get("topic"),
        app_id=record.get("app"),
        bidder=record.get("bidder"),
        price=record.get("price"),
    )


@dataclass
class EventLog:
    """An ordered event stream plus the provenance needed to replay it."""

    events: list[TimelineEvent] = field(default_factory=list)
    seed: int = 0
    config_digest: str = ""

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TimelineEvent]:
        return iter(self.events)

    def header(self) -> dict[str, object]:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "seed": self.seed,
            "config_digest": self.config_digest,
        }

    def lines(self) -> Iterator[str]:
        yield json.dumps(self.header(), separators=(",", ":"), ensure_ascii=True)
        for event in self.events:
            yield _event_line(event)

    def dumps(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def write(self, path: str | Path) -> None:
        atomic_write_text(path, self.dumps())

    @classmethod
    def read(cls, path: str | Path) -> "EventLog":
        with Path(path).open(encoding="utf-8") as fh:
            return cls.parse(fh)

    @classmethod
    def parse(cls, lines: Iterable[str]) -> "EventLog":
        it = iter(lines)
        try:
            header = json.loads(next(it))
        except StopIteration:
            raise EventLogError("empty event log") from None
        if header.get("format") != FORMAT_NAME:
            raise EventLogError(f"not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise EventLogError(f"unsupported version {header.get('version')}")
        events = [_parse_event(line) for line in it if line.strip()]
        return cls(events=events, seed=header["seed"],
                   config_digest=header["config_digest"])

    def of_kind(self, kind: str) -> list[TimelineEvent]:
        return [e for e in self.events if e.kind == kind]
