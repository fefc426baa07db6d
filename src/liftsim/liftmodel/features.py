"""Feature extraction from user timelines.

The feature set mirrors what a production action-rate model would see:
impression and click frequency/recency per advertiser, page-view and
search frequency/recency per topic, demographics, and app install/use
frequency/recency per app. Frequencies are raw counts within the
feature window; recencies are bucketed ordinals with an explicit
"never" bucket.

Every feature is computed strictly from events in the half-open window
``(ts - fw, ts]``; nothing after ``ts`` may leak in.

:class:`EventIndex` states that rule once, in columns. Events reach it
in one form, eight int64 columns in :data:`~liftsim.events.FIELDS`
order, and one function maps their kinds and refs to feature columns. It
keys its first events once, takes blocks of events observed later, and
builds the rows of many (user, time) queries in columnar passes of
:data:`QUERY_CHUNK_ROWS` queries each. Training and bidding make the
same call, ``rows(codes, ts, fw, demographics)``: sampling over a log's
columns, and model-driven bidding (:class:`~.pipeline.ModelBidEstimator`)
over the world's behavior block and the bidder's won impressions and
clicks. No request context, such as its topic, enters a row.
:func:`extract_from_history` states the same rule one row at a time over
a :class:`UserHistory`; it is the reference the tests hold the columns to.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..events import (
    APP_INSTALL, APP_USE, CLICK, FIELDS, IMPRESSION, KIND_CODE, PAGE_VIEW,
    SEARCH, EventLog,
)
from ..fileio import json_digest

# Bucket edges in seconds: <=1h, <=6h, <=1d, <=2d, <=7d; anything older
# (or absent) falls into the trailing "never" bucket. The 2-day edge
# matches the default action window.
RECENCY_EDGES = (3_600, 21_600, 86_400, 172_800, 604_800)
NEVER_BUCKET = len(RECENCY_EDGES)
MOST_RECENT_BUCKET = 0
# Queries per pass of EventIndex.rows, as GBDTModel.raw_score scores
# rows in chunks: each pass holds (frequency columns x queries) arrays.
QUERY_CHUNK_ROWS = 4096


def recency_bucket(age_seconds: int) -> int:
    """Ordinal recency bucket for an event ``age_seconds`` in the past."""
    if age_seconds < 0:
        raise ValueError("age must be non-negative")
    return bisect.bisect_left(RECENCY_EDGES, age_seconds)


@dataclass(frozen=True)
class FeatureSchema:
    """Fixed, ordered layout of the feature vector for one world."""

    advertisers: tuple[str, ...]
    topics: int
    apps: int

    def __post_init__(self) -> None:
        if not self.advertisers or self.topics < 1 or self.apps < 1:
            raise ValueError("schema needs advertisers, topics and apps")

    @cached_property
    def names(self) -> tuple[str, ...]:
        names: list[str] = []
        for adv in self.advertisers:
            names += [f"imp_freq_adv:{adv}", f"imp_rncy_adv:{adv}",
                      f"clk_freq_adv:{adv}", f"clk_rncy_adv:{adv}"]
        for t in range(self.topics):
            names += [f"pv_freq_topic:{t}", f"pv_rncy_topic:{t}",
                      f"srch_freq_topic:{t}", f"srch_rncy_topic:{t}"]
        names += ["age_group", "gender", "geo_area"]
        for a in range(self.apps):
            names += [f"inst_freq_app:{a}", f"inst_rncy_app:{a}",
                      f"use_freq_app:{a}", f"use_rncy_app:{a}"]
        return tuple(names)

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def _column_of(self) -> dict[tuple[str, object], int]:
        """(prefix, ref) of each tracked pair -> its frequency column."""
        refs = {"adv": self.advertisers, "topic": range(self.topics),
                "app": range(self.apps)}
        return {(prefix, ref): self._name_index[f"{prefix}_freq_{field}:{ref}"]
                for prefix, field in _TRACKED.values() for ref in refs[field]}

    @cached_property
    def _freq_columns(self) -> np.ndarray:
        return np.array([i for i, name in enumerate(self.names)
                         if "_freq_" in name.partition(":")[0]])

    @property
    def n_features(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise KeyError(f"unknown feature {name!r}") from None

    def digest(self) -> str:
        return json_digest({"names": list(self.names),
                            "recency_edges": list(RECENCY_EDGES)})

    def to_dict(self) -> dict:
        return {"advertisers": list(self.advertisers), "topics": self.topics,
                "apps": self.apps}

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureSchema":
        return cls(advertisers=tuple(data["advertisers"]),
                   topics=int(data["topics"]), apps=int(data["apps"]))


# Event kinds that feed (frequency, recency) feature pairs: the name
# prefix, and the EventLog column with the advertiser, topic or app.
_TRACKED = {
    IMPRESSION: ("imp", "adv"),
    CLICK: ("clk", "adv"),
    PAGE_VIEW: ("pv", "topic"),
    SEARCH: ("srch", "topic"),
    APP_INSTALL: ("inst", "app"),
    APP_USE: ("use", "app"),
}


class UserHistory:
    """Per-user, time-ordered event times keyed by (prefix, reference id).

    Events (``ref`` is the advertiser id, topic or app) must be observed
    in non-decreasing timestamp order, as the simulator and logs give them.
    """

    __slots__ = ("times",)

    def __init__(self) -> None:
        self.times: dict[tuple[str, object], list[int]] = {}

    def observe(self, kind: str, ref: object, ts: int) -> None:
        tracked = _TRACKED.get(kind)
        if tracked is not None:
            self.times.setdefault((tracked[0], ref), []).append(ts)

    def window_stats(self, prefix: str, ref: object, ts: int, fw: int) -> tuple[int, int]:
        """(count, recency bucket) over events in ``(ts - fw, ts]``."""
        times = self.times.get((prefix, ref))
        if not times:
            return 0, NEVER_BUCKET
        hi = bisect.bisect_right(times, ts)
        lo = bisect.bisect_right(times, ts - fw)
        if hi <= lo:
            return 0, NEVER_BUCKET
        return hi - lo, recency_bucket(ts - times[hi - 1])


def extract_from_history(
    history: UserHistory,
    demographics: list[int],
    ts: int,
    fw: int,
    schema: FeatureSchema,
) -> np.ndarray:
    """Feature vector at time ``ts`` from a user's history and its
    (age group, gender, geo area)."""
    out = np.zeros(schema.n_features)
    pos = 0
    for adv in schema.advertisers:
        for prefix in ("imp", "clk"):
            count, rncy = history.window_stats(prefix, adv, ts, fw)
            out[pos] = count
            out[pos + 1] = rncy
            pos += 2
    for t in range(schema.topics):
        for prefix in ("pv", "srch"):
            count, rncy = history.window_stats(prefix, t, ts, fw)
            out[pos] = count
            out[pos + 1] = rncy
            pos += 2
    out[pos], out[pos + 1], out[pos + 2] = demographics
    pos += 3
    for a in range(schema.apps):
        for prefix in ("inst", "use"):
            count, rncy = history.window_stats(prefix, a, ts, fw)
            out[pos] = count
            out[pos + 1] = rncy
            pos += 2
    return out


def histories(log: EventLog) -> list[UserHistory]:
    """One history per user code of ``log``, holding its tracked events."""
    out = [UserHistory() for _ in log.users]
    # One kind at a time: each (prefix, ref) list still fills in log
    # order, because each prefix belongs to one kind.
    advertisers = (*log.advertisers, None)  # code -1 reads None
    for kind, (_, column) in _TRACKED.items():
        rows = log.kind == KIND_CODE[kind]
        refs = getattr(log, column)[rows].tolist()
        if column == "adv":
            refs = [advertisers[code] for code in refs]
        for user, ref, ts in zip(log.user[rows].tolist(), refs,
                                 log.ts[rows].tolist()):
            out[user].observe(kind, ref, ts)
    return out


def rank_keys(cells: np.ndarray,
              stamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted keys, sorted times) of events in non-negative int64
    ``cells`` at times ``stamps``: each event is one key (cell, rank of
    its time in the sorted times), so no key grows with a timestamp."""
    times = np.sort(stamps)
    return (np.sort(cells * (len(times) + 1) + np.searchsorted(times, stamps)),
            times)


def rank_search(key: np.ndarray, times: np.ndarray, cells: np.ndarray,
                t: np.ndarray) -> np.ndarray:
    """Per query, the position in ``key`` after the events of lower cells
    and those of ``cells`` at times <= ``t``: the difference of two such
    positions counts a cell's events in ``(t0, t1]``."""
    # ``times[rank]`` is an event's time, and it is at most t iff its
    # rank is below ``searchsorted(times, t, "right")``.
    return np.searchsorted(key, cells * (len(times) + 1)
                           + np.searchsorted(times, t, "right"))


class EventIndex:
    """Tracked events, keyed once, plus tracked events observed later: the
    feature rows of any (user code, time) in columnar passes, equal bit
    for bit to :func:`extract_from_history` over the same events.

    Events come as eight columns in :data:`~liftsim.events.FIELDS` order,
    such as an (8, n) int64 event block or a log's columns: user codes
    below ``n_users``, ``adv`` codes indexing ``advertisers``. Each event
    is one int64 key (frequency column, user code, rank of its time),
    where the rank indexes a sorted time table, so the rows do not depend
    on the order of the events. Observed events have keys of their own,
    re-sorted at each :meth:`observe`, so the first events' keys are never
    sorted again.
    """

    def __init__(self, events, advertisers: tuple[str, ...], n_users: int,
                 schema: FeatureSchema) -> None:
        self.schema = schema
        self._n_users = n_users
        self._logged = rank_keys(*self._cells(events, advertisers))
        self._told = (np.zeros(0, np.int64),) * 2
        self._observed = rank_keys(*self._told)

    def _cells(self, events, advertisers: tuple[str, ...]
               ) -> tuple[np.ndarray, np.ndarray]:
        """(frequency column * n_users + user, time) of the tracked events
        in the columns ``events``; the package's one map from an event's
        kind and ref to its feature column."""
        event = dict(zip(FIELDS, events))
        # Refs the schema lacks, and absent ones (code -1), read the
        # table's trailing -1 and drop out.
        column = np.full(len(event["ts"]), -1)
        for kind, (prefix, field) in _TRACKED.items():
            picked = np.flatnonzero(event["kind"] == KIND_CODE[kind])
            refs = (advertisers if field == "adv"
                    else range(getattr(self.schema, f"{field}s")))
            table = np.array([self.schema._column_of.get((prefix, ref), -1)
                              for ref in refs] + [-1])
            column[picked] = table[np.minimum(event[field][picked],
                                              len(table) - 1)]
        tracked = np.flatnonzero(column >= 0)
        return (column[tracked] * self._n_users + event["user"][tracked],
                event["ts"][tracked])

    def observe(self, events, advertisers: tuple[str, ...]) -> None:
        """Add the tracked events of the columns ``events``, in any order,
        whose ``adv`` codes index ``advertisers``."""
        self._told = tuple(map(np.concatenate, zip(
            self._told, self._cells(events, advertisers))))
        self._observed = rank_keys(*self._told)

    def rows(self, users: np.ndarray, ts: np.ndarray, fw: int,
             demographics: np.ndarray) -> np.ndarray:
        """(rows, features) matrix: row i is user code ``users[i]`` at
        time ``ts[i]`` over ``(ts - fw, ts]``, with ``demographics[i]``.

        Queries are answered :data:`QUERY_CHUNK_ROWS` at a time, so the
        (frequency columns x queries) temporaries stay that small."""
        users, ts = np.asarray(users, np.int64), np.asarray(ts, np.int64)
        # Queries in (column, user, ts) order, so they are sorted as the
        # keys are: a sorted search is several times faster than a
        # scattered one.
        order = np.lexsort((ts, users))
        schema = self.schema
        freq = schema._freq_columns
        out = np.zeros((len(ts), schema.n_features))
        for start in range(0, len(order), QUERY_CHUNK_ROWS):
            chunk = order[start:start + QUERY_CHUNK_ROWS]
            t = ts[chunk]
            cell = freq[:, None] * self._n_users + users[chunk]
            count = np.zeros(cell.shape, dtype=np.int64)
            latest = np.full(cell.shape, np.iinfo(np.int64).min)
            for key, times in (self._logged, self._observed):
                if not key.size:
                    continue
                hi = rank_search(key, times, cell, t)
                lo = rank_search(key, times, cell, t - fw)
                seen = hi > lo
                count += hi - lo
                latest[seen] = np.maximum(
                    latest[seen], times[key[hi[seen] - 1] % (len(times) + 1)])
            seen = count > 0
            age = np.broadcast_to(t, cell.shape)[seen] - latest[seen]
            recency = np.full(cell.shape, NEVER_BUCKET)
            recency[seen] = np.searchsorted(RECENCY_EDGES, age, side="left")
            out[chunk[:, None], freq] = count.T
            out[chunk[:, None], freq + 1] = recency.T
        demo = schema.index("age_group")
        out[:, demo:demo + 3] = demographics
        return out


def counterfactual_features(
    features: np.ndarray, advertiser: str, schema: FeatureSchema
) -> np.ndarray:
    """The user's state as if one more impression from ``advertiser`` landed.

    ``features`` is one vector or a (rows, features) matrix. Bumps that
    advertiser's impression frequency by one and sets its impression
    recency to most recent; every other coordinate is untouched.
    """
    out = features.copy()
    out[..., schema.index(f"imp_freq_adv:{advertiser}")] += 1
    out[..., schema.index(f"imp_rncy_adv:{advertiser}")] = MOST_RECENT_BUCKET
    return out
