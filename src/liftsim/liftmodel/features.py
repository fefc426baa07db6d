"""Feature extraction from user timelines.

The feature set mirrors what a production action-rate model would see:
impression and click frequency/recency per advertiser, page-view and
search frequency/recency per topic, demographics, and app install/use
frequency/recency per app. Frequencies are raw counts within the
feature window; recencies are bucketed ordinals with an explicit
"never" bucket so run-time context folding has a well-defined target.

Every feature is computed strictly from events in the half-open window
``(ts - fw, ts]``; nothing after ``ts`` may leak in.
"""
from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..events import (
    APP_INSTALL, APP_USE, CLICK, IMPRESSION, PAGE_VIEW, SEARCH,
    EventLog, TimelineEvent,
)
from ..market import Population

# Bucket edges in seconds: <=1h, <=6h, <=1d, <=2d, <=7d; anything older
# (or absent) falls into the trailing "never" bucket. The 2-day edge
# matches the default action window.
RECENCY_EDGES = (3_600, 21_600, 86_400, 172_800, 604_800)
NEVER_BUCKET = len(RECENCY_EDGES)
MOST_RECENT_BUCKET = 0

_FREQ = "freq"
_RNCY = "rncy"


def recency_bucket(age_seconds: int) -> int:
    """Ordinal recency bucket for an event ``age_seconds`` in the past."""
    if age_seconds < 0:
        raise ValueError("age must be non-negative")
    for idx, edge in enumerate(RECENCY_EDGES):
        if age_seconds <= edge:
            return idx
    return NEVER_BUCKET


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

    @property
    def n_features(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise KeyError(f"unknown feature {name!r}") from None

    def digest(self) -> str:
        payload = {"names": list(self.names), "recency_edges": list(RECENCY_EDGES)}
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {"advertisers": list(self.advertisers), "topics": self.topics,
                "apps": self.apps}

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureSchema":
        return cls(advertisers=tuple(data["advertisers"]),
                   topics=int(data["topics"]), apps=int(data["apps"]))


# Event kinds that feed (frequency, recency) feature pairs, keyed by the
# event field that carries the reference id.
_TRACKED = {
    IMPRESSION: ("imp", "advertiser_id"),
    CLICK: ("clk", "advertiser_id"),
    PAGE_VIEW: ("pv", "topic_id"),
    SEARCH: ("srch", "topic_id"),
    APP_INSTALL: ("inst", "app_id"),
    APP_USE: ("use", "app_id"),
}


class UserHistory:
    """Per-user, time-ordered event times keyed by (prefix, reference id).

    Events must be observed in non-decreasing timestamp order, which both
    the simulator and sorted logs guarantee.
    """

    __slots__ = ("times",)

    def __init__(self) -> None:
        self.times: dict[tuple[str, object], list[int]] = {}

    def observe(self, event: TimelineEvent) -> None:
        tracked = _TRACKED.get(event.kind)
        if tracked is None:
            return
        prefix, ref_field = tracked
        ref = getattr(event, ref_field)
        self.times.setdefault((prefix, ref), []).append(event.ts)

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


class FeatureExtractor:
    """Extracts feature vectors for any (user, ts) from a finished log."""

    def __init__(
        self,
        log: EventLog,
        population: Population,
        schema: FeatureSchema,
    ) -> None:
        self.schema = schema
        self._rows = population.row_of
        self._demographics = population.demographics.tolist()
        self._histories: dict[str, UserHistory] = {}
        for event in log.events:
            if event.kind in _TRACKED:
                self._histories.setdefault(event.user_id, UserHistory()).observe(event)

    def features(self, user_id: str, ts: int, fw: int) -> np.ndarray:
        row = self._rows.get(user_id)
        if row is None:
            raise KeyError(f"unknown user {user_id!r}")
        history = self._histories.get(user_id)
        if history is None:
            history = UserHistory()
        return extract_from_history(history, self._demographics[row], ts, fw,
                                    self.schema)


def fold_context(
    features: np.ndarray, topic_id: int, schema: FeatureSchema
) -> np.ndarray:
    """Fold a bid request's topic into a feature vector.

    The request's topic marks that topic's page-view recency as most
    recent. Returns a new vector; folding twice is a no-op.
    """
    out = features.copy()
    out[schema.index(f"pv_rncy_topic:{topic_id}")] = MOST_RECENT_BUCKET
    return out


def counterfactual_features(
    features: np.ndarray, advertiser: str, schema: FeatureSchema
) -> np.ndarray:
    """The user's state as if one more impression from ``advertiser`` landed.

    Bumps that advertiser's impression frequency by one and sets its
    impression recency to most recent; every other coordinate is
    untouched.
    """
    out = features.copy()
    out[schema.index(f"imp_freq_adv:{advertiser}")] += 1
    out[schema.index(f"imp_rncy_adv:{advertiser}")] = MOST_RECENT_BUCKET
    return out
