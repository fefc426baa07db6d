"""Training-sample generation from simulated timelines, in two steps.

First the draws. Samples come from the whole population, not just from
impression or click events: a user is drawn with probability
proportional to its ad-request frequency, a timestamp is drawn
uniformly on the timeline span, and the sample is labeled positive iff
the user has at least one action inside the action window
``(ts, ts + aw]``. The draws come in batches of 1,024, each labeled by
one sorted search over the log's actions, and drawing stops at the draw
that reaches ``target_positive_count``. A log without ad requests or
without actions raises :class:`SamplingError`, and so does one that has
not reached the target after exactly ``DRAWS_PER_POSITIVE`` draws per
targeted positive: the last batch draws only what that budget has left.

Then the rows, from the feature window ``(ts - fw, ts]`` only: one
:class:`~.features.EventIndex` over the log's columns, as bidding builds
them, with the demographics of each user's population row.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.rec import fromarrays

from ..events import ACTION, AD_REQUEST, FIELDS, KIND_CODE, EventLog
from ..fileio import atomic_write
from ..market import INT64_MAX, Population, check_integer, check_real
from ..seeds import rng_for
from .features import (
    QUERY_CHUNK_ROWS, EventIndex, FeatureSchema, rank_keys, rank_search,
)


# Draws allowed per targeted positive before sampling gives up. Every
# draw is kept as a sample, so the target is bounded.
DRAWS_PER_POSITIVE = 400
MAX_TARGET_POSITIVES = 10**6


class SamplingError(ValueError):
    """Raised when a log cannot support sample generation."""


@dataclass(frozen=True)
class SamplingConfig:
    action_window_seconds: int  # the campaign's action window
    feature_window_seconds: int = 7 * 86_400
    target_positive_count: int = 5_000
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("action_window_seconds", self.action_window_seconds, 1)
        check_real("feature_window_seconds", self.feature_window_seconds, 0,
                   INT64_MAX, "(]")
        check_integer("target_positive_count", self.target_positive_count, 1,
                      MAX_TARGET_POSITIVES)


def sample_records(user_id, ts, label, features) -> np.recarray:
    """Samples as one record array with the fields ``user_id``, ``ts``
    (int64), ``label`` (bool) and ``features`` (a float64 row each)."""
    user_id = np.asarray(user_id, dtype=str)
    features = np.asarray(features, dtype=np.float64)
    return fromarrays([user_id, ts, label, features], dtype=[
        ("user_id", user_id.dtype), ("ts", np.int64), ("label", bool),
        ("features", np.float64, features.shape[1:])])


def generate_samples(
    log: EventLog,
    population: Population,
    config: SamplingConfig,
    schema: FeatureSchema,
) -> np.recarray:
    """Draw labeled samples from the log, as :func:`sample_records` in
    draw order; deterministic per config seed, whatever the order of the
    log's user table. Raises :class:`SamplingError` if the population
    lacks a user of the log."""
    rows = np.array([population.row_of.get(uid, -1) for uid in log.users],
                    dtype=np.int64)
    unknown = np.flatnonzero(rows < 0)
    if unknown.size:
        raise SamplingError(
            f"the log names {unknown.size} user(s) missing from the config's "
            f"population, first {log.users[unknown[0]]!r}")
    request_counts = np.bincount(log.user[log.kind == KIND_CODE[AD_REQUEST]],
                                 minlength=len(log.users))
    if not request_counts.any():
        raise SamplingError("log contains no ad requests to weight users by")

    actions = log.kind == KIND_CODE[ACTION]
    if not actions.any():
        raise SamplingError("log contains no actions to label samples by")
    key, times = rank_keys(log.user[actions], log.ts[actions])

    codes = np.flatnonzero(request_counts)
    codes = codes[np.argsort(rows[codes], kind="stable")]
    weights = request_counts[codes].astype(float)
    weights /= weights.sum()

    span_lo = int(log.ts.min())
    span_hi = int(log.ts.max())
    ts_hi = span_hi - config.action_window_seconds
    if ts_hi <= span_lo:
        raise SamplingError("timeline shorter than one action window")

    rng = rng_for(config.seed, "samples")
    aw = config.action_window_seconds
    target = config.target_positive_count
    draw_budget = DRAWS_PER_POSITIVE * target

    drawn: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    positives = 0
    draws = 0
    while positives < target:
        if draws >= draw_budget:
            raise SamplingError(
                f"draw budget exhausted after {draws} draws with "
                f"{positives} positives; lower target_positive_count or "
                "enlarge the world")
        batch = min(1024, draw_budget - draws)
        users = codes[rng.choice(len(codes), size=batch, p=weights)]
        stamps = rng.integers(span_lo, ts_hi + 1, size=batch)
        label = (rank_search(key, times, users, stamps + aw)
                 > rank_search(key, times, users, stamps))
        # Keep the draws up to the one that reaches the target.
        cut = int(np.searchsorted(np.cumsum(label), target - positives)) + 1
        users, stamps, label = users[:cut], stamps[:cut], label[:cut]
        drawn.append((users, stamps, label))
        draws += len(label)
        positives += int(np.count_nonzero(label))
    user_codes, sample_ts, labels = map(np.concatenate, zip(*drawn))
    index = EventIndex([getattr(log, name) for name in FIELDS],
                       log.advertisers, len(log.users), schema)
    X = index.rows(user_codes, sample_ts, config.feature_window_seconds,
                   population.demographics[rows[user_codes]])
    user_ids = np.asarray(log.users)[user_codes]
    return sample_records(user_ids, sample_ts, labels, X)


def export_samples(samples: np.recarray, path) -> None:
    """Write samples as line-delimited JSON records, one chunk of
    :data:`~.features.QUERY_CHUNK_ROWS` samples at a time; no samples
    is one empty line."""
    def write(fh) -> None:
        for start in range(0, len(samples), QUERY_CHUNK_ROWS):
            chunk = samples[start:start + QUERY_CHUNK_ROWS]
            fh.writelines(json.dumps(
                {"user": user, "ts": ts, "label": int(label),
                 "features": features}, separators=(",", ":")).encode() + b"\n"
                for user, ts, label, features in zip(
                    chunk.user_id.tolist(), chunk.ts.tolist(),
                    chunk.label.tolist(), chunk.features.tolist()))
        if not len(samples):
            fh.write(b"\n")

    atomic_write(path, write)
