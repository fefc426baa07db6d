"""Training-sample generation from simulated timelines, in two steps.

First the draws. Samples come from the whole population, not just from
impression or click events: a user is drawn with probability
proportional to its ad-request frequency, a timestamp is drawn
uniformly on the timeline span, and the sample is labeled positive iff
the user has at least one action inside the action window
``(ts, ts + aw]``. Drawing stops once the positive count is sufficient
or every action event has appeared in at least one sample window.

Then one columnar pass, :func:`~.features.window_features`, builds every
sample's features from the feature window ``(ts - fw, ts]`` only.
"""
from __future__ import annotations

import bisect
import json
from dataclasses import dataclass

import numpy as np
from numpy.rec import fromarrays

from ..events import ACTION, AD_REQUEST, KIND_CODE, EventLog
from ..fileio import atomic_write_text
from ..market import INT64_MAX, Population, check_integer
from ..seeds import rng_for
from .features import FeatureSchema, window_features


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
        if self.action_window_seconds <= 0:
            raise ValueError("action window must be positive")
        if not 0 < self.feature_window_seconds <= INT64_MAX:  # also NaN
            raise ValueError(f"feature window must be in (0, 2**63 - 1] "
                             f"seconds, got {self.feature_window_seconds!r}")
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
    draw order; deterministic per config seed."""
    request_counts = np.bincount(log.user[log.kind == KIND_CODE[AD_REQUEST]],
                                 minlength=len(log.users))
    if not request_counts.any():
        raise SamplingError("log contains no ad requests to weight users by")

    action_times: dict[str, list[int]] = {}
    actions = log.kind == KIND_CODE[ACTION]
    for user, ts in zip(log.user[actions].tolist(), log.ts[actions].tolist()):
        action_times.setdefault(log.users[user], []).append(ts)
    action_ids = {(user_id, ts) for user_id, times in action_times.items()
                  for ts in times}

    codes = sorted(np.flatnonzero(request_counts).tolist(),
                   key=log.users.__getitem__)
    weights = request_counts[codes].astype(float)
    weights /= weights.sum()

    span_lo = int(log.ts.min())
    span_hi = int(log.ts.max())
    ts_hi = span_hi - config.action_window_seconds
    if ts_hi <= span_lo:
        raise SamplingError("timeline shorter than one action window")

    rng = rng_for(config.seed, "samples")
    aw = config.action_window_seconds
    draw_budget = DRAWS_PER_POSITIVE * config.target_positive_count

    drawn: list[tuple[int, int, bool]] = []  # (user code, ts, label)
    covered: set[tuple[str, int]] = set()
    positives = 0
    draws = 0
    batch = 1024
    # Stop at the positive target, or once every action is in a window
    # (at once when there are no actions).
    while positives < config.target_positive_count and not covered >= action_ids:
        if draws >= draw_budget:
            raise SamplingError(
                f"draw budget exhausted after {draws} draws with "
                f"{positives} positives; lower target_positive_count or "
                "enlarge the world")
        picks = rng.choice(len(codes), size=batch, p=weights)
        stamps = rng.integers(span_lo, ts_hi + 1, size=batch)
        for pick, ts in zip(picks.tolist(), stamps.tolist()):
            draws += 1
            user_id = log.users[codes[pick]]
            times = action_times.get(user_id, ())
            lo = bisect.bisect_right(times, ts)
            hi = bisect.bisect_right(times, ts + aw)
            label = hi > lo
            if label:
                positives += 1
                for t in times[lo:hi]:
                    covered.add((user_id, t))
            drawn.append((codes[pick], ts, label))
            if positives >= config.target_positive_count or covered >= action_ids:
                break
    user_codes, sample_ts, labels = zip(*drawn) if drawn else ((), (), ())
    X = window_features(log, population, schema, user_codes, sample_ts,
                        config.feature_window_seconds)
    user_ids = np.asarray(log.users)[np.asarray(user_codes, dtype=np.intp)]
    return sample_records(user_ids, sample_ts, labels, X)


def export_samples(samples: np.recarray, path) -> None:
    """Write samples as line-delimited JSON records."""
    lines = [json.dumps({"user": user, "ts": ts, "label": int(label),
                         "features": features}, separators=(",", ":"))
             for user, ts, label, features in zip(
                 samples.user_id.tolist(), samples.ts.tolist(),
                 samples.label.tolist(), samples.features.tolist())]
    atomic_write_text(path, "\n".join(lines) + "\n")
