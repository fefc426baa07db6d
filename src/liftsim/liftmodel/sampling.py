"""Training-sample generation from simulated timelines.

Samples come from the whole population, not just from impression or
click events: a user is drawn with probability proportional to its
ad-request frequency, a timestamp is drawn uniformly on the timeline
span, and the sample is labeled positive iff the user has at least one
action inside the action window ``(ts, ts + aw]``. Features are
computed from the feature window ``(ts - fw, ts]`` only.

Generation stops once the positive count is sufficient or every action
event has appeared in at least one sample window.
"""
from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from ..events import ACTION, AD_REQUEST, EventLog
from ..fileio import atomic_write_text
from ..market import Population
from ..seeds import rng_for
from .features import FeatureExtractor, FeatureSchema


class SamplingError(ValueError):
    """Raised when a log cannot support sample generation."""


@dataclass(frozen=True)
class SamplingConfig:
    action_window_seconds: int = 2 * 86_400
    feature_window_seconds: int = 7 * 86_400
    target_positive_count: int = 5_000
    max_draws: int | None = None  # default: 400 * target_positive_count
    seed: int = 0

    def __post_init__(self) -> None:
        if self.action_window_seconds <= 0:
            raise ValueError("action window must be positive")
        if self.feature_window_seconds <= 0:
            raise ValueError("feature window must be positive")
        if self.target_positive_count <= 0:
            raise ValueError("target_positive_count must be positive")

    @property
    def draw_budget(self) -> int:
        return self.max_draws or 400 * self.target_positive_count


class TrainingSample(NamedTuple):
    user_id: str
    ts: int
    label: bool
    features: np.ndarray


def generate_samples(
    log: EventLog,
    population: Population,
    config: SamplingConfig,
    schema: FeatureSchema,
) -> list[TrainingSample]:
    """Draw labeled samples from the log; deterministic per config seed."""
    request_counts: dict[str, int] = {}
    for event in log.events:
        if event.kind == AD_REQUEST:
            request_counts[event.user_id] = request_counts.get(event.user_id, 0) + 1
    if not request_counts:
        raise SamplingError("log contains no ad requests to weight users by")

    action_times: dict[str, list[int]] = {}
    action_ids: set[tuple[str, int]] = set()
    for event in log.events:
        if event.kind == ACTION:
            action_times.setdefault(event.user_id, []).append(event.ts)
            action_ids.add((event.user_id, event.ts))

    users = sorted(request_counts)
    weights = np.array([request_counts[u] for u in users], dtype=float)
    weights /= weights.sum()

    span_lo = min(e.ts for e in log.events)
    span_hi = max(e.ts for e in log.events)
    ts_hi = span_hi - config.action_window_seconds
    if ts_hi <= span_lo:
        raise SamplingError("timeline shorter than one action window")

    extractor = FeatureExtractor(log, population, schema)
    rng = rng_for(config.seed, "samples")
    aw = config.action_window_seconds
    fw = config.feature_window_seconds

    samples: list[TrainingSample] = []
    covered: set[tuple[str, int]] = set()
    positives = 0
    draws = 0
    batch = 1024
    while True:
        if positives >= config.target_positive_count:
            break
        if action_ids and covered >= action_ids:
            break
        if not action_ids:
            break
        if draws >= config.draw_budget:
            raise SamplingError(
                f"draw budget exhausted after {draws} draws with "
                f"{positives} positives; lower target_positive_count or "
                "enlarge the world")
        picks = rng.choice(len(users), size=batch, p=weights)
        stamps = rng.integers(span_lo, ts_hi + 1, size=batch)
        for pick, ts in zip(picks, stamps):
            draws += 1
            user_id = users[int(pick)]
            ts = int(ts)
            times = action_times.get(user_id, ())
            lo = bisect.bisect_right(times, ts)
            hi = bisect.bisect_right(times, ts + aw)
            label = hi > lo
            if label:
                positives += 1
                for t in times[lo:hi]:
                    covered.add((user_id, t))
            samples.append(TrainingSample(
                user_id=user_id, ts=ts, label=label,
                features=extractor.features(user_id, ts, fw)))
            if positives >= config.target_positive_count:
                break
            if covered >= action_ids:
                break
    return samples


def samples_to_matrix(samples: Iterable[TrainingSample]) -> tuple[np.ndarray, np.ndarray]:
    """Stack samples into (X, y) arrays for training."""
    samples = list(samples)
    X = np.stack([s.features for s in samples])
    y = np.array([s.label for s in samples], dtype=float)
    return X, y


def export_samples(samples: Iterable[TrainingSample], path) -> None:
    """Write samples as line-delimited JSON records."""
    lines = []
    for s in samples:
        lines.append(json.dumps({
            "user": s.user_id,
            "ts": s.ts,
            "label": int(s.label),
            "features": [float(x) for x in s.features],
        }, separators=(",", ":")))
    atomic_write_text(path, "\n".join(lines) + "\n")
