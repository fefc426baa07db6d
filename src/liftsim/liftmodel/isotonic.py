"""Isotonic calibration by pool-adjacent-violators.

Maps raw model scores to empirical action rates with a non-decreasing,
right-continuous step function whose outputs lie in [0, 1]. Samples
with identical scores are pre-aggregated so the fit is a function of
the score alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IsotonicMap:
    """Right-continuous step map: ``value(s) = values[last i: breakpoints[i] <= s]``.

    Scores below the first breakpoint take the first value. ``degenerate``
    flags a single-class fit (a constant map).
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    degenerate: bool = False

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.values) or not self.values:
            raise ValueError("breakpoints and values must align and be non-empty")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v2 < v1 for v1, v2 in zip(self.values, self.values[1:])):
            raise ValueError("values must be non-decreasing")
        if min(self.values) < 0.0 or max(self.values) > 1.0:
            raise ValueError("calibrated values must lie in [0, 1]")

    def apply(self, scores: np.ndarray | float) -> np.ndarray | float:
        scalar = np.isscalar(scores)
        arr = np.atleast_1d(np.asarray(scores, dtype=np.float64))
        idx = np.searchsorted(np.asarray(self.breakpoints), arr, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        out = np.asarray(self.values)[idx]
        return float(out[0]) if scalar else out

    def to_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints),
                "values": list(self.values),
                "degenerate": self.degenerate}

    @classmethod
    def from_dict(cls, data: dict) -> "IsotonicMap":
        return cls(breakpoints=tuple(data["breakpoints"]),
                   values=tuple(data["values"]),
                   degenerate=bool(data["degenerate"]))


def fit_isotonic(scores: np.ndarray, labels: np.ndarray) -> IsotonicMap:
    """Least-squares isotonic fit of label rate against score."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.size == 0:
        raise ValueError("scores and labels must be equal-length and non-empty")

    if labels.min() == labels.max():
        # Single-class holdout: a constant map, flagged for the caller.
        return IsotonicMap(breakpoints=(float(scores.min()),),
                           values=(float(labels[0]),), degenerate=True)

    order = np.argsort(scores, kind="stable")
    s = scores[order]
    y = labels[order]

    # Aggregate ties in score into single points weighted by their count.
    xs: list[float] = []
    ys: list[float] = []
    ws: list[float] = []
    i = 0
    n = len(s)
    while i < n:
        j = i
        ysum = 0.0
        while j < n and s[j] == s[i]:
            ysum += y[j]
            j += 1
        xs.append(float(s[i]))
        ys.append(ysum / (j - i))
        ws.append(float(j - i))
        i = j

    # Pool adjacent violators: maintain a stack of blocks with
    # non-decreasing means, merging backwards whenever a new block
    # undercuts its predecessor.
    starts: list[int] = []
    means: list[float] = []
    wsums: list[float] = []
    for k in range(len(xs)):
        starts.append(k)
        means.append(ys[k])
        wsums.append(ws[k])
        while len(means) > 1 and means[-2] >= means[-1]:
            total = wsums[-2] + wsums[-1]
            merged = (means[-2] * wsums[-2] + means[-1] * wsums[-1]) / total
            means[-2] = merged
            wsums[-2] = total
            starts.pop()
            means.pop()
            wsums.pop()

    breakpoints = tuple(xs[k] for k in starts)
    values = tuple(min(max(m, 0.0), 1.0) for m in means)
    return IsotonicMap(breakpoints=breakpoints, values=values, degenerate=False)
