"""Bid pricing and the lift-scale calibration procedures.

Three strategies are supported, each priced by :func:`price_bids`:

* passive: always bids zero (control group).
* value:   bids ``alpha * p`` where ``p`` is the action rate; a campaign
  prices it at ``alpha = cpa``, the expected attributed revenue
  ``cpa * p * a`` with attribution probability ``a = 1`` (the industry
  standard eCPM = AR x CPA).
* lift:    bids ``beta * max(delta_p, 0)``; negative lift clamps to a
  zero bid because exchanges reject negative bids.

``alpha`` and ``beta`` are real-valued scales in micros per unit
probability; money conversion happens once, at bid emission.

The equal-attribution calibration chooses the lift scale at which the
value and lift sides win equal attributed actions. The split only
changes at the users' indifference points, so an exact scan over the
intervals between them finds the best scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import Population, check_probability, ordered_sum

PASSIVE = "passive"
VALUE = "value"
LIFT = "lift"

BIDDER_KINDS = (PASSIVE, VALUE, LIFT)
DEFAULT_TOLERANCE = 1e-3  # largest residual of a converged calibration


class CalibrationError(ValueError):
    """Raised when a bid-scale calibration has no valid input."""


@dataclass(frozen=True)
class BidderConfig:
    """Configuration for one bidding strategy.

    ``alpha`` scales the value bidder and ``beta`` the lift bidder, both
    in micros per unit probability; each is strictly positive when its
    kind is active.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in BIDDER_KINDS:
            raise ValueError(f"unknown bidder kind {self.kind!r}")
        if self.kind == VALUE and self.alpha <= 0:
            raise ValueError("value bidder requires alpha > 0")
        if self.kind == LIFT and self.beta <= 0:
            raise ValueError("lift bidder requires beta > 0")


@dataclass(frozen=True)
class BetaCalibration:
    """Result of an equal-attribution calibration.

    ``residual`` is |sum_value p - sum_lift p| as a fraction of the
    population total; ``converged`` is False when no scale achieves the
    requested tolerance (always reported, never silently dropped,
    because the dominance checks assume near-equal attribution).
    """

    beta: float
    residual: float
    converged: bool


def price_bids(bidder: BidderConfig, p, delta_p) -> np.ndarray:
    """Bids in micros for action rates ``p`` and lifts ``delta_p``.

    Each strategy bids ``round(scale * max(x, 0))``: the value bidder
    prices ``p`` at ``alpha`` and the lift bidder ``delta_p`` at
    ``beta``; the passive bidder bids zero.
    Works elementwise on arrays or scalars and returns int64 micros;
    ``np.rint`` rounds half to even, like Python's ``round``.
    """
    if bidder.kind == PASSIVE:
        return np.zeros(np.shape(p), dtype=np.int64)
    scale, x = ((bidder.alpha, p) if bidder.kind == VALUE
                else (bidder.beta, delta_p))
    return np.rint(scale * np.maximum(x, 0.0)).astype(np.int64)


def calibrate_beta(population: Population, cpa: int) -> float:
    """Default lift-bid scale: (mean p / mean lift) * CPA.

    Prices each incremental action at the rate the advertiser already
    pays per absolute action. Requires a strictly positive mean lift.
    """
    mean_p = float(population.p.mean())
    mean_delta_p = float(population.delta_p.mean())
    if mean_delta_p <= 0:
        raise CalibrationError(f"the world's mean lift (delta_p) is {mean_delta_p}; "
                               f"calibrating the lift bidder's beta needs it positive")
    if not 0 < mean_delta_p <= mean_p <= 1:
        raise CalibrationError(
            f"invalid population means: mean_p={mean_p}, "
            f"mean_delta_p={mean_delta_p}"
        )
    return (mean_p / mean_delta_p) * cpa


def lineup(cpa: int, population: Population,
           beta: float | None = None) -> list[BidderConfig]:
    """Passive, value (``alpha = float(cpa)``) and lift bidders for a
    campaign paying ``cpa``; ``beta`` defaults to :func:`calibrate_beta`."""
    if beta is None:
        beta = calibrate_beta(population, cpa)
    return [BidderConfig(PASSIVE), BidderConfig(VALUE, alpha=float(cpa)),
            BidderConfig(LIFT, beta=beta)]


def split_weight_gap(thresholds, weights, beta: float) -> float:
    """Lift-side minus value-side attributed weight at a given beta.

    User i falls to the lift side iff ``beta > thresholds[i]``; users
    exactly at their indifference point are tied and excluded from both
    sides. Non-decreasing in beta. Each side's weights are added in user
    order by :func:`~liftsim.market.ordered_sum`.
    """
    thresholds = np.asarray(thresholds)
    weights = np.asarray(weights)
    lift_sum = ordered_sum(weights[beta > thresholds])
    value_sum = ordered_sum(weights[beta < thresholds])
    return lift_sum - value_sum


def _scan_equal_split(
    thresholds: np.ndarray,
    weights: np.ndarray,
    tolerance: float,
) -> BetaCalibration:
    """The beta that best balances the two side sums, by an exact scan.

    The gap is a step function of beta that only changes at the users'
    indifference points. Candidate betas lie strictly inside the
    intervals between adjacent distinct points: half the smallest
    point, the midpoints, and twice the largest. Exact equality is
    generally unattainable on a finite population; the best candidate is
    returned with its residual either way.

    Thresholds of +inf (no lift) pin a user to the value side; thresholds
    of 0 pin it to the lift side. Only strictly positive finite ones can
    switch sides and span the candidates.
    """
    finite = thresholds[np.isfinite(thresholds) & (thresholds > 0)]
    if not finite.size:
        raise CalibrationError("no user has positive lift; nothing to calibrate")
    total = ordered_sum(weights)
    if total <= 0:
        raise CalibrationError("total attributable weight must be positive")

    def result(beta: float, gap: float) -> BetaCalibration:
        residual = abs(gap) / total
        return BetaCalibration(float(beta), residual, residual <= tolerance)

    uniq = np.sort(finite)  # distinct values (np.unique would load numpy.ma)
    uniq = uniq[np.concatenate(([True], uniq[1:] != uniq[:-1]))]
    points = np.concatenate(
        ([uniq[0] * 0.5], 0.5 * (uniq[:-1] + uniq[1:]), [uniq[-1] * 2.0]))
    lo, hi = float(points[0]), float(points[-1])
    gap_lo = split_weight_gap(thresholds, weights, lo)
    gap_hi = split_weight_gap(thresholds, weights, hi)
    if gap_lo > 0 or gap_hi < 0:  # no sign change between the outer points
        return result(lo, gap_lo) if abs(gap_lo) <= abs(gap_hi) else result(hi, gap_hi)

    # The gap of every candidate at once, from cumulative weights in
    # threshold order. Its rounding differs from split_weight_gap's, so
    # it only locates the sign change; the pick and the residual use
    # split_weight_gap on the few candidates around it.
    order = np.argsort(thresholds)
    ordered = thresholds[order]
    cum = np.concatenate(([0.0], np.cumsum(weights[order])))
    lift_sum = cum[np.searchsorted(ordered, points, side="left")]
    value_sum = cum[-1] - cum[np.searchsorted(ordered, points, side="right")]
    crossed = lift_sum - value_sum >= 0
    crossed[-1] = True  # gap_hi >= 0 exactly
    first = int(np.argmax(crossed))
    near = sorted({float(b) for b in points[max(first - 2, 0):first + 2]})
    gaps = [split_weight_gap(thresholds, weights, b) for b in near]
    best = min(range(len(near)), key=lambda k: abs(gaps[k]))
    return result(near[best], gaps[best])


def calibrate_equal_attribution(
    population: Population,
    alpha: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BetaCalibration:
    """Find a lift scale that splits attributed actions evenly.

    The value side holds users with ``alpha * p > beta * delta_p``, the
    lift side the reverse: the weighted calibration at every attribution
    probability a = 1, with ``alpha`` as the CPA. The package no longer
    calls this a = 1 entry point.
    """
    return calibrate_equal_attribution_weighted(
        population, np.ones(len(population)), alpha, tolerance)


def calibrate_equal_attribution_weighted(
    population: Population,
    a_values,
    cpa: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> BetaCalibration:
    """Equal-attribution calibration against a value bidder at cpa * p * a.

    The value side bids ``cpa * p_i * a_i`` where ``a_i`` is the
    per-user attribution probability, and attributed actions on each
    side accrue at weight ``p_i * a_i``. Returns the scan's beta whose
    weighted side sums differ least, as a fraction of the population
    total, and whether that residual is within ``tolerance``.
    """
    if not len(population):
        raise CalibrationError("population must be non-empty")
    a = np.asarray(a_values, dtype=float)
    if a.shape != (len(population),):
        raise ValueError("a_values must match the population length")
    if cpa <= 0:
        raise ValueError("cpa must be positive")
    check_probability(a, "attribution probability")
    p, dp = population.p, population.delta_p
    with np.errstate(divide="ignore", invalid="ignore"):
        thresholds = np.where(dp > 0, cpa * p * a / dp, np.inf)
    return _scan_equal_split(thresholds, p * a, tolerance)
