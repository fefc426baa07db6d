"""Bid formulas and the lift-scale calibration procedures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftsim.attribution import partition_users
from liftsim.bidders import (
    BIDDER_KINDS, BidderConfig, CalibrationError, calibrate_beta, calibrate_equal_attribution,
    calibrate_equal_attribution_weighted, price_bids, split_weight_gap,
)
from liftsim.market import Population, dollars_to_micros

D = dollars_to_micros
VALUE_100 = BidderConfig(kind="value", alpha=D(100.0))
LIFT_200 = BidderConfig(kind="lift", beta=D(200.0))


def _same_users(n, p, delta_p):
    return Population(p=np.full(n, p), delta_p=np.full(n, delta_p))


def _random_population(rng, n):
    p, delta_p = [], []
    for _ in range(n):
        p.append(float(rng.uniform(0.005, 0.1)))
        delta_p.append(p[-1] * float(rng.uniform(0.05, 0.95)))
    return Population(p=p, delta_p=delta_p)


def test_passive_bid_is_zero():
    bids = price_bids(BidderConfig(kind="passive"), [0.04, 0.5], [0.01, 0.2])
    assert bids.tolist() == [0, 0]


def test_value_bid_examples():
    bids = price_bids(VALUE_100, [0.04, 0.02, 0.0], [0.0, 0.0, 0.0])
    assert bids.tolist() == [D(4.0), D(2.0), 0]


def test_lift_bid_examples():
    bids = price_bids(LIFT_200, [0.05] * 4, [0.019, 0.01, 0.0, -0.05])
    assert bids.tolist() == [D(3.8), D(2.0), 0, 0]  # negative lift clamps to zero


def test_scale_equivariance_within_one_micro():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = float(rng.uniform(0.0, 0.3))
        alpha = float(rng.uniform(1, 400)) * 1e6
        c = float(rng.uniform(0.5, 8.0))
        for kind in ("value", "lift"):
            scaled = BidderConfig(kind=kind, alpha=c * alpha, beta=c * alpha)
            base = BidderConfig(kind=kind, alpha=alpha, beta=alpha)
            assert abs(price_bids(scaled, p, p) / c - price_bids(base, p, p)) <= 1.0


def test_winner_invariant_under_common_scaling():
    rng = np.random.default_rng(12)
    population = _random_population(rng, 300)
    for _ in range(30):
        alpha = float(rng.uniform(10, 500))
        beta = float(rng.uniform(10, 2000))
        c = float(rng.uniform(0.01, 100.0))
        assert np.array_equal(partition_users(population, alpha, beta),
                              partition_users(population, c * alpha, c * beta))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BIDDER_KINDS),
    scale=st.floats(1.0, 1e9),
    xs=st.lists(st.tuples(st.floats(-0.5, 1.0), st.floats(-0.5, 1.0)),
                max_size=20),
)
def test_price_bids_matches_python_rounding(kind, scale, xs):
    bidder = BidderConfig(kind=kind, alpha=scale, beta=scale)
    p = [x for x, _ in xs]
    delta_p = [d for _, d in xs]
    bids = price_bids(bidder, np.array(p), np.array(delta_p))
    assert bids.dtype == np.int64
    priced = {"passive": [0.0] * len(p), "value": p, "lift": delta_p}[kind]
    factor = 0.0 if kind == "passive" else scale
    assert bids.tolist() == [round(factor * max(x, 0.0)) for x in priced]


def test_calibrate_beta_examples():
    users = _same_users(100, 0.02, 0.005)
    assert calibrate_beta(users, cpa=D(100.0)) == pytest.approx(D(400.0))
    even = _same_users(100, 0.02, 0.02)
    assert calibrate_beta(even, cpa=D(100.0)) == pytest.approx(D(100.0))
    with pytest.raises(CalibrationError):
        calibrate_beta(_same_users(10, 0.02, 0.0), D(100.0))


def test_lift_side_sum_monotone_in_beta():
    rng = np.random.default_rng(5)
    population = _random_population(rng, 200)
    thresholds = 100.0 * population.p / population.delta_p
    weights = population.p
    betas = np.linspace(min(thresholds) * 0.5, max(thresholds) * 2.0, 400)
    gaps = [split_weight_gap(thresholds, weights, float(b)) for b in betas]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(gaps, gaps[1:]))


def test_two_user_split_is_forced_and_flagged():
    population = Population(p=[0.04, 0.02], delta_p=[0.01, 0.019])
    cal = calibrate_equal_attribution(population, alpha=100.0)
    # Indifference points are 400 (user a) and 200/1.9 (user b); any scale
    # between them wins exactly one user per side.
    assert 100.0 * 0.02 / 0.019 < cal.beta < 400.0
    assert cal.residual == pytest.approx(abs(0.04 - 0.02) / 0.06)
    assert not cal.converged


def test_identical_users_cannot_be_split_by_a_scale():
    population = _same_users(10, 0.03, 0.012)
    cal = calibrate_equal_attribution(population, alpha=100.0)
    assert not cal.converged
    assert cal.residual == pytest.approx(1.0)  # everyone lands on one side


def _exhaustive_residual(population, alpha):
    """Smallest residual over every interval midpoint, found by brute force."""
    per_user = [alpha * p / delta_p if delta_p > 0 else math.inf
                for p, delta_p in zip(population.p, population.delta_p)]
    points = sorted({t for t in per_user if math.isfinite(t)})
    candidates = [points[0] * 0.5, points[-1] * 2.0]
    candidates += [0.5 * (a + b) for a, b in zip(points, points[1:])]
    weights = population.p.tolist()
    best = min(abs(split_weight_gap(per_user, weights, b)) for b in candidates)
    return best / sum(weights)


def test_scan_matches_exhaustive_search():
    rng = np.random.default_rng(77)
    for trial in range(5):
        population = _random_population(rng, 1000)
        cal = calibrate_equal_attribution(population, 100.0, tolerance=1e-3)
        assert cal.residual == pytest.approx(
            _exhaustive_residual(population, 100.0), abs=1e-12)
        assert cal.residual <= 0.01


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from([0.005, 0.02, 0.03, 0.1]) | st.floats(0.001, 0.2),
              st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.05, 0.95)),
    min_size=1, max_size=40))
def test_scan_matches_exhaustive_search_on_any_population(draws):
    """Repeated indifference points and users without lift included."""
    p = np.array([p for p, _ in draws])
    population = Population(p=p, delta_p=p * np.array([r for _, r in draws]))
    if (population.delta_p == 0).all():
        with pytest.raises(CalibrationError):
            calibrate_equal_attribution(population, 100.0)
        return
    cal = calibrate_equal_attribution(population, 100.0)
    assert cal.residual == pytest.approx(
        _exhaustive_residual(population, 100.0), abs=1e-12)
    assert cal.converged == (cal.residual <= 1e-3)


def test_calibration_rejects_bad_input():
    with pytest.raises(CalibrationError):
        calibrate_equal_attribution(Population(p=[], delta_p=[]), alpha=100.0)
    no_lift = _same_users(5, 0.03, 0.0)
    with pytest.raises(CalibrationError):
        calibrate_equal_attribution(no_lift, alpha=100.0)


def test_weighted_calibration_balances_weighted_sums():
    rng = np.random.default_rng(9)
    population = _random_population(rng, 800)
    a_values = [float(rng.uniform(0.05, 1.0)) for _ in range(len(population))]
    cpa = D(100.0)
    cal = calibrate_equal_attribution_weighted(population, a_values, cpa)
    a = np.array(a_values)
    thresholds = cpa * population.p * a / population.delta_p
    weights = population.p * a
    gap = split_weight_gap(thresholds, weights, cal.beta)
    assert abs(gap) / sum(weights) == pytest.approx(cal.residual)
    assert cal.converged


def test_bidder_config_validation():
    BidderConfig(kind="passive")
    BidderConfig(kind="value", alpha=1e8)
    with pytest.raises(ValueError):
        BidderConfig(kind="value")
    with pytest.raises(ValueError):
        BidderConfig(kind="lift", beta=0.0)
    with pytest.raises(ValueError):
        BidderConfig(kind="nonsense")
