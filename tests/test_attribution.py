"""Exact accounting quantities and duel side arrays."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from liftsim.attribution import (
    AccountingError, generalized_partition,
    generalized_theorem_quantities, partition_users, theorem_quantities,
)
from liftsim.bidders import calibrate_equal_attribution
from liftsim.market import Population, dollars_to_micros

D = dollars_to_micros

TWO_USERS = Population(p=[0.04, 0.02], delta_p=[0.01, 0.019])  # rows a, b


def _random_population(rng, n):
    p, delta_p = [], []
    for _ in range(n):
        p.append(float(rng.uniform(0.005, 0.1)))
        delta_p.append(p[-1] * float(rng.uniform(0.05, 0.95)))
    return Population(p=p, delta_p=delta_p)


def test_partition_two_user_example():
    side = partition_users(TWO_USERS, alpha=100.0, beta=200.0)
    assert side.dtype == np.int8
    assert side.tolist() == [1, -1]


def test_partition_tiny_beta_empties_lift_side():
    side = partition_users(TWO_USERS, alpha=100.0, beta=1e-9)
    assert side.tolist() == [1, 1]


def test_partition_matches_per_user_brute_force():
    rng = np.random.default_rng(31)
    population = _random_population(rng, 100)
    alpha, beta = 100.0, 317.5
    side = partition_users(population, alpha, beta)
    for i, (p, delta_p) in enumerate(zip(population.p, population.delta_p)):
        value_offer, lift_offer = alpha * p, beta * delta_p
        if value_offer > lift_offer:
            assert side[i] == 1
        elif value_offer < lift_offer:
            assert side[i] == -1
        else:
            assert side[i] == 0


def test_actions_per_attributed_example():
    side = partition_users(TWO_USERS, alpha=100.0, beta=200.0)
    report = theorem_quantities(TWO_USERS, side, alpha=100.0, beta=200.0)
    assert report.actions_per_attr_value == pytest.approx((0.04 + 0.001) / 0.04)  # 1.025
    assert report.actions_per_attr_lift == pytest.approx((0.03 + 0.02) / 0.02)    # 2.5
    assert report.actions_dominance


def test_actions_per_attributed_collapses_without_lift():
    population = Population(p=[0.05, 0.03], delta_p=[0.0, 0.0])
    side = np.array([1, -1], dtype=np.int8)
    total = 0.05 + 0.03
    report = theorem_quantities(population, side, alpha=100.0, beta=100.0)
    assert report.actions_per_attr_value == pytest.approx(total / 0.05)
    assert report.actions_per_attr_lift == pytest.approx(total / 0.03)


def test_cost_per_attributed_example():
    side = partition_users(TWO_USERS, alpha=D(100.0), beta=D(200.0))
    report = theorem_quantities(TWO_USERS, side, D(100.0), D(200.0))
    assert report.cost_per_attr_value == pytest.approx(D(200.0) * 0.01 / 0.04)  # $50
    assert report.cost_per_attr_lift == D(100.0)  # exactly alpha, by construction
    assert report.cost_dominance


def test_lift_side_cost_is_alpha_exactly():
    rng = np.random.default_rng(32)
    population = _random_population(rng, 500)
    side = partition_users(population, alpha=100.0, beta=250.0)
    report = theorem_quantities(population, side, 100.0, 250.0)
    assert report.cost_per_attr_lift == 100.0


def test_empty_side_raises():
    for side in ([-1, -1], [1, 1], [0, 0], [1, 0], [0, -1]):
        with pytest.raises(AccountingError):
            theorem_quantities(TWO_USERS, np.array(side, dtype=np.int8),
                               100.0, 200.0)


def test_generalized_reduces_to_simple_with_full_attribution():
    rng = np.random.default_rng(33)
    population = _random_population(rng, 300)
    alpha = cpa = D(100.0)
    beta = 2.5 * alpha
    ones = [1.0] * len(population)
    simple_side = partition_users(population, alpha, beta)
    general_side = generalized_partition(population, ones, cpa, beta)
    assert np.array_equal(simple_side, general_side)
    simple = theorem_quantities(population, simple_side, alpha, beta)
    general = generalized_theorem_quantities(population, general_side, ones, cpa, beta)
    assert general.actions_per_attr_value == pytest.approx(simple.actions_per_attr_value, rel=1e-15)
    assert general.actions_per_attr_lift == pytest.approx(simple.actions_per_attr_lift, rel=1e-15)
    assert general.cost_per_attr_value == pytest.approx(simple.cost_per_attr_value, rel=1e-15)
    assert general.cost_per_attr_lift == simple.cost_per_attr_lift == cpa


def test_matched_attribution_probabilities_tie_everyone():
    rng = np.random.default_rng(34)
    population = _random_population(rng, 50)
    cpa = D(100.0)
    beta = 1.0 * cpa
    a_values = (beta / cpa) * population.delta_p / population.p
    assert all(0 < a <= 1 for a in a_values)
    side = generalized_partition(population, a_values, cpa, beta)
    assert not side.any()


def test_generalized_partition_matches_brute_force():
    rng = np.random.default_rng(35)
    population = _random_population(rng, 200)
    a_values = [float(rng.uniform(0.01, 1.0)) for _ in range(len(population))]
    cpa, beta = D(100.0), 1.7 * D(100.0)
    side = generalized_partition(population, a_values, cpa, beta)
    rows = zip(population.p, population.delta_p, a_values)
    for i, (p, delta_p, a) in enumerate(rows):
        value_offer = cpa * p * a
        lift_offer = beta * delta_p
        if value_offer > lift_offer:
            assert side[i] == 1
        elif value_offer < lift_offer:
            assert side[i] == -1


def test_generalized_cost_dominance_on_any_nondegenerate_partition():
    rng = np.random.default_rng(36)
    for trial in range(20):
        population = _random_population(rng, 400)
        a_values = [float(rng.uniform(0.05, 1.0)) for _ in range(len(population))]
        cpa = D(100.0)
        beta = float(rng.uniform(0.5, 6.0)) * cpa
        side = generalized_partition(population, a_values, cpa, beta)
        if not (side == 1).any() or not (side == -1).any():
            continue
        report = generalized_theorem_quantities(population, side, a_values, cpa, beta)
        assert report.cost_per_attr_value < cpa
        assert report.cost_per_attr_lift == cpa


def test_dominance_after_equal_attribution_calibration():
    rng = np.random.default_rng(37)
    population = _random_population(rng, 1000)
    alpha = 100.0
    cal = calibrate_equal_attribution(population, alpha, tolerance=1e-3)
    assert cal.converged
    side = partition_users(population, alpha, cal.beta)
    report = theorem_quantities(population, side, alpha, cal.beta, cal.residual)
    assert report.actions_dominance
    assert report.cost_dominance
    assert report.n_tied == 0


@settings(max_examples=400, deadline=None)
@given(users=st.lists(st.tuples(st.floats(1e-6, 1.0), st.floats(0.0, 1.0),
                                st.floats(1e-6, 1.0)),
                      min_size=2, max_size=40),
       beta_per_cpa=st.floats(1e-300, 1e290) | st.floats(0.5, 1e3),
       cpa=st.integers(1, 10**12))
def test_cost_dominance_holds_on_any_population_and_beta(users, beta_per_cpa,
                                                          cpa):
    """Every value-side user has beta * delta_p < cpa * p * a, so the value
    side pays less than cpa per attributed action, at any beta. About a
    third of the examples leave both sides non-empty."""
    beta = beta_per_cpa * cpa
    p = np.array([u[0] for u in users])
    population = Population(p=p, delta_p=p * np.array([u[1] for u in users]))
    a_values = [u[2] for u in users]
    side = generalized_partition(population, a_values, cpa, beta)
    if (side == 1).any() and (side == -1).any():
        report = generalized_theorem_quantities(population, side, a_values,
                                                cpa, beta)
        assert report.cost_dominance
    side = partition_users(population, cpa, beta)
    if (side == 1).any() and (side == -1).any():
        assert theorem_quantities(population, side, cpa, beta).cost_dominance


# Sums taken by math.fsum here and by left folds in the package differ in
# the last bits, so a case this close to the boundary, relative to the
# larger side, has no sure answer and is skipped.
BOUNDARY_REL = 1e-9


@settings(max_examples=400, deadline=None)
@given(users=st.lists(st.tuples(st.floats(1e-6, 1.0), st.floats(0.0, 1.0),
                                st.floats(1e-6, 1.0)),
                      min_size=2, max_size=40),
       beta_per_cpa=st.floats(1e-300, 1e290) | st.floats(0.5, 1e3),
       cpa=st.integers(1, 10**12))
def test_actions_dominance_is_the_cross_multiplied_inequality(
        users, beta_per_cpa, cpa):
    """With P a side's sum of p, B its sum of background rates and A its
    sum of p * a, the lift side yields more actions per attributed action
    exactly when (B_value + P_lift) A_value > (P_value + B_lift) A_lift;
    at a = 1, when B_value P_value > B_lift P_lift. Both modes, on the
    populations of the cost-dominance test above. Cases within
    BOUNDARY_REL of the boundary are skipped and counted as a hypothesis
    event (``--hypothesis-show-statistics``). Six runs of 400 examples
    skipped none; in 39-46% of each run's examples a mode was checked."""
    beta = beta_per_cpa * cpa
    p = np.array([u[0] for u in users])
    population = Population(p=p, delta_p=p * np.array([u[1] for u in users]))
    drawn = np.array([u[2] for u in users])
    ones = np.ones(len(users))
    for a_values, side in (
            (drawn, generalized_partition(population, drawn, cpa, beta)),
            (ones, partition_users(population, cpa, beta))):
        value, lift = side == 1, side == -1
        if not (value.any() and lift.any()):
            continue
        report = generalized_theorem_quantities(population, side, a_values,
                                                cpa, beta)
        bg = population.background_rate
        p_v, p_l = math.fsum(p[value]), math.fsum(p[lift])
        b_v, b_l = math.fsum(bg[value]), math.fsum(bg[lift])
        a_v = math.fsum(p[value] * a_values[value])
        a_l = math.fsum(p[lift] * a_values[lift])
        lhs, rhs = (b_v + p_l) * a_v, (p_v + b_l) * a_l
        if abs(lhs - rhs) <= BOUNDARY_REL * max(lhs, rhs):
            event("within BOUNDARY_REL of the boundary: skipped")
            continue
        event("checked")
        assert report.actions_dominance == (lhs > rhs)
        if a_values is ones:
            assert report.actions_dominance == (b_v * p_v > b_l * p_l)
            assert theorem_quantities(population, side, cpa,
                                      beta).actions_dominance == (lhs > rhs)
