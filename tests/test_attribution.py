"""Exact accounting quantities and partitions."""

import numpy as np
import pytest

from liftsim.attribution import (
    AccountingError, Partition, generalized_partition,
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
    part = partition_users(TWO_USERS, alpha=100.0, beta=200.0)
    assert part.value_won == (0,)
    assert part.lift_won == (1,)
    assert part.tied == ()


def test_partition_tiny_beta_empties_lift_side():
    part = partition_users(TWO_USERS, alpha=100.0, beta=1e-9)
    assert part.lift_won == ()
    assert set(part.value_won) == {0, 1}


def test_partition_matches_per_user_brute_force():
    rng = np.random.default_rng(31)
    population = _random_population(rng, 100)
    alpha, beta = 100.0, 317.5
    part = partition_users(population, alpha, beta)
    for i, (p, delta_p) in enumerate(zip(population.p, population.delta_p)):
        value_offer, lift_offer = alpha * p, beta * delta_p
        if value_offer > lift_offer:
            assert i in part.value_won
        elif value_offer < lift_offer:
            assert i in part.lift_won
        else:
            assert i in part.tied


def test_partition_sides_must_be_disjoint():
    with pytest.raises(ValueError):
        Partition(value_won=(0,), lift_won=(0,))


def test_actions_per_attributed_example():
    part = partition_users(TWO_USERS, alpha=100.0, beta=200.0)
    report = theorem_quantities(TWO_USERS, part, alpha=100.0, beta=200.0)
    assert report.actions_per_attr_value == pytest.approx((0.04 + 0.001) / 0.04)  # 1.025
    assert report.actions_per_attr_lift == pytest.approx((0.03 + 0.02) / 0.02)    # 2.5
    assert report.actions_dominance


def test_actions_per_attributed_collapses_without_lift():
    population = Population(p=[0.05, 0.03], delta_p=[0.0, 0.0])
    part = Partition(value_won=(0,), lift_won=(1,))
    total = 0.05 + 0.03
    report = theorem_quantities(population, part, alpha=100.0, beta=100.0)
    assert report.actions_per_attr_value == pytest.approx(total / 0.05)
    assert report.actions_per_attr_lift == pytest.approx(total / 0.03)


def test_cost_per_attributed_example():
    part = partition_users(TWO_USERS, alpha=D(100.0), beta=D(200.0))
    report = theorem_quantities(TWO_USERS, part, D(100.0), D(200.0))
    assert report.cost_per_attr_value == pytest.approx(D(200.0) * 0.01 / 0.04)  # $50
    assert report.cost_per_attr_lift == D(100.0)  # exactly alpha, by construction
    assert report.cost_dominance


def test_lift_side_cost_is_alpha_exactly():
    rng = np.random.default_rng(32)
    population = _random_population(rng, 500)
    part = partition_users(population, alpha=100.0, beta=250.0)
    report = theorem_quantities(population, part, 100.0, 250.0)
    assert report.cost_per_attr_lift == 100.0


def test_empty_side_raises():
    for part in (Partition(value_won=(), lift_won=(0, 1)),
                 Partition(value_won=(0, 1), lift_won=())):
        with pytest.raises(AccountingError):
            theorem_quantities(TWO_USERS, part, 100.0, 200.0)


def test_generalized_reduces_to_simple_with_full_attribution():
    rng = np.random.default_rng(33)
    population = _random_population(rng, 300)
    alpha = cpa = D(100.0)
    beta = 2.5 * alpha
    ones = [1.0] * len(population)
    simple_part = partition_users(population, alpha, beta)
    general_part = generalized_partition(population, ones, cpa, beta)
    assert simple_part == general_part
    simple = theorem_quantities(population, simple_part, alpha, beta)
    general = generalized_theorem_quantities(population, general_part, ones, cpa, beta)
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
    part = generalized_partition(population, a_values, cpa, beta)
    assert len(part.tied) == len(population)


def test_generalized_partition_matches_brute_force():
    rng = np.random.default_rng(35)
    population = _random_population(rng, 200)
    a_values = [float(rng.uniform(0.01, 1.0)) for _ in range(len(population))]
    cpa, beta = D(100.0), 1.7 * D(100.0)
    part = generalized_partition(population, a_values, cpa, beta)
    rows = zip(population.p, population.delta_p, a_values)
    for i, (p, delta_p, a) in enumerate(rows):
        rational_offer = cpa * p * a
        lift_offer = beta * delta_p
        if rational_offer > lift_offer:
            assert i in part.value_won
        elif rational_offer < lift_offer:
            assert i in part.lift_won


def test_generalized_cost_dominance_on_any_nondegenerate_partition():
    rng = np.random.default_rng(36)
    for trial in range(20):
        population = _random_population(rng, 400)
        a_values = [float(rng.uniform(0.05, 1.0)) for _ in range(len(population))]
        cpa = D(100.0)
        beta = float(rng.uniform(0.5, 6.0)) * cpa
        part = generalized_partition(population, a_values, cpa, beta)
        if not part.value_won or not part.lift_won:
            continue
        report = generalized_theorem_quantities(population, part, a_values, cpa, beta)
        assert report.cost_per_attr_value < cpa
        assert report.cost_per_attr_lift == cpa


def test_dominance_after_equal_attribution_calibration():
    rng = np.random.default_rng(37)
    population = _random_population(rng, 1000)
    alpha = 100.0
    cal = calibrate_equal_attribution(population, alpha, tolerance=1e-3)
    assert cal.converged
    part = partition_users(population, alpha, cal.beta)
    report = theorem_quantities(population, part, alpha, cal.beta, cal.residual)
    assert report.actions_dominance
    assert report.cost_dominance
    assert report.n_tied == 0
