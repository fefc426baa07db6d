"""Experiment harness: worked example, sweeps, A/B protocol mechanics."""

import numpy as np
import pytest

from liftsim.experiments import (
    ABTestConfig, SweepConfig, _play_strategy,
    action_lift, lift_over_lift, relative_diff,
    run_abtest, run_worked_example, verify_theorems,
)
from liftsim.market import Population, dollars_to_micros

D = dollars_to_micros


def test_worked_example_exact_values():
    report = run_worked_example()
    assert report.value.expected_actions == pytest.approx(0.041, rel=1e-12)
    assert report.lift.expected_actions == pytest.approx(0.05, rel=1e-12)
    assert report.value.dsp_revenue == D(4.0)
    assert report.lift.dsp_revenue == D(2.0)
    assert report.value.inventory_cost == D(3.5)
    assert report.lift.inventory_cost == D(3.5)
    assert report.value.won_users == ("a",)
    assert report.lift.won_users == ("b",)


def test_worked_example_symmetric_under_relabeling():
    swapped = Population(p=[0.02, 0.04], delta_p=[0.019, 0.01])
    bids = [round(D(100.0) * p) for p in swapped.p.tolist()]
    outcome = _play_strategy("value", ("a", "b"), swapped, bids, D(3.5),
                             D(100.0))
    assert outcome.expected_actions == pytest.approx(0.041, rel=1e-12)
    assert outcome.won_users == ("b",)  # the high-rate user, renamed


def test_metric_formulas_on_published_style_counts():
    # Counts in the style of a five-advertiser action table:
    # (passive, value, lift) -> lift-over-lift rounded to whole percents.
    table = [
        (642, 714, 826, 156),
        (823, 896, 980, 115),
        (1438, 1477, 1509, 82),
        (1892, 2016, 2471, 367),
        (5610, 6708, 8291, 144),
    ]
    for passive, value, lift, printed in table:
        lv = action_lift(value, passive)
        ll = action_lift(lift, passive)
        assert round(lift_over_lift(lv, ll) * 100) == printed
    # The rounded-lift arithmetic for the first row agrees too.
    assert round(lift_over_lift(0.112, 0.287) * 100) == 156


def test_metric_guards():
    with pytest.raises(ValueError):
        action_lift(10, 0)
    with pytest.raises(ValueError):
        lift_over_lift(0.0, 0.5)
    with pytest.raises(ValueError):
        relative_diff(1.0, 0.0)
    assert relative_diff(3.0, 2.0) == pytest.approx(0.5)


def test_simple_sweep_passes_with_mc_checks():
    config = SweepConfig(n_instances=6, n_users=500, master_seed=3,
                         mode="simple", mc_instances=2, mc_trials=4000)
    report = verify_theorems(config)["simple"]
    assert len(report.records) == 6
    assert report.n_actions_pass == 6
    assert report.n_cost_pass == 6
    assert report.mc_checks and all(c.within_3se for c in report.mc_checks)
    assert all(r <= config.tolerance for r in report.residuals())
    assert report.all_passed


def test_generalized_sweep_passes():
    config = SweepConfig(n_instances=6, n_users=500, master_seed=4,
                         mode="generalized", mc_instances=0)
    report = verify_theorems(config)["generalized"]
    assert len(report.records) == 6
    assert report.n_actions_pass == 6
    assert report.n_cost_pass == 6
    cpa = D(100.0)
    for record in report.records:
        assert record["cost_per_attr_lift"] == cpa
        assert record["cost_per_attr_value"] < cpa


def test_all_tie_configuration_is_detected():
    rng = np.random.default_rng(8)
    p, delta_p = [], []
    for _ in range(80):
        p.append(float(rng.uniform(0.01, 0.1)))
        delta_p.append(p[-1] * float(rng.uniform(0.05, 0.95)))
    population = Population(p=p, delta_p=delta_p)
    cpa = D(100.0)
    from liftsim.attribution import generalized_partition
    # Matched attribution probabilities make the rational bidder's offer
    # equal the lift bidder's on every user.
    matched = population.delta_p / population.p
    part = generalized_partition(population, matched, cpa, 1.0 * cpa)
    assert len(part.tied) == len(population)
    # A generic attribution assignment does not tie everyone.
    a_values = [float(rng.uniform(0.1, 1.0)) for _ in range(len(population))]
    part = generalized_partition(population, a_values, cpa, 2.0 * cpa)
    assert len(part.tied) < len(population)


def test_abtest_report_structure_and_accounting():
    config = ABTestConfig(n_users=1200, replications=2, master_seed=21,
                          budget_per_bidder_dollars=4000.0)
    report = run_abtest(config)
    assert len(report.replications) == 2
    cpa = D(config.cpa_dollars)
    budget = D(config.budget_per_bidder_dollars)
    for rep in report.replications:
        passive = rep.groups["passive"]
        assert passive["impressions"] == 0
        assert passive["bids_placed"] == 0
        for kind in ("value", "lift"):
            g = rep.groups[kind]
            assert g["spend"] == g["attributed_billed"] * cpa
            assert g["spend"] <= budget + cpa
        sizes = sorted(rep.groups[k]["n_users"] for k in rep.groups)
        assert sum(sizes) == config.n_users
        assert sizes[-1] - sizes[0] <= 1  # equal-sized groups


def test_abtest_is_deterministic_and_replication_stable():
    config2 = ABTestConfig(n_users=900, replications=2, master_seed=5,
                           budget_per_bidder_dollars=3000.0)
    config3 = ABTestConfig(n_users=900, replications=3, master_seed=5,
                           budget_per_bidder_dollars=3000.0)
    once = run_abtest(config2)
    again = run_abtest(config2)
    assert once.as_dict() == again.as_dict()
    more = run_abtest(config3)
    # Adding a replication never perturbs the earlier ones.
    assert [r.as_dict() for r in more.replications[:2]] == \
        [r.as_dict() for r in once.replications]


def test_abtest_zero_budget_yields_empty_campaign():
    config = ABTestConfig(n_users=600, replications=1, master_seed=6,
                          budget_per_bidder_dollars=0.0)
    report = run_abtest(config)
    rep = report.replications[0]
    for kind in ("value", "lift"):
        assert rep.groups[kind]["impressions"] == 0
        assert rep.groups[kind]["spend"] == 0
    # Actions still happen at the background rate.
    assert rep.groups["passive"]["actions"] > 0
