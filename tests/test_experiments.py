"""Experiment harness: worked example, sweeps, A/B protocol mechanics."""

from statistics import NormalDist

import numpy as np
import pytest

import liftsim.experiments as experiments
from liftsim.experiments import (
    MC_FAMILY_ALPHA, ABTestConfig, SweepConfig, _play_strategy,
    mc_z, relative_change, run_abtest, run_worked_example, verify_theorems,
)
from liftsim.attribution import TheoremReport
from liftsim.market import Population, dollars_to_micros
from liftsim.world import WorldConfig, generate_population

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


def test_sweep_world_is_its_seeds_action_rates():
    """A record's seed gives its world's population, whose (p, delta_p)
    are the sweep world's; the sweep's default world lends no seed."""
    for seed in (3, 99):
        world = experiments._sweep_world(WorldConfig(n_users=250, seed=7), seed)
        users = generate_population(WorldConfig(n_users=250, seed=seed))
        assert world.p.tobytes() == users.p.tobytes()
        assert world.delta_p.tobytes() == users.delta_p.tobytes()


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
        lv = relative_change(value, passive)
        ll = relative_change(lift, passive)
        assert round(relative_change(ll, lv) * 100) == printed
    # The rounded-lift arithmetic for the first row agrees too.
    assert round(relative_change(0.287, 0.112) * 100) == 156


def test_metric_guards():
    assert relative_change(10, 0) is None
    assert relative_change(0.5, 0.0) is None
    assert relative_change(0.5, -0.1) is None
    assert relative_change(1.0, 0.0) is None
    assert relative_change(None, 2.0) is None
    assert relative_change(3.0, None) is None
    assert relative_change(3.0, 2.0) == pytest.approx(0.5)


def test_simple_sweep_passes_with_mc_checks():
    config = SweepConfig(n_instances=6, n_users=500, master_seed=3,
                         mode="simple", mc_instances=2, mc_trials=4000)
    report = verify_theorems(config)["simple"]
    assert len(report.records) == 6
    assert report.n_actions_pass == 6
    assert report.n_cost_pass == 6
    assert report.mc_checks and all(c.within for c in report.mc_checks)
    assert all(r <= config.tolerance for r in report.residuals())
    assert report.all_passed


def test_mc_bound_is_bonferroni_over_the_checks_run():
    # One check alone is the old 3-SE test; thirty share the same alpha.
    assert mc_z(1) == pytest.approx(3.0, abs=1e-3)
    assert mc_z(30) == pytest.approx(3.916, abs=1e-3)
    for m in (1, 3, 30, 300):
        assert 2 * m * (1 - NormalDist().cdf(mc_z(m))) == pytest.approx(
            MC_FAMILY_ALPHA)


@pytest.mark.parametrize("seed", [405, 409])
def test_mc_family_passes_seeds_with_a_check_beyond_3se(seed):
    # The cross-check of a 24-instance, 2,000-user verify run is that of
    # its first ten simple-mode instances: thirty checks. On these seeds
    # one of them misses by more than 3 SE (3.49 and 3.23), which failed
    # the run when each check was its own 3-SE test.
    config = SweepConfig(n_instances=10, n_users=2000, master_seed=seed,
                         mode="simple")
    report = verify_theorems(config)["simple"]
    misses = [abs(c.exact - c.estimate) / c.stderr for c in report.mc_checks]
    assert len(misses) == 30 and 3.0 < max(misses) < report.mc_z
    assert report.mc_z == mc_z(30)
    assert report.all_passed


def test_mc_standard_errors_are_the_closed_form_at_two_trials():
    # Even users bid value and odd ones lift: at beta = 3 * cpa the lift
    # bid beats the value bid iff 3 * delta_p > p, and no bid ties.
    n, cpa = 30, D(100.0)
    p = np.linspace(0.05, 0.5, n)
    delta_p = p * np.where(np.arange(n) % 2, 0.6, 0.2)
    exact = TheoremReport(1.0, 1.0, 1.0, 1.0, 0.0, True, True)
    checks = [experiments._mc_cross_check(
        0, Population(p=p, delta_p=delta_p), cpa, 3.0 * cpa, exact, 2, seed)
        for seed in (1, 2)]

    def var(rates):
        return float((rates * (1 - rates)).sum())

    def ratio_se(attr, other):
        # Var(total) = Var(attr) + Var(other), Cov(total, attr) = Var(attr).
        m_attr, m_total = attr.sum(), attr.sum() + other.sum()
        v_attr, v_total = var(attr), var(attr) + var(other)
        return np.sqrt((v_total / m_attr**2 + m_total**2 * v_attr / m_attr**4
                        - 2 * m_total * v_attr / m_attr**3) / 2)

    value, lift, bg = p[::2], p[1::2], p - delta_p
    cost = 3.0 * cpa * delta_p[::2].sum()
    want = {"actions_per_attr_value": ratio_se(value, bg[1::2]),
            "actions_per_attr_lift": ratio_se(lift, bg[::2]),
            "cost_per_attr_value": cost * np.sqrt(var(value) / 2)
            / value.sum()**2}
    for run in checks:  # the draws differ, the standard errors do not
        assert {c.quantity: c.stderr for c in run} == pytest.approx(
            want, rel=1e-12)
    assert all(se > 0 for se in want.values())
    assert [c.estimate for c in checks[0]] != [c.estimate for c in checks[1]]


class _BiasedDraws:
    """A generator whose uniforms are scaled down, so every Bernoulli
    draw ``random() < rate`` hits at about rate / scale."""

    def __init__(self, rng, scale):
        self.rng, self.scale = rng, scale

    def random(self, size):
        return self.rng.random(size) * self.scale


def test_mc_family_fails_a_biased_draw(monkeypatch):
    real = experiments.rng_for
    monkeypatch.setattr(experiments, "rng_for", lambda seed, *path: (
        _BiasedDraws(real(seed, *path), 0.95) if path[0] == "mc"
        else real(seed, *path)))
    config = SweepConfig(n_instances=6, n_users=500, master_seed=3,
                         mode="simple", mc_instances=2, mc_trials=4000)
    report = verify_theorems(config)["simple"]
    assert report.n_actions_pass == report.n_cost_pass == 6
    assert not all(c.within for c in report.mc_checks)
    assert not report.all_passed


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
    side = generalized_partition(population, matched, cpa, 1.0 * cpa)
    assert np.count_nonzero(side == 0) == len(population)
    # A generic attribution assignment does not tie everyone.
    a_values = [float(rng.uniform(0.1, 1.0)) for _ in range(len(population))]
    side = generalized_partition(population, a_values, cpa, 2.0 * cpa)
    assert np.count_nonzero(side == 0) < len(population)


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
    assert ([r.as_dict() for r in once.replications]
            == [r.as_dict() for r in again.replications])
    assert once.sign_counts() == again.sign_counts()
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
    # Neither group paid, so no cost comparison is defined.
    assert rep.inventory_cost_diff is None and rep.cost_per_imp_diff is None


def test_the_ground_truth_gap_falls_as_p_and_lift_align():
    """The lift bidder's edge in expected actions (lift - value) grows as
    the action rate p and the lift disagree. At each step of the p-lift
    dependence over (-0.9, 0, 0.9) it falls by more than 2 standard
    errors of the per-replication step; in the null world, where lift is
    proportional to p, it lies within 3 standard errors of 0."""
    def gaps(**overrides):
        report = run_abtest(ABTestConfig(
            n_users=5000, replications=10, budget_per_bidder_dollars=17_500.0,
            world_overrides=overrides))
        return np.array([r.groups["lift"]["expected_actions"]
                         - r.groups["value"]["expected_actions"]
                         for r in report.replications])

    def stderr(d):
        return d.std(ddof=1) / np.sqrt(len(d))

    by_rho = [gaps(p_lift_dependence=rho) for rho in (-0.9, 0.0, 0.9)]
    for higher, lower in zip(by_rho, by_rho[1:]):
        step = higher - lower  # paired: replication r has one seed
        assert step.mean() > 2 * stderr(step)
    null = gaps(delta_p_distribution={"kind": "point_ratio", "value": 0.5})
    assert abs(null.mean()) <= 3 * stderr(null)


def test_an_oracle_abtest_draws_only_the_market_population(monkeypatch):
    """Without an estimator a world is its market_population, and the
    report is the one the whole population gives."""
    config = ABTestConfig(n_users=900, replications=2, master_seed=8,
                          budget_per_bidder_dollars=3000.0)
    drawn = []
    market_population = experiments.market_population
    monkeypatch.setattr(experiments, "market_population",
                        lambda world: drawn.append(world) or
                        market_population(world))
    report = run_abtest(config)
    assert drawn == [config.world(0), config.world(1)]
    monkeypatch.setattr(experiments, "market_population",
                        generate_population)
    forced = run_abtest(config)
    assert ([r.as_dict() for r in report.replications]
            == [r.as_dict() for r in forced.replications])
    n_windows = config.horizon_days // config.action_window_days
    for rep in report.replications:  # both spend out mid-horizon
        assert rep.all_spent_out
        assert max(rep.groups[k]["stop_window"]
                   for k in ("value", "lift")) < n_windows - 1
