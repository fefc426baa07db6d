"""Experiment harness: worked example, dominance sweeps, and the A/B protocol.

Three entry points:

* :func:`run_worked_example` reproduces the canonical two-user market
  exactly (expected actions, DSP revenue, inventory cost).
* :func:`verify_theorems` sweeps random populations, calibrates the
  lift scale for (near-)equal attribution, computes the exact
  accounting quantities, and optionally cross-checks them against
  Monte-Carlo simulation of the same market.
* :func:`run_abtest` runs the three-group protocol (passive, value,
  lift) with equal spend-out budgets over seeded replications and
  reports the directional metrics.

All magnitudes are properties of the synthetic worlds; only metric
definitions and directional signs carry over to any real market.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attribution import (
    TheoremReport, generalized_partition, generalized_theorem_quantities,
    partition_users, theorem_quantities,
)
from .bidders import (
    LIFT, VALUE, BidderConfig, PopulationStats, calibrate_beta,
    calibrate_equal_attribution, calibrate_equal_attribution_weighted,
    price_bids,
)
from .market import (
    LIFT_BIDDER, VALUE_BIDDER, Campaign, Population, dollars_to_micros,
    run_auction,
)
from .seeds import derive_seed, rng_for
from .world import GroupStats, WorldConfig, generate_population, run_market

DISCLAIMER = ("Synthetic-market results: only metric definitions and "
              "directional signs are meaningful, not absolute magnitudes.")


# ---------------------------------------------------------------------------
# Worked example: the canonical two-user market
# ---------------------------------------------------------------------------

EXAMPLE_USERS = Population(p=[0.04, 0.02], delta_p=[0.01, 0.019])
EXAMPLE_COMPETITOR_DOLLARS = 3.5
EXAMPLE_CPA_DOLLARS = 100.0
EXAMPLE_LIFT_SCALE_DOLLARS = 200.0


@dataclass(frozen=True)
class StrategyOutcome:
    """Exact outcome of one bidding strategy on the two-user market."""

    strategy: str
    bids: dict[str, int]               # user -> bid micros
    won_users: tuple[str, ...]
    expected_actions: float
    dsp_revenue: int                   # micros: cpa * p over won users
    inventory_cost: int                # micros: clearing prices paid


@dataclass(frozen=True)
class WorkedExampleReport:
    value: StrategyOutcome
    lift: StrategyOutcome
    notes: str = DISCLAIMER


def _play_strategy(
    name: str,
    ids: tuple[str, ...],
    users: Population,
    bids: list[int],
    competitor: int,
    cpa: int,
) -> StrategyOutcome:
    """One auction per user; ``ids`` name the users in the report."""
    won = np.zeros(len(users), dtype=bool)
    cost = 0
    for i, bid in enumerate(bids):
        result = run_auction([(name, bid), ("market", competitor)], reserve=0)
        if result.winner == name:
            won[i] = True
            cost += result.clearing_price
    expected = sum(np.where(won, users.p, users.background_rate).tolist())
    revenue = sum(round(cpa * p) for p in users.p[won].tolist())
    return StrategyOutcome(
        strategy=name, bids=dict(zip(ids, bids)),
        won_users=tuple(uid for uid, w in zip(ids, won) if w),
        expected_actions=expected, dsp_revenue=revenue, inventory_cost=cost)


def run_worked_example(
    cpa_dollars: float = EXAMPLE_CPA_DOLLARS,
    lift_scale_dollars: float = EXAMPLE_LIFT_SCALE_DOLLARS,
    competitor_dollars: float = EXAMPLE_COMPETITOR_DOLLARS,
) -> WorkedExampleReport:
    """Exact two-user market: one auction per user against a fixed bid.

    The value strategy prices each user at cpa * p; the lift strategy at
    lift_scale * delta_p. The advertiser pays cpa per action, so a won
    user contributes cpa * p expected revenue and the winner pays the
    competitor's (second) price.
    """
    users = EXAMPLE_USERS
    cpa = dollars_to_micros(cpa_dollars)
    scale = dollars_to_micros(lift_scale_dollars)
    competitor = dollars_to_micros(competitor_dollars)

    def play(name: str, bidder: BidderConfig) -> StrategyOutcome:
        bids = price_bids(bidder, users.p, users.delta_p).tolist()
        return _play_strategy(name, ("a", "b"), users, bids, competitor, cpa)

    return WorkedExampleReport(
        value=play(VALUE_BIDDER, BidderConfig(VALUE, alpha=cpa)),
        lift=play(LIFT_BIDDER, BidderConfig(LIFT, beta=scale)),
    )


# ---------------------------------------------------------------------------
# Dominance verification sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Random-population sweep for the dominance checks."""

    n_instances: int = 100
    n_users: int = 1000
    master_seed: int = 0
    tolerance: float = 1e-3
    alpha_dollars: float = 100.0
    cpa_dollars: float = 100.0
    mode: str = "both"          # simple | generalized | both
    mc_instances: int = 10      # simple-mode instances to cross-check
    mc_trials: int = 10_000
    max_attempts_per_instance: int = 50

    def __post_init__(self) -> None:
        if self.n_instances < 1:
            raise ValueError("n_instances must be at least 1")
        if self.mode not in ("simple", "generalized", "both"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")


@dataclass
class MCCheck:
    instance: int
    quantity: str
    exact: float
    estimate: float
    stderr: float
    within_3se: bool


@dataclass
class VerificationSweepReport:
    """Per-instance dominance outcomes plus calibration bookkeeping.

    Instances whose equal-attribution calibration cannot reach the
    tolerance (a property of the discrete draw, not of the claims) are
    regenerated and counted in ``n_skipped_calibration``.
    """

    mode: str
    n_instances: int
    records: list[dict] = field(default_factory=list)
    mc_checks: list[MCCheck] = field(default_factory=list)
    n_skipped_calibration: int = 0
    n_skipped_degenerate: int = 0
    notes: str = DISCLAIMER

    @property
    def n_actions_pass(self) -> int:
        return sum(r["actions_dominance"] for r in self.records)

    @property
    def n_cost_pass(self) -> int:
        return sum(r["cost_dominance"] for r in self.records)

    @property
    def all_passed(self) -> bool:
        return (len(self.records) == self.n_instances
                and self.n_actions_pass == self.n_instances
                and self.n_cost_pass == self.n_instances
                and all(c.within_3se for c in self.mc_checks))

    def residuals(self) -> list[float]:
        return [r["attribution_residual"] for r in self.records]


def _sweep_world(n_users: int, seed: int) -> Population:
    config = WorldConfig(n_users=n_users, seed=seed,
                         behavior={"enabled": False})
    return generate_population(config)


def _ratio_se(x: np.ndarray, y: np.ndarray) -> float:
    """Delta-method standard error of mean(x)/mean(y)."""
    n = len(x)
    mx, my = float(x.mean()), float(y.mean())
    vx = float(x.var(ddof=1))
    vy = float(y.var(ddof=1))
    cxy = float(np.cov(x, y, ddof=1)[0, 1])
    var = (vx / my ** 2 + mx ** 2 * vy / my ** 4 - 2 * mx * cxy / my ** 3) / n
    return float(np.sqrt(max(var, 0.0)))


def _mc_cross_check(
    instance: int,
    population: Population,
    alpha: float,
    beta: float,
    report: TheoremReport,
    trials: int,
    seed: int,
) -> list[MCCheck]:
    """Monte-Carlo estimate of the accounting ratios on the same market.

    Winners are decided by real second-price auctions over the two
    micro-rounded bids; action outcomes are Bernoulli draws at rate p
    for the winner's side and the background rate otherwise.
    """
    p, dp, bg = population.p, population.delta_p, population.background_rate
    value_bids = price_bids(BidderConfig(VALUE, alpha=alpha), p, dp).tolist()
    lift_bids = price_bids(BidderConfig(LIFT, beta=beta), p, dp).tolist()
    winners = [
        run_auction([(VALUE_BIDDER, value_bid), (LIFT_BIDDER, lift_bid)],
                    reserve=0, rng_seed=derive_seed(seed, "tie", uid)).winner
        for uid, value_bid, lift_bid in zip(
            population.user_ids, value_bids, lift_bids)
    ]
    value_side = np.array([w == VALUE_BIDDER for w in winners], dtype=bool)
    lift_side = np.array([w == LIFT_BIDDER for w in winners], dtype=bool)

    p_j, bg_j = p[value_side], bg[value_side]
    p_k, bg_k = p[lift_side], bg[lift_side]
    cost_value = float(sum((beta * dp[value_side]).tolist()))

    rng = rng_for(seed, "mc", instance)
    total_1 = np.empty(trials)
    attr_1 = np.empty(trials)
    total_2 = np.empty(trials)
    attr_2 = np.empty(trials)
    chunk = 2000
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        hits_j_exposed = rng.random((m, len(p_j))) < p_j
        hits_k_bg = rng.random((m, len(p_k))) < bg_k
        hits_j_bg = rng.random((m, len(p_j))) < bg_j
        hits_k_exposed = rng.random((m, len(p_k))) < p_k
        attr_1[done:done + m] = hits_j_exposed.sum(axis=1)
        total_1[done:done + m] = attr_1[done:done + m] + hits_k_bg.sum(axis=1)
        attr_2[done:done + m] = hits_k_exposed.sum(axis=1)
        total_2[done:done + m] = attr_2[done:done + m] + hits_j_bg.sum(axis=1)
        done += m

    checks = []
    a1_est = float(total_1.mean() / attr_1.mean())
    a1_se = _ratio_se(total_1, attr_1)
    checks.append(MCCheck(instance, "actions_per_attr_value",
                          report.actions_per_attr_value, a1_est, a1_se,
                          abs(report.actions_per_attr_value - a1_est) <= 3 * a1_se))
    a2_est = float(total_2.mean() / attr_2.mean())
    a2_se = _ratio_se(total_2, attr_2)
    checks.append(MCCheck(instance, "actions_per_attr_lift",
                          report.actions_per_attr_lift, a2_est, a2_se,
                          abs(report.actions_per_attr_lift - a2_est) <= 3 * a2_se))
    c1_est = float(cost_value / attr_1.mean())
    c1_se = float(cost_value * np.std(attr_1, ddof=1)
                  / (attr_1.mean() ** 2 * np.sqrt(trials)))
    checks.append(MCCheck(instance, "cost_per_attr_value",
                          report.cost_per_attr_value, c1_est, c1_se,
                          abs(report.cost_per_attr_value - c1_est) <= 3 * c1_se))
    return checks


def verify_theorems(config: SweepConfig) -> dict[str, VerificationSweepReport]:
    """Run the dominance sweeps; returns reports keyed by mode.

    Both modes share one procedure per attempt: draw a world, calibrate
    beta for equal attribution, partition the users and compute the
    exact accounting. The simple mode uses the value bidder ``alpha * p``
    and adds the Monte-Carlo cross-check on its first ``mc_instances``
    instances; the generalized mode uses a rational bidder with random
    attribution probabilities.
    """
    alpha = float(dollars_to_micros(config.alpha_dollars))
    cpa = dollars_to_micros(config.cpa_dollars)
    out: dict[str, VerificationSweepReport] = {}

    modes = ["simple", "generalized"] if config.mode == "both" else [config.mode]
    for mode in modes:
        simple = mode == "simple"
        report = VerificationSweepReport(mode=mode,
                                         n_instances=config.n_instances)
        for i in range(config.n_instances):
            for attempt in range(config.max_attempts_per_instance):
                seed = derive_seed(config.master_seed, "sweep", mode, i, attempt)
                population = _sweep_world(config.n_users, seed)
                if simple:
                    cal = calibrate_equal_attribution(
                        population, alpha, config.tolerance)
                else:
                    a_rng = rng_for(config.master_seed, "attr-probs", i, attempt)
                    a_values = np.maximum(
                        a_rng.uniform(0.0, 1.0, len(population)), 1e-9)
                    cal = calibrate_equal_attribution_weighted(
                        population, a_values, cpa, config.tolerance)
                if not cal.converged:
                    report.n_skipped_calibration += 1
                    continue
                if simple:
                    partition = partition_users(population, alpha, cal.beta)
                else:
                    partition = generalized_partition(
                        population, a_values, cpa, cal.beta)
                if not partition.value_won or not partition.lift_won:
                    report.n_skipped_degenerate += 1
                    continue
                if simple:
                    quantities = theorem_quantities(
                        population, partition, alpha, cal.beta, cal.residual)
                else:
                    quantities = generalized_theorem_quantities(
                        population, partition, a_values, cpa, cal.beta,
                        cal.residual)
                report.records.append({**vars(quantities), "instance": i,
                                       "beta": cal.beta, "seed": seed})
                if simple and i < config.mc_instances:
                    report.mc_checks.extend(_mc_cross_check(
                        i, population, alpha, cal.beta, quantities,
                        config.mc_trials,
                        derive_seed(config.master_seed, "mc", i)))
                break
            else:
                break  # leaves len(records) < n_instances; all_passed False
        out[mode] = report
    return out


# ---------------------------------------------------------------------------
# Blind A/B protocol
# ---------------------------------------------------------------------------

def action_lift(active_actions: float, passive_actions: float) -> float:
    """Relative action lift of an active group over the passive group."""
    if passive_actions <= 0:
        raise ValueError("passive group produced no actions")
    return (active_actions - passive_actions) / passive_actions


def lift_over_lift(value_lift: float, lift_lift: float) -> float:
    """How much larger the lift bidder's action lift is than the value
    bidder's, both measured against the passive baseline."""
    if value_lift <= 0:
        raise ValueError("value-side action lift must be positive")
    return (lift_lift - value_lift) / value_lift


def relative_diff(lift_side: float, value_side: float) -> float:
    if value_side == 0:
        raise ValueError("reference quantity is zero")
    return (lift_side - value_side) / value_side


@dataclass(frozen=True)
class ABTestConfig:
    n_users: int = 10_000
    replications: int = 20
    master_seed: int = 0
    cpa_dollars: float = 100.0
    budget_per_bidder_dollars: float = 35_000.0
    action_window_days: int = 2
    horizon_days: int = 28
    advertiser: str = "adv1"
    beta_dollars: float | None = None  # None: population-mean pricing
    world_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")


@dataclass
class ReplicationResult:
    replication: int
    seed: int
    groups: dict[str, dict]
    action_lift_value: float | None
    action_lift_lift: float | None
    lift_over_lift: float | None
    inventory_cost_diff: float | None
    cost_per_imp_diff: float | None
    all_spent_out: bool

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class ABTestReport:
    config: ABTestConfig
    replications: list[ReplicationResult] = field(default_factory=list)
    notes: str = DISCLAIMER

    def sign_counts(self) -> dict[str, int]:
        reps = self.replications
        return {
            "lift_more_actions": sum(
                r.groups["lift"]["actions"] > r.groups["value"]["actions"]
                for r in reps),
            "inventory_cost_diff_positive": sum(
                (r.inventory_cost_diff or 0) > 0 for r in reps),
            "cost_per_imp_diff_negative": sum(
                (r.cost_per_imp_diff or 0) < 0 for r in reps),
            "all_spent_out": sum(r.all_spent_out for r in reps),
            "replications": len(reps),
        }

    def as_dict(self) -> dict:
        return {
            "config": {**vars(self.config),
                       "world_overrides": dict(self.config.world_overrides)},
            "sign_counts": self.sign_counts(),
            "replications": [r.as_dict() for r in self.replications],
            "notes": self.notes,
        }


def _metric_or_none(fn, *args) -> float | None:
    try:
        return fn(*args)
    except ValueError:
        return None


def run_abtest(config: ABTestConfig, estimator_factory=None) -> ABTestReport:
    """Run the three-group protocol over seeded replications.

    Users are split into equal random groups served by a passive, a
    value, and a lift bidder; the two active bidders get equal budgets
    and bid until spend-out. ``estimator_factory``, when given, is
    called as ``factory(population, advertiser)`` and must return a
    :class:`liftsim.world.BidEstimator`; otherwise bids come from the
    ground-truth oracle.
    """
    cpa = dollars_to_micros(config.cpa_dollars)
    budget = dollars_to_micros(config.budget_per_bidder_dollars)
    report = ABTestReport(config=config)

    for rep in range(config.replications):
        world_seed = derive_seed(config.master_seed, "abtest", rep)
        world_kwargs: dict = {
            "n_users": config.n_users,
            "seed": world_seed,
            "horizon_days": config.horizon_days,
            "advertisers": (config.advertiser,),
            "behavior": {"enabled": False},
        }
        world_kwargs.update(config.world_overrides)
        world = WorldConfig(**world_kwargs)
        population = generate_population(world)
        if config.beta_dollars is not None:
            beta = float(dollars_to_micros(config.beta_dollars))
        else:
            beta = calibrate_beta(PopulationStats(
                float(population.p.mean()), float(population.delta_p.mean()),
                len(population)), cpa)
        bidders = [BidderConfig(kind="passive"),
                   BidderConfig(kind="value", alpha=float(cpa)),
                   BidderConfig(kind="lift", beta=beta)]
        group_rng = rng_for(world_seed, "groups")
        assignment = group_rng.permutation(np.arange(config.n_users) % 3)
        campaign = Campaign(config.advertiser, cpa=cpa, budget=2 * budget,
                            action_window_days=config.action_window_days)
        estimator = None
        if estimator_factory is not None:
            estimator = estimator_factory(population, config.advertiser)
        run = run_market(population, bidders, [campaign], world,
                         assignment=assignment, budgets=[0, budget, budget],
                         estimator=estimator, record_events=False)
        groups: dict[str, GroupStats] = {g.kind: g for g in run.groups}
        passive, value, lift = groups["passive"], groups["value"], groups["lift"]

        lift_v = _metric_or_none(action_lift, value.actions, passive.actions)
        lift_l = _metric_or_none(action_lift, lift.actions, passive.actions)
        lol = (_metric_or_none(lift_over_lift, lift_v, lift_l)
               if lift_v is not None and lift_l is not None else None)
        cost_diff = (_metric_or_none(relative_diff, lift.inventory_cost,
                                     value.inventory_cost))
        cpi_v = value.inventory_cost / value.impressions if value.impressions else None
        cpi_l = lift.inventory_cost / lift.impressions if lift.impressions else None
        cpi_diff = (_metric_or_none(relative_diff, cpi_l, cpi_v)
                    if cpi_v and cpi_l else None)
        report.replications.append(ReplicationResult(
            replication=rep,
            seed=world_seed,
            groups={k: g.as_dict() for k, g in groups.items()},
            action_lift_value=lift_v,
            action_lift_lift=lift_l,
            lift_over_lift=lol,
            inventory_cost_diff=cost_diff,
            cost_per_imp_diff=cpi_diff,
            all_spent_out=value.spent_out and lift.spent_out,
        ))
    return report
