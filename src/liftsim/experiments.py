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

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .attribution import (
    TheoremReport, generalized_partition, generalized_theorem_quantities,
)
# Unused here; perfbench/tracer.py wraps them under this module by name.
from .attribution import partition_users, theorem_quantities  # noqa: F401
from .bidders import (
    DEFAULT_TOLERANCE, BidderConfig, calibrate_equal_attribution_weighted,
    lineup, price_bids,
)
from .bidders import calibrate_equal_attribution  # noqa: F401
from .market import (
    DEFAULT_ACTION_WINDOW_DAYS, DEFAULT_ADVERTISER, DEFAULT_CPA_DOLLARS,
    Campaign, Population, check_integer, check_real, dollars_to_micros,
    ordered_sum, run_auction,
)
from .seeds import derive_seed, rng_for
from .world import (
    DEFAULT_HORIZON_DAYS, GroupStats, WorldConfig, assign_groups,
    behavior_events, draw_action_rates, generate_population,
    market_population, run_market,
)

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


def _play_strategy(
    name: str,
    ids: tuple[str, ...],
    users: Population,
    bids: list[int],
    competitor: int,
    cpa: int,
) -> StrategyOutcome:
    """One auction per user, settled in one call; ``ids`` name the users
    in the report. The example's bids never tie, so the tie stream is a
    fixed one."""
    won, price = run_auction(np.array(bids), np.full(len(bids), competitor),
                             0, np.random.default_rng(0))
    expected = ordered_sum(np.where(won, users.p, users.background_rate))
    revenue = sum(round(cpa * p) for p in users.p[won].tolist())
    return StrategyOutcome(
        strategy=name, bids=dict(zip(ids, bids)),
        won_users=tuple(uid for uid, w in zip(ids, won) if w),
        expected_actions=expected, dsp_revenue=revenue,
        inventory_cost=int(price[won].sum()))


def run_worked_example() -> WorkedExampleReport:
    """Exact two-user market: one auction per user against a fixed bid.

    The value strategy prices each user at cpa * p; the lift strategy at
    lift_scale * delta_p. The advertiser pays cpa per action, so a won
    user contributes cpa * p expected revenue and the winner pays the
    competitor's (second) price.
    """
    users = EXAMPLE_USERS
    cpa = dollars_to_micros(EXAMPLE_CPA_DOLLARS)
    scale = dollars_to_micros(EXAMPLE_LIFT_SCALE_DOLLARS)
    competitor = dollars_to_micros(EXAMPLE_COMPETITOR_DOLLARS)

    def play(bidder: BidderConfig) -> StrategyOutcome:
        bids = price_bids(bidder, users.p, users.delta_p).tolist()
        return _play_strategy(bidder.kind, ("a", "b"), users, bids,
                              competitor, cpa)

    _, value, lift = lineup(cpa, users, beta=float(scale))
    return WorkedExampleReport(value=play(value), lift=play(lift))


# ---------------------------------------------------------------------------
# Dominance verification sweeps
# ---------------------------------------------------------------------------

MAX_ATTEMPTS_PER_INSTANCE = 50  # world draws before an instance gives up
# The Monte-Carlo cross-check is one test of all its checks, with this
# family-wise false-alarm rate: the two-sided rate of a single 3-SE check.
MC_FAMILY_ALPHA = 0.0027


def mc_z(n_checks: int) -> float:
    """Standard errors by which each of ``n_checks`` Monte-Carlo checks
    may miss: Bonferroni's two-sided bound at MC_FAMILY_ALPHA / n_checks."""
    return NormalDist().inv_cdf(1.0 - MC_FAMILY_ALPHA / (2 * n_checks))


# Monte-Carlo trials per cross-checked instance: each trial keeps four
# float64 totals, so the bound holds 32 MB of them.
MAX_MC_TRIALS = 10**6


@dataclass(frozen=True)
class SweepConfig:
    """Random-population sweep for the dominance checks. The value side
    bids ``cpa * p * a``: a = 1 in the simple mode, the plain value
    bidder, and drawn per user in the generalized one."""

    n_instances: int = 100
    n_users: int = 1000
    master_seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    cpa_dollars: float = DEFAULT_CPA_DOLLARS
    mode: str = "both"          # simple | generalized | both
    mc_instances: int = 10      # simple-mode instances to cross-check
    mc_trials: int = 10_000     # >= 2; the SEs use exact moments

    def __post_init__(self) -> None:
        check_integer("n_instances", self.n_instances, 1)
        check_integer("mc_instances", self.mc_instances, 0)
        check_integer("mc_trials", self.mc_trials, 2, MAX_MC_TRIALS)
        check_real("tolerance", self.tolerance, 0, 1)
        if dollars_to_micros(self.cpa_dollars) <= 0:
            raise ValueError("cpa_dollars must be a positive amount")
        if self.mode not in ("simple", "generalized", "both"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")


@dataclass
class MCCheck:
    instance: int
    quantity: str
    exact: float
    estimate: float | None  # None when no trial attributed an action
    stderr: float | None
    within: bool = False  # |exact - estimate| <= mc_z(checks run) * stderr


@dataclass
class VerificationSweepReport:
    """Per-instance dominance outcomes plus calibration bookkeeping.

    Instances whose equal-attribution calibration cannot reach the
    tolerance (a property of the discrete draw, not of the claims) are
    regenerated and counted in ``n_skipped_calibration``. The Monte-Carlo
    checks pass as one family: each within ``mc_z`` standard errors.
    """

    mode: str
    n_instances: int
    records: list[dict] = field(default_factory=list)
    mc_checks: list[MCCheck] = field(default_factory=list)
    mc_z: float | None = None
    n_skipped_calibration: int = 0
    n_skipped_degenerate: int = 0

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
                and all(c.within for c in self.mc_checks))

    def residuals(self) -> list[float]:
        return [r["attribution_residual"] for r in self.records]


def _sweep_world(world: WorldConfig, seed: int) -> Population:
    """A sweep world is its users' (p, delta_p), the only columns the
    accounting reads: the first draws of the population stream of
    ``seed``, which ``generate_population(WorldConfig(n_users, seed=seed))``
    replays. ``world`` is the sweep's default world, built once for both
    modes (a = 1 and drawn a); its own seed is not read."""
    p, delta_p = draw_action_rates(world, rng_for(seed, "population"))
    return Population(p=p, delta_p=delta_p)


def _bernoulli_var(rates: np.ndarray) -> float:
    """The variance of a sum of independent Bernoulli draws at ``rates``."""
    return float((rates * (1 - rates)).sum())


def _ratio_se(attr: np.ndarray, other: np.ndarray, trials: int) -> float:
    """Delta-method standard error of mean(total)/mean(attr) over
    ``trials`` trials, from exact moments: attr sums Bernoulli draws at
    the rates ``attr``, and total adds draws at the rates ``other``, so
    Var(total) = Var(attr) + Var(other) and Cov(total, attr) = Var(attr)."""
    m, m_other = float(attr.sum()), float(other.sum())
    return math.sqrt((_bernoulli_var(other) + (m_other / m) ** 2
                      * _bernoulli_var(attr)) / trials) / m


def _mc_cross_check(
    instance: int,
    population: Population,
    cpa: int,
    beta: float,
    report: TheoremReport,
    trials: int,
    seed: int,
) -> list[MCCheck]:
    """Monte-Carlo estimate of the accounting ratios on the same market.

    Winners are decided by real second-price auctions over the two
    micro-rounded bids, ``lineup``'s value bidder at ``cpa`` (a = 1) and
    lift bidder at ``beta``, all users settled in one call that breaks
    ties from one stream per instance; when both bids are 0 nobody wins.
    Action outcomes are Bernoulli draws at rate p for the winner's side
    and the background rate otherwise.
    """
    p, dp, bg = population.p, population.delta_p, population.background_rate
    _, value, lift = lineup(cpa, population, beta=beta)
    value_bids, lift_bids = price_bids(value, p, dp), price_bids(lift, p, dp)
    value_side, _ = run_auction(value_bids, lift_bids, 0, rng_for(seed, "tie"))
    lift_side = ~value_side & (lift_bids > 0)

    p_j, bg_j = p[value_side], bg[value_side]
    p_k, bg_k = p[lift_side], bg[lift_side]
    cost_value = ordered_sum(beta * dp[value_side])

    rng = rng_for(seed, "mc", instance)
    total_1, attr_1, total_2, attr_2 = np.empty((4, trials))
    chunk = 2000
    for done in range(0, trials, chunk):
        m = min(chunk, trials - done)
        hits_j_exposed = rng.random((m, len(p_j))) < p_j
        hits_k_bg = rng.random((m, len(p_k))) < bg_k
        hits_j_bg = rng.random((m, len(p_j))) < bg_j
        hits_k_exposed = rng.random((m, len(p_k))) < p_k
        attr_1[done:done + m] = hits_j_exposed.sum(axis=1)
        total_1[done:done + m] = attr_1[done:done + m] + hits_k_bg.sum(axis=1)
        attr_2[done:done + m] = hits_k_exposed.sum(axis=1)
        total_2[done:done + m] = attr_2[done:done + m] + hits_j_bg.sum(axis=1)

    # A side with no attributed action in any trial gives nothing to
    # estimate its ratios from: they stay null, and its checks fail. The
    # standard errors read the rates, not the draws.
    estimates = {}
    if attr_1.any():
        estimates["actions_per_attr_value"] = (
            float(total_1.mean() / attr_1.mean()), _ratio_se(p_j, bg_k, trials))
        estimates["cost_per_attr_value"] = (
            float(cost_value / attr_1.mean()), cost_value * math.sqrt(
                _bernoulli_var(p_j) / trials) / float(p_j.sum()) ** 2)
    if attr_2.any():
        estimates["actions_per_attr_lift"] = (
            float(total_2.mean() / attr_2.mean()), _ratio_se(p_k, bg_j, trials))
    return [
        MCCheck(instance, quantity, exact,
                *estimates.get(quantity, (None, None)))
        for quantity, exact in (
            ("actions_per_attr_value", report.actions_per_attr_value),
            ("actions_per_attr_lift", report.actions_per_attr_lift),
            ("cost_per_attr_value", report.cost_per_attr_value),
        )
    ]


def verify_theorems(config: SweepConfig) -> dict[str, VerificationSweepReport]:
    """Run the dominance sweeps; returns reports keyed by mode.

    Both modes run one procedure per attempt: draw a world's (p,
    delta_p) (:func:`_sweep_world`), calibrate beta for equal
    attribution, settle the duel for each user and compute the exact
    accounting, against a value side that bids ``cpa * p * a``. The mode
    chooses only a and the cross-check: the simple mode takes a = 1, the
    industry-standard value bidder, and cross-checks its first
    ``mc_instances`` instances by Monte Carlo; the generalized mode
    draws random attribution probabilities a. The Monte-Carlo checks are
    judged together once the sweep has run them all, each within
    :func:`mc_z` of their count standard errors.
    """
    cpa = dollars_to_micros(config.cpa_dollars)
    world = WorldConfig(n_users=config.n_users)
    ones = np.ones(config.n_users)
    out: dict[str, VerificationSweepReport] = {}

    modes = ["simple", "generalized"] if config.mode == "both" else [config.mode]
    for mode in modes:
        simple = mode == "simple"
        report = VerificationSweepReport(mode=mode,
                                         n_instances=config.n_instances)
        for i in range(config.n_instances):
            for attempt in range(MAX_ATTEMPTS_PER_INSTANCE):
                seed = derive_seed(config.master_seed, "sweep", mode, i, attempt)
                population = _sweep_world(world, seed)
                a_values = ones if simple else np.maximum(
                    rng_for(config.master_seed, "attr-probs", i, attempt)
                    .uniform(0.0, 1.0, config.n_users), 1e-9)
                cal = calibrate_equal_attribution_weighted(
                    population, a_values, cpa, config.tolerance)
                if not cal.converged:
                    report.n_skipped_calibration += 1
                    continue
                side = generalized_partition(population, a_values, cpa, cal.beta)
                if not (side == 1).any() or not (side == -1).any():
                    report.n_skipped_degenerate += 1
                    continue
                quantities = generalized_theorem_quantities(
                    population, side, a_values, cpa, cal.beta, cal.residual)
                report.records.append({**vars(quantities), "instance": i,
                                       "beta": cal.beta, "seed": seed})
                if simple and i < config.mc_instances:
                    report.mc_checks.extend(_mc_cross_check(
                        i, population, cpa, cal.beta, quantities,
                        config.mc_trials,
                        derive_seed(config.master_seed, "mc", i)))
                break
            else:
                break  # leaves len(records) < n_instances; all_passed False
        if report.mc_checks:
            report.mc_z = mc_z(len(report.mc_checks))
            for check in report.mc_checks:
                check.within = (check.estimate is not None
                                and abs(check.exact - check.estimate)
                                <= report.mc_z * check.stderr)
        out[mode] = report
    return out


# ---------------------------------------------------------------------------
# Blind A/B protocol
# ---------------------------------------------------------------------------

def relative_change(x: float | None, ref: float | None) -> float | None:
    """``(x - ref) / ref``: an active group's action lift over the
    passive group's actions, the lift bidder's lift over the value
    bidder's, or a cost difference. None when either side is None or
    ``ref <= 0``, where no change relative to ``ref`` is defined."""
    if x is None or ref is None or ref <= 0:
        return None
    return (x - ref) / ref


@dataclass(frozen=True)
class ABTestConfig:
    """The three-group A/B protocol over seeded replications.

    Each replication's world has ``n_users`` users over ``horizon_days``
    days and a seed derived from ``master_seed``, with behavior events
    off; ``world_overrides`` sets any other :class:`WorldConfig` field,
    and may not restate these three. The world's one advertiser is the
    campaign's, ``advertiser``, which pays ``cpa_dollars`` per attributed
    action within ``action_window_days``; each active bidder gets
    ``budget_per_bidder_dollars``, and the lift bidder is priced at
    ``beta_dollars``, or from the population means when it is None.
    """

    n_users: int = 10_000
    replications: int = 20
    master_seed: int = 0
    cpa_dollars: float = DEFAULT_CPA_DOLLARS
    budget_per_bidder_dollars: float = 35_000.0
    action_window_days: int = DEFAULT_ACTION_WINDOW_DAYS
    horizon_days: int = DEFAULT_HORIZON_DAYS
    advertiser: str = DEFAULT_ADVERTISER
    beta_dollars: float | None = None  # None: population-mean pricing
    world_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_integer("replications", self.replications, 1)
        restated = sorted({"seed", "n_users", "horizon_days"}.intersection(
            self.world_overrides))
        if restated:
            raise ValueError(f"world_overrides may not set {', '.join(restated)}: "
                             "abtest sets the world's seed, n_users and horizon_days")
        self.world(0)  # the overrides make a valid world,
        self.campaign()  # the money and window a valid campaign
        if (self.beta_dollars is not None
                and dollars_to_micros(self.beta_dollars) <= 0):
            raise ValueError("beta_dollars must be positive")

    def world(self, rep: int) -> WorldConfig:
        """Replication ``rep``'s world: behavior off unless
        ``world_overrides`` say otherwise."""
        return WorldConfig(**{
            "n_users": self.n_users, "horizon_days": self.horizon_days,
            "seed": derive_seed(self.master_seed, "abtest", rep),
            "behavior": {"enabled": False}, **self.world_overrides})

    def campaign(self) -> Campaign:
        """The campaign both active bidders share: a CPA and two budgets."""
        return Campaign(
            self.advertiser, cpa=dollars_to_micros(self.cpa_dollars),
            budget=2 * dollars_to_micros(self.budget_per_bidder_dollars),
            action_window_days=self.action_window_days)


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
    replications: list[ReplicationResult] = field(default_factory=list)

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


def run_abtest(config: ABTestConfig, estimator_factory=None) -> ABTestReport:
    """Run the three-group protocol over seeded replications.

    Users are split into equal random groups served by a passive, a
    value, and a lift bidder; the two active bidders get equal budgets
    and bid until spend-out. Bids come from the ground-truth oracle or,
    when given, from the :class:`liftsim.world.BidEstimator` returned by
    ``estimator_factory(population, advertiser, behavior)``, where
    ``behavior`` is the world's :func:`liftsim.world.behavior_events`
    block; the market then gives the estimator only its own impressions
    and clicks, one event block per settled action window. Without one,
    a world is its :func:`liftsim.world.market_population`.
    """
    campaign = config.campaign()
    beta = (None if config.beta_dollars is None
            else float(dollars_to_micros(config.beta_dollars)))
    report = ABTestReport()

    for rep in range(config.replications):
        world = config.world(rep)
        population = (market_population(world) if estimator_factory is None
                      else generate_population(world))
        bidders = lineup(campaign.cpa, population, beta=beta)
        estimator = None
        if estimator_factory is not None:
            estimator = estimator_factory(population, config.advertiser,
                                          behavior_events(population, world))
        run = run_market(population, bidders, campaign, world,
                         assignment=assign_groups(world, len(bidders)),
                         estimator=estimator, record_events=False)
        groups: dict[str, GroupStats] = {g.kind: g for g in run.groups}
        passive, value, lift = groups["passive"], groups["value"], groups["lift"]

        lift_v = relative_change(value.actions, passive.actions)
        lift_l = relative_change(lift.actions, passive.actions)
        # A group that paid nothing has no cost per impression.
        cpi_v, cpi_l = (g.inventory_cost / g.impressions
                        if g.inventory_cost else None for g in (value, lift))
        report.replications.append(ReplicationResult(
            replication=rep,
            seed=world.seed,
            groups={k: g.as_dict() for k, g in groups.items()},
            action_lift_value=lift_v,
            action_lift_lift=lift_l,
            lift_over_lift=relative_change(lift_l, lift_v),
            inventory_cost_diff=relative_change(lift.inventory_cost,
                                                value.inventory_cost),
            cost_per_imp_diff=relative_change(cpi_l, cpi_v),
            all_spent_out=value.spent_out and lift.spent_out,
        ))
    return report
