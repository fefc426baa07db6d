"""Exact head-to-head market accounting.

Given a population with known (p, delta_p) and two competing strategies,
a value-style bidder against a lift bidder, this module computes in
closed form:

* the partition of users each side wins in a second-price duel, and
* for each side, the expected total actions per attributed action and
  the cost per attributed action.

The value side bids ``cpa * p * a`` for a per-user attribution
probability ``a``; the plain value bidder ``alpha * p`` is the case
``a = 1``, ``cpa = alpha``. The dominance checks derived from these
quantities are the core claims verified by the experiment harness: with
(near-)equal attributed actions, the lift side yields more total actions
per attributed action while costing more per attributed action.
"""
from __future__ import annotations

from dataclasses import dataclass

from .market import GroundTruthUser


class AccountingError(ValueError):
    """Raised when a requested quantity is undefined (zero denominator)."""


@dataclass(frozen=True)
class Partition:
    """User ids split by which side wins their auction.

    ``tied`` holds users whose two bids are exactly equal; they are
    excluded from both sides because assigning them to either would bias
    the accounting.
    """

    value_won: tuple[str, ...]
    lift_won: tuple[str, ...]
    tied: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        sides = (set(self.value_won), set(self.lift_won), set(self.tied))
        if sides[0] & sides[1] or sides[0] & sides[2] or sides[1] & sides[2]:
            raise ValueError("partition sides must be disjoint")


@dataclass(frozen=True)
class TheoremReport:
    """Exact accounting quantities for one population and partition.

    ``actions_per_attr_*`` is the expected number of total user actions
    (exposed plus background) per action attributed to that side;
    ``cost_per_attr_*`` is the side's inventory cost per attributed
    action, in micros.
    """

    actions_per_attr_value: float
    actions_per_attr_lift: float
    cost_per_attr_value: float
    cost_per_attr_lift: float
    attribution_residual: float
    actions_dominance: bool  # lift side yields more actions per attributed
    cost_dominance: bool     # lift side costs more per attributed
    n_tied: int = 0

    def as_dict(self) -> dict[str, object]:
        return {
            "actions_per_attr_value": self.actions_per_attr_value,
            "actions_per_attr_lift": self.actions_per_attr_lift,
            "cost_per_attr_value": self.cost_per_attr_value,
            "cost_per_attr_lift": self.cost_per_attr_lift,
            "attribution_residual": self.attribution_residual,
            "actions_dominance": self.actions_dominance,
            "cost_dominance": self.cost_dominance,
            "n_tied": self.n_tied,
        }


# Two offers computed through a handful of float multiplications are
# considered equal (a tie) when they agree to this relative precision.
# Configurations engineered to bid identically, like a = (beta/cpa) *
# delta_p / p, land many orders of magnitude inside it, while distinct
# offers from continuous draws essentially never do.
TIE_REL_TOL = 1e-9


def partition_users(
    population: list[GroundTruthUser], alpha: float, beta: float
) -> Partition:
    """Split users by who wins the value-vs-lift duel for each one.

    The value side wins user i iff ``alpha * p_i > beta * delta_p_i``,
    the lift side iff the inequality is reversed; offers equal to within
    ``TIE_REL_TOL`` are ties.
    """
    return generalized_partition(
        population, [1.0] * len(population), alpha, beta)


def generalized_partition(
    population: list[GroundTruthUser],
    a_values: list[float],
    cpa: int,
    beta: float,
) -> Partition:
    """Partition when the value side is a rational bidder (cpa * p * a)."""
    if cpa <= 0 or beta <= 0:
        raise ValueError("cpa and beta must be positive")
    if len(a_values) != len(population):
        raise ValueError("a_values must match the population length")
    value_won: list[str] = []
    lift_won: list[str] = []
    tied: list[str] = []
    for user, a in zip(population, a_values):
        value_offer = cpa * user.p * a
        lift_offer = beta * user.delta_p
        scale = max(abs(value_offer), abs(lift_offer))
        if abs(value_offer - lift_offer) <= TIE_REL_TOL * scale:
            tied.append(user.user_id)
        elif value_offer > lift_offer:
            value_won.append(user.user_id)
        else:
            lift_won.append(user.user_id)
    return Partition(tuple(value_won), tuple(lift_won), tuple(tied))


def theorem_quantities(
    population: list[GroundTruthUser],
    partition: Partition,
    alpha: float,
    beta: float,
    attribution_residual: float = 0.0,
) -> TheoremReport:
    """All four accounting quantities for the value-vs-lift duel.

    The lift side's cost per attributed action is ``alpha`` exactly: it
    pays ``alpha * p_k`` on wins attributed at rate ``p_k``.
    """
    return generalized_theorem_quantities(
        population, partition, [1.0] * len(population), alpha, beta,
        attribution_residual)


def generalized_theorem_quantities(
    population: list[GroundTruthUser],
    partition: Partition,
    a_values: list[float],
    cpa: int,
    beta: float,
    attribution_residual: float = 0.0,
) -> TheoremReport:
    """Accounting quantities when the value side is a rational bidder.

    If only one side bids, its winners act at rate p and everyone else at
    the background rate p - delta_p. Attributed actions accrue at rate
    ``p * a`` per winner, on both sides. Each side pays the other's bid
    on the users it wins, so the lift side's cost per attributed action
    is ``cpa`` exactly and only the value side's is summed.
    """
    if len(a_values) != len(population):
        raise ValueError("a_values must match the population length")
    index = {user.user_id: i for i, user in enumerate(population)}
    value = [index[uid] for uid in partition.value_won]
    lift = [index[uid] for uid in partition.lift_won]

    def attributed(side: list[int]) -> float:
        return sum(population[i].p * a_values[i] for i in side)

    def exposed(side: list[int]) -> float:
        return sum(population[i].p for i in side)

    def background(side: list[int]) -> float:
        return sum(population[i].background_rate for i in side)

    attr_value = attributed(value)
    attr_lift = attributed(lift)
    if attr_value <= 0:
        raise AccountingError("no attributed actions on the value side")
    if attr_lift <= 0:
        raise AccountingError("no attributed actions on the lift side")

    a1 = (exposed(value) + background(lift)) / attr_value
    a2 = (background(value) + exposed(lift)) / attr_lift
    c1 = sum(beta * population[i].delta_p for i in value) / attr_value
    c2 = float(cpa)
    return TheoremReport(
        actions_per_attr_value=a1,
        actions_per_attr_lift=a2,
        cost_per_attr_value=c1,
        cost_per_attr_lift=c2,
        attribution_residual=attribution_residual,
        actions_dominance=a1 < a2,
        cost_dominance=c1 < c2,
        n_tied=len(partition.tied),
    )
