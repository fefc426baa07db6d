"""Exact head-to-head market accounting.

Given a population with known (p, delta_p) and two competing strategies,
a value-style bidder against a lift bidder, this module computes in
closed form:

* which side wins each user in a second-price duel, as one int8 *side
  array*: 1 where the value side wins, -1 where the lift side wins and
  0 where the two offers tie, and
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

import numpy as np

from .market import Population, ordered_sum


class AccountingError(ValueError):
    """Raised when a requested quantity is undefined (zero denominator)."""


@dataclass(frozen=True)
class TheoremReport:
    """Exact accounting quantities for one population and duel.

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


# Two offers computed through a handful of float multiplications are
# considered equal (a tie) when they agree to this relative precision.
# Configurations engineered to bid identically, like a = (beta/cpa) *
# delta_p / p, land many orders of magnitude inside it, while distinct
# offers from continuous draws essentially never do.
TIE_REL_TOL = 1e-9


def _attribution(population: Population, a_values) -> np.ndarray:
    a = np.asarray(a_values, dtype=float)
    if a.shape != (len(population),):
        raise ValueError("a_values must match the population length")
    return a


def partition_users(population: Population, alpha: float, beta: float) -> np.ndarray:
    """The side array of the value-vs-lift duel: who wins each user.

    The value side wins user i (1) iff ``alpha * p_i > beta * delta_p_i``,
    the lift side (-1) iff the inequality is reversed; offers equal to
    within ``TIE_REL_TOL`` are ties (0). The a = 1 entry point, with
    ``alpha`` as the CPA; the package no longer calls it.
    """
    return generalized_partition(population, np.ones(len(population)), alpha, beta)


def generalized_partition(
    population: Population, a_values, cpa: int, beta: float
) -> np.ndarray:
    """The side array when the value side is a value bidder at cpa * p * a."""
    if cpa <= 0 or beta <= 0:
        raise ValueError("cpa and beta must be positive")
    a = _attribution(population, a_values)
    value_offer = cpa * population.p * a
    lift_offer = beta * population.delta_p
    scale = np.maximum(np.abs(value_offer), np.abs(lift_offer))
    side = np.where(value_offer > lift_offer, 1, -1).astype(np.int8)
    side[np.abs(value_offer - lift_offer) <= TIE_REL_TOL * scale] = 0
    return side


def theorem_quantities(
    population: Population,
    side: np.ndarray,
    alpha: float,
    beta: float,
    attribution_residual: float = 0.0,
) -> TheoremReport:
    """All four accounting quantities for the value-vs-lift duel.

    The lift side's cost per attributed action is ``alpha`` exactly: it
    pays ``alpha * p_k`` on wins attributed at rate ``p_k``. The a = 1
    entry point; the package no longer calls it.
    """
    return generalized_theorem_quantities(
        population, side, np.ones(len(population)), alpha, beta,
        attribution_residual)


def generalized_theorem_quantities(
    population: Population,
    side: np.ndarray,
    a_values,
    cpa: int,
    beta: float,
    attribution_residual: float = 0.0,
) -> TheoremReport:
    """Accounting quantities when the value side is a value bidder at
    cpa * p * a.

    If only one side bids, its winners act at rate p and everyone else at
    the background rate p - delta_p. Attributed actions accrue at rate
    ``p * a`` per winner, on both sides. Each side pays the other's bid
    on the users it wins, so the lift side's cost per attributed action
    is ``cpa`` exactly and only the value side's is summed.

    Side sums are :func:`~liftsim.market.ordered_sum` folds in row
    order, so the result depends neither on numpy's summation order nor
    on the Python version.
    """
    a = _attribution(population, a_values)
    value, lift = side == 1, side == -1
    p, bg, attr = population.p, population.background_rate, population.p * a

    def total(column: np.ndarray, won: np.ndarray) -> float:
        return ordered_sum(column[won])

    attr_value = total(attr, value)
    attr_lift = total(attr, lift)
    if attr_value <= 0:
        raise AccountingError("no attributed actions on the value side")
    if attr_lift <= 0:
        raise AccountingError("no attributed actions on the lift side")

    a1 = (total(p, value) + total(bg, lift)) / attr_value
    a2 = (total(bg, value) + total(p, lift)) / attr_lift
    c1 = total(beta * population.delta_p, value) / attr_value
    c2 = float(cpa)
    return TheoremReport(
        actions_per_attr_value=a1,
        actions_per_attr_lift=a2,
        cost_per_attr_value=c1,
        cost_per_attr_lift=c2,
        attribution_residual=attribution_residual,
        actions_dominance=a1 < a2,
        cost_dominance=c1 < c2,
        n_tied=int(np.count_nonzero(side == 0)),
    )
