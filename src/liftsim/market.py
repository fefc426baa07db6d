"""Core market domain types and the second-price auction.

Conventions used across the package:

* Money is an ``int`` measured in micro-currency (1 dollar = 1_000_000
  micros). Auction comparisons are exact integer comparisons; the only
  rounding happens once, when a real-valued bid is converted to micros
  with round-half-even.
* Probabilities are plain ``float`` values validated to lie in [0, 1].

All types are immutable values and all operations are pure functions of
their inputs plus an explicit seed, so they are safe under concurrency.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MICROS_PER_DOLLAR = 1_000_000

VALUE_BIDDER = "value"
LIFT_BIDDER = "lift"


def dollars_to_micros(dollars: float) -> int:
    """Convert a dollar amount to integer micros (round-half-even)."""
    return round(dollars * MICROS_PER_DOLLAR)


def micros_to_dollars(micros: int) -> float:
    return micros / MICROS_PER_DOLLAR


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` is a probability; returns it unchanged."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class Campaign:
    """A CPA-priced campaign: the advertiser pays ``cpa`` per attributed action."""

    advertiser_id: str
    cpa: int  # micros, > 0
    budget: int  # micros, >= 0
    action_window_days: int = 2

    def __post_init__(self) -> None:
        if self.cpa <= 0:
            raise ValueError("cpa must be positive")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if self.action_window_days <= 0:
            raise ValueError("action_window_days must be positive")


@dataclass(frozen=True)
class BehaviorProfile:
    """Per-user propensities that drive timeline event generation.

    ``topic_weights`` scale daily page-view/search intensity per topic;
    ``app_weights`` do the same for app install/use events. Demographics
    are static features.
    """

    topic_weights: tuple[float, ...] = ()
    app_weights: tuple[float, ...] = ()
    age_group: int = 0
    gender: int = 0
    geo_area: int = 0
    click_rate: float = 0.1


@dataclass(frozen=True)
class GroundTruthUser:
    """A simulated user with known action rate and action-rate lift.

    ``p`` is the probability of the action when the user saw the ad within
    the action window; ``p - delta_p`` is the background rate without it.
    """

    user_id: str
    p: float
    delta_p: float
    request_rate: float = 1.0  # expected ad requests per day
    behavior_profile: BehaviorProfile = field(default_factory=BehaviorProfile)

    def __post_init__(self) -> None:
        check_probability(self.p, "p")
        check_probability(self.p - self.delta_p, "background rate p - delta_p")
        if self.request_rate < 0:
            raise ValueError("request_rate must be non-negative")

    @property
    def background_rate(self) -> float:
        return self.p - self.delta_p


@dataclass(frozen=True)
class BidRequest:
    """One ad request from a user with its run-time context."""

    request_id: str
    user_id: str
    timestamp: int  # epoch seconds
    topic_id: int | None = None
    geo_area: int | None = None


@dataclass(frozen=True)
class AuctionResult:
    """Outcome of one second-price auction.

    ``winner`` is None when no bid exceeds the reserve. ``clearing_price``
    is the highest losing bid or the reserve, whichever is greater.
    """

    winner: str | None
    clearing_price: int
    losing_bids: tuple[tuple[str, int], ...] = ()


def run_auction(
    bids: list[tuple[str, int]],
    reserve: int = 0,
    rng_seed: int = 0,
) -> AuctionResult:
    """Run a single second-price auction over ``(bidder_id, micros)`` bids.

    The strictly highest bidder above the reserve wins and pays
    ``max(second-highest bid, reserve)``. Ties among top bids are broken
    uniformly at random from ``rng_seed``. With no bid above the reserve
    (including an empty bid list) the result has no winner and price 0.
    """
    for bidder, amount in bids:
        if amount < 0:
            raise ValueError(f"negative bid from {bidder}: {amount}")
    if reserve < 0:
        raise ValueError("reserve must be non-negative")

    live = [(bidder, amount) for bidder, amount in bids if amount > reserve]
    if not live:
        return AuctionResult(winner=None, clearing_price=0,
                             losing_bids=tuple(bids))

    top = max(amount for _, amount in live)
    leaders = [bidder for bidder, amount in live if amount == top]
    if len(leaders) == 1:
        winner = leaders[0]
    else:
        rng = np.random.Generator(np.random.PCG64(rng_seed))
        winner = leaders[int(rng.integers(len(leaders)))]

    # Drop exactly one instance of the winning bid; a tied loser keeps its
    # bid at `top`, making the clearing price equal to the winning bid.
    rest: list[int] = []
    removed = False
    for bidder, amount in bids:
        if not removed and bidder == winner and amount == top:
            removed = True
            continue
        rest.append(amount)
    second = max(rest) if rest else 0
    clearing = max(second, reserve)
    losing = tuple((bidder, amount) for bidder, amount in bids if bidder != winner)
    return AuctionResult(winner=winner, clearing_price=clearing, losing_bids=losing)
