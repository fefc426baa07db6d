"""Core market types: the user population, campaigns and the auction.

Conventions used across the package:

* Money is an ``int`` measured in micro-currency (1 dollar = 1_000_000
  micros). Auction comparisons are exact integer comparisons; the only
  rounding happens once, when a real-valued bid is converted to micros
  with round-half-even.
* Probabilities are ``float`` values validated to lie in [0, 1].
* Users are the rows of one :class:`Population`, which holds an array
  per attribute (action rate, lift, request rate, behavioral weights,
  demographics). Accounting, bid pricing and the simulator read whole
  columns.

All types are immutable values (population columns are read-only
arrays) and all operations are pure functions of their inputs plus an
explicit seed, so they are safe under concurrency.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

MICROS_PER_DOLLAR = 1_000_000

VALUE_BIDDER = "value"
LIFT_BIDDER = "lift"


def dollars_to_micros(dollars: float) -> int:
    """Convert a dollar amount to integer micros (round-half-even)."""
    return round(dollars * MICROS_PER_DOLLAR)


def micros_to_dollars(micros: int) -> float:
    return micros / MICROS_PER_DOLLAR


def check_probability(value, name: str = "probability"):
    """Validate that ``value`` (a number or an array) holds probabilities;
    returns it unchanged."""
    values = np.asarray(value)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        raise ValueError(f"{name} must lie in [0, 1], got {values[bad].flat[0]}")
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


_DEMOGRAPHICS = ("age_group", "gender", "geo_area")


@dataclass(frozen=True, eq=False)
class Population:
    """Simulated users with known action rates, one array per column.

    Row ``i`` is one user. ``p`` is the probability of the action when
    the user saw the ad within the action window and ``p - delta_p``
    (``background_rate``) the probability without it. ``request_rate``
    is the expected number of ad requests per day. ``topic_weights``
    (users x topics) and ``app_weights`` (users x apps) scale daily
    page-view/search and app-use intensity; ``age_group``, ``gender``
    and ``geo_area`` are static demographic features. A column left out
    defaults to rate 1, no weights and demographics 0.

    Columns are read-only; ``user_ids`` are derived from the row index.
    """

    p: np.ndarray
    delta_p: np.ndarray
    request_rate: np.ndarray | None = None
    topic_weights: np.ndarray | None = None
    app_weights: np.ndarray | None = None
    age_group: np.ndarray | None = None
    gender: np.ndarray | None = None
    geo_area: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.p)
        defaults = {"request_rate": np.ones(n), "topic_weights": np.zeros((n, 0)),
                    "app_weights": np.zeros((n, 0))}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                value = defaults.get(f.name, np.zeros(n))
            dtype = np.int64 if f.name in _DEMOGRAPHICS else float
            column = np.asarray(value, dtype=dtype).view()
            if len(column) != n:
                raise ValueError(f"column {f.name} has {len(column)} rows, "
                                 f"expected {n}")
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)
        check_probability(self.p, "p")
        check_probability(self.background_rate, "background rate p - delta_p")
        if (self.request_rate < 0).any():
            raise ValueError("request_rate must be non-negative")

    def __len__(self) -> int:
        return len(self.p)

    @property
    def background_rate(self) -> np.ndarray:
        return self.p - self.delta_p

    @cached_property
    def user_ids(self) -> tuple[str, ...]:
        width = max(6, len(str(len(self) - 1)))
        return tuple(f"u{i:0{width}d}" for i in range(len(self)))

    @cached_property
    def row_of(self) -> dict[str, int]:
        return {uid: i for i, uid in enumerate(self.user_ids)}

    @cached_property
    def demographics(self) -> np.ndarray:
        """(users x 3) age group, gender and geo area."""
        return np.column_stack((self.age_group, self.gender, self.geo_area))


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
