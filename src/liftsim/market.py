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
* Every second-price auction in the package, from the worked example
  to the market simulator, is settled by :func:`run_auction`: one call
  settles an array of our-bid-against-one-competitor auctions.

All types are immutable values (population columns are read-only
arrays) and all operations are pure functions of their inputs plus an
explicit seed or generator, so they are safe under concurrency.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

MICROS_PER_DOLLAR = 1_000_000
INT64_MAX = 2**63 - 1


def dollars_to_micros(dollars: float) -> int:
    """Convert a dollar amount to integer micros (round-half-even).

    Raises TypeError for a non-number and ValueError when the amount is
    not finite or its micros do not fit in int64.
    """
    if not isinstance(dollars, numbers.Real):
        raise TypeError(f"{dollars!r} is not a dollar amount")
    micros = dollars * MICROS_PER_DOLLAR
    if not abs(micros) <= INT64_MAX:  # also NaN
        raise ValueError(
            f"{dollars} dollars is not a finite amount within int64 micros")
    return round(micros)


def check_integer(name: str, value, least: int, most: int = INT64_MAX,
                  error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is a Python or numpy integer, not a
    bool, in [least, most]."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or not least <= value <= most):
        raise error(
            f"{name} must be an integer in [{least}, {most}], got {value!r}")


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


# The default campaign of every config section that describes one: adv1
# pays $100 per action attributed within two days of an impression.
DEFAULT_ADVERTISER = "adv1"
DEFAULT_CPA_DOLLARS = 100.0
DEFAULT_ACTION_WINDOW_DAYS = 2


@dataclass(frozen=True)
class Campaign:
    """A CPA-priced campaign: the advertiser pays ``cpa`` per attributed action."""

    advertiser_id: str
    cpa: int  # micros, > 0
    budget: int  # micros, >= 0
    action_window_days: int = DEFAULT_ACTION_WINDOW_DAYS

    def __post_init__(self) -> None:
        if not isinstance(self.advertiser_id, str) or not self.advertiser_id:
            raise ValueError(f"advertiser_id must be a non-empty string, "
                             f"got {self.advertiser_id!r}")
        if self.cpa <= 0:
            raise ValueError("cpa must be positive")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        check_integer("action_window_days", self.action_window_days, 1)
        if self.cpa + self.budget > INT64_MAX:
            raise ValueError("cpa + budget must fit in int64 micros")


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


def may_win(our: np.ndarray, comp: np.ndarray, reserve: int) -> np.ndarray:
    """Where our bid can win: at or above the competitor's and above the
    reserve. Elsewhere we lose outright, and no tie flip is drawn."""
    return (our >= comp) & (our > reserve)


def run_auction(
    our: np.ndarray, comp: np.ndarray, reserve: int,
    tie_rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Settle many two-bid second-price auctions: ours against a competitor's.

    ``our`` and ``comp`` are int64 micros, one pair per auction. Returns
    ``(won, price)``: whether our bid won, and the price the winner pays.
    When both bids are at or below the reserve nobody wins and the price
    is 0. Otherwise the higher bid wins at ``max(lower bid, reserve)``;
    a tie prices at the bid, and we win it on a coin flip. The flips are
    one ``tie_rng.integers(2, size=ties)`` call, in auction order, which
    leaves the stream where one scalar flip per tie would. A negative
    bid or reserve raises ``ValueError``.
    """
    our = np.asarray(our, dtype=np.int64)
    comp = np.asarray(comp, dtype=np.int64)
    lower = np.minimum(our, comp)
    if reserve < 0 or (lower < 0).any():
        raise ValueError("bids and the reserve must be non-negative")
    live = (our > reserve) | (comp > reserve)
    contested = may_win(our, comp, reserve)
    won = contested & (our > comp)
    tie = contested & (our == comp)
    won[tie] = tie_rng.integers(2, size=int(np.count_nonzero(tie))) == 1
    price = np.where(live, np.maximum(lower, reserve), 0)
    return won, price
