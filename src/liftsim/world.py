"""Synthetic user worlds and the seeded market simulator.

A world is a :class:`~liftsim.market.Population`: arrays of known ground
truth (action rate ``p``, lift ``delta_p``), request rates, and
behavioral propensities that correlate with the ground truth so a
learned model has signal to recover. The simulator runs second-price
auctions for every ad request against an exogenous competitor bid,
realizes actions from the ground truth, and can record a columnar event
log built from whole arrays.

The ground truth (p, delta_p) is rank-coupled (Iman & Conover, Commun.
Stat. 1982): p's scaled Beta marginal and the lift ratio delta_p / p's
scaled uniform marginal are drawn by numpy and handed out in the rank
order of two correlated standard normals. Each marginal is exact, and
the pair's rank correlation is that of the Gaussian copula of those
normals.

Budgets and attribution change only at the ends of action windows. A
window's bids come from the ground truth priced by each group's bidder
(oracle bids), or from a :class:`BidEstimator`, which prices from what a
bidder can know: the behavior data it was built with, and the
impressions and clicks of its own won auctions, each told before the
same user's next bid. Either way the window settles in runs of
requests, each in one :func:`~liftsim.market.run_auction` call, the
package's one second-price settlement. A run ends at the first auction
our bid may win (:func:`~liftsim.market.may_win`) when a win can
re-price a later request, that is with an estimator; with oracle bids
nothing re-prices, so the window is one run. Given the ground truth, an
estimator's runs give the oracle's results.

Randomness is split into independent streams (requests, market,
behavior, clicks, actions, ties) derived from the world seed, so the
action draws for a user do not depend on how the bidding went; exposure
changes outcomes only through (p, delta_p). The tie and click streams
are drawn in request order, one value per tie and per won auction,
however a window splits into runs. The same configuration and seed
reproduce the identical event log byte for byte.

Request counts, times of day and topics are drawn up front, the last
two in one ``integers`` call each over the horizon: numpy buffers 32-bit
draws within a call, so draws in pieces would differ. The rest of a
request is built when its window settles: the window's requests are one
slice of the draw order, put in time order there, and the market stream
draws that window's competitor normals, which pieces give as one draw
would. A window in which no bidder is left draws no competitor bids,
and without an event log its requests are never built: in an A/B test
whose bidders spend out early, most of the horizon only draws actions.
"""
from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field, asdict
from typing import Protocol

import numpy as np

from .bidders import PASSIVE, BidderConfig, price_bids
from .events import (
    ACTION, AD_REQUEST, APP_INSTALL, APP_USE, BID, AUCTION, CLICK,
    EVENT_KINDS, FIELDS, IMPRESSION, KIND_CODE, PAGE_VIEW, SEARCH, EventLog,
)
from .fileio import json_digest
from .market import (
    INT64_MAX, MICROS_PER_DOLLAR, Campaign, Population, check_integer,
    may_win, run_auction,
)
from .seeds import rng_for

SECONDS_PER_DAY = 86_400
CLICK_DELAY_SECS = 30  # a click's time after its impression's
MARKET = "market"
DEFAULT_HORIZON_DAYS = 28


class WorldConfigError(ValueError):
    """Raised when a world configuration cannot produce a valid population."""


class MarketInvariantError(RuntimeError):
    """Raised when a simulated market breaks an accounting invariant."""


def _default_p_distribution() -> dict:
    return {"kind": "scaled_beta", "a": 2.0, "b": 5.0, "low": 0.001, "high": 0.1}


def _default_delta_p_distribution() -> dict:
    return {"kind": "uniform_ratio", "low": 0.05, "high": 0.95}


def _default_request_rate() -> dict:
    return {"kind": "lognormal", "median": 2.0, "sigma": 0.5,
            "low": 0.2, "high": 8.0}


# Each distribution's kinds and their parameters: finite numbers >= 0,
# "values" a list of one per user. Only "pool" may be left out.
_KIND_PARAMS = {
    "p_distribution": {"scaled_beta": ("a", "b", "low", "high"),
                       "fixed": ("values",), "point": ("value",)},
    "delta_p_distribution": {"uniform_ratio": ("low", "high"), "fixed": ("values",),
                             "point_ratio": ("value",), "zero": ()},
    "request_rate": {"lognormal": ("median", "sigma", "low", "high"),
                     "fixed": ("value",)},
    "competitor_bids": {"fixed": ("dollars",), "lognormal": ("median_dollars", "sigma"),
                        "value_tracking": ("scale_dollars", "sigma", "pool")},
}


def _is_amount(value, high: float = math.inf) -> bool:
    """True for an int or float in [0, high], finite; False for a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 <= value <= high and value < math.inf)


def _default_competitor_bids() -> dict:
    # A partially pooled market: other bidders track user value with
    # tight multiplicative noise, shrunk halfway toward the population
    # mean. Tight noise makes paid prices reflect inventory composition
    # rather than luck in the price draw.
    return {"kind": "value_tracking", "scale_dollars": 100.0,
            "pool": 0.5, "sigma": 0.15}


def _default_behavior() -> dict:
    return {"enabled": True, "pv_rate": 2.0, "search_rate": 0.8,
            "app_rate": 0.12, "click_rate": 0.1, "correlation": 0.85}


MAX_DOLLARS = INT64_MAX // MICROS_PER_DOLLAR  # whole dollars within int64 micros
# A lognormal's sigma: exp(sigma z) stays finite for any |z| < 70.
MAX_SIGMA = 10.0
# Behavior rates are Poisson means per user and day, times weights of at
# most 1 (as the correlation is), far below numpy's limit of about 2**63.
MAX_DAILY_RATE = 1e6
_BEHAVIOR_HIGH = {"pv_rate": MAX_DAILY_RATE, "search_rate": MAX_DAILY_RATE,
                  "app_rate": MAX_DAILY_RATE, "correlation": 1.0}


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of a synthetic user world.

    ``p_lift_dependence`` is the correlation rho of the two normals
    whose ranks order a user's action rate and its relative lift
    ``delta_p / p`` (see :func:`_draw_p_and_ratio`), so over many users
    their Spearman correlation is (6/pi) asin(rho/2). The default is
    negative (users with high absolute rates tend to be the least
    persuadable), which is also what makes value and lift bidding
    disagree in interesting ways.
    """

    n_users: int
    seed: int = 0
    horizon_days: int = DEFAULT_HORIZON_DAYS
    topics: int = 6
    apps: int = 3
    p_distribution: dict = field(default_factory=_default_p_distribution)
    delta_p_distribution: dict = field(default_factory=_default_delta_p_distribution)
    p_lift_dependence: float = -0.5
    request_rate: dict = field(default_factory=_default_request_rate)
    request_arrivals: str = "poisson"  # or "deterministic"
    competitor_bids: dict = field(default_factory=_default_competitor_bids)
    behavior: dict = field(default_factory=_default_behavior)
    reserve_micros: int = 0

    def __post_init__(self) -> None:
        for name, least in (("n_users", 1), ("horizon_days", 1), ("topics", 2),
                            ("apps", 1), ("reserve_micros", 0)):
            check_integer(name, getattr(self, name), least,
                          error=WorldConfigError)
        for section, kinds in _KIND_PARAMS.items():
            spec = getattr(self, section)
            kind = spec.get("kind") if isinstance(spec, dict) else None
            if kind not in kinds:
                raise WorldConfigError(f"unknown {section} kind {kind!r}")
            for name in kinds[kind]:
                value = spec.get(name)
                high = (MAX_DOLLARS if name.endswith("dollars")
                        else MAX_SIGMA if name == "sigma" else math.inf)
                if name == "values":
                    ok = (isinstance(value, (list, tuple))
                          and len(value) == self.n_users
                          and all(map(_is_amount, value)))
                else:
                    ok = (_is_amount(value, high)
                          or (name == "pool" and name not in spec))
                if not ok:
                    what = ("a list of n_users finite numbers >= 0" if name == "values"
                            else f"a finite number in [0, {high:g}]")
                    raise WorldConfigError(
                        f"{section} {name} must be {what}, got {value!r}")
        if self.p_distribution["kind"] == "scaled_beta":
            for name in ("a", "b"):
                value = self.p_distribution[name]
                if not value > 0:
                    raise WorldConfigError(
                        f"p_distribution {name} must be > 0, got {value!r}")
        if not -1.0 < self.p_lift_dependence < 1.0:
            raise WorldConfigError("p_lift_dependence must lie in (-1, 1)")
        if self.request_arrivals not in ("poisson", "deterministic"):
            raise WorldConfigError(
                f"unknown request_arrivals {self.request_arrivals!r}")
        if not isinstance(self.behavior, dict):
            raise WorldConfigError(
                f"behavior must be an object, got {self.behavior!r}")
        unknown = sorted(set(self.behavior) - set(_default_behavior()))
        if unknown:
            raise WorldConfigError(f"unknown behavior key(s) {unknown}")
        for name, value in self.behavior.items():
            if name == "enabled":
                ok, what = isinstance(value, bool), "true or false"
            else:
                high = _BEHAVIOR_HIGH.get(name, math.inf)
                ok, what = _is_amount(value, high), f"a finite number in [0, {high:g}]"
            if not ok:
                raise WorldConfigError(
                    f"behavior {name} must be {what}, got {value!r}")

    @property
    def behavior_settings(self) -> dict:
        """Given behavior values over the defaults; ``behavior`` itself stays
        as given, so digests do not depend on the defaults."""
        return {**_default_behavior(), **self.behavior}


# ---------------------------------------------------------------------------
# Population generation
# ---------------------------------------------------------------------------

def _draw_p_and_ratio(
    config: WorldConfig, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw k (p, delta_p) pairs according to the configured marginals.

    A ``scaled_beta`` p is low + (high - low) x for x ~ Beta(a, b), and a
    ``uniform_ratio`` delta_p is p (low + (high - low) u_r) for u_r
    uniform on [0, 1). With both, the pairs are rank-coupled: the sorted
    x and the sorted u_r are handed out in the rank order of z1 and
    z2 = rho z1 + sqrt(1 - rho^2) z', for independent standard normals
    z1 and z' and rho = ``p_lift_dependence``. Each marginal stays exact,
    and the ranks of (p, delta_p / p) are those of a Gaussian copula
    with correlation rho. The ranks tie the pairs of one draw together,
    so they are exchangeable, not independent; a one-user draw has no
    dependence, and a redraw of rejected users is ranked within its own
    chunk. Otherwise the two marginals are drawn independently.
    """
    p_spec, d_spec = config.p_distribution, config.delta_p_distribution
    p_kind, d_kind = p_spec["kind"], d_spec["kind"]

    u_r = rng.random(k)
    if p_kind == "scaled_beta":
        x = rng.beta(p_spec["a"], p_spec["b"], k)
        if d_kind == "uniform_ratio":  # rank coupling
            rho = config.p_lift_dependence
            z1 = rng.standard_normal(k)
            z2 = rho * z1 + np.sqrt(1.0 - rho * rho) * rng.standard_normal(k)
            x[np.argsort(z1)] = np.sort(x)
            u_r[np.argsort(z2)] = np.sort(u_r)
        lo, hi = p_spec["low"], p_spec["high"]
        p = lo + (hi - lo) * x
    elif p_kind == "fixed":
        p = np.asarray(p_spec["values"], dtype=float)
    else:  # point
        p = np.full(k, float(p_spec["value"]))

    if d_kind == "uniform_ratio":
        lo, hi = d_spec["low"], d_spec["high"]
        delta_p = p * (lo + (hi - lo) * u_r)
    elif d_kind == "fixed":
        delta_p = np.asarray(d_spec["values"], dtype=float)
    elif d_kind == "point_ratio":
        delta_p = p * float(d_spec["value"])
    else:  # zero
        delta_p = np.zeros(k)

    return p, delta_p


def _draw_request_rates(
    config: WorldConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    spec = config.request_rate
    if spec["kind"] == "lognormal":
        with np.errstate(over="ignore"):  # a rate past float64 clips to high
            rates = spec["median"] * np.exp(spec["sigma"]
                                            * rng.standard_normal(n))
        return np.clip(rates, spec["low"], spec["high"])
    return np.full(n, float(spec["value"]))


def _percentile_ranks(values: np.ndarray) -> np.ndarray:
    """Each value's rank over n - 1, 0.5 for one value; equal values rank
    in index order."""
    n = len(values)
    if n == 1:
        return np.array([0.5])
    ranks = np.empty(n)
    ranks[np.argsort(values, kind="stable")] = np.arange(n) / (n - 1)
    return ranks


def generate_population(config: WorldConfig) -> Population:
    """Sample the world's users; deterministic for a given config and seed.

    Pairs violating the ground-truth invariants (p or the background
    rate outside [0, 1]) are rejection-sampled. A configuration that
    rejects more than half of its draws is treated as misconfigured.
    """
    n = config.n_users
    rng = rng_for(config.seed, "population")
    p = np.empty(n)
    delta_p = np.empty(n)

    # Fixed-value kinds describe the whole population in order and are
    # validated in one pass, without resampling.
    if "fixed" in (config.p_distribution["kind"],
                   config.delta_p_distribution["kind"]):
        p, delta_p = _draw_p_and_ratio(config, rng, n)
        bg = p - delta_p
        bad = (p < 0) | (p > 1) | (bg < 0) | (bg > 1)
        if bad.any():
            raise WorldConfigError(
                f"{int(bad.sum())} fixed users violate rate invariants")
    else:
        need = np.arange(n)
        attempts = 0
        while need.size:
            attempts += need.size
            p_new, d_new = _draw_p_and_ratio(config, rng, need.size)
            bg = p_new - d_new
            ok = (p_new >= 0) & (p_new <= 1) & (bg >= 0) & (bg <= 1)
            p[need[ok]] = p_new[ok]
            delta_p[need[ok]] = d_new[ok]
            need = need[~ok]
            if need.size and attempts >= 2 * n:
                raise WorldConfigError(
                    "rejection rate above 50%: the configured distributions "
                    "rarely produce valid (p, delta_p) pairs")

    rates = _draw_request_rates(config, rng, n)

    # Behavioral propensities: topic 0 tracks the lift percentile, topic 1
    # the background-rate percentile, remaining topics and apps are noise.
    # The correlation knob mixes signal with noise.
    corr = float(config.behavior_settings["correlation"])
    q_lift = _percentile_ranks(delta_p)
    q_bg = _percentile_ranks(p - delta_p)
    topic_w = rng.random((n, config.topics)) * 0.6
    topic_w[:, 0] = corr * q_lift + (1.0 - corr) * rng.random(n)
    topic_w[:, 1] = corr * q_bg + (1.0 - corr) * rng.random(n)
    app_w = rng.random((n, config.apps)) * 0.4
    app_w[:, 0] = 0.5 * corr * q_lift + (1.0 - 0.5 * corr) * rng.random(n) * 0.4

    return Population(
        p=p, delta_p=delta_p, request_rate=rates, topic_weights=topic_w,
        app_weights=app_w, age_group=rng.integers(0, 7, n),
        gender=rng.integers(0, 3, n), geo_area=rng.integers(0, 20, n))


# ---------------------------------------------------------------------------
# Market simulation
# ---------------------------------------------------------------------------

class BidEstimator(Protocol):
    """Source of (p, delta_p) estimates used to price bids at request time.

    ``estimate`` takes equal-length arrays of user index, request time
    and topic, and returns arrays of p and delta_p, one per request; the
    market calls it once per window, and again, in one call, for the
    requests that wins have made stale, when its walk reaches the first
    of them. ``observe`` is told the outcomes
    of the bidder's own auctions: each impression it wins and each click
    on one, per user in time order, before that user's next bid is
    priced. ``ref`` is the campaign's advertiser id. Anything else an
    estimator knows, such as behavior data, it is built with.
    """

    def estimate(self, user_index: np.ndarray, ts: np.ndarray,
                 topic_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ...

    def observe(self, user_index: int, kind: str, ref: object, ts: int) -> None:
        ...


@dataclass
class GroupStats:
    """Aggregate outcomes for one bidder's user group."""

    bidder: str
    kind: str
    n_users: int = 0
    requests: int = 0
    bids_placed: int = 0
    impressions: int = 0
    clicks: int = 0
    inventory_cost: int = 0  # micros
    actions: int = 0
    expected_actions: float = 0.0
    attributed: int = 0         # actions with a same-window impression
    attributed_billed: int = 0  # attributed actions the advertiser paid for
    spend: int = 0              # micros, attributed_billed * cpa capped at budget+cpa
    budget: int = 0
    spent_out: bool = False
    stop_window: int | None = None

    def as_dict(self) -> dict[str, object]:
        return {k: v for k, v in self.__dict__.items()}


@dataclass
class MarketRun:
    """Result of one simulated market: optional event log plus aggregates."""

    log: EventLog | None
    groups: list[GroupStats]
    n_windows: int


def market_run_digest(
    config: WorldConfig,
    campaign: Campaign,
    bidders: list[BidderConfig],
    assignment: np.ndarray,
) -> str:
    """Digest of everything that determines a simulated market's output."""
    # World "advertisers" (always the campaign's), bidder "cpa" (always 0)
    # and "budgets" (always the split) stay, as train refuses a log whose
    # digest is not its config's.
    payload = {
        "world": {**asdict(config), "advertisers": [campaign.advertiser_id]},
        "campaign": {"advertiser_id": campaign.advertiser_id,
                     "cpa": campaign.cpa, "budget": campaign.budget,
                     "action_window_days": campaign.action_window_days},
        "bidders": [
            {"kind": b.kind, "alpha": b.alpha, "beta": b.beta, "cpa": 0}
            for b in bidders
        ],
        "budgets": split_budget(bidders, campaign.budget),
        "assignment": hashlib.sha256(
            np.ascontiguousarray(assignment).tobytes()).hexdigest()[:16],
    }
    return json_digest(payload)


def split_budget(bidders: list[BidderConfig], budget: int) -> list[int]:
    """Equal integer shares of ``budget`` for the active bidders; passive
    bidders get nothing."""
    n_active = sum(b.kind != PASSIVE for b in bidders)
    return [0 if b.kind == PASSIVE else budget // n_active for b in bidders]


def assign_groups(config: WorldConfig, n_bidders: int) -> np.ndarray:
    """Each user's bidder index: equal-sized groups, randomly assigned."""
    return rng_for(config.seed, "groups").permutation(
        np.arange(config.n_users) % n_bidders)


def behavior_log(population: Population, config: WorldConfig) -> EventLog | None:
    """The world's behavior events, time-sorted, as an event log whose user
    codes are population rows; None when behavior is off."""
    if not config.behavior_settings["enabled"]:
        return None
    _check_sortable(len(population), config.horizon_days * SECONDS_PER_DAY)
    return EventLog(*_time_sorted(_behavior_events(population, config),
                                  len(population)),
                    users=population.user_ids, advertisers=(), bidders=(),
                    seed=config.seed)


def run_market(
    population: Population,
    bidders: list[BidderConfig],
    campaign: Campaign,
    config: WorldConfig,
    assignment: np.ndarray | list[int],
    estimator: BidEstimator | None = None,
    record_events: bool = True,
) -> MarketRun:
    """Simulate the market over the horizon and aggregate per-group outcomes.

    User i belongs to bidder ``assignment[i]``'s group, labeled with its
    bidder's own kind. Requests arrive at the user's rate; the group
    bidder prices each request and faces one sampled competitor bid in a
    second-price auction. Actions are drawn once per action window per
    user, at rate p when at least one of the advertiser's impressions
    landed within the window and at the background rate otherwise. A
    bidder stops once its billed attributed actions have spent its
    :func:`split_budget` share of the budget (checked at window ends).

    Up front, the ``requests`` stream draws every request's count (per
    user and day) and time of day, then, when an estimator or the log
    reads them, every topic; ``actions`` draws one uniform per user and
    window. Each is one call over the whole horizon: numpy's ``integers``
    buffers 32-bit draws within a call, so draws in pieces would differ.
    Then each window:

    * While some bidder still bids, or when events are recorded, the
      window's requests are put in time order. Once every active bidder
      has stopped, a window without a log only draws and bills actions.
    * While some bidder still bids, ``market`` draws one standard normal
      per request of the window, in time order, as one draw over the
      horizon would give them; only the requests whose group still bids
      become competitor bids. The requests whose group still bids are
      priced from the ground truth, or with one ``estimate`` call when
      there is an estimator.
    * They settle in runs, in time order, each run's positive bids in one
      :func:`~liftsim.market.run_auction` call, which draws one ``ties``
      flip per tie; ``clicks`` then draws one uniform per win. With
      oracle bids the window is one run. With an estimator a run ends at
      the first auction our bid may win (the ones before it lose
      outright). A win is observed as an impression, and its click, if
      any, as a click; the estimator is told nothing else. That user's
      later requests in the window become stale, and the walk stops at
      the first stale request before it settles anything past it: one
      ``estimate`` call prices every stale request again, and the walk
      goes on from where it stopped. A user's history cannot change
      before the walk reaches that user's next request, so each is
      priced as it would be at once after the win, and the runs, ties
      and clicks are the same.
    * At the window's end, every user's action is drawn, actions with a
      same-window impression are attributed, and each group bills them
      at ``cpa`` while its spend is under budget.

    When events are recorded, the ``behavior`` stream draws the
    behavioral events of :func:`behavior_log` into the log.

    Raises :class:`WorldConfigError` before the draw when the expected
    request count, or with events recorded the user count times the
    horizon, is too large to order, and when a competitor bid the market
    draws (one per request whose group still bids) is past int64 micros.
    Raises :class:`MarketInvariantError` when a clearing price exceeds the
    winning bid, or at a window end when a group's spend exceeds
    budget + cpa or billed <= attributed <= actions fails.
    """
    if config.horizon_days % campaign.action_window_days != 0:
        raise WorldConfigError(
            "horizon_days must be a multiple of action_window_days")

    kinds = [b.kind for b in bidders]
    if len(set(kinds)) < len(kinds):
        raise WorldConfigError(f"each bidder needs a kind of its own: {kinds}")
    n = len(population)
    n_bidders = len(bidders)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (n,):
        raise WorldConfigError("assignment must give one bidder index per user")
    if assignment.min() < 0 or assignment.max() >= n_bidders:
        raise WorldConfigError("assignment index out of range")

    aw_days = campaign.action_window_days
    aw_secs = aw_days * SECONDS_PER_DAY
    n_windows = config.horizon_days // aw_days
    adv = campaign.advertiser_id
    reserve = config.reserve_micros

    p, dp, bg = population.p, population.delta_p, population.background_rate
    rates = population.request_rate
    click_rate = float(config.behavior_settings["click_rate"])

    # Independent streams: request counts and times never depend on how
    # the auctions played out, and action draws never depend on anything
    # except (user, window). Exposure therefore changes outcomes only
    # through the ground-truth rates.
    req_rng = rng_for(config.seed, "requests")
    market_rng = rng_for(config.seed, "market")
    action_rng = rng_for(config.seed, "actions")
    tie_rng = rng_for(config.seed, "ties")
    click_rng = rng_for(config.seed, "clicks")

    horizon_secs = config.horizon_days * SECONDS_PER_DAY
    _check_orderable(float(rates.sum()) * config.horizon_days, horizon_secs)
    if record_events:
        _check_sortable(n, horizon_secs)
    if config.request_arrivals == "poisson":
        counts = req_rng.poisson(np.broadcast_to(
            rates[:, None], (n, config.horizon_days)))
    else:
        counts = np.broadcast_to(
            np.rint(rates).astype(np.int64)[:, None], (n, config.horizon_days))
    # One request per draw, in (day, user) cell order. Cells are day-major,
    # so window w's requests are the draws starts[w]:starts[w + 1], from
    # its cells w * window_cells onward.
    per_cell = counts.T.reshape(-1)
    window_cells = aw_days * n
    starts = np.zeros(n_windows + 1, dtype=np.int64)
    np.cumsum(per_cell.reshape(n_windows, window_cells).sum(axis=1),
              out=starts[1:])
    time_of_day = req_rng.integers(0, SECONDS_PER_DAY, int(starts[-1]))
    # Topics are the stream's last draw: skipping them changes nothing else.
    topics = (req_rng.integers(0, config.topics, time_of_day.size)
              if estimator is not None or record_events else None)

    def window_requests(w: int):
        """Window w's requests in time order, stably: (times, users,
        topics), topics None when nothing reads them.

        A time fixes the day, so requests that tie on time are already in
        user order, then draw order: the stable order keeps both.
        _time_order sorts the keys (time << b) | draw, b the bit length of
        the window's request count. They are unique and order by time,
        then draw, so any sort gives the stable order.
        """
        draws, first = slice(starts[w], starts[w + 1]), w * window_cells
        cell = np.repeat(np.arange(first, first + window_cells),
                         per_cell[first:first + window_cells])
        ts = cell // n * SECONDS_PER_DAY + time_of_day[draws]
        order = _time_order(ts, horizon_secs)
        return (ts, cell[order] % n,
                None if topics is None else topics[draws][order])

    action_uniforms = action_rng.random((n, n_windows))

    if estimator is None:  # each user's bid from its group's bidder
        oracle_bids = np.stack([price_bids(b, p, dp) for b in bidders])[
            assignment, np.arange(n)]

    def model_bids(rows: np.ndarray) -> np.ndarray:
        """Bids for the current window's requests ``rows``: one estimate
        call, then one price_bids call per group; no call without rows."""
        if not rows.size:
            return empty
        user = req_user[rows]
        p_hat, dp_hat = estimator.estimate(user, req_ts[rows], req_topic[rows])
        group = assignment[user]
        bids = np.zeros(len(rows), dtype=np.int64)
        for g in np.flatnonzero(np.bincount(group)).tolist():
            mine = group == g
            bids[mine] = price_bids(bidders[g], p_hat[mine], dp_hat[mine])
        return bids

    group_sizes = np.bincount(assignment, minlength=n_bidders)
    group_masks = [assignment == g for g in range(n_bidders)]
    user_requests = counts.sum(axis=1)
    request_counts = [int(user_requests[mask].sum()) for mask in group_masks]
    budget = np.array(split_budget(bidders, campaign.budget), dtype=np.int64)
    cpa = campaign.cpa

    # Per-group running totals, in int64 micros and counts.
    placed, impressions, clicks, inventory_cost = (
        np.zeros(n_bidders, dtype=np.int64) for _ in range(4))
    actions, attributed, billed, spend = (
        np.zeros(n_bidders, dtype=np.int64) for _ in range(4))
    expected_actions = [0.0] * n_bidders
    stop_window: list[int | None] = [None] * n_bidders

    # A passive bidder is never "stopped"; it just never bids. An active
    # bidder with no budget never starts.
    active = np.array([b.kind != PASSIVE for b in bidders])
    stopped = active & (budget <= 0)

    # Event blocks in emission order; the final sort is stable, and rows
    # with equal (ts, user, kind) always come from one block (a time fixes
    # the window), in request order, so the blocks sort as row-by-row
    # emission.
    blocks: list[np.ndarray] = []

    empty = np.zeros(0, dtype=np.int64)

    window_exposed = np.zeros(n, dtype=bool)
    for w in range(n_windows):
        window_exposed[:] = False
        bidding = active & ~stopped
        any_bidding = bool(bidding.any())
        if any_bidding or record_events:
            req_ts, req_user, req_topic = window_requests(w)
        else:  # no bidder is left and nothing is logged: only bill actions
            req_ts = req_user = req_topic = empty
        if record_events:
            blocks.append(_event_block(req_ts, req_user, KIND_CODE[AD_REQUEST],
                                       topic=req_topic))
        rows = np.flatnonzero(bidding[assignment[req_user]])
        comp = (_competitor_bids(config, market_rng, p, req_user, rows)
                if any_bidding else empty)
        # Only an estimator re-prices after a win, so only its runs end at
        # an auction we may win; with oracle bids the window is one run.
        # With an estimator the walk also stops at a stale request: one
        # whose user has won since it was priced.
        if estimator is None:
            bids = oracle_bids[req_user[rows]]
            stops = np.zeros(rows.size, dtype=bool)
        else:
            bids = model_bids(rows)
            stops = may_win(bids, comp, reserve)
            stale = np.zeros(rows.size, dtype=bool)
        # (requests, bids, competitor bids, won, price, clicked) per run,
        # after an empty one, so a window without auctions concatenates to
        # empty arrays. A run is positions in rows, as are bids and comp.
        runs = [(empty, empty, empty, empty > 0, empty, empty > 0)]
        start = 0
        while start < rows.size:
            end = start + int(stops[start:].argmax()) + 1
            if not stops[end - 1]:
                end = rows.size
            elif estimator is not None and stale[end - 1]:
                # Price every stale request in one call, then walk again
                # from the same start: no request before this one moved.
                again = np.flatnonzero(stale)
                bids[again] = model_bids(rows[again])
                stops[again] = may_win(bids[again], comp[again], reserve)
                stale[again] = False
                continue
            # A run settles its positive bids, as a slice (no copy) when all
            # are. Re-pricing writes only after the run: its bids stay put.
            positive = bids[start:end] > 0
            run = (slice(start, end) if positive.all()
                   else start + np.flatnonzero(positive))
            start = end
            kept, our, against = rows[run], bids[run], comp[run]
            if not kept.size:
                continue
            won, price = run_auction(our, against, reserve, tie_rng)
            clicked = click_rng.random(int(np.count_nonzero(won))) < click_rate
            runs.append((kept, our, against, won, price, clicked))
            if estimator is not None and won[-1]:
                u, ts = int(req_user[kept[-1]]), int(req_ts[kept[-1]])
                estimator.observe(u, IMPRESSION, adv, ts)
                if clicked[0]:
                    estimator.observe(u, CLICK, adv, ts + CLICK_DELAY_SECS)
                # That user's later requests in the window are stale. Their
                # history cannot change again before the walk reaches the
                # first of them, so pricing them there prices them as now.
                later = end + np.flatnonzero(req_user[rows[end:]] == u)
                stale[later] = stops[later] = True
        kept, our, against, won, price, clicked = (
            runs[1] if len(runs) == 2  # one run: no copy
            else (np.concatenate(part) for part in zip(*runs)))

        if (won & (price > our)).any():
            raise MarketInvariantError(
                f"window {w}: a clearing price is above the winning bid")
        user, ts = req_user[kept], req_ts[kept]
        group = assignment[user]
        win_user, win_ts, win_group = user[won], ts[won], group[won]
        window_exposed[win_user] = True
        placed += np.bincount(group, minlength=n_bidders)
        impressions += np.bincount(win_group, minlength=n_bidders)
        clicks += np.bincount(win_group[clicked], minlength=n_bidders)
        np.add.at(inventory_cost, win_group, price[won])
        if record_events:
            # The auction's winner: our group, else the market when its
            # bid cleared the reserve, else nobody.
            winner = np.where(won, group,
                              np.where(against > reserve, n_bidders, -1))
            blocks += [
                _event_block(ts, user, KIND_CODE[BID], adv=0, bidder=group,
                             price=our),
                _event_block(ts, user, KIND_CODE[AUCTION], adv=0,
                             bidder=winner, price=price),
                _event_block(win_ts, win_user, KIND_CODE[IMPRESSION], adv=0,
                             bidder=win_group, price=price[won]),
                _event_block(win_ts[clicked] + CLICK_DELAY_SECS,
                             win_user[clicked],
                             KIND_CODE[CLICK], adv=0,
                             bidder=win_group[clicked]),
            ]

        # Window end: draw actions, attribute and bill them.
        effective = np.where(window_exposed, p, bg)
        hits = action_uniforms[:, w] < effective
        hit_users = np.flatnonzero(hits)
        end_ts = (w + 1) * aw_secs - 1
        for g in range(n_bidders):
            expected_actions[g] += float(effective[group_masks[g]].sum())
        actions += np.bincount(assignment[hit_users], minlength=n_bidders)
        if record_events:
            blocks.append(_event_block(np.full(hit_users.size, end_ts),
                                       hit_users, KIND_CODE[ACTION], adv=0))
        # Each billed action adds cpa, and billing goes on while spend is
        # under budget: a group bills ceil((budget - spend) / cpa) more.
        new_attributed = np.bincount(assignment[hits & window_exposed],
                                     minlength=n_bidders)
        billable = np.where(spend < budget, -((spend - budget) // cpa), 0)
        new_billed = np.minimum(new_attributed, billable)
        attributed += new_attributed
        billed += new_billed
        spend += new_billed * cpa
        if ((spend > budget + cpa) | (billed > attributed)
                | (attributed > actions)).any():
            raise MarketInvariantError(
                f"window {w}: per group, need spend <= budget + cpa and "
                f"billed <= attributed <= actions; got spend "
                f"{spend.tolist()}, budget {budget.tolist()}, billed "
                f"{billed.tolist()}, attributed {attributed.tolist()}, "
                f"actions {actions.tolist()}")
        for g in np.flatnonzero(~stopped & (budget > 0) & (spend >= budget)):
            stopped[g] = True
            stop_window[g] = w

    stats = [
        GroupStats(
            bidder=kinds[g], kind=kinds[g], n_users=int(group_sizes[g]),
            requests=int(request_counts[g]), bids_placed=int(placed[g]),
            impressions=int(impressions[g]), clicks=int(clicks[g]),
            inventory_cost=int(inventory_cost[g]), actions=int(actions[g]),
            expected_actions=expected_actions[g],
            attributed=int(attributed[g]), attributed_billed=int(billed[g]),
            spend=int(spend[g]), budget=int(budget[g]),
            spent_out=stop_window[g] is not None, stop_window=stop_window[g])
        for g in range(n_bidders)
    ]
    log = None
    if record_events:
        # Behavior comes from its own stream and never depends on bidding.
        if config.behavior_settings["enabled"]:
            blocks.append(_behavior_events(population, config))
        data = _time_sorted(np.concatenate(blocks, axis=1), n)
        log = EventLog(*data, users=population.user_ids, advertisers=(adv,),
                       bidders=(*kinds, MARKET), seed=config.seed,
                       config_digest=market_run_digest(
                           config, campaign, bidders, assignment))
    return MarketRun(log=log, groups=stats, n_windows=n_windows)


def _competitor_bids(
    config: WorldConfig,
    rng: np.random.Generator,
    p: np.ndarray,
    req_user: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """The competitor bids, int64 micros, that requests ``rows`` of a
    window face; ``req_user`` is the window's requests' users, in time
    order.

    A kind with noise draws one standard normal per request of the window
    from ``rng``, so each request's draw does not depend on which of them
    bid; only ``rows`` become bids. Raises :class:`WorldConfigError` when
    one of them is past int64 micros.
    """
    spec = config.competitor_bids
    kind = spec["kind"]
    if kind == "fixed":
        micros = np.full(rows.size, spec["dollars"] * 1e6)
    else:
        noise = np.exp(spec["sigma"] * rng.standard_normal(req_user.size)[rows])
        if kind == "lognormal":
            micros = spec["median_dollars"] * 1e6 * noise
        else:  # value_tracking
            pool = float(spec.get("pool", 0.5))
            base = pool * p[req_user[rows]] + (1.0 - pool) * float(p.mean())
            micros = spec["scale_dollars"] * 1e6 * base * noise
    micros = np.rint(micros)
    if not (micros < 2.0**63).all():  # also NaN
        raise WorldConfigError("a drawn competitor bid is past int64 micros")
    return micros.astype(np.int64)


def _event_block(ts, user, kind, **optional) -> np.ndarray:
    """Events as an int64 array with one row per field of :data:`FIELDS`;
    fields not given are absent (-1)."""
    block = np.full((len(FIELDS), len(ts)), -1, dtype=np.int64)
    block[0], block[1], block[2] = ts, user, kind
    for name, values in optional.items():
        block[FIELDS.index(name)] = values
    return block


def _check_orderable(count: float, bound: int) -> None:
    """Raise :class:`WorldConfigError` when :func:`_time_order`'s keys for
    ``count`` times below ``bound`` would need more than 63 bits."""
    if not count < 1 << max(63 - (bound - 1).bit_length(), 0):  # also NaN
        raise WorldConfigError(
            f"{count:.6g} requests over times below {bound} need more than "
            f"63 bits to order")


def _time_order(ts: np.ndarray, bound: int) -> np.ndarray:
    """The stable sort order of int64 times ``ts``, each in [0, bound);
    sorts ``ts`` in place.

    Time t at position i becomes the key (t << b) | i, b the bit length
    of ``ts.size``. The keys are unique and order by time, then by
    position, so one in-place sort of any kind gives the stable order.
    Raises :class:`WorldConfigError` when a key would need more than 63
    bits.
    """
    _check_orderable(ts.size, bound)
    b = ts.size.bit_length()
    order = np.arange(ts.size)
    ts <<= b
    ts |= order
    ts.sort()
    np.bitwise_and(ts, (1 << b) - 1, out=order)
    ts >>= b
    return order


def _check_sortable(n_users: int, horizon_secs: int) -> None:
    """Raise :class:`WorldConfigError` when :func:`_time_sorted`'s keys for
    ``n_users`` users' events before ``horizon_secs`` plus a click delay
    would need more than 63 bits."""
    if (horizon_secs + CLICK_DELAY_SECS) * n_users * len(EVENT_KINDS) > 1 << 63:
        raise WorldConfigError(
            f"{n_users} users' events over {horizon_secs} s need more than "
            f"63 bits to order")


def _time_sorted(block: np.ndarray, n_users: int) -> np.ndarray:
    """Events sorted stably by (ts, user, kind); user codes are rows, whose
    ids share one zero-padded width, so they sort as the ids do.

    One stable argsort of the int64 key (ts * n_users + user) * kinds +
    kind; :func:`_check_sortable` bounds it below 2**63.
    """
    key = (block[0] * n_users + block[1]) * len(EVENT_KINDS) + block[2]
    return block[:, np.argsort(key, kind="stable")]


def _behavior_events(population: Population, config: WorldConfig) -> np.ndarray:
    """Page views, searches and app events drawn from per-user
    propensities, as an event block in draw order."""
    bcfg = config.behavior_settings
    n = len(population)
    days = config.horizon_days
    rng = rng_for(config.seed, "behavior")
    blocks = []
    for kind, rate in ((PAGE_VIEW, bcfg["pv_rate"]),
                       (SEARCH, bcfg["search_rate"])):
        # Draws per (user, day, topic) cell; each event gets a time of day.
        lam = rate * population.topic_weights
        topics = lam.shape[1]
        counts = rng.poisson(np.broadcast_to(
            lam[:, None, :], (n, days, topics))).reshape(-1)
        cell = np.repeat(np.arange(counts.size), counts)
        ts = (cell // topics % days * SECONDS_PER_DAY
              + rng.integers(0, SECONDS_PER_DAY, cell.size))
        blocks.append(_event_block(ts, cell // (days * topics), KIND_CODE[kind],
                                   topic=cell % topics))

    # Uses per (user, app, day). A (user, app) pair with any use has an
    # install on its first day of use and then each use in day order, so
    # its event days are its use days with the first one counted twice.
    # Pairs come in (user, app) order; each event draws a time of day.
    use_counts = rng.poisson(np.broadcast_to(
        (bcfg["app_rate"] * population.app_weights)[:, None, :],
        (n, days, config.apps)))
    per_pair = use_counts.transpose(0, 2, 1).reshape(-1, days)
    pairs = np.flatnonzero(per_pair.any(axis=1))
    per_day = per_pair[pairs]
    per_day[np.arange(len(pairs)), (per_day > 0).argmax(axis=1)] += 1
    pair = np.repeat(pairs, per_day.sum(axis=1))
    day = np.repeat(np.tile(np.arange(days), len(pairs)), per_day.reshape(-1))
    ts = day * SECONDS_PER_DAY + rng.integers(0, SECONDS_PER_DAY, day.size)
    install = np.ones(day.size, dtype=bool)
    install[1:] = pair[1:] != pair[:-1]
    kind = np.where(install, KIND_CODE[APP_INSTALL], KIND_CODE[APP_USE])
    blocks.append(_event_block(ts, pair // config.apps, kind,
                               app=pair % config.apps))
    return np.concatenate(blocks, axis=1)


def precedent_impression_fraction(
    log: EventLog, advertiser: str, lookback_days: int
) -> float:
    """Fraction of the advertiser's actions preceded by its own impression.

    An action counts as "preceded" when at least one impression for the
    same advertiser landed on the same user within ``lookback_days``
    before (or at) the action timestamp.
    """
    lookback = lookback_days * SECONDS_PER_DAY
    code = log.advertisers.index(advertiser) if advertiser in log.advertisers else -2
    ours = log.adv == code  # -2 matches no event, not even an absent adv
    imps = ours & (log.kind == KIND_CODE[IMPRESSION])
    acts = ours & (log.kind == KIND_CODE[ACTION])
    if not acts.any():
        raise ValueError("log contains no actions for this advertiser")
    # One sorted key per impression, (user, ts) in one int64; each action
    # looks for a key in [(user, ts - lookback), (user, ts)].
    stride = int(log.ts.max()) + 1
    keys = np.sort(log.user[imps] * stride + log.ts[imps])
    act_keys = log.user[acts] * stride + log.ts[acts]
    lo = np.searchsorted(keys, act_keys - np.minimum(log.ts[acts], lookback))
    hi = np.searchsorted(keys, act_keys, side="right")
    return int(np.count_nonzero(hi > lo)) / int(acts.sum())
