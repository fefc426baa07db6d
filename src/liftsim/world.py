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

Budgets, attribution and a bidder's knowledge change only at the ends of
action windows, and :func:`run_market` runs each window in three steps.
:class:`_Requests` builds the window's requests from draws made up
front. :func:`_settle` settles a bid vector against its competitor bids
in one :func:`~liftsim.market.run_auction` call, the package's one
second-price settlement, and builds the block of its wins.
:func:`_close_window` draws, attributes and bills the window's actions
and stops groups that spent their budget. The bids come from the ground
truth priced by each group's bidder (oracle bids), or from one call to a
:class:`BidEstimator`, which prices from what a bidder can know: the
behavior events it was built with, and the impressions and clicks of its
own won auctions in windows that have settled. Given the ground truth,
an estimator gives the oracle's results. Events cross this boundary in
one form: an (8, n) int64 event block, one row per field of
:data:`~liftsim.events.FIELDS`.

Randomness is split into independent streams (requests, market,
behavior, clicks, actions, ties) derived from the world seed, so the
action draws for a user do not depend on how the bidding went; exposure
changes outcomes only through (p, delta_p). The same configuration and
seed reproduce the identical event log byte for byte. A window in which
no bidder is left draws no competitor bids, and without an event log its
requests are never built: in an A/B test whose bidders spend out early,
most of the horizon only draws actions.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, asdict
from typing import Protocol

import numpy as np

from .bidders import PASSIVE, BidderConfig, price_bids
from .events import (
    ACTION, AD_REQUEST, APP_INSTALL, APP_USE, BID, AUCTION, CLICK,
    EVENT_KINDS, FIELDS, IMPRESSION, KIND_CODE, PAGE_VIEW, SEARCH, EventLog,
)
from .fileio import json_digest
from .liftmodel.features import rank_keys, rank_search
from .market import (
    INT64_MAX, MICROS_PER_DOLLAR, Campaign, Population, check_integer,
    check_real, run_auction,
)
from .seeds import rng_for

SECONDS_PER_DAY = 86_400
CLICK_DELAY_SECS = 30  # a click's time after its impression's
MARKET = "market"
DEFAULT_HORIZON_DAYS = 28
DEFAULT_POOL = 0.5  # a value_tracking competitor's weight on p, if unset


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


# Each distribution's kinds and their parameters, the only keys a spec
# takes: finite numbers >= 0 (a Beta shape > 0), "values" a list of one
# per user. Only "pool" may be left out. A spec without "kind" edits the
# field's default spec.
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


def _default_competitor_bids() -> dict:
    # A partially pooled market: other bidders track user value with
    # tight multiplicative noise, shrunk halfway toward the population
    # mean. Tight noise makes paid prices reflect inventory composition
    # rather than luck in the price draw.
    return {"kind": "value_tracking", "scale_dollars": 100.0,
            "pool": DEFAULT_POOL, "sigma": 0.15}


def _default_behavior() -> dict:
    return {"enabled": True, "pv_rate": 2.0, "search_rate": 0.8,
            "app_rate": 0.12, "click_rate": 0.1, "correlation": 0.85}


MAX_DOLLARS = INT64_MAX // MICROS_PER_DOLLAR  # whole dollars within int64 micros
# A lognormal's sigma: exp(sigma z) stays finite for any |z| < 70.
MAX_SIGMA = 10.0
# Behavior rates are Poisson means per user and day, times weights of at
# most 1 (as the correlation is), far below numpy's limit of about 2**63.
MAX_DAILY_RATE = 1e6
# Upper bounds by key, of distribution parameters and behavior values
# alike; keys ending in "dollars" stop at MAX_DOLLARS, any other at inf.
_HIGH = {"sigma": MAX_SIGMA, "pool": 1.0, "pv_rate": MAX_DAILY_RATE,
         "search_rate": MAX_DAILY_RATE, "app_rate": MAX_DAILY_RATE,
         "click_rate": 1.0, "correlation": 1.0}


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
            if isinstance(spec, dict) and "kind" not in spec:
                default = type(self).__dataclass_fields__[section].default_factory
                spec = {**default(), **spec}
                object.__setattr__(self, section, spec)
            kind = spec.get("kind") if isinstance(spec, dict) else None
            if kind not in kinds:
                raise WorldConfigError(f"unknown {section} kind {kind!r}")
            unknown = sorted(set(spec) - {"kind", *kinds[kind]})
            if unknown:
                raise WorldConfigError(f"unknown {section} {kind} key(s) {unknown}")
            for name in kinds[kind]:
                value = spec.get(name)
                if name == "values":
                    if not (isinstance(value, (list, tuple))
                            and len(value) == self.n_users):
                        raise WorldConfigError(f"{section} values must be a list of "
                                               f"n_users numbers, got {value!r}")
                    for i, entry in enumerate(value):
                        check_real(f"{section} values[{i}]", entry,
                                   error=WorldConfigError)
                elif not (name == "pool" and name not in spec):
                    check_real(f"{section} {name}", value, 0,
                               MAX_DOLLARS if name.endswith("dollars")
                               else _HIGH.get(name, math.inf),
                               "(]" if name in ("a", "b") else "[]",
                               error=WorldConfigError)
        check_real("p_lift_dependence", self.p_lift_dependence, -1, 1, "()",
                   error=WorldConfigError)
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
            if name != "enabled":
                check_real(f"behavior {name}", value, 0, _HIGH[name],
                           error=WorldConfigError)
            elif not isinstance(value, bool):
                raise WorldConfigError(
                    f"behavior enabled must be true or false, got {value!r}")

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


def draw_action_rates(
    config: WorldConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The world's ground truth (p, delta_p): the first draws of its
    population stream ``rng``, so they equal :func:`generate_population`'s.

    Pairs violating the ground-truth invariants (p or the background
    rate outside [0, 1]) are rejection-sampled. A configuration that
    rejects more than half of its draws is treated as misconfigured.
    """
    n = config.n_users
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
    return p, delta_p


def _market_columns(config: WorldConfig, rng: np.random.Generator) -> tuple:
    """p, delta_p and request_rate: the population stream's first draws."""
    p, delta_p = draw_action_rates(config, rng)
    return p, delta_p, _draw_request_rates(config, rng, config.n_users)


def market_population(config: WorldConfig) -> Population:
    """The users with only the columns an oracle market reads, bit for bit
    :func:`generate_population`'s; the others keep their defaults."""
    return Population(*_market_columns(config, rng_for(config.seed, "population")))


def generate_population(config: WorldConfig) -> Population:
    """Sample the world's users; deterministic for a given config and seed.

    The population stream draws :func:`market_population`'s columns
    first, then the behavioral weights and demographics.
    """
    n = config.n_users
    rng = rng_for(config.seed, "population")
    p, delta_p, rates = _market_columns(config, rng)

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
    and topic (the model's rows do not read it), and returns arrays of p
    and delta_p, one per request; the market calls it once per window
    that has a bidding request, with all of them. ``observe`` is told
    the outcomes of the bidder's own auctions once a window with a win
    has settled, in one call: the event block of its won impressions and
    the clicks on them, the rows the log records for them. User codes are
    population rows, and ``adv`` code 0 is the campaign's advertiser, as
    in the log. Anything else an estimator knows, such as the
    :func:`behavior_events` block, it is built with.
    """

    def estimate(self, user_index: np.ndarray, ts: np.ndarray,
                 topic_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ...

    def observe(self, events: np.ndarray) -> None:
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


def run_market(population: Population, bidders: list[BidderConfig],
               campaign: Campaign, config: WorldConfig,
               assignment: np.ndarray | list[int],
               estimator: BidEstimator | None = None,
               record_events: bool = True) -> MarketRun:
    """Simulate the market over the horizon and aggregate per-group outcomes.

    User i belongs to bidder ``assignment[i]``'s group, labeled with its
    bidder's own kind, and the bidder's budget is its :func:`split_budget`
    share. Up front, ``actions`` draws one uniform per user and window. In
    each window where a bidder still bids, ``market`` draws the competitor
    bids (:func:`_competitor_bids`), in pieces as one draw would give them,
    and the requests of groups still bidding are priced, in one
    ``estimate`` call when there is an estimator. With events recorded,
    ``behavior`` draws the :func:`behavior_events` block into the log.

    Raises what the steps and :func:`_competitor_bids` raise, and
    :class:`WorldConfigError` on an inconsistent campaign, bidder list or
    assignment.
    """
    if config.horizon_days % campaign.action_window_days != 0:
        raise WorldConfigError(
            "horizon_days must be a multiple of action_window_days")

    kinds = [b.kind for b in bidders]
    if len(set(kinds)) < len(kinds):
        raise WorldConfigError(f"each bidder needs a kind of its own: {kinds}")
    n, n_bidders = len(population), len(bidders)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (n,):
        raise WorldConfigError("assignment must give one bidder index per user")
    if assignment.min() < 0 or assignment.max() >= n_bidders:
        raise WorldConfigError("assignment index out of range")

    aw_days = campaign.action_window_days
    n_windows = config.horizon_days // aw_days
    p, dp, bg = population.p, population.delta_p, population.background_rate
    market_rng, action_rng, tie_rng, click_rng = (
        rng_for(config.seed, s) for s in ("market", "actions", "ties", "clicks"))
    requests = _Requests(config, population.request_rate, aw_days,
                         estimator is not None or record_events, record_events)
    # One row per window, so each window end reads contiguous uniforms.
    action_uniforms = action_rng.random((n, n_windows)).T.copy()

    if estimator is None:  # each user's bid from its group's bidder
        oracle_bids = np.stack([price_bids(b, p, dp) for b in bidders])[
            assignment, np.arange(n)]
    masks = [assignment == g for g in range(n_bidders)]
    groups = assignment, masks, [float(bg[mask].sum()) for mask in masks]
    # Per-group totals by GroupStats field, in int64 micros and counts. A
    # passive bidder never bids; an active one with no budget never starts.
    totals = {f.name: np.full(n_bidders, f.default)
              for f in fields(GroupStats)[2:]}
    totals.update(
        n_users=np.bincount(assignment, minlength=n_bidders),
        requests=np.array([requests.per_user[m].sum() for m in masks]),
        budget=np.array(split_budget(bidders, campaign.budget), dtype=np.int64))
    blocks: list[np.ndarray] | None = [] if record_events else None
    empty = np.zeros(0, dtype=np.int64)

    for w in range(n_windows):
        bidding = (totals["budget"] > 0) & ~totals["spent_out"]
        any_bidding = bool(bidding.any())
        ts, user, topic = (requests.window(w, blocks)
                           if any_bidding or record_events else (empty,) * 3)
        group = assignment[user]
        rows = np.flatnonzero(bidding[group])
        comp = (_competitor_bids(config, market_rng, p, user, rows)
                if any_bidding else empty)
        if estimator is None:
            bids = oracle_bids[user[rows]]
        elif rows.size:  # one estimate call, one price_bids call per group
            p_hat, dp_hat = estimator.estimate(user[rows], ts[rows], topic[rows])
            bidder_of = group[rows]
            bids = np.zeros(rows.size, dtype=np.int64)
            for g in np.flatnonzero(np.bincount(bidder_of)).tolist():
                mine = bidder_of == g
                bids[mine] = price_bids(bidders[g], p_hat[mine], dp_hat[mine])
        else:
            bids = empty
        win_user = _settle(
            w, (ts, user, group), rows, bids, comp, config.reserve_micros,
            tie_rng, click_rng, float(config.behavior_settings["click_rate"]),
            totals, blocks, None if estimator is None else estimator.observe)
        _close_window(w, win_user, action_uniforms[w], (p, bg), groups,
                      campaign.cpa, (w + 1) * aw_days * SECONDS_PER_DAY - 1,
                      totals, blocks)

    columns = {name: column.tolist() for name, column in totals.items()}
    stats = [GroupStats(kind, kind, **{k: v[g] for k, v in columns.items()})
             for g, kind in enumerate(kinds)]
    log = None
    if blocks is not None:
        # Rows with equal (ts, user, kind) come from one block (a time fixes
        # the window), so the blocks sort stably as row-by-row emission.
        blocks.append(behavior_events(population, config))
        data = np.concatenate(blocks, axis=1)
        blocks.clear()  # so that the sort holds one copy of the events
        log = EventLog(*_time_sorted(data, n), users=population.user_ids,
                       advertisers=(campaign.advertiser_id,),
                       bidders=(*kinds, MARKET), seed=config.seed,
                       config_digest=market_run_digest(
                           config, campaign, bidders, assignment))
    return MarketRun(log=log, groups=stats, n_windows=n_windows)


class _Requests:
    """A market's ad requests, drawn up front and built one window at a
    time.

    Built once, it raises :class:`WorldConfigError`, before any draw,
    when the expected request count, or with ``sortable`` the user count
    times the horizon, is too large to order (:func:`_check_orderable`,
    :func:`_check_sortable`). Then the ``requests`` stream draws every
    request's count per user and day, then every time of day, then, with
    ``topics``, every topic: each one call over the horizon, as numpy's
    ``integers`` buffers 32-bit draws within a call, so draws in pieces
    would differ. Topics are the stream's last draw, so skipping them
    changes nothing else. Of the (users x days) counts only the per-cell,
    per-day and per-user counts and the window starts stay.
    """

    def __init__(self, config: WorldConfig, rates: np.ndarray, aw_days: int,
                 topics: bool, sortable: bool) -> None:
        n, days = rates.size, config.horizon_days
        self.horizon_secs = days * SECONDS_PER_DAY
        _check_orderable(float(rates.sum()) * days, self.horizon_secs)
        if sortable:
            _check_sortable(n, self.horizon_secs)
        rng = rng_for(config.seed, "requests")
        if config.request_arrivals == "poisson":
            counts = rng.poisson(np.broadcast_to(rates[:, None], (n, days)))
        else:
            counts = np.broadcast_to(
                np.rint(rates).astype(np.int64)[:, None], (n, days))
        self.per_user = counts.sum(axis=1)
        # One request per draw, in (day, user) cell order. Cells are
        # day-major, so window w's requests are draws starts[w]:starts[w+1],
        # and its cells the w-th run of window_users: its users, day by day.
        self.per_cell = counts.T.reshape(-1)
        self.per_day = self.per_cell.reshape(days, n).sum(axis=1)
        self.aw_days = aw_days
        self.window_users = np.tile(np.arange(n), aw_days)
        self.starts = np.zeros(days // aw_days + 1, dtype=np.int64)
        np.cumsum(self.per_day.reshape(-1, aw_days).sum(axis=1),
                  out=self.starts[1:])
        self.time_of_day = rng.integers(0, SECONDS_PER_DAY, int(self.starts[-1]))
        self.topics = (rng.integers(0, config.topics, self.time_of_day.size)
                       if topics else None)

    def window(self, w: int, blocks: list | None = None) -> tuple:
        """Window w's requests in time order, stably: (times, users,
        topics), topics None when they were not drawn; their users and day
        starts each one ``np.repeat`` by count. ``blocks``, when given,
        gets their ad request events.

        A time fixes the day, so requests that tie on time are already in
        user order, then draw order: the stable order keeps both.
        :func:`_time_order` sorts unique keys that order by time, then
        draw, so any sort gives the stable order.
        """
        draws = slice(self.starts[w], self.starts[w + 1])
        cells = self.window_users.size
        user = np.repeat(self.window_users,
                         self.per_cell[w * cells:(w + 1) * cells])
        days = slice(w * self.aw_days, (w + 1) * self.aw_days)
        ts = (np.repeat(np.arange(days.start, days.stop) * SECONDS_PER_DAY,
                        self.per_day[days]) + self.time_of_day[draws])
        order = _time_order(ts, self.horizon_secs)
        user = user[order]
        topic = None if self.topics is None else self.topics[draws][order]
        if blocks is not None:
            blocks.append(_event_block(ts, user, KIND_CODE[AD_REQUEST],
                                       topic=topic))
        return ts, user, topic


def _settle(w: int, requests: tuple, rows: np.ndarray, bids: np.ndarray,
            comp: np.ndarray, reserve: int, tie_rng: np.random.Generator,
            click_rng: np.random.Generator, click_rate: float, totals: dict,
            blocks: list | None = None, observe=None) -> np.ndarray:
    """Settle window w's bids and return the users of its won auctions.

    ``requests`` is the window's (times, users, groups) in time order,
    and requests ``rows`` of it bid ``bids`` against competitor bids
    ``comp``. The positive bids settle in one
    :func:`~liftsim.market.run_auction` call, in time order, which draws
    one ``tie_rng`` flip per tie; ``click_rng`` then draws one uniform per
    win, a click when below ``click_rate``. Each group's bids,
    impressions, clicks and inventory cost are added to ``totals``.

    The won impressions and their clicks are one event block, built only
    when ``blocks`` (the log's event blocks) or ``observe`` reads it:
    ``blocks`` gets the bid, auction and win blocks, and ``observe`` is
    called once with the win block when it has a row. So a request after
    its user's win in the same window is priced without that win.

    Raises :class:`MarketInvariantError` when a clearing price exceeds
    its winning bid.
    """
    ts, user, group_of = requests
    n_bidders = totals["n_users"].size
    # The positive bids settle, as a slice (no copy) when all are.
    positive = bids > 0
    run = slice(None) if positive.all() else np.flatnonzero(positive)
    kept, our, against = rows[run], bids[run], comp[run]
    won, price = run_auction(our, against, reserve, tie_rng)
    clicked = click_rng.random(int(np.count_nonzero(won))) < click_rate
    if (won & (price > our)).any():
        raise MarketInvariantError(
            f"window {w}: a clearing price is above the winning bid")
    group = group_of[kept]
    win = np.flatnonzero(won)
    win_user, win_group, win_price = user[kept[win]], group[win], price[win]
    # Per group, (lost, won) auctions.
    outcomes = np.bincount(2 * group + won, minlength=2 * n_bidders
                           ).reshape(n_bidders, 2)
    totals["bids_placed"] += outcomes.sum(axis=1)
    totals["impressions"] += outcomes[:, 1]
    totals["clicks"] += np.bincount(win_group[clicked], minlength=n_bidders)
    np.add.at(totals["inventory_cost"], win_group, win_price)
    if blocks is None and observe is None:
        return win_user
    win_ts = ts[kept[win]]
    wins = np.concatenate([
        _event_block(win_ts, win_user, KIND_CODE[IMPRESSION], adv=0,
                     bidder=win_group, price=win_price),
        _event_block(win_ts[clicked] + CLICK_DELAY_SECS, win_user[clicked],
                     KIND_CODE[CLICK], adv=0, bidder=win_group[clicked]),
    ], axis=1)
    if observe is not None and win.size:  # the bidder learns them
        observe(wins)
    if blocks is not None:
        # The auction's winner: our group, else the market when its bid
        # cleared the reserve, else nobody.
        winner = np.where(won, group,
                          np.where(against > reserve, n_bidders, -1))
        ts, user = ts[kept], user[kept]
        blocks += [
            _event_block(ts, user, KIND_CODE[BID], adv=0, bidder=group,
                         price=our),
            _event_block(ts, user, KIND_CODE[AUCTION], adv=0, bidder=winner,
                         price=price),
            wins,
        ]
    return win_user


def _close_window(w: int, win_user: np.ndarray, uniforms: np.ndarray,
                  rates: tuple, groups: tuple, cpa: int, end_ts: int,
                  totals: dict, blocks: list | None = None) -> None:
    """Close window w: draw, attribute and bill its actions, and stop the
    groups that spent their budget.

    Every user acts when its ``uniforms`` draw (the ``actions`` stream's
    row for the window) is below its rate of ``rates`` = (p, background
    rate): p once one of ``win_user``'s wins landed on it, the background
    rate otherwise. ``groups`` is (each user's group, each group's mask,
    each group's background-rate sum); a window without an impression
    adds those sums to the expected actions, summed once. Actions with a
    same-window impression are attributed, and each group bills them at
    ``cpa`` while its spend is under budget. A group with a budget stops
    at the first window end where its spend reaches it. ``totals`` gets
    all of it, and ``blocks``, when given, the action events at
    ``end_ts``.

    Raises :class:`MarketInvariantError` when a group's spend exceeds
    budget + cpa or billed <= attributed <= actions fails.
    """
    assignment, masks, background = groups
    p, bg = rates
    n_bidders = len(masks)
    exposed = np.zeros(assignment.size, dtype=bool)
    exposed[win_user] = True
    if win_user.size:
        effective = np.where(exposed, p, bg)
        sums = [float(effective[mask].sum()) for mask in masks]
    else:  # nobody was exposed
        effective, sums = bg, background
    totals["expected_actions"] += sums
    hits = uniforms < effective
    hit_users = np.flatnonzero(hits)
    totals["actions"] += np.bincount(assignment[hit_users], minlength=n_bidders)
    if blocks is not None:
        blocks.append(_event_block(np.full(hit_users.size, end_ts), hit_users,
                                   KIND_CODE[ACTION], adv=0))
    # Each billed action adds cpa, and billing goes on while spend is
    # under budget: a group bills ceil((budget - spend) / cpa) more.
    spend, budget = totals["spend"], totals["budget"]
    new_attributed = np.bincount(assignment[hits & exposed],
                                 minlength=n_bidders)
    new_billed = np.minimum(
        new_attributed, np.where(spend < budget, -((spend - budget) // cpa), 0))
    totals["attributed"] += new_attributed
    totals["attributed_billed"] += new_billed
    spend += new_billed * cpa
    billed, attributed, actions = (totals[name] for name in (
        "attributed_billed", "attributed", "actions"))
    if ((spend > budget + cpa) | (billed > attributed)
            | (attributed > actions)).any():
        raise MarketInvariantError(
            f"window {w}: per group, need spend <= budget + cpa and "
            f"billed <= attributed <= actions; got spend "
            f"{spend.tolist()}, budget {budget.tolist()}, billed "
            f"{billed.tolist()}, attributed {attributed.tolist()}, "
            f"actions {actions.tolist()}")
    stop = ~totals["spent_out"] & (budget > 0) & (spend >= budget)
    totals["spent_out"] |= stop
    totals["stop_window"][stop] = w


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
            pool = float(spec.get("pool", DEFAULT_POOL))
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
    """``block``'s events sorted stably by (ts, user, kind) in place, and
    returned; user codes are rows, whose ids share one zero-padded width,
    so they sort as the ids do.

    One stable argsort of the int64 key (ts * n_users + user) * kinds +
    kind, which :func:`_check_sortable` bounds below 2**63; its order is
    applied one row at a time, so the sort holds one row's copy.
    """
    order = np.argsort((block[0] * n_users + block[1]) * len(EVENT_KINDS)
                       + block[2], kind="stable")
    for row in block:
        row[:] = row[order]
    return block


def behavior_events(population: Population, config: WorldConfig) -> np.ndarray:
    """Page views, searches and app events drawn from per-user
    propensities, as an event block in draw order whose user codes are
    population rows; an empty block, drawing nothing, when behavior is
    off."""
    bcfg = config.behavior_settings
    if not bcfg["enabled"]:
        return np.zeros((len(FIELDS), 0), dtype=np.int64)
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
    # A user's impressions in [ts - lookback, ts] are those at or before
    # ts less those at or before ts - lookback - 1.
    key, times = rank_keys(log.user[imps], log.ts[imps])
    user, ts = log.user[acts], log.ts[acts]
    hits = (rank_search(key, times, user, ts)
            > rank_search(key, times, user, ts - lookback - 1))
    return int(np.count_nonzero(hits)) / int(acts.sum())
