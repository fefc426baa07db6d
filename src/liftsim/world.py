"""Synthetic user worlds and the seeded market simulator.

A world is a :class:`~liftsim.market.Population`: arrays of known ground
truth (action rate ``p``, lift ``delta_p``), request rates, and
behavioral propensities that correlate with the ground truth so a
learned model has signal to recover. The simulator runs second-price
auctions for every ad request against an exogenous competitor bid,
realizes actions from the ground truth, and can record a columnar event
log: requests and behavior come from whole arrays, and only auction
outcomes and actions are appended row by row.

Randomness is split into independent streams (requests, market,
behavior, clicks, actions, ties) derived from the world seed, so the
action draws for a user do not depend on how the bidding went; exposure
changes outcomes only through (p, delta_p). The same configuration and
seed reproduce the identical event log byte for byte.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict
from typing import Protocol

import numpy as np
from scipy.special import betaincinv, ndtr

from .bidders import PASSIVE, BidderConfig, price_bids
from .events import (
    ACTION, AD_REQUEST, APP_INSTALL, APP_USE, BID, AUCTION, CLICK,
    EVENT_KINDS, FIELDS, IMPRESSION, KIND_CODE, PAGE_VIEW, SEARCH, EventLog,
)
from .market import Campaign, Population
from .seeds import rng_for

SECONDS_PER_DAY = 86_400
MARKET = "market"


class WorldConfigError(ValueError):
    """Raised when a world configuration cannot produce a valid population."""


def _default_p_distribution() -> dict:
    return {"kind": "scaled_beta", "a": 2.0, "b": 5.0, "low": 0.001, "high": 0.1}


def _default_delta_p_distribution() -> dict:
    return {"kind": "uniform_ratio", "low": 0.05, "high": 0.95}


def _default_request_rate() -> dict:
    return {"kind": "lognormal", "median": 2.0, "sigma": 0.5,
            "low": 0.2, "high": 8.0}


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


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of a synthetic user world.

    ``p_lift_dependence`` is a Gaussian-copula correlation between a
    user's action rate and its relative lift ``delta_p / p``; the
    default is negative (users with high absolute rates tend to be the
    least persuadable), which is also what makes value and lift bidding
    disagree in interesting ways.
    """

    n_users: int
    seed: int = 0
    horizon_days: int = 28
    topics: int = 6
    apps: int = 3
    advertisers: tuple[str, ...] = ("adv1",)
    p_distribution: dict = field(default_factory=_default_p_distribution)
    delta_p_distribution: dict = field(default_factory=_default_delta_p_distribution)
    p_lift_dependence: float = -0.5
    request_rate: dict = field(default_factory=_default_request_rate)
    request_arrivals: str = "poisson"  # or "deterministic"
    competitor_bids: dict = field(default_factory=_default_competitor_bids)
    behavior: dict = field(default_factory=_default_behavior)
    reserve_micros: int = 0

    def __post_init__(self) -> None:
        if self.n_users <= 0:
            raise WorldConfigError("n_users must be positive")
        if self.horizon_days <= 0:
            raise WorldConfigError("horizon_days must be positive")
        if self.topics < 2:
            raise WorldConfigError("need at least 2 topics")
        if self.apps < 1:
            raise WorldConfigError("need at least 1 app")
        if not -1.0 < self.p_lift_dependence < 1.0:
            raise WorldConfigError("p_lift_dependence must lie in (-1, 1)")
        if self.request_arrivals not in ("poisson", "deterministic"):
            raise WorldConfigError(
                f"unknown request_arrivals {self.request_arrivals!r}")
        if not self.advertisers:
            raise WorldConfigError("need at least one advertiser")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["advertisers"] = list(self.advertisers)
        return data

    def digest(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Population generation
# ---------------------------------------------------------------------------

def _draw_p_and_ratio(
    config: WorldConfig, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw k (p, delta_p) pairs according to the configured marginals."""
    p_spec = config.p_distribution
    d_spec = config.delta_p_distribution
    p_kind = p_spec.get("kind")
    d_kind = d_spec.get("kind")

    copula = p_kind == "scaled_beta" and d_kind == "uniform_ratio"
    if copula:
        rho = config.p_lift_dependence
        z1 = rng.standard_normal(k)
        z2 = rho * z1 + np.sqrt(1.0 - rho * rho) * rng.standard_normal(k)
        u_p = ndtr(z1)
        u_r = ndtr(z2)
    else:
        u_p = rng.random(k)
        u_r = rng.random(k)

    if p_kind == "scaled_beta":
        lo, hi = p_spec["low"], p_spec["high"]
        p = lo + (hi - lo) * betaincinv(p_spec["a"], p_spec["b"], u_p)
    elif p_kind == "fixed":
        values = np.asarray(p_spec["values"], dtype=float)
        if len(values) != k:
            raise WorldConfigError(
                f"fixed p distribution needs {k} values, got {len(values)}")
        p = values
    elif p_kind == "point":
        p = np.full(k, float(p_spec["value"]))
    else:
        raise WorldConfigError(f"unknown p distribution kind {p_kind!r}")

    if d_kind == "uniform_ratio":
        lo, hi = d_spec["low"], d_spec["high"]
        delta_p = p * (lo + (hi - lo) * u_r)
    elif d_kind == "fixed":
        values = np.asarray(d_spec["values"], dtype=float)
        if len(values) != k:
            raise WorldConfigError(
                f"fixed delta_p distribution needs {k} values, got {len(values)}")
        delta_p = values
    elif d_kind == "point_ratio":
        delta_p = p * float(d_spec["value"])
    elif d_kind == "zero":
        delta_p = np.zeros(k)
    else:
        raise WorldConfigError(f"unknown delta_p distribution kind {d_kind!r}")

    return p, delta_p


def _draw_request_rates(
    config: WorldConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    spec = config.request_rate
    kind = spec.get("kind")
    if kind == "lognormal":
        rates = spec["median"] * np.exp(spec["sigma"] * rng.standard_normal(n))
        return np.clip(rates, spec["low"], spec["high"])
    if kind == "fixed":
        return np.full(n, float(spec["value"]))
    raise WorldConfigError(f"unknown request_rate kind {kind!r}")


def _percentile_ranks(values: np.ndarray) -> np.ndarray:
    n = len(values)
    if n == 1:
        return np.array([0.5])
    ranks = np.empty(n)
    ranks[np.argsort(values, kind="stable")] = np.arange(n)
    return ranks / (n - 1)


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
    fixed = (config.p_distribution.get("kind") == "fixed"
             or config.delta_p_distribution.get("kind") == "fixed")
    if fixed:
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
    bcfg = config.behavior
    corr = float(bcfg.get("correlation", 0.85))
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

    ``observe`` gets every impression, click, action and behavior event
    in chronological order, so a model-backed estimator can keep rolling
    feature state. ``ref`` is the event's advertiser id, topic or app.
    """

    def estimate(self, user_index: int, ts: int, topic_id: int) -> tuple[float, float]:
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
    config_digest: str


def market_run_digest(
    config: WorldConfig,
    campaign: Campaign,
    bidders: list[BidderConfig],
    budgets: list[int],
    assignment: np.ndarray,
) -> str:
    """Digest of everything that determines a simulated market's output."""
    payload = {
        "world": config.to_dict(),
        "campaign": {"advertiser_id": campaign.advertiser_id,
                     "cpa": campaign.cpa, "budget": campaign.budget,
                     "action_window_days": campaign.action_window_days},
        "bidders": [
            {"kind": b.kind, "alpha": b.alpha, "beta": b.beta, "cpa": b.cpa}
            for b in bidders
        ],
        "budgets": [int(b) for b in budgets],
        "assignment": hashlib.sha256(
            np.ascontiguousarray(assignment).tobytes()).hexdigest()[:16],
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _bidder_labels(bidders: list[BidderConfig]) -> list[str]:
    """Each bidder's kind, numbered from 1 where several share it."""
    kinds = [b.kind for b in bidders]
    return [kind if kinds.count(kind) == 1 else f"{kind}{kinds[:i + 1].count(kind)}"
            for i, kind in enumerate(kinds)]


def split_budget(bidders: list[BidderConfig], budget: int) -> list[int]:
    """Equal integer shares of ``budget`` for the active bidders; passive
    bidders get nothing."""
    n_active = sum(b.kind != PASSIVE for b in bidders)
    return [0 if b.kind == PASSIVE else budget // n_active for b in bidders]


def run_market(
    population: Population,
    bidders: list[BidderConfig],
    campaigns: list[Campaign],
    config: WorldConfig,
    assignment: np.ndarray | list[int] | None = None,
    budgets: list[int] | None = None,
    estimator: BidEstimator | None = None,
    record_events: bool = True,
) -> MarketRun:
    """Simulate the market over the horizon and aggregate per-group outcomes.

    Each user belongs to exactly one bidder's group. Requests arrive at
    the user's rate; the group bidder prices each request and faces one
    sampled competitor bid in a second-price auction. Actions are drawn
    once per action window per user, at rate p when at least one of the
    advertiser's impressions landed within the window and at the
    background rate otherwise. A bidder stops bidding once its billed
    attributed actions have spent its budget (checked when attribution
    updates, at window ends).
    """
    if len(campaigns) != 1:
        raise WorldConfigError("exactly one campaign per simulated market")
    campaign = campaigns[0]
    if campaign.advertiser_id not in config.advertisers:
        raise WorldConfigError("campaign advertiser missing from world config")
    if config.horizon_days % campaign.action_window_days != 0:
        raise WorldConfigError(
            "horizon_days must be a multiple of action_window_days")

    n = len(population)
    n_bidders = len(bidders)
    if assignment is None:
        if n_bidders != 1:
            raise WorldConfigError("assignment required with multiple bidders")
        assignment = np.zeros(n, dtype=np.int64)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (n,):
        raise WorldConfigError("assignment must give one bidder index per user")
    if assignment.min() < 0 or assignment.max() >= n_bidders:
        raise WorldConfigError("assignment index out of range")

    if budgets is None:
        budgets = split_budget(bidders, campaign.budget)
    if len(budgets) != n_bidders:
        raise WorldConfigError("budgets must align with bidders")

    labels = _bidder_labels(bidders)
    aw_days = campaign.action_window_days
    aw_secs = aw_days * SECONDS_PER_DAY
    n_windows = config.horizon_days // aw_days
    adv = campaign.advertiser_id
    reserve = config.reserve_micros

    run_digest = market_run_digest(config, campaign, bidders, budgets,
                                   assignment)

    p, dp, bg = population.p, population.delta_p, population.background_rate
    rates = population.request_rate
    click_rate = float(config.behavior.get("click_rate", 0.1))

    # Independent streams: request counts and times never depend on how
    # the auctions played out, and action draws never depend on anything
    # except (user, window). Exposure therefore changes outcomes only
    # through the ground-truth rates.
    req_rng = rng_for(config.seed, "requests")
    market_rng = rng_for(config.seed, "market")
    action_rng = rng_for(config.seed, "actions")
    tie_rng = rng_for(config.seed, "ties")
    click_rng = rng_for(config.seed, "clicks")

    if config.request_arrivals == "poisson":
        counts = req_rng.poisson(np.broadcast_to(
            rates[:, None], (n, config.horizon_days)))
    else:
        counts = np.broadcast_to(
            np.rint(rates).astype(np.int64)[:, None], (n, config.horizon_days)
        ).copy()
    # One request per draw, in (day, user) cell order; then sorted by time
    # and user, stably, so ties keep draw order.
    cell = np.repeat(np.arange(counts.size), counts.T.reshape(-1))
    req_ts = (cell // n * SECONDS_PER_DAY
              + req_rng.integers(0, SECONDS_PER_DAY, cell.size))
    req_topic = req_rng.integers(0, config.topics, cell.size)
    order = np.lexsort((cell % n, req_ts))
    req_ts, req_topic, cell = req_ts[order], req_topic[order], cell[order]
    req_day, req_user = cell // n, cell % n

    comp = _competitor_bids(config, market_rng, p, req_user)

    action_uniforms = action_rng.random((n, n_windows))

    oracle_bids = None
    if estimator is None:  # each user's bid from its group's bidder
        oracle_bids = np.stack([price_bids(b, p, dp) for b in bidders])[
            assignment, np.arange(n)]

    stats = [
        GroupStats(bidder=labels[g], kind=bidders[g].kind, budget=int(budgets[g]))
        for g in range(n_bidders)
    ]
    group_sizes = np.bincount(assignment, minlength=n_bidders)
    request_counts = np.bincount(assignment[req_user], minlength=n_bidders)
    for g in range(n_bidders):
        stats[g].n_users = int(group_sizes[g])
        stats[g].requests = int(request_counts[g])

    # A passive bidder is never "stopped"; it just always bids zero. An
    # active bidder with no budget never starts.
    stopped = np.array([budgets[g] <= 0 and bidders[g].kind != PASSIVE
                        for g in range(n_bidders)])

    # Auction-loop events are rows (ts, user, kind, bidder, price) with
    # bidder codes indexing the group labels, then MARKET. They are
    # recorded only for the log; impressions, clicks and actions also go
    # to the estimator, in emission order (the final sort is stable).
    rows: list[tuple[int, int, int, int, int]] = []
    record = rows.append if record_events else None
    observe = estimator.observe if estimator is not None else None

    day_starts = np.searchsorted(req_day, np.arange(config.horizon_days))
    day_ends = np.searchsorted(req_day, np.arange(config.horizon_days) + 1)

    # Behavioral events come from their own stream and never depend on
    # bidding, so they can be generated up front; a model-backed
    # estimator consumes them chronologically alongside the auctions.
    behavior = np.empty((len(FIELDS), 0), dtype=np.int64)
    if config.behavior.get("enabled", True) and (record_events or estimator):
        behavior = _time_sorted(_behavior_events(population, config))
    feed: list[tuple[int, str, int, int]] = []  # (user, kind, ref, ts)
    if estimator is not None:
        # Each behavior event has a topic or an app; the other is -1.
        feed = list(zip(behavior[1].tolist(),
                        [EVENT_KINDS[k] for k in behavior[2].tolist()],
                        np.maximum(behavior[4], behavior[5]).tolist(),
                        behavior[0].tolist()))
    fed = 0

    window_exposed = np.zeros(n, dtype=bool)
    for w in range(n_windows):
        window_exposed[:] = False
        lo_day, hi_day = w * aw_days, (w + 1) * aw_days
        for day in range(lo_day, hi_day):
            s, e = int(day_starts[day]), int(day_ends[day])
            for i in range(s, e):
                u = int(req_user[i])
                g = int(assignment[u])
                bidder = bidders[g]
                ts = int(req_ts[i])
                if bidder.kind == PASSIVE or stopped[g]:
                    continue
                if estimator is not None:
                    while fed < len(feed) and feed[fed][3] <= ts:
                        observe(*feed[fed])
                        fed += 1
                    p_hat, dp_hat = estimator.estimate(u, ts, int(req_topic[i]))
                    our = int(price_bids(bidder, p_hat, dp_hat))
                else:
                    our = int(oracle_bids[u])
                if our <= 0:
                    continue
                stats[g].bids_placed += 1
                c = int(comp[i])
                we_win, price = _settle(our, c, reserve, tie_rng)
                if record:
                    winner = g if we_win else (n_bidders if c > reserve else -1)
                    record((ts, u, KIND_CODE[BID], g, our))
                    record((ts, u, KIND_CODE[AUCTION], winner, price))
                if not we_win:
                    continue
                stats[g].impressions += 1
                stats[g].inventory_cost += price
                window_exposed[u] = True
                if record:
                    record((ts, u, KIND_CODE[IMPRESSION], g, price))
                if observe:
                    observe(u, IMPRESSION, adv, ts)
                if click_rng.random() < click_rate:
                    stats[g].clicks += 1
                    if record:
                        record((ts + 30, u, KIND_CODE[CLICK], g, -1))
                    if observe:
                        observe(u, CLICK, adv, ts + 30)

        effective = np.where(window_exposed, p, bg)
        hits = action_uniforms[:, w] < effective
        end_ts = (w + 1) * aw_secs - 1
        for g in range(n_bidders):
            mask = assignment == g
            stats[g].expected_actions += float(effective[mask].sum())
            stats[g].actions += int(hits[mask].sum())
        for u in np.nonzero(hits)[0].tolist():
            if record:
                record((end_ts, u, KIND_CODE[ACTION], -1, -1))
            if observe:
                observe(u, ACTION, adv, end_ts)
            if window_exposed[u]:
                g = int(assignment[u])
                stats[g].attributed += 1
                if stats[g].spend < budgets[g]:
                    stats[g].attributed_billed += 1
                    stats[g].spend += campaign.cpa
        for g in range(n_bidders):
            if not stopped[g] and budgets[g] > 0 and stats[g].spend >= budgets[g]:
                stopped[g] = True
                stats[g].spent_out = True
                stats[g].stop_window = w

    log = None
    if record_events:
        ts, user, kind, bidder, price = np.array(
            rows, dtype=np.int64).reshape(-1, 5).T
        data = _time_sorted(np.concatenate([
            _event_block(req_ts, req_user, KIND_CODE[AD_REQUEST],
                         topic=req_topic),
            _event_block(ts, user, kind, adv=0, bidder=bidder, price=price),
            behavior,
        ], axis=1))
        log = EventLog(*data, users=population.user_ids, advertisers=(adv,),
                       bidders=(*labels, MARKET), seed=config.seed,
                       config_digest=run_digest)
    return MarketRun(log=log, groups=stats, n_windows=n_windows,
                     config_digest=run_digest)


def _settle(
    our: int, comp: int, reserve: int, tie_rng: np.random.Generator
) -> tuple[bool, int]:
    """Second-price settlement of our bid against the competitor's.

    Returns (we_win, price paid by the winner). Mirrors
    :func:`liftsim.market.run_auction` for the two-bid case.
    """
    if our <= reserve and comp <= reserve:
        return False, 0
    if our > comp:
        return True, max(comp, reserve)
    if comp > our:
        return False, max(our, reserve)
    we_win = bool(tie_rng.integers(2))
    return we_win, our


def _competitor_bids(
    config: WorldConfig,
    rng: np.random.Generator,
    p: np.ndarray,
    req_user: np.ndarray,
) -> np.ndarray:
    spec = config.competitor_bids
    kind = spec.get("kind")
    k = len(req_user)
    if kind == "fixed":
        return np.full(k, int(round(spec["dollars"] * 1e6)), dtype=np.int64)
    if kind == "lognormal":
        micros = spec["median_dollars"] * 1e6 * np.exp(
            spec["sigma"] * rng.standard_normal(k))
        return np.rint(micros).astype(np.int64)
    if kind == "value_tracking":
        pool = float(spec.get("pool", 0.5))
        base = pool * p[req_user] + (1.0 - pool) * float(p.mean())
        noise = np.exp(spec["sigma"] * rng.standard_normal(k))
        micros = spec["scale_dollars"] * 1e6 * base * noise
        return np.rint(micros).astype(np.int64)
    raise WorldConfigError(f"unknown competitor_bids kind {kind!r}")


def _event_block(ts, user, kind, **optional) -> np.ndarray:
    """Events as an int64 array with one row per field of :data:`FIELDS`;
    fields not given are absent (-1)."""
    block = np.full((len(FIELDS), len(ts)), -1, dtype=np.int64)
    block[0], block[1], block[2] = ts, user, kind
    for name, values in optional.items():
        block[FIELDS.index(name)] = values
    return block


def _time_sorted(block: np.ndarray) -> np.ndarray:
    """Events sorted stably by (ts, user, kind); user codes are rows, whose
    ids share one zero-padded width, so they sort as the ids do."""
    return block[:, np.lexsort((block[2], block[1], block[0]))]


def _behavior_events(population: Population, config: WorldConfig) -> np.ndarray:
    """Page views, searches and app events drawn from per-user
    propensities, as an event block in draw order."""
    bcfg = config.behavior
    n = len(population)
    days = config.horizon_days
    rng = rng_for(config.seed, "behavior")
    blocks = []
    for kind, rate in ((PAGE_VIEW, bcfg.get("pv_rate", 2.0)),
                       (SEARCH, bcfg.get("search_rate", 0.8))):
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
        (bcfg.get("app_rate", 0.12) * population.app_weights)[:, None, :],
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
