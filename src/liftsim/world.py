"""Synthetic user worlds and the seeded market simulator.

A world is a population of users with known ground truth (action rate
``p``, lift ``delta_p``), per-user request rates, and behavioral
propensities that correlate with the ground truth so a learned model has
signal to recover. The simulator runs second-price auctions for every
ad request against an exogenous competitor bid, realizes actions from
the ground truth, and emits a replayable event log.

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
from scipy.special import ndtr

from .bidders import PASSIVE, BidderConfig, price_bids
from .events import (
    ACTION, AD_REQUEST, APP_INSTALL, APP_USE, BID, AUCTION, CLICK, IMPRESSION,
    PAGE_VIEW, SEARCH, EventLog, TimelineEvent,
)
from .market import BehaviorProfile, Campaign, GroundTruthUser
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

    from scipy.stats import beta as beta_dist

    if p_kind == "scaled_beta":
        lo, hi = p_spec["low"], p_spec["high"]
        p = lo + (hi - lo) * beta_dist.ppf(u_p, p_spec["a"], p_spec["b"])
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


def generate_population(config: WorldConfig) -> list[GroundTruthUser]:
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

    ages = rng.integers(0, 7, n)
    genders = rng.integers(0, 3, n)
    geos = rng.integers(0, 20, n)
    click_rate = float(bcfg.get("click_rate", 0.1))

    width = max(6, len(str(n - 1)))
    users = []
    for i in range(n):
        profile = BehaviorProfile(
            topic_weights=tuple(float(x) for x in topic_w[i]),
            app_weights=tuple(float(x) for x in app_w[i]),
            age_group=int(ages[i]),
            gender=int(genders[i]),
            geo_area=int(geos[i]),
            click_rate=click_rate,
        )
        users.append(GroundTruthUser(
            user_id=f"u{i:0{width}d}",
            p=float(p[i]),
            delta_p=float(delta_p[i]),
            request_rate=float(rates[i]),
            behavior_profile=profile,
        ))
    return users


# ---------------------------------------------------------------------------
# Market simulation
# ---------------------------------------------------------------------------

class BidEstimator(Protocol):
    """Source of (p, delta_p) estimates used to price bids at request time.

    ``observe`` is called for every emitted event in chronological order
    so a model-backed estimator can maintain rolling feature state.
    """

    def estimate(self, user_index: int, ts: int, topic_id: int) -> tuple[float, float]:
        ...

    def observe(self, event: TimelineEvent) -> None:
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
    counts: dict[str, int] = {}
    labels = []
    for b in bidders:
        counts[b.kind] = counts.get(b.kind, 0) + 1
        labels.append(b.kind)
    seen: dict[str, int] = {}
    out = []
    for label in labels:
        if counts[label] == 1:
            out.append(label)
        else:
            seen[label] = seen.get(label, 0) + 1
            out.append(f"{label}{seen[label]}")
    return out


def split_budget(bidders: list[BidderConfig], budget: int) -> list[int]:
    """Equal integer shares of ``budget`` for the active bidders; passive
    bidders get nothing."""
    n_active = sum(b.kind != PASSIVE for b in bidders)
    return [0 if b.kind == PASSIVE else budget // n_active for b in bidders]


def run_market(
    population: list[GroundTruthUser],
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

    p = np.array([u.p for u in population])
    dp = np.array([u.delta_p for u in population])
    bg = np.array([u.background_rate for u in population])
    rates = np.array([u.request_rate for u in population])
    user_ids = [u.user_id for u in population]

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
    counts = counts.astype(np.int64)
    total_requests = int(counts.sum())
    req_user = np.repeat(
        np.tile(np.arange(n), config.horizon_days),
        counts.T.reshape(-1),
    )
    req_day = np.repeat(np.arange(config.horizon_days), counts.sum(axis=0))
    offsets = req_rng.integers(0, SECONDS_PER_DAY, total_requests)
    req_ts = req_day * SECONDS_PER_DAY + offsets
    req_topic = req_rng.integers(0, config.topics, total_requests)

    # Sort requests chronologically (stable tiebreak on user then draw order).
    order = np.lexsort((np.arange(total_requests), req_user, req_ts))
    req_user = req_user[order]
    req_ts = req_ts[order]
    req_topic = req_topic[order]
    req_day = req_day[order]

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

    events: list[TimelineEvent] = []
    emit = events.append if record_events else None

    day_starts = np.searchsorted(req_day, np.arange(config.horizon_days))
    day_ends = np.searchsorted(req_day, np.arange(config.horizon_days) + 1)

    if record_events:
        for i in range(total_requests):
            events.append(TimelineEvent(
                ts=int(req_ts[i]), user_id=user_ids[req_user[i]],
                kind=AD_REQUEST, topic_id=int(req_topic[i])))

    # Behavioral events come from their own stream and never depend on
    # bidding, so they can be generated up front; a model-backed
    # estimator consumes them chronologically alongside the auctions.
    behavior_events: list[TimelineEvent] = []
    if config.behavior.get("enabled", True) and (record_events or estimator):
        behavior_events = _behavior_events(population, config)
        behavior_events.sort(key=TimelineEvent.sort_key)
    behavior_cursor = 0

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
                    while (behavior_cursor < len(behavior_events)
                           and behavior_events[behavior_cursor].ts <= ts):
                        estimator.observe(behavior_events[behavior_cursor])
                        behavior_cursor += 1
                    p_hat, dp_hat = estimator.estimate(u, ts, int(req_topic[i]))
                    our = int(price_bids(bidder, p_hat, dp_hat))
                else:
                    our = int(oracle_bids[u])
                if our <= 0:
                    continue
                stats[g].bids_placed += 1
                c = int(comp[i])
                if emit:
                    emit(TimelineEvent(ts=ts, user_id=user_ids[u], kind=BID,
                                       advertiser_id=adv, bidder=labels[g],
                                       price=our))
                we_win, price = _settle(our, c, reserve, tie_rng)
                if emit:
                    winner = labels[g] if we_win else (MARKET if c > reserve else None)
                    emit(TimelineEvent(ts=ts, user_id=user_ids[u], kind=AUCTION,
                                       advertiser_id=adv, bidder=winner,
                                       price=price))
                if not we_win:
                    continue
                stats[g].impressions += 1
                stats[g].inventory_cost += price
                window_exposed[u] = True
                imp = TimelineEvent(ts=ts, user_id=user_ids[u], kind=IMPRESSION,
                                    advertiser_id=adv, bidder=labels[g],
                                    price=price)
                if emit:
                    emit(imp)
                if estimator is not None:
                    estimator.observe(imp)
                if click_rng.random() < population[u].behavior_profile.click_rate:
                    stats[g].clicks += 1
                    clk = TimelineEvent(ts=ts + 30, user_id=user_ids[u],
                                        kind=CLICK, advertiser_id=adv,
                                        bidder=labels[g])
                    if emit:
                        emit(clk)
                    if estimator is not None:
                        estimator.observe(clk)

        effective = np.where(window_exposed, p, bg)
        hits = action_uniforms[:, w] < effective
        end_ts = (w + 1) * aw_secs - 1
        for g in range(n_bidders):
            mask = assignment == g
            stats[g].expected_actions += float(effective[mask].sum())
            stats[g].actions += int(hits[mask].sum())
        for u in np.nonzero(hits)[0]:
            u = int(u)
            act = TimelineEvent(ts=end_ts, user_id=user_ids[u], kind=ACTION,
                                advertiser_id=adv)
            if emit:
                emit(act)
            if estimator is not None:
                estimator.observe(act)
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
        events.extend(behavior_events)
        events.sort(key=TimelineEvent.sort_key)
        log = EventLog(events=events, seed=config.seed, config_digest=run_digest)
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


def _behavior_events(
    population: list[GroundTruthUser], config: WorldConfig
) -> list[TimelineEvent]:
    """Page views, searches and app events drawn from per-user propensities."""
    bcfg = config.behavior
    n = len(population)
    days = config.horizon_days
    rng = rng_for(config.seed, "behavior")
    topic_w = np.array([u.behavior_profile.topic_weights for u in population])
    app_w = np.array([u.behavior_profile.app_weights for u in population])
    user_ids = [u.user_id for u in population]
    events: list[TimelineEvent] = []

    def emit_counts(lam: np.ndarray, kind: str, ref_field: str) -> None:
        # lam shape: (users, refs); expands to (users, days, refs) draws.
        counts = rng.poisson(np.broadcast_to(
            lam[:, None, :], (n, days, lam.shape[1])))
        total = int(counts.sum())
        if total == 0:
            return
        flat = counts.reshape(-1)
        nz = np.nonzero(flat)[0]
        reps = flat[nz]
        refs = lam.shape[1]
        users = np.repeat(nz // (days * refs), reps)
        day_idx = np.repeat((nz // refs) % days, reps)
        ref_idx = np.repeat(nz % refs, reps)
        offs = rng.integers(0, SECONDS_PER_DAY, total)
        ts = day_idx * SECONDS_PER_DAY + offs
        for u, t, r in zip(users, ts, ref_idx):
            kwargs = {ref_field: int(r)}
            events.append(TimelineEvent(ts=int(t), user_id=user_ids[u],
                                        kind=kind, **kwargs))

    emit_counts(bcfg.get("pv_rate", 2.0) * topic_w, PAGE_VIEW, "topic_id")
    emit_counts(bcfg.get("search_rate", 0.8) * topic_w, SEARCH, "topic_id")

    use_counts = rng.poisson(np.broadcast_to(
        (bcfg.get("app_rate", 0.12) * app_w)[:, None, :],
        (n, days, config.apps)))
    for u in range(n):
        for a in range(config.apps):
            per_day = use_counts[u, :, a]
            if per_day.sum() == 0:
                continue
            first_day = int(np.nonzero(per_day)[0][0])
            install_ts = first_day * SECONDS_PER_DAY + int(
                rng.integers(0, SECONDS_PER_DAY))
            events.append(TimelineEvent(ts=install_ts, user_id=user_ids[u],
                                        kind=APP_INSTALL, app_id=a))
            for day in range(first_day, days):
                for _ in range(int(per_day[day])):
                    ts = day * SECONDS_PER_DAY + int(
                        rng.integers(0, SECONDS_PER_DAY))
                    events.append(TimelineEvent(ts=ts, user_id=user_ids[u],
                                                kind=APP_USE, app_id=a))
    return events


def precedent_impression_fraction(
    log: EventLog, advertiser: str, lookback_days: int
) -> float:
    """Fraction of the advertiser's actions preceded by its own impression.

    An action counts as "preceded" when at least one impression for the
    same advertiser landed on the same user within ``lookback_days``
    before (or at) the action timestamp.
    """
    lookback = lookback_days * SECONDS_PER_DAY
    imp_times: dict[str, list[int]] = {}
    for e in log.events:
        if e.kind == IMPRESSION and e.advertiser_id == advertiser:
            imp_times.setdefault(e.user_id, []).append(e.ts)
    actions = [e for e in log.events
               if e.kind == ACTION and e.advertiser_id == advertiser]
    if not actions:
        raise ValueError("log contains no actions for this advertiser")
    import bisect as _bisect

    preceded = 0
    for act in actions:
        times = imp_times.get(act.user_id)
        if not times:
            continue
        lo = _bisect.bisect_left(times, act.ts - lookback)
        hi = _bisect.bisect_right(times, act.ts)
        if hi > lo:
            preceded += 1
    return preceded / len(actions)
