"""World generation and market simulation: determinism, causality, accounting."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import liftsim.world
from liftsim.bidders import BidderConfig, price_bids
from liftsim.events import (
    ACTION, AD_REQUEST, AUCTION, BID, CLICK, EVENT_KINDS, IMPRESSION,
    KIND_CODE,
)
from liftsim.market import Campaign, dollars_to_micros, may_win
from liftsim.world import (
    CLICK_DELAY_SECS, SECONDS_PER_DAY, WorldConfig, WorldConfigError,
    _check_sortable, _time_order, _time_sorted, behavior_log,
    generate_population, precedent_impression_fraction, run_market,
    split_budget,
)
from test_market import second_price

D = dollars_to_micros


def rows_of(log, kind):
    """Indices of the log's events of one kind, in log order."""
    return np.flatnonzero(log.kind == KIND_CODE[kind])


def example_pair_config(seed=0, horizon_days=2):
    """The canonical two-user world: (p, lift) = (.04, .01) and (.02, .019)."""
    return WorldConfig(
        n_users=2,
        seed=seed,
        horizon_days=horizon_days,
        p_distribution={"kind": "fixed", "values": [0.04, 0.02]},
        delta_p_distribution={"kind": "fixed", "values": [0.01, 0.019]},
        request_rate={"kind": "fixed", "value": 1.0},
        request_arrivals="deterministic",
        competitor_bids={"kind": "fixed", "dollars": 3.5},
        behavior={"enabled": False},
    )


def small_world(seed=0, n_users=300, horizon_days=4, behavior=False):
    return WorldConfig(
        n_users=n_users,
        seed=seed,
        horizon_days=horizon_days,
        behavior={"enabled": behavior, "correlation": 0.85},
    )


def campaign(budget_dollars=1e9, aw_days=2):
    return Campaign("adv1", cpa=D(100.0), budget=D(budget_dollars),
                    action_window_days=aw_days)


def test_population_is_deterministic():
    config = small_world(seed=99, n_users=500)
    def columns(population):
        return [getattr(population, f.name) for f in fields(population)]

    one = generate_population(config)
    two = generate_population(config)
    assert all(np.array_equal(a, b) for a, b in zip(columns(one), columns(two)))
    other = generate_population(small_world(seed=100, n_users=500))
    assert not np.array_equal(other.p, one.p)


def test_population_respects_invariants():
    users = generate_population(small_world(seed=3, n_users=1000))
    assert len(users) == 1000
    assert ((0.0 <= users.p) & (users.p <= 1.0)).all()
    assert ((0.0 <= users.background_rate) & (users.background_rate <= 1.0)).all()
    assert (users.request_rate >= 0).all()
    assert users.topic_weights.shape == (1000, 6)
    assert users.app_weights.shape == (1000, 3)
    assert users.user_ids[0] == "u000000" and users.user_ids[-1] == "u000999"


def test_rank_coupling_keeps_each_marginal_exact():
    # scipy is only a reference here. The KS statistics on this seed are
    # 0.0070 (p) and 0.0035 (ratio); the bound is the asymptotic critical
    # value at alpha = 0.01, 1.63 / sqrt(n).
    n = 20_000
    users = generate_population(WorldConfig(n_users=n, seed=0,
                                            behavior={"enabled": False}))
    x = (users.p - 0.001) / (0.1 - 0.001)  # the default scaled Beta(2, 5)
    ratio = users.delta_p / users.p        # the default uniform on [0.05, 0.95]
    bound = 1.63 / math.sqrt(n)
    assert stats.kstest(x, stats.beta(2, 5).cdf).statistic < bound
    assert stats.kstest(ratio, stats.uniform(0.05, 0.9).cdf).statistic < bound


@pytest.mark.parametrize("rho", [-0.5, 0.8])
def test_rank_coupling_has_the_copulas_rank_correlation(rho):
    # Spearman's rho of a Gaussian copula is (6/pi) asin(rho/2): -0.4826
    # and 0.7859 here, against -0.4841 and 0.7876 measured on this seed.
    # Its standard error at 20,000 users is about 0.006 or less.
    users = generate_population(WorldConfig(
        n_users=20_000, seed=0, p_lift_dependence=rho,
        behavior={"enabled": False}))
    spearman = stats.spearmanr(users.p, users.delta_p / users.p).statistic
    assert spearman == pytest.approx(6 / math.pi * math.asin(rho / 2), abs=0.02)


def test_one_user_and_redrawn_users_are_valid(monkeypatch):
    one = generate_population(WorldConfig(n_users=1, seed=2))
    assert 0.001 <= one.p[0] <= 0.1
    assert 0.05 <= one.delta_p[0] / one.p[0] <= 0.95

    # A ratio above 1 is rejected, so about a third of each chunk is
    # drawn again, in smaller chunks ranked on their own: on this seed
    # 300, 87, 30, 13, 5 and 1 users.
    chunks = []
    draw = liftsim.world._draw_p_and_ratio

    def counted_draw(config, rng, k):
        chunks.append(k)
        return draw(config, rng, k)

    monkeypatch.setattr(liftsim.world, "_draw_p_and_ratio", counted_draw)
    users = generate_population(WorldConfig(
        n_users=300, seed=2, behavior={"enabled": False},
        delta_p_distribution={"kind": "uniform_ratio", "low": 0.4, "high": 1.3}))
    assert chunks[0] == 300 and chunks[-1] == 1
    ratio = users.delta_p / users.p
    assert ((0.001 <= users.p) & (users.p <= 0.1)).all()
    assert ((0.4 <= ratio) & (ratio <= 1.0)).all()


def test_fixed_population_reproduces_example_pair():
    users = generate_population(example_pair_config())
    assert users.p.tolist() == [0.04, 0.02]
    assert users.delta_p.tolist() == [0.01, 0.019]


def test_zero_lift_world():
    config = small_world(seed=5, n_users=50)
    config = replace(config, delta_p_distribution={"kind": "zero"})
    users = generate_population(config)
    assert (users.delta_p == 0.0).all()


def test_overrejecting_distribution_is_a_config_error():
    config = WorldConfig(
        n_users=200,
        p_distribution={"kind": "point", "value": 0.4},
        delta_p_distribution={"kind": "uniform_ratio", "low": 1.4, "high": 2.5},
    )
    with pytest.raises(WorldConfigError, match="rejection"):
        generate_population(config)


def _unexposed_actions(config):
    """Actions per user of a passive-only market: nobody is ever exposed."""
    population = generate_population(config)
    run = run_market(population, [BidderConfig(kind="passive")], campaign(),
                     config, assignment=np.zeros(len(population), dtype=int))
    log = run.log
    per_user = dict.fromkeys(population.user_ids, 0)
    for user in log.user[rows_of(log, ACTION)].tolist():
        per_user[log.users[user]] += 1
    return run, list(per_user.values())


def test_realize_action_extremes():
    config = WorldConfig(
        n_users=2, horizon_days=8,
        p_distribution={"kind": "fixed", "values": [1.0, 0.5]},
        delta_p_distribution={"kind": "fixed", "values": [0.0, 0.5]},
        behavior={"enabled": False})
    run, actions = _unexposed_actions(config)
    assert run.n_windows == 4
    assert actions == [4, 0]  # background rates 1 and 0


def test_realize_action_unexposed_rate_binomial():
    config = WorldConfig(
        n_users=25_000, seed=123, horizon_days=8,
        p_distribution={"kind": "point", "value": 0.02},
        delta_p_distribution={"kind": "point_ratio", "value": 0.95},
        request_rate={"kind": "fixed", "value": 0.0},
        behavior={"enabled": False})
    run, actions = _unexposed_actions(config)
    n = 25_000 * run.n_windows
    bg = 0.02 - 0.02 * 0.95
    hits = sum(actions)
    sigma = np.sqrt(n * bg * (1 - bg))
    assert abs(hits - n * bg) <= 3 * sigma


def test_split_budget_shares_between_active_bidders():
    lineup = [BidderConfig(kind="passive"),
              BidderConfig(kind="value", alpha=D(100.0)),
              BidderConfig(kind="lift", beta=D(300.0))]
    assert split_budget(lineup, 1001) == [0, 500, 500]
    assert split_budget(lineup[:1], 1001) == [0]


ABC_BIDDERS = [
    BidderConfig(kind="passive"),
    BidderConfig(kind="value", alpha=D(100.0)),
    BidderConfig(kind="lift", beta=D(300.0)),
]


def _abc_run(config, budget_dollars=1e9, record_events=True,
             estimator_factory=None):
    population = generate_population(config)
    assignment = np.arange(len(population)) % 3
    estimator = None
    if estimator_factory is not None:
        estimator = estimator_factory(population)
    return run_market(
        population, ABC_BIDDERS, campaign(budget_dollars), config,
        assignment=assignment, record_events=record_events,
        estimator=estimator,
    )


def test_simulation_replays_byte_identically():
    config = small_world(seed=11, n_users=120, behavior=True)
    one = _abc_run(config).log
    two = _abc_run(config).log
    assert one.dumps() == two.dumps()


def test_different_seed_changes_the_log():
    one = _abc_run(small_world(seed=11, n_users=120)).log
    two = _abc_run(small_world(seed=12, n_users=120)).log
    assert one.dumps() != two.dumps()


def test_passive_group_has_no_impressions_but_background_actions():
    config = small_world(seed=21, n_users=900, horizon_days=8)
    run = _abc_run(config)
    passive = run.groups[0]
    assert passive.kind == "passive"
    assert passive.impressions == 0
    assert passive.bids_placed == 0
    assert passive.inventory_cost == 0
    # Background actions still occur at roughly the group's mean rate.
    assert passive.actions > 0
    assert passive.expected_actions > 0


def test_log_and_summary_agree():
    config = small_world(seed=22, n_users=240, horizon_days=4)
    run = _abc_run(config)
    log = run.log
    by_label = {g.bidder: g for g in run.groups}
    imps = {}
    costs = {}
    for i in rows_of(log, IMPRESSION):
        label = log.bidders[log.bidder[i]]
        imps[label] = imps.get(label, 0) + 1
        costs[label] = costs.get(label, 0) + int(log.price[i])
    for label in ("value", "lift"):
        assert by_label[label].impressions == imps.get(label, 0)
        assert by_label[label].inventory_cost == costs.get(label, 0)
    assert len(rows_of(log, ACTION)) == sum(g.actions for g in run.groups)


def test_fast_path_matches_recorded_run():
    # Without a log, windows after the last bidder stops are never built.
    worlds = [(small_world(seed=23, n_users=300, horizon_days=4), 1e9),
              *map(engine_world, ENGINE_CASES)]
    for (config, budget), factory in itertools.product(
            worlds, (None, TruthEstimator)):
        with_log = _abc_run(config, budget, True, factory)
        without = _abc_run(config, budget, False, factory)
        assert without.log is None
        assert [g.as_dict() for g in with_log.groups] == \
            [g.as_dict() for g in without.groups]


def test_events_are_time_ordered_and_causal():
    config = small_world(seed=24, n_users=150, horizon_days=4, behavior=True)
    log = _abc_run(config).log
    last_ts = {}
    for user, ts in zip(log.user.tolist(), log.ts.tolist()):
        assert last_ts.get(user, -1) <= ts
        last_ts[user] = ts
    # Every impression must have an auction at the same timestamp for the
    # same user, and the auction winner is the impression's bidder.
    auctions = {(log.ts[i], log.user[i]): i for i in rows_of(log, AUCTION)}
    for imp in rows_of(log, IMPRESSION):
        auction = auctions[(log.ts[imp], log.user[imp])]
        assert log.bidder[auction] == log.bidder[imp]
        assert log.price[auction] == log.price[imp]


HORIZON = 28 * SECONDS_PER_DAY


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.integers(0, HORIZON - 1), min_size=3, max_size=3),
       size=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
@example(values=[0, 0, HORIZON - 1], size=0, seed=0)
@example(values=[0, 0, HORIZON - 1], size=1, seed=0)
def test_time_order_is_the_stable_argsort(values, size, seed):
    # Times drawn from three values, so most of them tie.
    ts = np.array(values, dtype=np.int64)[
        np.random.default_rng(seed).integers(0, 3, size)]
    expected = np.argsort(ts, kind="stable")
    sorted_ts = ts.copy()
    order = _time_order(sorted_ts, HORIZON)
    assert order.tolist() == expected.tolist()
    assert sorted_ts.tolist() == ts[expected].tolist()


def test_time_order_needs_keys_of_at_most_63_bits():
    # Five times need 3 bits of position: times below 2**60 fit, 2**61 not.
    ts = np.array([4, 0, 4, 2, 0], dtype=np.int64)
    assert _time_order(ts.copy(), 2**60).tolist() == [1, 4, 3, 0, 2]
    with pytest.raises(WorldConfigError, match="63 bits"):
        _time_order(ts.copy(), 2**61)


def test_request_count_is_bounded_before_the_draw(monkeypatch):
    # 60 users at the default rates expect about 145M requests over a
    # million days, more than 63-bit keys can order there; the requests
    # stream must not draw them before the refusal.
    stream = liftsim.world.rng_for

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"the requests stream drew ({name})")

    monkeypatch.setattr(
        liftsim.world, "rng_for",
        lambda seed, *tags: NoDraws() if tags == ("requests",)
        else stream(seed, *tags))
    config = small_world(n_users=60, horizon_days=1_000_000)
    population = generate_population(config)
    with pytest.raises(WorldConfigError, match="63 bits"):
        run_market(population, [BidderConfig(kind="passive")], campaign(),
                   config, assignment=np.zeros(60, dtype=int))


class NormalCounter:
    """A stream that counts the standard normals drawn from it and
    refuses any other draw."""

    def __init__(self, rng):
        self.rng, self.normals = rng, 0

    def standard_normal(self, size):
        self.normals += size
        return self.rng.standard_normal(size)

    def __getattr__(self, name):
        raise AssertionError(f"the market stream drew ({name})")


def _market_normals(monkeypatch, config, bidders, budget_dollars,
                    record_events):
    """The run and the number of normals its ``market`` stream drew."""
    stream = liftsim.world.rng_for
    counters = []

    def counting(seed, *tags):
        rng = stream(seed, *tags)
        if tags == ("market",):
            counters.append(NormalCounter(rng))
            return counters[-1]
        return rng

    monkeypatch.setattr(liftsim.world, "rng_for", counting)
    population = generate_population(config)
    run = run_market(population, bidders, campaign(budget_dollars), config,
                     assignment=np.arange(len(population)) % len(bidders),
                     record_events=record_events)
    return run, counters[0].normals


@pytest.mark.parametrize("record_events", [True, False], ids=["log", "no-log"])
def test_competitor_normals_are_drawn_only_while_a_bidder_is_left(
        monkeypatch, record_events):
    # Both bidders spend out before the last of 6 windows: the market draws
    # one normal per request of the windows up to the last one with a bid.
    config = small_world(seed=26, n_users=600, horizon_days=12)
    run, normals = _market_normals(monkeypatch, config, ABC_BIDDERS, 300.0,
                                   record_events)
    _, value, lift = run.groups
    last = max(value.stop_window, lift.stop_window)
    assert value.spent_out and lift.spent_out and last < run.n_windows - 1
    log = run.log if record_events else _abc_run(config, 300.0).log
    requests = log.ts[rows_of(log, AD_REQUEST)]
    assert normals == np.count_nonzero(
        requests < (last + 1) * 2 * SECONDS_PER_DAY) < requests.size


@pytest.mark.parametrize("case", ["zero-budget", "passive-only", "fixed"])
def test_no_competitor_normal_is_drawn_without_a_bid_to_face(monkeypatch, case):
    # No active bidder ever bids, or the competitor bids a fixed amount.
    config, bidders, budget = small_world(seed=27, n_users=150), ABC_BIDDERS, 0.0
    if case == "passive-only":
        bidders, budget = ABC_BIDDERS[:1], 1e9
    if case == "fixed":
        config = replace(config, competitor_bids={"kind": "fixed",
                                                  "dollars": 3.5})
        budget = 1e9
    run, normals = _market_normals(monkeypatch, config, bidders, budget, True)
    assert normals == 0
    assert (sum(g.bids_placed for g in run.groups) > 0) == (case == "fixed")


@settings(max_examples=100, deadline=None)
@given(n_users=st.integers(1, 40), size=st.integers(0, 2000),
       horizon=st.integers(1, HORIZON), seed=st.integers(0, 2**32 - 1))
@example(n_users=1, size=0, horizon=1, seed=0)
def test_time_sorted_is_the_stable_lexsort(n_users, size, horizon, seed):
    # Few distinct times, users and kinds, so (ts, user, kind) often ties
    # and the fields after them show whether ties keep their order.
    rng = np.random.default_rng(seed)
    block = rng.integers(-1, 1000, (8, size))
    block[0] = rng.choice(rng.integers(0, horizon + CLICK_DELAY_SECS, 4), size)
    block[1] = rng.integers(0, n_users, size)
    block[2] = rng.integers(0, len(EVENT_KINDS), size)
    expected = block[:, np.lexsort((block[2], block[1], block[0]))]
    assert np.array_equal(_time_sorted(block, n_users), expected)


def test_sort_keys_are_bounded_at_63_bits():
    # The largest key is (horizon + click delay) * users * kinds - 1.
    horizon = 28 * SECONDS_PER_DAY
    fits = 2**63 // ((horizon + CLICK_DELAY_SECS) * len(EVENT_KINDS))
    _check_sortable(fits, horizon)
    with pytest.raises(WorldConfigError, match="63 bits"):
        _check_sortable(fits + 1, horizon)


def test_event_sort_keys_are_bounded_before_the_draw(monkeypatch):
    # With 2**60 kinds no world's keys fit in 63 bits; no stream may draw
    # before run_market or behavior_log refuses it.
    config = small_world(n_users=20, horizon_days=2, behavior=True)
    population = generate_population(config)

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"a stream drew ({name})")

    monkeypatch.setattr(liftsim.world, "rng_for", lambda seed, *tags: NoDraws())
    monkeypatch.setattr(liftsim.world, "EVENT_KINDS", range(2**60))
    with pytest.raises(WorldConfigError, match="63 bits"):
        run_market(population, [BidderConfig(kind="passive")], campaign(),
                   config, assignment=np.zeros(20, dtype=int))
    with pytest.raises(WorldConfigError, match="63 bits"):
        behavior_log(population, config)


def test_two_bidders_of_one_kind_are_refused():
    config = small_world(seed=34, n_users=10, horizon_days=2)
    population = generate_population(config)
    twins = [BidderConfig(kind="value", alpha=D(100.0)),
             BidderConfig(kind="value", alpha=D(50.0))]
    with pytest.raises(WorldConfigError, match="kind of its own"):
        run_market(population, twins, campaign(), config,
                   assignment=np.arange(10) % 2)


def test_engine_settlement_matches_run_auction():
    config = small_world(seed=25, n_users=200, horizon_days=2)
    run = _abc_run(config)
    log = run.log
    auctions = rows_of(log, AUCTION)
    assert auctions.size
    bids_by_key = {(log.ts[i], log.user[i]): i for i in rows_of(log, BID)}
    checked = 0
    for auction in auctions[:300]:
        bid = bids_by_key[(log.ts[auction], log.user[auction])]
        if log.bidder[auction] == log.bidder[bid]:
            # We won: the auction price is the competitor's (losing) bid.
            price = int(log.price[auction])
            assert second_price(int(log.price[bid]), price, 0) == (True, price)
            checked += 1
    assert checked > 10


class TruthEstimator:
    """Estimates that are the ground truth: the oracle's bids, priced
    on the estimator path."""

    def __init__(self, population):
        self.p, self.delta_p = population.p, population.delta_p

    def estimate(self, user_index, ts, topic_id):
        return self.p[user_index], self.delta_p[user_index]

    def observe(self, user_index, kind, ref, ts):
        pass


# World overrides and the campaign budget in dollars. The value bidder
# bids $4.00 on every user of the "ties" world, as the competitor does.
# Both bidders spend out in window 0 of 3 with $300, so without a log the
# market never builds the requests of windows 1 and 2; with $500 the lift
# bidder stops after window 0 and the value bidder after window 1.
ENGINE_CASES = {
    "default": ({}, 1e9),
    "reserve": ({"reserve_micros": D(4.0)}, 1e9),
    "ties": ({"p_distribution": {"kind": "point", "value": 0.04},
              "delta_p_distribution": {"kind": "point_ratio", "value": 0.25},
              "competitor_bids": {"kind": "fixed", "dollars": 4.0}}, 1e9),
    "deterministic": ({"request_arrivals": "deterministic"}, 1e9),
    "spend_out": ({}, 300.0),
    "staggered_spend_out": ({}, 500.0),
    "zero_lift": ({"delta_p_distribution": {"kind": "zero"}}, 1e9),
    "lognormal": ({"competitor_bids": {"kind": "lognormal",
                                       "median_dollars": 2.0, "sigma": 0.5}},
                  1e9),
}


def engine_world(case):
    """The world and budget of ``ENGINE_CASES[case]``."""
    overrides, budget = ENGINE_CASES[case]
    return WorldConfig(n_users=240, seed=31, horizon_days=6, **overrides), budget


@pytest.mark.parametrize("record_events", [True, False], ids=["log", "no-log"])
@pytest.mark.parametrize("case", ENGINE_CASES)
def test_oracle_window_step_matches_the_per_request_path(case, record_events):
    """Truth estimates split each window into runs that end at an auction
    we may win; they must give the oracle's one run per window's bytes."""
    config, budget = engine_world(case)
    oracle = _abc_run(config, budget, record_events)
    truth = _abc_run(config, budget, record_events,
                     estimator_factory=TruthEstimator)
    assert [g.as_dict() for g in oracle.groups] == \
        [g.as_dict() for g in truth.groups]
    if not record_events:
        return
    assert oracle.log.dumps() == truth.log.dumps()
    # Each world exercises what it is named for.
    log, (_, value, lift) = oracle.log, oracle.groups
    assert value.impressions > 0 and rows_of(log, CLICK).size > 0
    if case == "reserve":
        assert (log.bidder[rows_of(log, AUCTION)] == -1).any()
    if case == "ties":
        assert 0 < value.impressions < value.bids_placed
    if case == "spend_out":
        assert value.stop_window == lift.stop_window == 0
    if case == "staggered_spend_out":
        assert (lift.stop_window, value.stop_window) == (0, 1)
    if case == "zero_lift":  # the lift group's requests all bid 0
        assert lift.requests > 0 and lift.bids_placed == 0


class RecordingEstimator(TruthEstimator):
    """Truth estimates that record everything the market tells them."""

    def __init__(self, population):
        super().__init__(population)
        self.seen = []

    def observe(self, user_index, kind, ref, ts):
        self.seen.append((user_index, kind, ref, ts))


def test_the_market_tells_an_estimator_only_its_own_wins_and_clicks():
    config = small_world(seed=27, n_users=240, horizon_days=6, behavior=True)
    recorders = []

    def recorder(population):
        recorders.append(RecordingEstimator(population))
        return recorders[-1]

    run = _abc_run(config, estimator_factory=recorder)
    log, seen = run.log, recorders[0].seen
    assert {kind for _, kind, _, _ in seen} == {IMPRESSION, CLICK}
    assert {ref for _, _, ref, _ in seen} == {"adv1"}
    # Every impression and click in the log is one of our groups' wins.
    rows = np.flatnonzero(np.isin(log.kind, [KIND_CODE[IMPRESSION],
                                             KIND_CODE[CLICK]]))
    assert (log.bidder[rows] < len(run.groups)).all()
    assert sorted(seen) == sorted(
        (int(log.user[i]), EVENT_KINDS[log.kind[i]], log.advertisers[log.adv[i]],
         int(log.ts[i])) for i in rows)
    for user in {u for u, _, _, _ in seen}:
        times = [ts for u, _, _, ts in seen if u == user]
        assert times == sorted(times)


def _fewer_per_win(impressions, clicks):
    return 1.0 / (1.0 + impressions + 2.0 * clicks)


def _none_after_a_win(impressions, clicks):
    return (impressions == 0).astype(float)


# How a user's truth estimates scale with the impressions and clicks the
# market has told of them: down with each, or to 0 after the first win.
WEIGHT_RULES = {"fewer-per-win": _fewer_per_win,
                "none-after-a-win": _none_after_a_win}


class WinCountingEstimator(TruthEstimator):
    """Truth estimates scaled by a weight rule of the impressions and
    clicks the market has told it about the user, up to the request's
    time."""

    def __init__(self, population, weight=_fewer_per_win):
        super().__init__(population)
        self.weight = weight
        self.told = {}  # user -> [(kind, ts)]

    def observe(self, user_index, kind, ref, ts):
        self.told.setdefault(user_index, []).append((kind, ts))

    def estimate(self, user_index, ts, topic_id):
        kinds = [[kind for kind, t in self.told.get(u, ()) if t <= at]
                 for u, at in zip(user_index.tolist(), ts.tolist())]
        weight = self.weight(np.array([k.count(IMPRESSION) for k in kinds]),
                             np.array([k.count(CLICK) for k in kinds]))
        p, delta_p = super().estimate(user_index, ts, topic_id)
        return p * weight, delta_p * weight


@pytest.mark.parametrize("rule", WEIGHT_RULES)
def test_no_bid_is_priced_from_a_stale_history(rule):
    """Every bid equals the bid priced from the user's impressions before
    it and clicks at or before it, as the log records them; a request
    priced at 0 logs no bid."""
    weight_of = WEIGHT_RULES[rule]
    config = small_world(seed=41, n_users=240, horizon_days=6, behavior=True)
    run = _abc_run(config, estimator_factory=lambda population:
                   WinCountingEstimator(population, weight_of))
    log, population = run.log, generate_population(config)
    bids = rows_of(log, BID)
    user, ts = log.user[bids], log.ts[bids]
    # No user bids twice in one second, so an impression at a bid's own
    # (user, ts) is that bid's win, which its price cannot know of.
    assert np.unique(np.stack([user, ts]), axis=1).shape[1] == bids.size

    def told_before(kind, side, user, ts, since=0):
        key = log.user * 2**40 + log.ts
        told = np.sort(key[rows_of(log, kind)])
        return (np.searchsorted(told, user * 2**40 + ts, side)
                - np.searchsorted(told, user * 2**40 + since))

    impressions = told_before(IMPRESSION, "left", user, ts)
    clicks = told_before(CLICK, "right", user, ts)
    weight = weight_of(impressions, clicks)
    p, delta_p = population.p[user] * weight, population.delta_p[user] * weight
    expected = np.zeros(bids.size, dtype=np.int64)
    for g, bidder in enumerate(ABC_BIDDERS):
        mine = log.bidder[bids] == g
        expected[mine] = price_bids(bidder, p[mine], delta_p[mine])
    assert np.array_equal(log.price[bids], expected)
    assert (expected > 0).all()
    if rule == "fewer-per-win":
        # Some bids follow their user's impressions and clicks.
        assert (impressions > 0).any() and (clicks > 0).any()
    else:
        # An active group's request after its user's first win bids 0:
        # it has no bid row, also where that win is in the same window.
        requests = rows_of(log, AD_REQUEST)
        requests = requests[log.user[requests] % 3 != 0]
        r_user, r_ts = log.user[requests], log.ts[requests]
        after_a_win = told_before(IMPRESSION, "left", r_user, r_ts) > 0
        window_start = r_ts - r_ts % (2 * SECONDS_PER_DAY)
        same_window = told_before(IMPRESSION, "left", r_user, r_ts,
                                  since=window_start) > 0
        assert same_window.sum() > 10
        bid_keys = set(zip(user.tolist(), ts.tolist()))
        assert bid_keys == set(zip(r_user[~after_a_win].tolist(),
                                   r_ts[~after_a_win].tolist()))


class PricingCounter(WinCountingEstimator):
    """Win-counting estimates that record the rows of each call."""

    def __init__(self, population, weight=_fewer_per_win):
        super().__init__(population, weight)
        self.calls = []

    def estimate(self, user_index, ts, topic_id):
        self.calls.append(len(user_index))
        return super().estimate(user_index, ts, topic_id)


def test_stale_requests_are_priced_in_one_call_per_stop():
    """Re-pricing waits for the walk to reach a stale request and then
    prices every stale one: each (win, later request of its user in the
    window) is priced once, as pricing at once after each win would, in
    fewer calls than that scheme's windows plus wins with a later
    request."""
    config = small_world(seed=41, n_users=240, horizon_days=6, behavior=True)
    counters = []
    run = _abc_run(config, estimator_factory=lambda population:
                   counters.append(PricingCounter(population)) or counters[-1])
    log, calls = run.log, counters[0].calls
    requests = rows_of(log, AD_REQUEST)
    requests = requests[log.user[requests] % 3 != 0]  # the bidding groups
    r_key = log.user[requests] * 2**40 + log.ts[requests]
    assert np.unique(r_key).size == r_key.size  # one request per second
    # Per win, the same user's requests after it in the window.
    wins = rows_of(log, IMPRESSION)
    w_user, w_ts = log.user[wins], log.ts[wins]
    window_end = (w_ts // (2 * SECONDS_PER_DAY) + 1) * 2 * SECONDS_PER_DAY
    r_key.sort()
    later = (np.searchsorted(r_key, w_user * 2**40 + window_end)
             - np.searchsorted(r_key, w_user * 2**40 + w_ts, "right"))
    assert (later > 0).sum() > 10
    assert 0 not in calls
    assert sum(calls) == requests.size + later.sum()
    assert len(calls) < run.n_windows + (later > 0).sum()


def test_no_estimate_call_after_every_bidder_stops():
    """Once both active bidders have spent out, later windows price
    nothing, and truth estimates keep the oracle's outputs."""
    config = WorldConfig(n_users=240, seed=31, horizon_days=12)
    oracle = _abc_run(config, 300.0)
    counters = []
    truth = _abc_run(config, 300.0, estimator_factory=lambda population:
                     counters.append(PricingCounter(
                         population, lambda i, c: np.ones(i.shape)))
                     or counters[-1])
    (_, value, lift), calls = truth.groups, counters[0].calls
    assert max(value.stop_window, lift.stop_window) < truth.n_windows - 1
    assert calls and 0 not in calls
    assert [g.as_dict() for g in oracle.groups] == \
        [g.as_dict() for g in truth.groups]
    assert oracle.log.dumps() == truth.log.dumps()



def test_an_estimator_settles_a_window_in_runs(monkeypatch):
    """Each run_auction call settles a run: no auction we may win but
    its last. So there are fewer calls than bids, and none is empty."""
    settle = liftsim.world.run_auction
    runs = []

    def recording(our, comp, reserve, tie_rng):
        runs.append((our, comp, reserve))
        return settle(our, comp, reserve, tie_rng)

    monkeypatch.setattr(liftsim.world, "run_auction", recording)
    config = small_world(seed=41, n_users=240, horizon_days=6, behavior=True)
    run = _abc_run(config, estimator_factory=WinCountingEstimator)
    placed = sum(g.bids_placed for g in run.groups)
    assert 0 < len(runs) < placed
    assert sum(len(our) for our, _, _ in runs) == placed
    for our, comp, reserve in runs:
        assert len(our) > 0
        assert not may_win(our[:-1], comp[:-1], reserve).any()


def test_exposure_changes_only_action_probability():
    """Matched seeds: forcing exposure can only add actions, never remove."""
    config = example_pair_config(horizon_days=2)
    config = replace(config, n_users=2)
    population = generate_population(config)
    camp = campaign(budget_dollars=1e9, aw_days=2)

    def actions_with(bidder):
        run = run_market(population, [bidder], camp, config,
                         assignment=np.zeros(2, dtype=int))
        rows = rows_of(run.log, ACTION)
        return set(zip(run.log.user[rows].tolist(), run.log.ts[rows].tolist()))

    unexposed = actions_with(BidderConfig(kind="passive"))
    exposed = actions_with(BidderConfig(kind="value", alpha=D(1e6)))
    assert unexposed <= exposed


def test_spend_out_stops_bidding_and_caps_spend():
    config = small_world(seed=26, n_users=600, horizon_days=8)
    run = _abc_run(config, budget_dollars=300.0)
    for group in run.groups[1:]:
        assert group.spent_out
        assert group.stop_window is not None
        assert group.spend <= group.budget + D(100.0)  # at most one extra action
        assert group.attributed_billed * D(100.0) == group.spend
        assert group.attributed >= group.attributed_billed


def test_zero_budget_means_no_bids():
    config = small_world(seed=27, n_users=100, horizon_days=2)
    run = _abc_run(config, budget_dollars=0.0)
    for group in run.groups[1:]:
        assert group.impressions == 0
        assert group.spend == 0


def test_group_isolation():
    config = small_world(seed=28, n_users=90, horizon_days=2)
    population = generate_population(config)
    bidders = [BidderConfig(kind="passive"),
               BidderConfig(kind="value", alpha=D(100.0)),
               BidderConfig(kind="lift", beta=D(300.0))]
    assignment = np.arange(len(population)) % 3
    run = run_market(population, bidders, campaign(), config,
                     assignment=assignment)
    group_of = {uid: int(g) for uid, g in zip(population.user_ids, assignment)}
    labels = [g.bidder for g in run.groups]
    log = run.log
    for user, code in zip(log.user.tolist(), log.bidder.tolist()):
        if code >= 0 and log.bidders[code] in labels:
            assert labels[group_of[log.users[user]]] == log.bidders[code]


def test_group_action_rate_converges_to_mean_effective_rate():
    config = small_world(seed=29, n_users=12_000, horizon_days=2)
    run = _abc_run(config)
    for group in run.groups:
        expect = group.expected_actions
        sigma = np.sqrt(max(expect, 1.0))
        assert abs(group.actions - expect) <= 4 * sigma


def test_conservation_of_actions():
    config = small_world(seed=30, n_users=400, horizon_days=4)
    run = _abc_run(config)
    log = run.log
    total = len(rows_of(log, ACTION))
    assert total == sum(g.actions for g in run.groups)
    attributed = sum(g.attributed for g in run.groups)
    assert 0 <= attributed <= total


def test_precedent_impression_fraction_counts():
    config = small_world(seed=31, n_users=500, horizon_days=4)
    log = _abc_run(config).log
    frac = precedent_impression_fraction(log, "adv1", lookback_days=2)
    # Independent brute-force scan.
    imps = [(log.user[i], log.ts[i]) for i in rows_of(log, IMPRESSION)]
    hits = 0
    actions = rows_of(log, ACTION)
    for act in actions:
        user, ts = log.user[act], log.ts[act]
        if any(u == user and ts - 2 * 86_400 <= t <= ts for u, t in imps):
            hits += 1
    assert frac == pytest.approx(hits / len(actions))


def test_precedent_fraction_is_zero_for_passive_world():
    config = small_world(seed=32, n_users=400, horizon_days=2)
    population = generate_population(config)
    run = run_market(population, [BidderConfig(kind="passive")], campaign(),
                     config, assignment=np.zeros(len(population), dtype=int))
    frac = precedent_impression_fraction(run.log, "adv1", lookback_days=2)
    assert frac == 0.0


def test_precedent_fraction_requires_actions():
    config = example_pair_config()
    population = generate_population(config)
    run = run_market(population, [BidderConfig(kind="passive")], campaign(),
                     config, assignment=np.zeros(2, dtype=int))
    if not rows_of(run.log, ACTION).size:
        with pytest.raises(ValueError):
            precedent_impression_fraction(run.log, "adv1", lookback_days=2)


def test_horizon_must_align_with_action_window():
    config = small_world(seed=33, n_users=10, horizon_days=3)
    population = generate_population(config)
    with pytest.raises(WorldConfigError, match="multiple"):
        run_market(population, [BidderConfig(kind="passive")],
                   campaign(aw_days=2), config,
                   assignment=np.zeros(len(population), dtype=int))
