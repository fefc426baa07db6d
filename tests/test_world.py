"""World generation and market simulation: determinism, causality, accounting."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import liftsim.world
from liftsim.bidders import BidderConfig, lineup, price_bids
from liftsim.events import (
    ACTION, AD_REQUEST, AUCTION, BID, CLICK, EVENT_KINDS, FIELDS, IMPRESSION,
    KIND_CODE,
)
from liftsim.experiments import ABTestConfig
from liftsim.market import Campaign, dollars_to_micros
from liftsim.seeds import rng_for
from liftsim.world import (
    CLICK_DELAY_SECS, SECONDS_PER_DAY, GroupStats, MarketInvariantError,
    WorldConfig, WorldConfigError, _check_sortable, _close_window,
    _time_order, _time_sorted, assign_groups,
    draw_action_rates, generate_population, market_population,
    precedent_impression_fraction, run_market, split_budget,
)
from event_records import parse_log
from test_events import traced
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


ACTION_RATE_SHAPES = {
    "defaults": {},
    # About a third of each draw has a ratio above 1 and is drawn again.
    "rejection_heavy": {
        "p_distribution": {"kind": "scaled_beta", "a": 0.7, "b": 1.5,
                           "low": 0.01, "high": 0.6},
        "delta_p_distribution": {"kind": "uniform_ratio", "low": 0.4,
                                 "high": 1.3}},
    "fixed": {
        "p_distribution": {"kind": "fixed",
                           "values": [0.01 + 0.002 * i for i in range(150)]},
        "delta_p_distribution": {"kind": "uniform_ratio", "low": 0.1,
                                 "high": 0.9}},
    "point": {
        "p_distribution": {"kind": "point", "value": 0.3},
        "delta_p_distribution": {"kind": "uniform_ratio", "low": 0.5,
                                 "high": 1.2}},
}


@pytest.mark.parametrize("shape", sorted(ACTION_RATE_SHAPES))
def test_action_rates_are_the_populations_first_draws(shape):
    """A verify record's seed replays its world: the (p, delta_p) drawn
    alone are bit for bit those of the whole population."""
    for seed in (0, 7, 21, 2**40 + 3):
        config = WorldConfig(n_users=150, seed=seed,
                             **ACTION_RATE_SHAPES[shape])
        p, delta_p = draw_action_rates(config, rng_for(seed, "population"))
        users = generate_population(config)
        assert p.tobytes() == users.p.tobytes()
        assert delta_p.tobytes() == users.delta_p.tobytes()


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
             estimator_factory=None, aw_days=2, population=None):
    if population is None:
        population = generate_population(config)
    assignment = np.arange(len(population)) % 3
    estimator = None
    if estimator_factory is not None:
        estimator = estimator_factory(population)
    return run_market(
        population, ABC_BIDDERS, campaign(budget_dollars, aw_days), config,
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


class NoDraws:
    """A stream that refuses every draw."""

    def __getattr__(self, name):
        raise AssertionError(f"the requests stream drew ({name})")


def one_cell_world(rate, arrivals):
    """One user over one day at a fixed request rate."""
    return WorldConfig(n_users=1, seed=0, horizon_days=1,
                       request_rate={"kind": "fixed", "value": rate},
                       request_arrivals=arrivals, behavior={"enabled": False})


def run_passive(monkeypatch, config, requests_stream):
    """A passive market of ``config``'s world, its ``requests`` stream
    replaced by ``requests_stream``."""
    stream = liftsim.world.rng_for
    monkeypatch.setattr(
        liftsim.world, "rng_for",
        lambda seed, *tags: requests_stream if tags == ("requests",)
        else stream(seed, *tags))
    run_market(market_population(config), [BidderConfig(kind="passive")],
               campaign(aw_days=1), config,
               assignment=np.zeros(config.n_users, dtype=int),
               record_events=False)


def test_request_count_is_bounded_before_the_draw(monkeypatch):
    # 60 users at the default rates expect about 145M requests over a
    # million days, more than 63-bit keys can order there; the requests
    # stream must not draw them before the refusal.
    config = small_world(n_users=60, horizon_days=1_000_000)
    with pytest.raises(WorldConfigError, match="63 bits"):
        run_passive(monkeypatch, config, NoDraws())


def test_an_expected_2_31_requests_are_refused_before_the_draw(monkeypatch):
    # One user, one day, 2**31 requests at a deterministic rate: the
    # request store's int32 counts cannot hold them.
    config = one_cell_world(2**31, "deterministic")
    with pytest.raises(WorldConfigError,
                       match=r"2\.14748e\+09 requests expected; .* 2\*\*31"):
        run_passive(monkeypatch, config, NoDraws())


def test_a_drawn_2_31_requests_are_refused_before_the_times(monkeypatch):
    # The expected count is 2, but the count draw gives 2**31: the
    # times of day are never drawn.
    class PastTheLimit(NoDraws):
        def poisson(self, lam):
            return np.full(lam.shape, 2**31, dtype=np.int64)

    with pytest.raises(WorldConfigError,
                       match=r"2\.14748e\+09 requests drawn; .* 2\*\*31"):
        run_passive(monkeypatch, one_cell_world(2.0, "poisson"),
                    PastTheLimit())


def test_a_market_holds_up_to_2_31_minus_1_requests(monkeypatch):
    # The largest count the rule lets through reaches the time draw.
    class OneShort(NoDraws):
        def poisson(self, lam):
            return np.full(lam.shape, 2**31 - 1, dtype=np.int64)

    with pytest.raises(AssertionError, match=r"drew \(integers\)"):
        run_passive(monkeypatch, one_cell_world(2.0, "poisson"), OneShort())


# The times-of-day draw sizes: none, the smallest, 1,001, the first
# window of a 10k-user oracle market (abtest's default world, two-day
# windows) and that market's whole draw over 28 days.
TIME_DRAW_SIZES = [0, 1, 2, 3, 1001, 45_849, 634_487]


@pytest.mark.parametrize("size", TIME_DRAW_SIZES)
def test_int32_times_of_day_are_the_int64_draw(size):
    for seed in range(5):
        narrow, wide = rng_for(seed, "requests"), rng_for(seed, "requests")
        times = narrow.integers(0, SECONDS_PER_DAY, size, dtype=np.int32)
        reference = wide.integers(0, SECONDS_PER_DAY, size)
        assert times.dtype == np.int32
        assert np.array_equal(times, reference), (
            "this numpy draws bounded int32 and int64 integers differently; "
            "the market's request times, and every digest, would move")
        assert narrow.bit_generator.state == wide.bit_generator.state, (
            "this numpy leaves the stream elsewhere after an int32 draw than "
            "after an int64 one; the draws after the request times would move")
        assert np.array_equal(narrow.integers(0, 6, 7), wide.integers(0, 6, 7))


def test_an_oracle_market_holds_its_requests_narrow():
    # abtest's default world, one replication: 10k users over 28 days and
    # about 634k requests. Its run_market peaked at 8.33 MiB of traced
    # memory with numpy 2.4.6; the bound leaves 0.67 MiB for numpy's own
    # temporaries to differ between releases. The times of day as int64
    # (+2.4 MiB) or the per-cell counts as int64 (+1.1 MiB) cross it.
    config = ABTestConfig(replications=1)
    world, market = config.world(0), config.campaign()
    population = market_population(world)
    bidders = lineup(market.cpa, population)
    assignment = assign_groups(world, len(bidders))
    _, _, peak = traced(lambda: run_market(
        population, bidders, market, world, assignment, record_events=False))
    assert peak <= 9.0 * 2**20, f"{peak / 2**20:.2f} MiB"


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
    # Sorted in place: the market's sort holds no second copy of its log.
    assert _time_sorted(block, n_users) is block
    assert np.array_equal(block, expected)


def test_sort_keys_are_bounded_at_63_bits():
    # The largest key is (horizon + click delay) * users * kinds - 1.
    horizon = 28 * SECONDS_PER_DAY
    fits = 2**63 // ((horizon + CLICK_DELAY_SECS) * len(EVENT_KINDS))
    _check_sortable(fits, horizon)
    with pytest.raises(WorldConfigError, match="63 bits"):
        _check_sortable(fits + 1, horizon)


def test_event_sort_keys_are_bounded_before_the_draw(monkeypatch):
    # With 2**60 kinds no world's keys fit in 63 bits; no stream may draw
    # before run_market refuses it.
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


def test_two_bidders_of_one_kind_are_refused():
    config = small_world(seed=34, n_users=10, horizon_days=2)
    population = generate_population(config)
    twins = [BidderConfig(kind="value", alpha=D(100.0)),
             BidderConfig(kind="value", alpha=D(50.0))]
    with pytest.raises(WorldConfigError, match="kind of its own"):
        run_market(population, twins, campaign(), config,
                   assignment=np.arange(10) % 2)


def overcharging_one_win(settle):
    """``settle`` with the clearing price of each call's first win one
    micro above its bid."""
    def overcharging(our, comp, reserve, tie_rng):
        won, price = settle(our, comp, reserve, tie_rng)
        first = np.flatnonzero(won)[:1]
        price = price.copy()
        price[first] = our[first] + 1
        return won, price
    return overcharging


@pytest.mark.parametrize("record_events", [True, False], ids=["log", "no-log"])
def test_a_clearing_price_above_its_bid_is_refused(monkeypatch, record_events):
    monkeypatch.setattr(liftsim.world, "run_auction",
                        overcharging_one_win(liftsim.world.run_auction))
    config, budget = engine_world("default")
    with pytest.raises(MarketInvariantError,
                       match="window 0: a clearing price is above"):
        _abc_run(config, budget, record_events)


@pytest.mark.parametrize("broken", [None, "spend", "billed"])
def test_a_window_end_checks_spend_and_billing(broken):
    """The close step bills the window's attributed actions and stops a
    group at its budget; totals whose spend exceeds budget + cpa, or
    whose billed actions exceed the attributed ones, are refused."""
    cpa = D(100.0)
    assignment = np.array([0, 1, 0, 1])
    masks = [assignment == g for g in range(2)]
    totals = {f.name: np.full(2, f.default) for f in fields(GroupStats)[2:]}
    totals["budget"][:] = 10 * cpa
    totals["spend"][0] = 9 * cpa
    if broken == "spend":
        totals["spend"][1] = 12 * cpa
    if broken == "billed":
        totals["attributed_billed"][1] = 5
    # Users 0 and 1 won, and act at p = 0.5; users 2 and 3 do not act.
    close = (3, np.array([0, 1]), np.array([0.1, 0.1, 0.9, 0.9]),
             (np.full(4, 0.5), np.full(4, 0.25)), (assignment, masks, [0.5, 0.5]),
             cpa, 100, totals)
    if broken:
        with pytest.raises(MarketInvariantError, match="window 3"):
            _close_window(*close)
        return
    _close_window(*close)
    assert totals["actions"].tolist() == totals["attributed"].tolist() == [1, 1]
    assert totals["attributed_billed"].tolist() == [1, 1]
    assert totals["spend"].tolist() == [10 * cpa, cpa]
    assert totals["expected_actions"].tolist() == [0.75, 0.75]
    assert totals["spent_out"].tolist() == [True, False]
    assert totals["stop_window"].tolist() == [3, None]


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

    def observe(self, events):
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
def test_truth_estimates_give_the_oracles_bytes(case, record_events):
    """Bids priced by one estimate call per window, from the ground
    truth, settle as oracle bids do: the same results and log bytes."""
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


# Null worlds at ENGINE_CASES size: lift is a fixed ratio of p, so the
# calibrated lift bid beta * delta_p equals the value bid cpa * p. Each
# variant's overrides and the campaign budget in dollars.
NULL_VARIANTS = {
    "base": ({}, 1e9),
    "reserve": ({"reserve_micros": D(3.0)}, 1e9),
    "lognormal": ({"competitor_bids": {"kind": "lognormal",
                                       "median_dollars": 2.0, "sigma": 0.5}},
                  1e9),
    "deterministic": ({"request_arrivals": "deterministic"}, 1e9),
    "spend_out": ({}, 200.0),
}


def _without_labels(group):
    return {k: v for k, v in group.as_dict().items()
            if k not in ("bidder", "kind")}


@pytest.mark.parametrize("factory", [None, TruthEstimator],
                         ids=["oracle", "truth"])
@pytest.mark.parametrize("variant", NULL_VARIANTS)
@pytest.mark.parametrize("ratio", [0.5, 0.3])
def test_a_null_world_swaps_value_and_lift_stats_with_their_labels(
        ratio, variant, factory):
    """With equal bids the value and lift groups are exchangeable:
    swapping their labels in ``assignment`` swaps their GroupStats and
    their event log rows exactly, and leaves the passive group's as is."""
    overrides, budget = NULL_VARIANTS[variant]
    config = WorldConfig(n_users=240, seed=31, horizon_days=6,
                         delta_p_distribution={"kind": "point_ratio",
                                               "value": ratio},
                         **overrides)
    population = generate_population(config)
    bidders = lineup(D(100.0), population)
    _, value, lift = bidders
    assert price_bids(value, population.p, population.delta_p).tobytes() == \
        price_bids(lift, population.p, population.delta_p).tobytes()
    assignment = assign_groups(config, 3)
    swap = np.array([0, 2, 1])  # value <-> lift, as group indices
    for record_events in (True, False):
        one, two = (
            run_market(population, bidders, campaign(budget), config, groups,
                       estimator=factory and factory(population),
                       record_events=record_events)
            for groups in (assignment, swap[assignment]))
        assert [_without_labels(one.groups[g]) for g in swap] == \
            [_without_labels(g) for g in two.groups]
        if record_events:
            # The market's code (3) and no bidder (-1) stay as they are.
            codes = np.array([0, 2, 1, 3, -1])
            for name in FIELDS:
                column = getattr(two.log, name)
                if name == "bidder":
                    column = codes[column]
                assert column.tobytes() == getattr(one.log, name).tobytes()
    _, value_stats, lift_stats = one.groups
    assert value_stats.impressions > 0
    if variant == "reserve":
        assert value_stats.bids_placed > value_stats.impressions
    if variant == "spend_out":
        assert value_stats.spent_out and lift_stats.spent_out


@pytest.mark.parametrize("case", ENGINE_CASES)
def test_an_oracle_market_on_the_market_population_is_the_full_ones(case):
    """Without a log, the oracle market reads only p, delta_p and the
    request rates: on market_population's users it gives
    generate_population's results."""
    config, budget = engine_world(case)
    full, market = generate_population(config), market_population(config)
    for name in ("p", "delta_p", "request_rate"):
        assert getattr(market, name).tobytes() == getattr(full, name).tobytes()
    runs = [_abc_run(config, budget, False, population=users)
            for users in (full, market)]
    assert [g.as_dict() for g in runs[0].groups] == \
        [g.as_dict() for g in runs[1].groups]


def _expected_requests(config):
    """The world's ad requests rebuilt from the ``requests`` stream's
    draws, counts per (user, day) then times of day then topics, each in
    (day, user) cell order, and put in stable (ts, user) order: columns
    (ts, user, topic) and the (user, day) counts."""
    users = generate_population(config)
    n, days = len(users), config.horizon_days
    rng = rng_for(config.seed, "requests")
    if config.request_arrivals == "poisson":
        counts = rng.poisson(np.broadcast_to(users.request_rate[:, None],
                                             (n, days)))
    else:
        counts = np.broadcast_to(
            np.rint(users.request_rate).astype(np.int64)[:, None], (n, days))
    day, user = np.divmod(np.repeat(np.arange(days * n), counts.T.reshape(-1)),
                          n)
    ts = day * SECONDS_PER_DAY + rng.integers(0, SECONDS_PER_DAY, day.size)
    topic = rng.integers(0, config.topics, day.size)
    order = np.lexsort((user, ts))
    return np.stack([ts, user, topic])[:, order], counts


@pytest.mark.parametrize("arrivals", ["poisson", "deterministic"])
@pytest.mark.parametrize("aw_days", [1, 3])
def test_market_windows_of_other_lengths(aw_days, arrivals):
    """Windows of 1 and 3 days over a 6-day horizon: truth estimates
    give the oracle's bytes, the log changes no aggregate, and the log's
    requests are the ``requests`` stream's, in stable (ts, user) order."""
    # Both bidders spend out before the last window, which the market
    # then settles without bids.
    config = WorldConfig(n_users=240, seed=33, horizon_days=6,
                         p_distribution={"low": 0.05, "high": 0.3},
                         request_arrivals=arrivals,
                         behavior={"enabled": False})
    budget = 200.0
    oracle = _abc_run(config, budget, aw_days=aw_days)
    truth = _abc_run(config, budget, estimator_factory=TruthEstimator,
                     aw_days=aw_days)
    assert oracle.n_windows == 6 // aw_days
    assert oracle.log.dumps() == truth.log.dumps()
    stats = [g.as_dict() for g in oracle.groups]
    assert stats == [g.as_dict() for g in truth.groups]
    for factory in (None, TruthEstimator):
        without = _abc_run(config, budget, False, factory, aw_days=aw_days)
        assert [g.as_dict() for g in without.groups] == stats
    _, value, lift = oracle.groups
    assert value.impressions > 0 and lift.impressions > 0
    assert max(value.stop_window, lift.stop_window) < oracle.n_windows - 1

    log = oracle.log
    requests = rows_of(log, AD_REQUEST)
    expected, counts = _expected_requests(config)
    got = np.stack([log.ts[requests], log.user[requests], log.topic[requests]])
    assert np.array_equal(got, expected)
    per_cell = np.zeros_like(counts)
    np.add.at(per_cell, (got[1], got[0] // SECONDS_PER_DAY), 1)
    assert np.array_equal(per_cell, counts)
    assert sum(g.requests for g in oracle.groups) == requests.size


class RecordingEstimator(TruthEstimator):
    """Truth estimates that record every call the market makes, in
    order: ("estimate", times) and ("observe", event block)."""

    def __init__(self, population):
        super().__init__(population)
        self.calls = []

    def estimate(self, user_index, ts, topic_id):
        self.calls.append(("estimate", ts.copy()))
        return super().estimate(user_index, ts, topic_id)

    def observe(self, events):
        self.calls.append(("observe", events.copy()))

    def estimates(self):
        return [ts for name, ts in self.calls if name == "estimate"]

    def observed(self):
        """The blocks told, as one block in the order told."""
        return np.concatenate([np.zeros((len(FIELDS), 0), dtype=np.int64)]
                              + [block for name, block in self.calls
                                 if name == "observe"], axis=1)


def _recording_run(config, budget_dollars=1e9, record_events=True):
    """The ABC market on ``config`` with a RecordingEstimator: (run, it)."""
    recorders = []

    def recorder(population):
        recorders.append(RecordingEstimator(population))
        return recorders[-1]

    run = _abc_run(config, budget_dollars, record_events,
                   estimator_factory=recorder)
    return run, recorders[0]


def test_the_market_tells_an_estimator_only_its_own_wins_and_clicks():
    """Put together, the blocks the market tells an estimator over a run
    are the log's impression and click rows, every field of them."""
    config = small_world(seed=27, n_users=240, horizon_days=6, behavior=True)
    run, recorder = _recording_run(config)
    log = run.log
    rows = np.flatnonzero(np.isin(log.kind, [KIND_CODE[IMPRESSION],
                                             KIND_CODE[CLICK]]))
    logged = np.stack([getattr(log, name)[rows] for name in FIELDS])
    assert set(logged[FIELDS.index("bidder")].tolist()) == {1, 2}
    assert (logged[FIELDS.index("kind")] == KIND_CODE[CLICK]).any()
    told = _time_sorted(recorder.observed(), len(log.users))
    assert told.tobytes() == logged.tobytes()


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

    def observe(self, events):
        ts, user, kind = events[:3].tolist()
        for user, kind, at in zip(user, kind, ts):
            self.told.setdefault(user, []).append((EVENT_KINDS[kind], at))

    def estimate(self, user_index, ts, topic_id):
        kinds = [[kind for kind, t in self.told.get(u, ()) if t <= at]
                 for u, at in zip(user_index.tolist(), ts.tolist())]
        weight = self.weight(np.array([k.count(IMPRESSION) for k in kinds]),
                             np.array([k.count(CLICK) for k in kinds]))
        p, delta_p = super().estimate(user_index, ts, topic_id)
        return p * weight, delta_p * weight


def _wins_before(log, kind, user, ts, since, until):
    """Per request i, the log's ``kind`` events of user ``user[i]`` at or
    before ``ts[i]`` whose win lies in ``[since[i], until[i])``; a click's
    win is CLICK_DELAY_SECS before it."""
    rows = rows_of(log, kind)
    at = log.ts[rows]
    won = at - (CLICK_DELAY_SECS if kind == CLICK else 0)
    return np.count_nonzero(
        (log.user[rows] == user[:, None]) & (at <= ts[:, None])
        & (won >= np.reshape(since, (-1, 1)))
        & (won < np.reshape(until, (-1, 1))), axis=1)


@pytest.mark.parametrize("rule", WEIGHT_RULES)
def test_every_model_bid_is_priced_from_earlier_windows(rule):
    """Every bid equals the bid priced from its user's impressions and
    clicks of earlier windows, as the log records them; a win in the
    bid's own window does not count. A request priced at 0 logs no bid."""
    weight_of = WEIGHT_RULES[rule]
    config = small_world(seed=41, n_users=240, horizon_days=6, behavior=True)
    run = _abc_run(config, estimator_factory=lambda population:
                   WinCountingEstimator(population, weight_of))
    log, population = run.log, generate_population(config)
    aw = 2 * SECONDS_PER_DAY
    bids = rows_of(log, BID)
    user, ts = log.user[bids], log.ts[bids]
    impressions = _wins_before(log, IMPRESSION, user, ts, 0, ts - ts % aw)
    clicks = _wins_before(log, CLICK, user, ts, 0, ts - ts % aw)
    weight = weight_of(impressions, clicks)
    p, delta_p = population.p[user] * weight, population.delta_p[user] * weight
    expected = np.zeros(bids.size, dtype=np.int64)
    for g, bidder in enumerate(ABC_BIDDERS):
        mine = log.bidder[bids] == g
        expected[mine] = price_bids(bidder, p[mine], delta_p[mine])
    assert np.array_equal(log.price[bids], expected)
    assert (expected > 0).all()
    # Some bids follow a win of their user in the same window.
    same_window = _wins_before(log, IMPRESSION, user, ts, ts - ts % aw, ts)
    assert (same_window > 0).sum() > 10
    if rule == "fewer-per-win":
        # Some bids follow their user's impressions and clicks.
        assert (impressions > 0).any() and (clicks > 0).any()
    else:
        # An active group's request after its user's win in an earlier
        # window bids 0: it has no bid row.
        requests = rows_of(log, AD_REQUEST)
        requests = requests[log.user[requests] % 3 != 0]
        r_user, r_ts = log.user[requests], log.ts[requests]
        earlier = _wins_before(log, IMPRESSION, r_user, r_ts, 0,
                               r_ts - r_ts % aw) > 0
        assert earlier.sum() > 10
        assert set(zip(user.tolist(), ts.tolist())) == set(zip(
            r_user[~earlier].tolist(), r_ts[~earlier].tolist()))


def test_estimate_is_called_once_per_window_with_a_bidding_request(
        monkeypatch):
    """One estimate call prices every bidding request of a window, and a
    window without one has no call. Oracle and estimated bids alike
    settle each window in one run_auction call."""
    settle = liftsim.world.run_auction
    settled = []

    def counting(*args):
        settled.append(len(args[0]))
        return settle(*args)

    monkeypatch.setattr(liftsim.world, "run_auction", counting)
    config, budget = engine_world("staggered_spend_out")
    run, recorder = _recording_run(config, budget)
    assert len(settled) == run.n_windows
    (_, value, lift), log = run.groups, run.log
    assert (lift.stop_window, value.stop_window) == (0, 1)
    # The requests of groups still bidding, by window.
    requests = rows_of(log, AD_REQUEST)
    r_window = log.ts[requests] // (2 * SECONDS_PER_DAY)
    r_group = log.user[requests] % 3
    bidding = (((r_group == 1) & (r_window <= value.stop_window))
               | ((r_group == 2) & (r_window <= lift.stop_window)))
    per_window = np.bincount(r_window[bidding], minlength=run.n_windows)
    calls = recorder.estimates()
    assert [ts.size for ts in calls] == per_window[per_window > 0].tolist()
    assert [np.unique(ts // (2 * SECONDS_PER_DAY)).tolist() for ts in calls] \
        == [[w] for w in np.flatnonzero(per_window).tolist()]
    assert per_window[-1] == 0  # the last window has no call
    settled.clear()
    _abc_run(config, budget, record_events=False)
    assert len(settled) == run.n_windows


def test_no_window_is_told_its_wins_before_it_is_priced():
    """The market tells a window's wins after that window's estimate
    call and before the next window's, in one call with the impressions
    and their clicks."""
    config = small_world(seed=41, n_users=240, horizon_days=6, behavior=True)
    run, recorder = _recording_run(config)
    aw = 2 * SECONDS_PER_DAY
    # Each call as (name, window): priced, or of the wins told.
    sequence = []
    for name, data in recorder.calls:
        if name == "estimate":
            windows = data // aw
        else:
            clicks = data[FIELDS.index("kind")] == KIND_CODE[CLICK]
            windows = (data[0] - CLICK_DELAY_SECS * clicks) // aw
            assert clicks.any() and not clicks.all()
        assert np.unique(windows).size == 1
        sequence.append((name, int(windows[0])))
    assert sequence == [call for w in range(run.n_windows) for call in
                        (("estimate", w), ("observe", w))]


def test_no_estimate_call_after_every_bidder_stops():
    """Once both active bidders have spent out, later windows price
    nothing, and truth estimates keep the oracle's outputs."""
    config = WorldConfig(n_users=240, seed=31, horizon_days=12)
    oracle = _abc_run(config, 300.0)
    truth, recorder = _recording_run(config, 300.0)
    (_, value, lift), calls = truth.groups, recorder.estimates()
    last = max(value.stop_window, lift.stop_window)
    assert last < truth.n_windows - 1
    assert len(calls) == last + 1 and all(ts.size for ts in calls)
    assert [g.as_dict() for g in oracle.groups] == \
        [g.as_dict() for g in truth.groups]
    assert oracle.log.dumps() == truth.log.dumps()


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


@pytest.mark.parametrize("lookback_days", [0, 2])
def test_precedent_fraction_counts_the_closed_lookback_span(lookback_days):
    """An impression at exactly ts - lookback and one at ts precede an
    action at ts; one a second before ts - lookback does not."""
    ts, lookback = 10 * SECONDS_PER_DAY, lookback_days * SECONDS_PER_DAY
    for at, counts in ((ts - lookback, True), (ts - lookback - 1, False),
                       (ts, True)):
        log = parse_log([
            {"ts": at, "user": "u0", "kind": IMPRESSION, "adv": "adv1",
             "bidder": "value", "price": 1},
            {"ts": ts, "user": "u0", "kind": ACTION, "adv": "adv1"},
            {"ts": ts, "user": "u1", "kind": ACTION, "adv": "adv1"}])
        frac = precedent_impression_fraction(log, "adv1", lookback_days)
        assert frac == (0.5 if counts else 0.0), at


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
