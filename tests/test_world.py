"""World generation and market simulation: determinism, causality, accounting."""

import numpy as np
import pytest

from liftsim.bidders import BidderConfig
from liftsim.events import ACTION, AUCTION, IMPRESSION
from liftsim.market import Campaign, dollars_to_micros, run_auction
from liftsim.world import (
    WorldConfig, WorldConfigError, generate_population,
    precedent_impression_fraction, run_market, split_budget,
)

D = dollars_to_micros


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
    one = generate_population(config)
    two = generate_population(config)
    assert one == two
    other = generate_population(small_world(seed=100, n_users=500))
    assert other != one


def test_population_respects_invariants():
    users = generate_population(small_world(seed=3, n_users=1000))
    for user in users:
        assert 0.0 <= user.p <= 1.0
        assert 0.0 <= user.background_rate <= 1.0
        assert user.request_rate >= 0


def test_fixed_population_reproduces_example_pair():
    users = generate_population(example_pair_config())
    assert [u.p for u in users] == [0.04, 0.02]
    assert [u.delta_p for u in users] == [0.01, 0.019]


def test_zero_lift_world():
    config = small_world(seed=5, n_users=50)
    config = WorldConfig(**{**config.to_dict(),
                            "delta_p_distribution": {"kind": "zero"}})
    users = generate_population(config)
    assert all(u.delta_p == 0.0 for u in users)


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
    run = run_market(population, [BidderConfig(kind="passive")], [campaign()],
                     config, assignment=np.zeros(len(population), dtype=int))
    per_user = {u.user_id: 0 for u in population}
    for event in run.log.of_kind(ACTION):
        per_user[event.user_id] += 1
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


def _abc_run(config, budget_dollars=1e9, record_events=True):
    population = generate_population(config)
    bidders = [
        BidderConfig(kind="passive"),
        BidderConfig(kind="value", alpha=D(100.0)),
        BidderConfig(kind="lift", beta=D(300.0)),
    ]
    assignment = np.arange(len(population)) % 3
    return run_market(
        population, bidders, [campaign(budget_dollars)], config,
        assignment=assignment, record_events=record_events,
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
    for event in log.of_kind(IMPRESSION):
        imps[event.bidder] = imps.get(event.bidder, 0) + 1
        costs[event.bidder] = costs.get(event.bidder, 0) + event.price
    for label in ("value", "lift"):
        assert by_label[label].impressions == imps.get(label, 0)
        assert by_label[label].inventory_cost == costs.get(label, 0)
    assert len(log.of_kind(ACTION)) == sum(g.actions for g in run.groups)


def test_fast_path_matches_recorded_run():
    config = small_world(seed=23, n_users=300, horizon_days=4)
    with_log = _abc_run(config, record_events=True)
    without = _abc_run(config, record_events=False)
    assert without.log is None
    assert [g.as_dict() for g in with_log.groups] == [g.as_dict() for g in without.groups]


def test_events_are_time_ordered_and_causal():
    config = small_world(seed=24, n_users=150, horizon_days=4, behavior=True)
    log = _abc_run(config).log
    last_ts = {}
    for event in log.events:
        assert last_ts.get(event.user_id, -1) <= event.ts
        last_ts[event.user_id] = event.ts
    # Every impression must have an auction at the same timestamp for the
    # same user, and the auction winner is the impression's bidder.
    auctions = {(e.ts, e.user_id): e for e in log.of_kind(AUCTION)}
    for imp in log.of_kind(IMPRESSION):
        auction = auctions[(imp.ts, imp.user_id)]
        assert auction.bidder == imp.bidder
        assert auction.price == imp.price


def test_engine_settlement_matches_run_auction():
    config = small_world(seed=25, n_users=200, horizon_days=2)
    run = _abc_run(config)
    log = run.log
    auctions = log.of_kind(AUCTION)
    assert auctions
    bids_by_key = {(e.ts, e.user_id): e for e in log.of_kind("bid")}
    checked = 0
    for auction in auctions[:300]:
        bid = bids_by_key[(auction.ts, auction.user_id)]
        if auction.bidder == bid.bidder:
            # We won: the auction price is the competitor's (losing) bid.
            reference = run_auction(
                [(bid.bidder, bid.price), ("market", auction.price)])
            assert reference.winner == bid.bidder
            assert reference.clearing_price == auction.price
            checked += 1
    assert checked > 10


def test_exposure_changes_only_action_probability():
    """Matched seeds: forcing exposure can only add actions, never remove."""
    config = example_pair_config(horizon_days=2)
    config = WorldConfig(**{**config.to_dict(), "n_users": 2})
    population = generate_population(config)
    camp = campaign(budget_dollars=1e9, aw_days=2)

    def actions_with(bidder):
        run = run_market(population, [bidder], [camp], config,
                         assignment=np.zeros(2, dtype=int))
        return {(e.user_id, e.ts) for e in run.log.of_kind(ACTION)}

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
    run = run_market(population, bidders, [campaign()], config,
                     assignment=assignment)
    group_of = {u.user_id: int(g) for u, g in zip(population, assignment)}
    labels = [g.bidder for g in run.groups]
    for event in run.log.events:
        if event.bidder in labels:
            assert labels[group_of[event.user_id]] == event.bidder


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
    total = len(log.of_kind(ACTION))
    assert total == sum(g.actions for g in run.groups)
    attributed = sum(g.attributed for g in run.groups)
    assert 0 <= attributed <= total


def test_precedent_impression_fraction_counts():
    config = small_world(seed=31, n_users=500, horizon_days=4)
    log = _abc_run(config).log
    frac = precedent_impression_fraction(log, "adv1", lookback_days=2)
    # Independent brute-force scan.
    imps = [(e.user_id, e.ts) for e in log.of_kind(IMPRESSION)]
    hits = 0
    actions = log.of_kind(ACTION)
    for act in actions:
        if any(u == act.user_id and act.ts - 2 * 86_400 <= t <= act.ts
               for u, t in imps):
            hits += 1
    assert frac == pytest.approx(hits / len(actions))


def test_precedent_fraction_is_zero_for_passive_world():
    config = small_world(seed=32, n_users=400, horizon_days=2)
    population = generate_population(config)
    run = run_market(population, [BidderConfig(kind="passive")], [campaign()],
                     config, assignment=np.zeros(len(population), dtype=int))
    frac = precedent_impression_fraction(run.log, "adv1", lookback_days=2)
    assert frac == 0.0


def test_precedent_fraction_requires_actions():
    config = example_pair_config()
    population = generate_population(config)
    run = run_market(population, [BidderConfig(kind="passive")], [campaign()],
                     config, assignment=np.zeros(2, dtype=int))
    if not run.log.of_kind(ACTION):
        with pytest.raises(ValueError):
            precedent_impression_fraction(run.log, "adv1", lookback_days=2)


def test_horizon_must_align_with_action_window():
    config = small_world(seed=33, n_users=10, horizon_days=3)
    population = generate_population(config)
    with pytest.raises(WorldConfigError, match="multiple"):
        run_market(population, [BidderConfig(kind="passive")],
                   [campaign(aw_days=2)], config,
                   assignment=np.zeros(len(population), dtype=int))
