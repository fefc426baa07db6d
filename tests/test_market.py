"""Second-price auction mechanics and core domain type invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftsim.attribution import Partition, partition_users
from liftsim.market import (
    LIFT_BIDDER, VALUE_BIDDER,
    AuctionResult, Campaign, Population,
    dollars_to_micros, micros_to_dollars, run_auction, settle_second_price,
)
from liftsim.bidders import BidderConfig, price_bids

D = dollars_to_micros


def test_highest_bid_wins_at_second_price():
    result = run_auction([("dsp1", D(4.0)), ("other", D(3.5))], reserve=0)
    assert result.winner == "dsp1"
    assert result.clearing_price == D(3.5)
    assert result.losing_bids == (("other", D(3.5)),)


def test_lower_bid_loses():
    result = run_auction([("dsp1", D(2.0)), ("other", D(3.5))], reserve=0)
    assert result.winner == "other"
    assert result.clearing_price == D(2.0)


def test_empty_auction_has_no_winner():
    result = run_auction([], reserve=0)
    assert result.winner is None
    assert result.clearing_price == 0


def test_no_bid_above_reserve_means_no_winner():
    result = run_auction([("a", D(1.0)), ("b", D(2.0))], reserve=D(2.0))
    assert result.winner is None
    assert result.clearing_price == 0


def test_tie_at_top_is_seeded_and_prices_at_the_bid():
    bids = [("a", D(5.0)), ("b", D(5.0))]
    first = run_auction(bids, reserve=0, rng_seed=7)
    assert first.winner in ("a", "b")
    assert first.clearing_price == D(5.0)
    for _ in range(5):
        again = run_auction(bids, reserve=0, rng_seed=7)
        assert again == first
    winners = {run_auction(bids, rng_seed=s).winner for s in range(32)}
    assert winners == {"a", "b"}


def test_single_bidder_pays_reserve():
    result = run_auction([("solo", D(3.0))], reserve=D(1.0))
    assert result.winner == "solo"
    assert result.clearing_price == D(1.0)


def test_negative_bid_rejected():
    with pytest.raises(ValueError):
        run_auction([("a", -1)])


def test_clearing_price_bounds_sweep():
    rng = np.random.default_rng(123)
    for trial in range(300):
        k = int(rng.integers(1, 6))
        bids = [(f"b{i}", int(rng.integers(0, 10_000_000))) for i in range(k)]
        reserve = int(rng.integers(0, 5_000_000))
        result = run_auction(bids, reserve=reserve, rng_seed=trial)
        if result.winner is None:
            assert all(amount <= reserve for _, amount in bids)
            continue
        winning = max(amount for bidder, amount in bids if bidder == result.winner)
        assert reserve <= result.clearing_price <= winning
        assert result == run_auction(bids, reserve=reserve, rng_seed=trial)


# Small values make ties and reserve-blocked auctions common.
MICROS = st.integers(0, 20) | st.integers(0, 10**9)
BID_PAIRS = st.lists(st.tuples(MICROS, MICROS), max_size=12)


def _settle(pairs, reserve, rng):
    our, comp = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return settle_second_price(our, comp, reserve, rng)


@settings(max_examples=300, deadline=None)
@given(pairs=BID_PAIRS, reserve=MICROS)
def test_settle_matches_run_auction_on_any_bids(pairs, reserve):
    won, price = _settle(pairs, reserve, np.random.default_rng(0))
    assert won.shape == price.shape == (len(pairs),)
    for (our, comp), we_win, paid in zip(pairs, won.tolist(), price.tolist()):
        reference = run_auction([("us", our), ("market", comp)], reserve)
        if our <= reserve and comp <= reserve:
            assert (we_win, paid) == (False, 0)
            assert reference.winner is None
        elif our == comp:  # a tie prices at the bid; the winner is a coin flip
            assert paid == reference.clearing_price == our
        else:
            assert we_win == (reference.winner == "us")
            assert paid == reference.clearing_price


@settings(max_examples=200, deadline=None)
@given(chunks=st.lists(BID_PAIRS, max_size=5), reserve=st.integers(0, 20))
def test_one_settlement_call_flips_ties_like_one_scalar_draw_per_tie(
        chunks, reserve):
    pairs = [pair for chunk in chunks for pair in chunk]
    batched_rng = np.random.default_rng(5)
    won, _ = _settle(pairs, reserve, batched_rng)
    chunked_rng = np.random.default_rng(5)
    chunked = [_settle(chunk, reserve, chunked_rng)[0].tolist()
               for chunk in chunks]
    scalar_rng = np.random.default_rng(5)
    tie = np.array([our == comp > reserve for our, comp in pairs], dtype=bool)
    flips = [bool(scalar_rng.integers(2)) for _ in range(tie.sum())]
    assert won[tie].tolist() == flips
    assert won.tolist() == sum(chunked, [])
    assert (batched_rng.bit_generator.state == chunked_rng.bit_generator.state
            == scalar_rng.bit_generator.state)


def test_head_to_head_examples():
    def duel(p, delta_p, alpha, beta):
        return partition_users(Population(p=[p], delta_p=[delta_p]), alpha, beta)

    assert duel(p=0.04, delta_p=0.01, alpha=100, beta=100) == Partition((0,), ())
    assert duel(p=0.02, delta_p=0.019, alpha=100, beta=200) == Partition((), (0,))
    assert duel(p=0.5, delta_p=0.0, alpha=100, beta=100) == Partition((0,), ())
    assert duel(p=0.04, delta_p=0.02, alpha=100, beta=200) == Partition((), (), (0,))


def test_auction_agrees_with_head_to_head_when_bids_differ():
    rng = np.random.default_rng(42)
    agreements = 0
    for _ in range(500):
        p = float(rng.uniform(0.001, 0.2))
        delta_p = p * float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(10, 500)) * 1e6
        beta = float(rng.uniform(10, 2000)) * 1e6
        value_bid = int(price_bids(BidderConfig("value", alpha=alpha), p, delta_p))
        lift_bid = int(price_bids(BidderConfig("lift", beta=beta), p, delta_p))
        if value_bid == lift_bid:
            continue
        result = run_auction([(VALUE_BIDDER, value_bid), (LIFT_BIDDER, lift_bid)],
                             reserve=0)
        offers_winner = VALUE_BIDDER if alpha * p > beta * delta_p else LIFT_BIDDER
        assert result.winner == offers_winner
        agreements += 1
    assert agreements > 400  # the sweep must actually exercise the property


def test_money_round_half_even():
    assert dollars_to_micros(0.0000005) == 0  # 0.5 micros rounds to even
    assert dollars_to_micros(0.0000015) == 2
    assert dollars_to_micros(3.5) == 3_500_000
    assert micros_to_dollars(D(3.5)) == 3.5


def test_population_invariants():
    users = Population(p=[0.04, 0.5], delta_p=[0.01, 0.0])
    assert len(users) == 2
    assert users.background_rate.tolist() == pytest.approx([0.03, 0.5])
    assert users.request_rate.tolist() == [1.0, 1.0]
    assert users.topic_weights.shape == (2, 0)
    assert users.demographics.tolist() == [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError):
        users.p[0] = 0.5  # columns are read-only
    with pytest.raises(ValueError):
        Population(p=[0.04, 1.2], delta_p=[0.0, 0.0])
    with pytest.raises(ValueError):
        Population(p=[0.02], delta_p=[0.03])  # background would be negative
    with pytest.raises(ValueError):
        Population(p=[0.02], delta_p=[0.01], request_rate=[-1.0])
    with pytest.raises(ValueError):
        Population(p=[0.02, 0.03], delta_p=[0.01])  # columns of unequal length


def test_population_user_ids_come_from_the_row_index():
    users = Population(p=[0.1] * 3, delta_p=[0.0] * 3)
    assert users.user_ids == ("u000000", "u000001", "u000002")
    assert users.row_of["u000002"] == 2


def test_campaign_invariants():
    Campaign("adv1", cpa=D(100.0), budget=D(1000.0))
    with pytest.raises(ValueError):
        Campaign("adv1", cpa=0, budget=D(1000.0))
    with pytest.raises(ValueError):
        Campaign("adv1", cpa=D(100.0), budget=-1)


def test_auction_result_is_a_value():
    r1 = AuctionResult(winner="a", clearing_price=5)
    r2 = AuctionResult(winner="a", clearing_price=5)
    assert r1 == r2
