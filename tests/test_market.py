"""Second-price auction mechanics and core domain type invariants."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftsim.attribution import partition_users
from liftsim.market import (
    Campaign, Population, dollars_to_micros, micros_to_dollars, ordered_sum,
    run_auction,
)
from liftsim.bidders import BidderConfig, price_bids

D = dollars_to_micros


def second_price(our, comp, reserve):
    """The scalar rule for our bid against one competitor's: (we win,
    price). Nobody wins below the reserve; a tie prices at the bid and
    its winner (None here) is a coin flip."""
    if our <= reserve and comp <= reserve:
        return False, 0
    if our == comp:
        return None, our
    return our > comp, max(min(our, comp), reserve)


def _settle(pairs, reserve, rng):
    our, comp = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return run_auction(our, comp, reserve, rng)


def _one(our, comp, reserve=0, seed=0):
    won, price = _settle([(our, comp)], reserve, np.random.default_rng(seed))
    return bool(won[0]), int(price[0])


def test_highest_bid_wins_at_second_price():
    assert _one(D(4.0), D(3.5)) == (True, D(3.5))


def test_lower_bid_loses():
    assert _one(D(2.0), D(3.5)) == (False, D(2.0))


def test_empty_auction_has_no_winner():
    won, price = _settle([], 0, np.random.default_rng(0))
    assert won.shape == price.shape == (0,)


def test_no_bid_above_reserve_means_no_winner():
    assert _one(D(1.0), D(2.0), reserve=D(2.0)) == (False, 0)


def test_tie_at_top_is_seeded_and_prices_at_the_bid():
    ties = [(D(5.0), D(5.0))] * 32
    won, price = _settle(ties, 0, np.random.default_rng(7))
    assert price.tolist() == [D(5.0)] * 32
    again, _ = _settle(ties, 0, np.random.default_rng(7))
    assert again.tolist() == won.tolist()
    assert set(won.tolist()) == {True, False}


def test_single_bidder_pays_reserve():
    assert _one(D(3.0), 0, reserve=D(1.0)) == (True, D(1.0))


def test_negative_bid_rejected():
    for our, comp, reserve in ((-1, 0, 0), (0, -1, 0), (1, 1, -1)):
        with pytest.raises(ValueError):
            _one(our, comp, reserve)


# Small values make ties and reserve-blocked auctions common.
MICROS = st.integers(0, 20) | st.integers(0, 10**9)
BID_PAIRS = st.lists(st.tuples(MICROS, MICROS), max_size=12)


@settings(max_examples=300, deadline=None)
@given(pairs=BID_PAIRS, reserve=MICROS)
def test_run_auction_matches_the_scalar_rule_on_any_bids(pairs, reserve):
    won, price = _settle(pairs, reserve, np.random.default_rng(0))
    assert won.dtype == bool and won.shape == price.shape == (len(pairs),)
    for (our, comp), we_win, paid in zip(pairs, won.tolist(), price.tolist()):
        rule_win, rule_price = second_price(our, comp, reserve)
        assert paid == rule_price
        if rule_win is not None:
            assert we_win == rule_win


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

    assert duel(p=0.04, delta_p=0.01, alpha=100, beta=100).tolist() == [1]
    assert duel(p=0.02, delta_p=0.019, alpha=100, beta=200).tolist() == [-1]
    assert duel(p=0.5, delta_p=0.0, alpha=100, beta=100).tolist() == [1]
    assert duel(p=0.04, delta_p=0.02, alpha=100, beta=200).tolist() == [0]


def test_auction_agrees_with_head_to_head_when_bids_differ():
    rng = np.random.default_rng(42)
    draws = []  # (value bid, lift bid, value offer is the larger)
    for _ in range(500):
        p = float(rng.uniform(0.001, 0.2))
        delta_p = p * float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(10, 500)) * 1e6
        beta = float(rng.uniform(10, 2000)) * 1e6
        draws.append((int(price_bids(BidderConfig("value", alpha=alpha), p, delta_p)),
                      int(price_bids(BidderConfig("lift", beta=beta), p, delta_p)),
                      alpha * p > beta * delta_p))
    value_bids, lift_bids, value_offers_more = map(np.array, zip(*draws))
    value_won, _ = run_auction(value_bids, lift_bids, 0,
                               np.random.default_rng(0))
    differ = value_bids != lift_bids
    assert value_won[differ].tolist() == value_offers_more[differ].tolist()
    assert differ.sum() > 400  # the sweep must actually exercise the property


def test_money_round_half_even():
    assert dollars_to_micros(0.0000005) == 0  # 0.5 micros rounds to even
    assert dollars_to_micros(0.0000015) == 2
    assert dollars_to_micros(3.5) == 3_500_000
    assert micros_to_dollars(D(3.5)) == 3.5
    assert dollars_to_micros(9e12) == 9 * 10**18  # fits in int64
    for amount in (float("nan"), float("inf"), -float("inf"), 1e300, 1e13):
        with pytest.raises(ValueError):
            dollars_to_micros(amount)
    # Refused before multiplying: a string would repeat a million times.
    for amount in ("100", None, [1.0]):
        with pytest.raises(TypeError, match="not a dollar amount"):
            dollars_to_micros(amount)


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
    with pytest.raises(ValueError):
        Campaign("adv1", cpa=D(100.0), budget=2**63 - D(100.0))  # sum > int64
    with pytest.raises(ValueError):
        Campaign("adv1", cpa=D(100.0), budget=0, action_window_days=2.0)


def _left_fold(values):
    acc = 0.0
    for x in values:
        acc += x
    return acc


# Signed zeros, subnormals, magnitudes from 1e-300 to 1e300 of either
# sign, and any finite float: partial sums that cancel, round and overflow.
SUMMANDS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-sys.float_info.min, sys.float_info.min),
    st.builds(math.copysign, st.floats(1e-300, 1e300),
              st.sampled_from([1.0, -1.0])),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None)
@given(leading_zeros=st.integers(0, 3), values=st.lists(SUMMANDS, max_size=40),
       as_array=st.booleans())
def test_ordered_sum_is_the_left_fold_bit_for_bit(leading_zeros, values,
                                                  as_array):
    values = [-0.0] * leading_zeros + values
    with np.errstate(over="ignore", invalid="ignore"):  # as the fold is
        total = ordered_sum(np.array(values) if as_array else values)
    assert type(total) is float
    assert repr(total) == repr(_left_fold(values))  # also the sign of zero


def test_ordered_sum_edge_cases_and_long_columns():
    for empty in ([], np.array([])):
        assert repr(ordered_sum(empty)) == "0.0"
    for zeros in ([-0.0], [-0.0] * 5, np.full(3, -0.0)):
        assert math.copysign(1.0, ordered_sum(zeros)) == 1.0
    assert repr(ordered_sum([-0.0, -5e-324])) == repr(-5e-324)
    rng = np.random.default_rng(4)
    column = (rng.standard_normal(10_000)
              * 10.0 ** rng.integers(-300, 300, 10_000))
    assert repr(ordered_sum(column)) == repr(_left_fold(column.tolist()))
    # numpy's pairwise sum rounds differently on this column.
    assert float(np.sum(column)) != _left_fold(column.tolist())
