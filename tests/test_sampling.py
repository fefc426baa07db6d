"""Sample generation: labels, windows, weighting, termination."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import chisquare

from liftsim.bidders import BidderConfig
from event_records import parse_log
from liftsim.events import ACTION, AD_REQUEST, FIELDS, EventLog
from liftsim.liftmodel.features import (
    FeatureSchema, extract_from_history, histories,
)
from liftsim.liftmodel.sampling import (
    SamplingConfig, SamplingError, generate_samples,
)
from liftsim.market import Campaign, Population, dollars_to_micros
from liftsim.seeds import rng_for
from liftsim.world import WorldConfig, generate_population, run_market

DAY = 86_400
D = dollars_to_micros
U0, U1 = "u000000", "u000001"


def tiny_schema():
    return FeatureSchema(advertisers=("adv1",), topics=2, apps=1)


def synthetic_log(request_counts, action_times, horizon_days=10):
    """Hand-built log: requests spread over the horizon, explicit actions."""
    events = []
    for uid, count in request_counts.items():
        for k in range(count):
            ts = round((k + 0.5) / count * horizon_days * DAY)
            events.append({"ts": ts, "user": uid, "kind": AD_REQUEST,
                           "topic": 0})
    for uid, times in action_times.items():
        for ts in times:
            events.append({"ts": ts, "user": uid, "kind": ACTION,
                           "adv": "adv1"})
    return parse_log(events)


def users_for(n):
    """A population of ``n`` users: U0, U1, u000002, ..."""
    return Population(p=np.full(n, 0.5), delta_p=np.full(n, 0.1))


def test_action_inside_window_is_positive():
    aw = 2 * DAY
    log = synthetic_log({U0: 3}, {U0: [5 * DAY]})
    config = SamplingConfig(action_window_seconds=aw, target_positive_count=5,
                            seed=1)
    samples = generate_samples(log, users_for(1), config, tiny_schema())
    by_label = {}
    for s in samples:
        in_window = s.ts < 5 * DAY <= s.ts + aw
        assert s.label == in_window
        by_label.setdefault(s.label, 0)
        by_label[s.label] += 1
    assert by_label.get(True, 0) >= 1


def test_window_boundaries_open_left_closed_right():
    """Every emitted label matches the (ts, ts+aw] rule, boundaries included.

    The span is kept tiny so draws land on the exact boundary timestamps.
    """
    aw = 100
    action_ts = 150
    log = parse_log([
        {"ts": 0, "user": U0, "kind": AD_REQUEST, "topic": 0},
        {"ts": 300, "user": U0, "kind": AD_REQUEST, "topic": 0},
        {"ts": action_ts, "user": U0, "kind": ACTION, "adv": "adv1"},
        # An action at the span start lies in no window (ts, ts+aw].
        {"ts": 0, "user": U0, "kind": ACTION, "adv": "adv1"},
    ])
    config = SamplingConfig(action_window_seconds=aw,
                            feature_window_seconds=200,
                            target_positive_count=1000, seed=6)
    samples = generate_samples(log, users_for(1), config, tiny_schema())
    seen_ts = {s.ts for s in samples}
    assert action_ts in seen_ts            # action exactly at ts
    assert action_ts - aw in seen_ts       # action exactly at ts + aw
    for s in samples:
        assert s.label == (s.ts < action_ts <= s.ts + aw)


def test_user_marginal_follows_request_counts():
    counts = {f"u{i:06d}": c for i, c in enumerate([16, 32, 64, 128])}
    # Dense actions make nearly every draw positive, so the 2,000
    # positives take a large marginal sample.
    actions = {uid: [d * DAY + 3600 for d in range(1, 10)] for uid in counts}
    log = synthetic_log(counts, actions)
    config = SamplingConfig(action_window_seconds=2 * DAY,
                            target_positive_count=2_000, seed=3)
    samples = generate_samples(log, users_for(len(counts)), config, tiny_schema())
    assert len(samples) >= 2_000
    observed = {uid: 0 for uid in counts}
    for s in samples:
        observed[s.user_id] += 1
    total = sum(counts.values())
    n = len(samples)
    expected = [n * counts[u] / total for u in sorted(counts)]
    obs = [observed[u] for u in sorted(counts)]
    stat = chisquare(obs, expected)
    assert stat.pvalue > 0.01


def test_termination_by_positive_target():
    """Drawing stops at the draw that reaches the target, also when the
    draws run over more than one batch of 1,024."""
    actions = {U0: [d * DAY for d in range(1, 10)]}
    log = synthetic_log({U0: 5, U1: 5}, actions)
    for target in (4, 1500):
        config = SamplingConfig(action_window_seconds=3 * DAY,
                                target_positive_count=target, seed=4)
        samples = generate_samples(log, users_for(2), config,
                                   tiny_schema())
        assert samples.label.sum() == target and samples.label[-1]


def test_a_positive_target_out_of_reach_exhausts_the_draw_budget():
    """Only a draw at ts 499 is positive, so 10 positives want about
    10,000 draws; the budget of 400 per positive stops the draws at
    exactly 4,000 (three batches of 1,024 and one of the 928 left), and
    the error counts what was drawn."""
    log = parse_log([
        {"ts": 0, "user": U0, "kind": AD_REQUEST, "topic": 0},
        {"ts": 1000, "user": U0, "kind": AD_REQUEST, "topic": 0},
        {"ts": 500, "user": U0, "kind": ACTION, "adv": "adv1"},
    ])
    config = SamplingConfig(action_window_seconds=1,
                            target_positive_count=10, seed=8)
    rng = rng_for(config.seed, "samples")
    positives = 0
    for batch in (1024, 1024, 1024, 928):  # the draws in sampling's order
        rng.choice(1, size=batch, p=[1.0])
        positives += int(np.count_nonzero(
            rng.integers(0, 1000, size=batch) == 499))
    assert 0 < positives < 10
    with pytest.raises(SamplingError, match=(
            f"^draw budget exhausted after 4000 draws with {positives} "
            "positives;")):
        generate_samples(log, users_for(1), config, tiny_schema())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), base=st.sampled_from([0, 10**9, 2**62 - 1]),
       aw=st.integers(1, 40), extra=st.integers(1, 120),
       n_users=st.integers(1, 4), target=st.integers(1, 3))
def test_every_label_is_the_direct_window_rule(data, base, aw, extra,
                                               n_users, target):
    """Hand-built logs with duplicate action times, actions at the span's
    ends, users without actions and timestamps near 2**62: each label is
    whether the user has an action in (ts, ts + aw]."""
    span = aw + extra
    offsets = st.integers(0, span)
    users = [f"u{i:06d}" for i in range(n_users)]
    requests = [(users[0], 0), (users[0], span)] + data.draw(st.lists(
        st.tuples(st.sampled_from(users), offsets), max_size=8))
    actions = data.draw(st.lists(
        st.tuples(st.sampled_from(users), offsets | st.sampled_from([0, span])),
        min_size=1, max_size=10))
    # Keep logs where a draw is positive often enough that the target
    # is met long before the draw budget runs out.
    positive = [np.mean([any(u == user and t < a <= t + aw
                             for u, a in actions)
                         for t in range(span - aw + 1)])
                for user, _ in requests]
    assume(np.mean(positive) >= 0.05)

    log = parse_log(
        [{"ts": base + t, "user": u, "kind": AD_REQUEST, "topic": 0}
         for u, t in requests]
        + [{"ts": base + t, "user": u, "kind": ACTION, "adv": "adv1"}
           for u, t in actions])
    config = SamplingConfig(action_window_seconds=aw,
                            feature_window_seconds=50,
                            target_positive_count=target, seed=3)
    samples = generate_samples(log, users_for(n_users), config,
                               tiny_schema())
    for user, ts, label in zip(samples.user_id.tolist(),
                               samples.ts.tolist(), samples.label.tolist()):
        assert base <= ts <= base + span - aw
        assert label == any(u == user and ts < base + a <= ts + aw
                            for u, a in actions)
    assert samples.label.sum() == target and samples.label[-1]


def test_no_requests_is_an_error():
    log = synthetic_log({}, {U0: [DAY]})
    with pytest.raises(SamplingError):
        generate_samples(log, users_for(1),
                         SamplingConfig(action_window_seconds=2 * DAY,
                                        target_positive_count=1),
                         tiny_schema())


def test_no_actions_is_an_error():
    log = synthetic_log({U0: 3, U1: 2}, {})
    with pytest.raises(SamplingError, match="no actions"):
        generate_samples(log, users_for(2),
                         SamplingConfig(action_window_seconds=2 * DAY,
                                        target_positive_count=1),
                         tiny_schema())


def test_sampling_is_deterministic():
    log = synthetic_log({U0: 4, U1: 6}, {U0: [3 * DAY], U1: [6 * DAY]})
    config = SamplingConfig(action_window_seconds=2 * DAY,
                            target_positive_count=6, seed=42)
    one = generate_samples(log, users_for(2), config, tiny_schema())
    two = generate_samples(log, users_for(2), config, tiny_schema())
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert a.user_id == b.user_id and a.ts == b.ts and a.label == b.label
        assert np.array_equal(a.features, b.features)


def test_samples_are_one_record_array_in_draw_order():
    log = synthetic_log({U0: 4, U1: 6}, {U0: [3 * DAY], U1: [6 * DAY]})
    config = SamplingConfig(action_window_seconds=2 * DAY,
                            target_positive_count=6, seed=42)
    schema = tiny_schema()
    samples = generate_samples(log, users_for(2), config, schema)
    assert isinstance(samples, np.recarray) and len(samples) > 1
    assert samples.dtype.names == ("user_id", "ts", "label", "features")
    assert samples.dtype["user_id"].kind == "U"
    assert samples.dtype["ts"] == np.int64
    assert samples.dtype["label"] == np.bool_
    assert samples.dtype["features"].base == np.float64
    assert samples.dtype["features"].shape == (schema.n_features,)
    assert samples.user_id.tolist() == [s.user_id for s in samples]
    assert samples.ts.tolist() == [s.ts for s in samples]
    assert samples.label.tolist() == [s.label for s in samples]
    assert np.array_equal(samples.features, [s.features for s in samples])


def test_leakage_freedom_on_simulated_world():
    """Sample rows, which ``window_features`` builds from the whole log,
    equal the per-user reference on the log truncated at each sample's ts."""
    config = WorldConfig(n_users=60, seed=9, horizon_days=8,
                         behavior={"enabled": True, "correlation": 0.8})
    population = generate_population(config)
    run = run_market(
        population, [BidderConfig(kind="value", alpha=D(100.0))],
        Campaign("adv1", cpa=D(100.0), budget=D(1e9), action_window_days=2),
        config, assignment=np.zeros(len(population), dtype=int))
    log = run.log
    schema = FeatureSchema(advertisers=("adv1",), topics=config.topics,
                           apps=config.apps)
    samp_config = SamplingConfig(action_window_seconds=2 * DAY,
                                 feature_window_seconds=7 * DAY,
                                 target_positive_count=40, seed=10)
    samples = generate_samples(log, population, samp_config, schema)
    assert len(samples)

    rng = np.random.default_rng(0)
    probe = rng.choice(len(samples), size=min(60, len(samples)), replace=False)
    for i in probe:
        s = samples[int(i)]
        keep = log.ts <= s.ts
        truncated = EventLog(
            *(getattr(log, name)[keep] for name in FIELDS), users=log.users,
            advertisers=log.advertisers, bidders=log.bidders)
        again = extract_from_history(
            histories(truncated)[log.users.index(s.user_id)],
            population.demographics[population.row_of[s.user_id]].tolist(),
            s.ts, samp_config.feature_window_seconds, schema)
        assert s.features.tobytes() == again.tobytes()
