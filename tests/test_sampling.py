"""Sample generation: labels, windows, weighting, termination."""

import numpy as np
import pytest
from scipy.stats import chisquare

from liftsim.bidders import BidderConfig
from liftsim.events import ACTION, AD_REQUEST, EventLog, TimelineEvent
from liftsim.liftmodel.features import FeatureSchema
from liftsim.liftmodel.sampling import (
    SamplingConfig, SamplingError, generate_samples,
)
from liftsim.market import Campaign, Population, dollars_to_micros
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
            events.append(TimelineEvent(ts=ts, user_id=uid, kind=AD_REQUEST,
                                        topic_id=0))
    for uid, times in action_times.items():
        for ts in times:
            events.append(TimelineEvent(ts=ts, user_id=uid, kind=ACTION,
                                        advertiser_id="adv1"))
    events.sort(key=TimelineEvent.sort_key)
    return EventLog(events=events, seed=0, config_digest="test")


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
    events = [
        TimelineEvent(ts=0, user_id=U0, kind=AD_REQUEST, topic_id=0),
        TimelineEvent(ts=300, user_id=U0, kind=AD_REQUEST, topic_id=0),
        TimelineEvent(ts=action_ts, user_id=U0, kind=ACTION,
                      advertiser_id="adv1"),
        # An action at the span start can never fall inside (ts, ts+aw],
        # so coverage never completes and generation runs to the target.
        TimelineEvent(ts=0, user_id=U0, kind=ACTION, advertiser_id="adv1"),
    ]
    log = EventLog(events=sorted(events, key=TimelineEvent.sort_key),
                   seed=0, config_digest="test")
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
    # Dense actions make nearly every draw positive, and the span-start
    # action is uncoverable, so the generator runs to the positive target
    # and yields a large marginal sample.
    actions = {uid: [d * DAY + 3600 for d in range(1, 10)] for uid in counts}
    actions[U0] = actions[U0] + [0]
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
    actions = {U0: [d * DAY for d in range(1, 10)]}
    log = synthetic_log({U0: 5, U1: 5}, actions)
    config = SamplingConfig(action_window_seconds=3 * DAY,
                            target_positive_count=4, seed=4)
    samples = generate_samples(log, users_for(2), config,
                               tiny_schema())
    assert sum(s.label for s in samples) == 4


def test_termination_by_covering_all_actions():
    log = synthetic_log({U0: 5}, {U0: [5 * DAY]})
    config = SamplingConfig(action_window_seconds=2 * DAY,
                            target_positive_count=10_000,
                            max_draws=200_000, seed=5)
    samples = generate_samples(log, users_for(1), config, tiny_schema())
    assert any(s.label for s in samples)
    assert sum(s.label for s in samples) < 10_000


def test_no_requests_is_an_error():
    log = synthetic_log({}, {U0: [DAY]})
    with pytest.raises(SamplingError):
        generate_samples(log, users_for(1),
                         SamplingConfig(target_positive_count=1), tiny_schema())


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


def test_leakage_freedom_on_simulated_world():
    """Features recomputed from a log truncated at ts are identical."""
    config = WorldConfig(n_users=60, seed=9, horizon_days=8,
                         behavior={"enabled": True, "correlation": 0.8})
    population = generate_population(config)
    run = run_market(
        population, [BidderConfig(kind="value", alpha=D(100.0))],
        [Campaign("adv1", cpa=D(100.0), budget=D(1e9), action_window_days=2)],
        config, assignment=np.zeros(len(population), dtype=int))
    log = run.log
    schema = FeatureSchema(advertisers=("adv1",), topics=config.topics,
                           apps=config.apps)
    samp_config = SamplingConfig(action_window_seconds=2 * DAY,
                                 feature_window_seconds=7 * DAY,
                                 target_positive_count=40, seed=10)
    samples = generate_samples(log, population, samp_config, schema)
    assert samples
    from liftsim.liftmodel.features import FeatureExtractor

    rng = np.random.default_rng(0)
    probe = rng.choice(len(samples), size=min(60, len(samples)), replace=False)
    for i in probe:
        s = samples[int(i)]
        truncated = EventLog(events=[e for e in log.events if e.ts <= s.ts],
                             seed=log.seed, config_digest=log.config_digest)
        again = FeatureExtractor(truncated, population, schema).features(
            s.user_id, s.ts, samp_config.feature_window_seconds)
        assert np.array_equal(s.features, again)
