"""Feature extraction, context folding, and the counterfactual bump."""

import numpy as np
import pytest

from event_records import parse_log
from liftsim.events import CLICK, IMPRESSION, PAGE_VIEW, SEARCH
from liftsim.liftmodel.features import (
    MOST_RECENT_BUCKET, NEVER_BUCKET, FeatureExtractor, FeatureSchema,
    counterfactual_features, fold_context, recency_bucket,
)
from liftsim.market import Population

HOUR = 3_600
DAY = 86_400
U0 = "u000000"


def schema():
    return FeatureSchema(advertisers=("adv1", "adv2"), topics=3, apps=2)


def users(n=1, age=4, gender=1, geo=7):
    """``n`` users u000000, u000001, ... with the same demographics."""
    return Population(p=np.full(n, 0.02), delta_p=np.full(n, 0.01),
                      topic_weights=np.full((n, 3), 0.5),
                      app_weights=np.full((n, 2), 0.3),
                      age_group=np.full(n, age), gender=np.full(n, gender),
                      geo_area=np.full(n, geo))


def test_schema_layout_and_digest():
    s = schema()
    assert s.n_features == 2 * 4 + 3 * 4 + 3 + 2 * 4
    assert s.names[s.index("imp_freq_adv:adv1")] == "imp_freq_adv:adv1"
    assert s.digest() == schema().digest()
    assert s.digest() != FeatureSchema(("adv1",), 3, 2).digest()


def test_recency_buckets():
    assert recency_bucket(0) == 0
    assert recency_bucket(HOUR) == 0
    assert recency_bucket(HOUR + 1) == 1
    assert recency_bucket(DAY) == 2
    assert recency_bucket(2 * DAY) == 3
    assert recency_bucket(7 * DAY) == 4
    assert recency_bucket(8 * DAY) == NEVER_BUCKET


def test_impression_frequency_counts_window_events():
    s = schema()
    ts = 10 * DAY
    events = [
        {"ts": ts - hours * HOUR, "user": U0, "kind": IMPRESSION, "adv": adv,
         "bidder": "value", "price": 1}
        for hours, adv in ((2, "adv1"), (3, "adv1"), (4, "adv1"), (5, "adv2"))
    ]
    f = FeatureExtractor(parse_log(events), users(), s).features(U0, ts, 7 * DAY)
    assert f[s.index("imp_freq_adv:adv1")] == 3
    assert f[s.index("imp_freq_adv:adv2")] == 1
    assert f[s.index("imp_rncy_adv:adv1")] == 1  # 2h ago -> <=6h bucket
    assert f[s.index("clk_freq_adv:adv1")] == 0
    assert f[s.index("clk_rncy_adv:adv1")] == NEVER_BUCKET
    assert f[s.index("age_group")] == 4
    assert f[s.index("gender")] == 1
    assert f[s.index("geo_area")] == 7


def test_window_boundaries_are_half_open():
    s = schema()
    ts, fw = 10 * DAY, 7 * DAY
    events = [
        {"ts": ts - fw, "user": U0, "kind": PAGE_VIEW, "topic": 0},
        {"ts": ts - fw + 1, "user": U0, "kind": PAGE_VIEW, "topic": 1},
        {"ts": ts, "user": U0, "kind": SEARCH, "topic": 2},
        {"ts": ts + 1, "user": U0, "kind": SEARCH, "topic": 2},
    ]
    f = FeatureExtractor(parse_log(events), users(), s).features(U0, ts, fw)
    assert f[s.index("pv_freq_topic:0")] == 0  # exactly ts - fw is outside
    assert f[s.index("pv_freq_topic:1")] == 1
    assert f[s.index("srch_freq_topic:2")] == 1  # ts itself is inside
    assert f[s.index("srch_rncy_topic:2")] == MOST_RECENT_BUCKET


def test_unknown_user_raises():
    with pytest.raises(KeyError):
        FeatureExtractor(parse_log([]), users(), schema()).features("ghost", 0, DAY)


def test_features_match_brute_force_scan():
    rng = np.random.default_rng(7)
    s = schema()
    population = users(5)
    kinds = [
        (IMPRESSION, "adv", ["adv1", "adv2"], "imp"),
        (CLICK, "adv", ["adv1", "adv2"], "clk"),
        (PAGE_VIEW, "topic", [0, 1, 2], "pv"),
        (SEARCH, "topic", [0, 1, 2], "srch"),
    ]
    events = []
    for _ in range(400):
        kind, fieldname, refs, _ = kinds[rng.integers(len(kinds))]
        event = {fieldname: refs[rng.integers(len(refs))]}
        if kind in (IMPRESSION, CLICK):
            event["bidder"] = "value"
        events.append({"ts": int(rng.integers(0, 14 * DAY)),
                       "user": population.user_ids[rng.integers(5)],
                       "kind": kind, **event})
    log = parse_log(events)
    extractor = FeatureExtractor(log, population, s)
    from liftsim.liftmodel.features import recency_bucket as bucket

    for _ in range(50):
        uid = population.user_ids[rng.integers(5)]
        ts = int(rng.integers(DAY, 14 * DAY))
        fw = 7 * DAY
        got = extractor.features(uid, ts, fw)
        for kind, fieldname, refs, prefix in kinds:
            for ref in refs:
                window = [e for e in events
                          if e["kind"] == kind and e["user"] == uid
                          and e[fieldname] == ref
                          and ts - fw < e["ts"] <= ts]
                assert got[s.index(f"{prefix}_freq_{'adv' if 'adv' in fieldname else ('topic' if kind in (PAGE_VIEW, SEARCH) else 'app')}:{ref}")] == len(window)
                rncy = got[s.index(f"{prefix}_rncy_{'adv' if 'adv' in fieldname else 'topic'}:{ref}")]
                if window:
                    assert rncy == bucket(ts - max(e["ts"] for e in window))
                else:
                    assert rncy == NEVER_BUCKET


def test_fold_context_sets_topic_recency():
    s = schema()
    f = FeatureExtractor(parse_log([]), users(), s).features(U0, DAY, DAY)
    folded = fold_context(f, 2, s)
    assert folded[s.index("pv_rncy_topic:2")] == MOST_RECENT_BUCKET
    assert np.flatnonzero(folded != f).tolist() == [s.index("pv_rncy_topic:2")]
    assert f[s.index("pv_rncy_topic:2")] == NEVER_BUCKET  # original untouched
    again = fold_context(folded, 2, s)
    assert np.array_equal(folded, again)  # idempotent


def test_counterfactual_changes_exactly_two_coordinates():
    s = schema()
    rng = np.random.default_rng(3)
    f = rng.integers(0, 5, s.n_features).astype(float)
    f[s.index("imp_rncy_adv:adv1")] = 3.0
    bumped = counterfactual_features(f, "adv1", s)
    diff = np.nonzero(bumped != f)[0]
    assert set(diff) == {s.index("imp_freq_adv:adv1"), s.index("imp_rncy_adv:adv1")}
    assert bumped[s.index("imp_freq_adv:adv1")] == f[s.index("imp_freq_adv:adv1")] + 1
    assert bumped[s.index("imp_rncy_adv:adv1")] == MOST_RECENT_BUCKET
    # Other advertisers are untouched.
    assert bumped[s.index("imp_freq_adv:adv2")] == f[s.index("imp_freq_adv:adv2")]


def test_counterfactual_from_never_exposed():
    s = schema()
    f = np.zeros(s.n_features)
    f[s.index("imp_rncy_adv:adv1")] = NEVER_BUCKET
    bumped = counterfactual_features(f, "adv1", s)
    assert bumped[s.index("imp_freq_adv:adv1")] == 1
    assert bumped[s.index("imp_rncy_adv:adv1")] == MOST_RECENT_BUCKET
