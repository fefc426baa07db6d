"""Calibrated-model pipeline: training, prediction, serialization, streaming."""

import json

import numpy as np
import pytest

from liftsim.bidders import BidderConfig
from liftsim.events import EventLog, TimelineEvent, IMPRESSION, PAGE_VIEW
from liftsim.liftmodel.features import (
    FeatureExtractor, FeatureSchema, UserHistory, extract_from_history,
    counterfactual_features, fold_context,
)
from liftsim.liftmodel.gbdt import GBDTModel, GBDTParams, TrainingError
from liftsim.liftmodel.isotonic import IsotonicMap
from liftsim.liftmodel.pipeline import (
    CalibratedModel, ModelBidEstimator, ModelParams, SchemaMismatch,
    train_calibrated_model,
)
from liftsim.liftmodel.sampling import SamplingConfig, generate_samples
from liftsim.market import Campaign, dollars_to_micros
from liftsim.world import WorldConfig, generate_population, run_market

DAY = 86_400
D = dollars_to_micros


def tiny_schema():
    return FeatureSchema(advertisers=("adv1",), topics=2, apps=1)


def constant_model(schema, value=0.02):
    gbdt = GBDTModel(base_score=0.0, trees=[], params=GBDTParams(),
                     n_features=schema.n_features)
    iso = IsotonicMap(breakpoints=(0.0,), values=(value,), degenerate=True)
    return CalibratedModel(schema=schema, gbdt=gbdt, isotonic=iso,
                           prior_logit_shift=0.0,
                           feature_window_seconds=7 * DAY)


def predict_lift(model, features, advertiser):
    """Predicted rate with one more impression minus the rate as-is."""
    shown = counterfactual_features(features, advertiser, model.schema)
    pair = model.predict_ar(np.stack([shown, features]))
    return float(pair[0] - pair[1])


def trained_world_model(seed=33, n_users=400, target=300):
    config = WorldConfig(
        n_users=n_users, seed=seed, horizon_days=16, topics=3,
        p_distribution={"kind": "scaled_beta", "a": 2.0, "b": 5.0,
                        "low": 0.02, "high": 0.4},
        request_rate={"kind": "lognormal", "median": 2.0, "sigma": 0.4,
                      "low": 0.5, "high": 8.0},
        behavior={"enabled": True, "correlation": 0.9, "pv_rate": 3.0,
                  "search_rate": 1.0, "app_rate": 0.1, "click_rate": 0.1},
    )
    population = generate_population(config)
    bidders = [BidderConfig(kind="passive"),
               BidderConfig(kind="value", alpha=D(100.0))]
    assignment = np.arange(n_users) % 2
    campaign = Campaign("adv1", cpa=D(100.0), budget=D(1e9),
                        action_window_days=2)
    run = run_market(population, bidders, [campaign], config,
                     assignment=assignment, record_events=True)
    schema = FeatureSchema(advertisers=("adv1",), topics=config.topics,
                           apps=config.apps)
    samp = SamplingConfig(action_window_seconds=2 * DAY,
                          feature_window_seconds=7 * DAY,
                          target_positive_count=target, seed=5)
    samples = generate_samples(run.log, population, samp, schema)
    params = ModelParams(gbdt=GBDTParams(n_trees=40, max_depth=3),
                         neg_per_pos=4.0, holdout_fraction=0.4)
    model, report = train_calibrated_model(samples, schema, params, seed=6,
                                           feature_window_seconds=7 * DAY)
    return model, report, run.log, population, schema, samples


def test_constant_model_predicts_zero_lift():
    schema = tiny_schema()
    model = constant_model(schema)
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = rng.integers(0, 5, schema.n_features).astype(float)
        assert predict_lift(model, f, "adv1") == 0.0


def test_predict_lift_is_the_definitional_difference():
    model, _, _, _, schema, _ = trained_world_model()
    rng = np.random.default_rng(1)
    for _ in range(30):
        f = rng.integers(0, 6, schema.n_features).astype(float)
        shown = counterfactual_features(f, "adv1", schema)
        # Predicting both rows in one call equals predicting each alone.
        expected = model.predict_ar(shown)[0] - model.predict_ar(f)[0]
        assert predict_lift(model, f, "adv1") == pytest.approx(expected, abs=0)


def test_trained_model_sees_positive_mean_lift():
    model, report, log, population, schema, _ = trained_world_model()
    extractor = FeatureExtractor(log, population, schema)
    lifts = []
    for uid in population.user_ids[:150]:
        f = extractor.features(uid, 12 * DAY, 7 * DAY)
        lifts.append(predict_lift(model, f, "adv1"))
    assert np.mean(lifts) > 0
    assert not report.isotonic_degenerate


def test_isotonic_invariants_on_trained_model():
    model, _, _, _, _, _ = trained_world_model()
    values = np.asarray(model.isotonic.values)
    assert (np.diff(values) >= 0).all()
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_model_serialization_round_trip(tmp_path):
    model, _, _, _, schema, _ = trained_world_model()
    path = tmp_path / "model.json"
    model.save(path)
    clone = CalibratedModel.load(path)
    rng = np.random.default_rng(2)
    X = rng.integers(0, 8, size=(50, schema.n_features)).astype(float)
    assert np.array_equal(model.predict_ar(X), clone.predict_ar(X))
    # Saving twice produces identical bytes.
    again = tmp_path / "model2.json"
    model.save(again)
    assert path.read_bytes() == again.read_bytes()


def test_schema_mismatch_is_an_error(tmp_path):
    model, _, _, _, schema, _ = trained_world_model()
    with pytest.raises(SchemaMismatch):
        model.predict_ar(np.zeros((1, schema.n_features + 3)))
    path = tmp_path / "model.json"
    model.save(path)
    data = json.loads(path.read_text())
    data["schema"]["topics"] += 1  # schema no longer matches its digest
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaMismatch):
        CalibratedModel.load(path)


def test_training_requires_both_classes():
    schema = tiny_schema()
    from liftsim.liftmodel.sampling import TrainingSample
    samples = [TrainingSample(f"u{i}", 100 + i, False,
                              np.zeros(schema.n_features))
               for i in range(40)]
    with pytest.raises(TrainingError):
        train_calibrated_model(samples, schema, ModelParams(), seed=0)


def test_streaming_estimator_matches_offline_extraction():
    """The rolling-history estimate equals fold+counterfactual predictions
    computed from a log-built extractor at the same timestamp."""
    model, _, _, population, schema, _ = trained_world_model()
    uid = population.user_ids[0]
    events = [
        TimelineEvent(ts=1 * DAY, user_id=uid, kind=PAGE_VIEW, topic_id=1),
        TimelineEvent(ts=2 * DAY, user_id=uid, kind=IMPRESSION,
                      advertiser_id="adv1", bidder="value", price=100),
        TimelineEvent(ts=3 * DAY, user_id=uid, kind=PAGE_VIEW, topic_id=0),
    ]
    estimator = ModelBidEstimator(model, population, "adv1")
    for e in events:
        estimator.observe(e)
    ts = 3 * DAY + 1000
    p_hat, lift_hat = estimator.estimate(0, ts, topic_id=1)

    log = EventLog(events=events, seed=0, config_digest="x")
    f = FeatureExtractor(log, population, schema).features(
        uid, ts, model.feature_window_seconds)
    folded = fold_context(f, 1, schema)
    shown = counterfactual_features(folded, "adv1", schema)
    assert p_hat == pytest.approx(model.predict_ar(shown)[0], abs=0)
    assert lift_hat == pytest.approx(
        model.predict_ar(shown)[0] - model.predict_ar(folded)[0], abs=0)


def test_user_history_window_stats():
    history = UserHistory()
    history.observe(TimelineEvent(ts=100, user_id="u", kind=IMPRESSION,
                                  advertiser_id="adv1", bidder="v", price=1))
    history.observe(TimelineEvent(ts=2000, user_id="u", kind=IMPRESSION,
                                  advertiser_id="adv1", bidder="v", price=1))
    count, rncy = history.window_stats("imp", "adv1", ts=2500, fw=10_000)
    assert count == 2
    assert rncy == 0  # 500s ago -> within one hour
    count, rncy = history.window_stats("imp", "adv1", ts=2500, fw=1000)
    assert count == 1  # only the event at 2000 is inside (1500, 2500]
