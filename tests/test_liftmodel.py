"""Calibrated-model pipeline: training, prediction, serialization, streaming."""

import json
from dataclasses import replace

import numpy as np
import pytest

from liftsim.bidders import BidderConfig
from event_records import parse_log
from liftsim.events import CLICK, IMPRESSION, KIND_CODE, PAGE_VIEW
from liftsim.liftmodel.features import (
    FeatureSchema, UserHistory, counterfactual_features, extract_from_history,
    fold_context, histories, window_features,
)
from liftsim.liftmodel.gbdt import GBDTModel, GBDTParams, TrainingError
from liftsim.liftmodel.isotonic import IsotonicMap
from liftsim.liftmodel.pipeline import (
    CalibratedModel, ModelBidEstimator, ModelParams, SchemaMismatch,
    train_calibrated_model,
)
from liftsim.liftmodel.sampling import (
    SamplingConfig, generate_samples, sample_records,
)
from liftsim.market import Campaign, dollars_to_micros
from liftsim.world import WorldConfig, generate_population, run_market

DAY = 86_400
D = dollars_to_micros


def tiny_schema():
    return FeatureSchema(advertisers=("adv1",), topics=2, apps=1)


def constant_model(schema, value=0.02):
    gbdt = GBDTModel(base_score=0.0, params=GBDTParams(),
                     n_features=schema.n_features)
    iso = IsotonicMap(breakpoints=(0.0,), values=(value,), degenerate=True)
    return CalibratedModel(schema=schema, gbdt=gbdt, isotonic=iso,
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
    run = run_market(population, bidders, campaign, config,
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
    codes = [log.users.index(uid) for uid in population.user_ids[:150]]
    rows = window_features(log, population, schema, codes,
                           [12 * DAY] * len(codes), 7 * DAY)
    lifts = [predict_lift(model, f, "adv1") for f in rows]
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
    samples = sample_records([f"u{i}" for i in range(40)], range(100, 140),
                             np.zeros(40, dtype=bool),
                             np.zeros((40, schema.n_features)))
    with pytest.raises(TrainingError):
        train_calibrated_model(samples, schema, ModelParams(), seed=0,
                               feature_window_seconds=7 * DAY)


def test_training_requires_samples():
    schema = tiny_schema()
    samples = sample_records([], [], [], np.zeros((0, schema.n_features)))
    with pytest.raises(TrainingError, match="no samples"):
        train_calibrated_model(samples, schema, ModelParams(), seed=0,
                               feature_window_seconds=7 * DAY)


def test_streaming_estimator_matches_offline_extraction():
    """The rolling-history estimate equals fold+counterfactual predictions
    computed from a log-built extractor at the same timestamp."""
    model, _, _, population, schema, _ = trained_world_model()
    uid = population.user_ids[0]
    views = parse_log([
        {"ts": 1 * DAY, "user": uid, "kind": PAGE_VIEW, "topic": 1},
        {"ts": 3 * DAY, "user": uid, "kind": PAGE_VIEW, "topic": 0},
    ])
    with pytest.raises(ValueError):  # the log's users must be the population's
        ModelBidEstimator(model, population, "adv1", views)
    behavior = replace(views, users=population.user_ids)  # uid is code 0
    estimator = ModelBidEstimator(model, population, "adv1", behavior)
    estimator.observe([0], IMPRESSION, "adv1", [2 * DAY])
    with pytest.raises(ValueError):  # one time per user
        estimator.observe([0, 0], CLICK, "adv1", [2 * DAY])
    ts = 3 * DAY + 1000
    (p_hat,), (lift_hat,) = estimator.estimate([0], [ts], [1])

    log = parse_log([
        {"ts": 1 * DAY, "user": uid, "kind": PAGE_VIEW, "topic": 1},
        {"ts": 2 * DAY, "user": uid, "kind": IMPRESSION, "adv": "adv1",
         "bidder": "value", "price": 100},
        {"ts": 3 * DAY, "user": uid, "kind": PAGE_VIEW, "topic": 0},
    ])
    f = window_features(log, population, schema, [0], [ts],
                        model.feature_window_seconds)[0]
    folded = fold_context(f, 1, schema)
    shown = counterfactual_features(folded, "adv1", schema)
    assert p_hat == pytest.approx(model.predict_ar(shown)[0], abs=0)
    assert lift_hat == pytest.approx(
        model.predict_ar(shown)[0] - model.predict_ar(folded)[0], abs=0)


def estimator_with_wins():
    """A trained world's estimator over its simulated log, which holds
    impressions and clicks, told a win and its click for ten users after
    the log ends; and requests at each of the first 30 logged
    impressions and 30 s after it, at each told win and 30 s after it,
    and at fixed days, each on every topic."""
    model, _, log, population, schema, _ = trained_world_model()
    estimator = ModelBidEstimator(model, population, "adv1", log)
    told = np.arange(0, 40, 4)
    observed = []
    for u in told.tolist():  # a win and its click after the log ends
        observed += [(u, IMPRESSION, "adv1", 16 * DAY + u),
                     (u, CLICK, "adv1", 16 * DAY + u + 30)]
    # As the market tells a window's wins: one call per kind.
    estimator.observe(told, IMPRESSION, "adv1", 16 * DAY + told)
    estimator.observe(told, CLICK, "adv1", 16 * DAY + told + 30)
    seen = log.kind == KIND_CODE[IMPRESSION]
    users = np.concatenate([np.repeat(log.user[seen][:30], 2),
                            np.repeat(told, 2),
                            np.repeat(np.arange(0, 400, 10), 3)])
    times = np.concatenate([np.repeat(log.ts[seen][:30], 2) + [0, 30] * 30,
                            np.repeat(16 * DAY + told, 2) + [0, 30] * 10,
                            np.tile([4 * DAY, 9 * DAY, 15 * DAY], 40)])
    requests = (np.repeat(users, schema.topics),
                np.repeat(times, schema.topics),
                np.tile(np.arange(schema.topics), times.size))
    return estimator, observed, requests, model, log, population


def test_batched_estimate_equals_one_row_calls():
    """A batch gives every row the bits a one-row call gives it: at an
    observed impression, 30 s after one, for repeated users and on
    every topic."""
    estimator, _, (user, ts, topic), *_ = estimator_with_wins()
    p_hat, lift_hat = estimator.estimate(user, ts, topic)
    rows = [estimator.estimate([u], [t], [k])
            for u, t, k in zip(user.tolist(), ts.tolist(), topic.tolist())]
    assert p_hat.tobytes() == np.concatenate([r[0] for r in rows]).tobytes()
    assert lift_hat.tobytes() == np.concatenate([r[1] for r in rows]).tobytes()
    assert np.unique(p_hat).size > 1 and np.unique(lift_hat).size > 1

    empty = estimator.estimate([], [], [])
    assert [a.shape for a in empty] == [(0,), (0,)]
    with pytest.raises(ValueError):
        estimator.estimate([0, 1], [DAY], [0])


def test_estimates_are_the_reference_rows_predictions():
    """Each estimate is the model's prediction on the row that
    ``extract_from_history`` builds over ``histories`` of the behavior
    log plus the observed wins and clicks; the log's own impressions and
    clicks count."""
    estimator, observed, (user, ts, topic), model, log, population = \
        estimator_with_wins()
    schema, fw = model.schema, model.feature_window_seconds
    p_hat, lift_hat = estimator.estimate(user, ts, topic)

    per_user = histories(log)
    for u, kind, ref, t in observed:  # after the log: the lists stay sorted
        per_user[u].observe(kind, ref, t)
    rows = np.array([
        extract_from_history(per_user[u], population.demographics[u].tolist(),
                             t, fw, schema)
        for u, t in zip(user.tolist(), ts.tolist())])
    logged = rows[ts < 16 * DAY]  # before any told win
    assert (logged[:, schema.index("imp_freq_adv:adv1")] > 0).sum() > 30
    assert (logged[:, schema.index("clk_freq_adv:adv1")] > 0).any()
    folded = fold_context(rows, topic, schema)
    shown = model.predict_ar(counterfactual_features(folded, "adv1", schema))
    assert p_hat.tobytes() == shown.tobytes()
    assert lift_hat.tobytes() == (shown - model.predict_ar(folded)).tobytes()


def test_user_history_window_stats():
    history = UserHistory()
    history.observe(IMPRESSION, "adv1", 100)
    history.observe(IMPRESSION, "adv1", 2000)
    count, rncy = history.window_stats("imp", "adv1", ts=2500, fw=10_000)
    assert count == 2
    assert rncy == 0  # 500s ago -> within one hour
    count, rncy = history.window_stats("imp", "adv1", ts=2500, fw=1000)
    assert count == 1  # only the event at 2000 is inside (1500, 2500]
