"""Boosted-tree training: separability, determinism, duplication invariance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftsim.liftmodel.gbdt import (
    SCORE_CHUNK_ROWS, GBDTModel, GBDTParams, TrainingError, train_gbdt,
)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _auc(scores, labels):
    order = np.argsort(scores)
    ranks = np.empty(len(scores))
    ranks[order] = np.arange(1, len(scores) + 1)
    pos = labels > 0
    n_pos, n_neg = pos.sum(), (~pos).sum()
    return (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def test_separable_toy_reaches_perfect_training_accuracy():
    rng = np.random.default_rng(1)
    X = rng.integers(0, 20, size=(400, 3)).astype(float)
    y = (X[:, 1] > 9).astype(float)
    params = GBDTParams(n_trees=10, max_depth=2, learning_rate=0.5,
                        subsample=1.0, reg_lambda=0.0, min_child_weight=0.0,
                        min_samples_leaf=1)
    model = train_gbdt(X, y, params, seed=0)
    pred = (_sigmoid(model.raw_score(X)) > 0.5).astype(float)
    assert (pred == y).all()


def test_single_class_is_an_error():
    X = np.zeros((10, 2))
    with pytest.raises(TrainingError):
        train_gbdt(X, np.ones(10))
    with pytest.raises(TrainingError):
        train_gbdt(X, np.zeros(10))


def test_training_is_deterministic_per_seed():
    rng = np.random.default_rng(2)
    X = rng.integers(0, 30, size=(500, 5)).astype(float)
    y = (rng.random(500) < _sigmoid(0.3 * (X[:, 0] - 15))).astype(float)
    params = GBDTParams(n_trees=20, max_depth=3)
    grid = rng.integers(0, 30, size=(100, 5)).astype(float)
    a = train_gbdt(X, y, params, seed=7)
    b = train_gbdt(X, y, params, seed=7)
    assert np.array_equal(a.raw_score(grid), b.raw_score(grid))
    c = train_gbdt(X, y, params, seed=8)
    assert not np.array_equal(a.raw_score(grid), c.raw_score(grid))


def test_duplicated_samples_give_identical_score_function():
    """Doubling every row doubles all gradient sums uniformly, which with
    zero regularization leaves every split decision and leaf value alone."""
    rng = np.random.default_rng(3)
    X = rng.integers(0, 12, size=(300, 4)).astype(float)
    y = (rng.random(300) < _sigmoid(0.5 * (X[:, 2] - 6))).astype(float)
    params = GBDTParams(n_trees=15, max_depth=3, learning_rate=0.3,
                        subsample=1.0, reg_lambda=0.0, min_child_weight=0.0,
                        min_samples_leaf=1)
    base = train_gbdt(X, y, params, seed=5)
    doubled = train_gbdt(np.vstack([X, X]), np.concatenate([y, y]),
                         params, seed=5)
    grid = rng.integers(0, 12, size=(200, 4)).astype(float)
    assert np.allclose(base.raw_score(grid), doubled.raw_score(grid),
                       rtol=0, atol=1e-9)


def test_seed_change_stays_within_rerun_noise_band():
    rng = np.random.default_rng(4)
    n = 1200
    X = rng.integers(0, 25, size=(n, 6)).astype(float)
    logit = 0.25 * (X[:, 0] - 12) + 0.15 * (X[:, 3] - 12)
    y = (rng.random(n) < _sigmoid(logit)).astype(float)
    holdout = slice(800, None)
    train = slice(0, 800)
    params = GBDTParams(n_trees=30, max_depth=3, subsample=0.7)

    aucs = []
    for seed in range(10):
        model = train_gbdt(X[train], y[train], params, seed=seed)
        aucs.append(_auc(model.raw_score(X[holdout]), y[holdout]))
    lo, hi = min(aucs), max(aucs)
    band = hi - lo
    fresh = train_gbdt(X[train], y[train], params, seed=123)
    auc = _auc(fresh.raw_score(X[holdout]), y[holdout])
    assert lo - 2 * band - 0.01 <= auc <= hi + 2 * band + 0.01


def test_probabilities_converge_to_class_rate_on_constant_features():
    X = np.zeros((200, 2))
    y = np.concatenate([np.ones(60), np.zeros(140)])
    params = GBDTParams(n_trees=5, max_depth=2, subsample=1.0)
    model = train_gbdt(X, y, params, seed=0)
    prob = _sigmoid(model.raw_score(X[:1]))[0]
    assert prob == pytest.approx(0.3, abs=1e-6)


def test_serialization_round_trip():
    rng = np.random.default_rng(6)
    X = rng.integers(0, 10, size=(200, 3)).astype(float)
    y = (X[:, 0] > 4).astype(float)
    model = train_gbdt(X, y, GBDTParams(n_trees=8, max_depth=2), seed=1)
    clone = GBDTModel.from_dict(model.to_dict())
    grid = rng.integers(0, 10, size=(50, 3)).astype(float)
    assert np.array_equal(model.raw_score(grid), clone.raw_score(grid))


def test_feature_count_is_checked():
    X = np.zeros((20, 3))
    y = np.concatenate([np.ones(10), np.zeros(10)])
    model = train_gbdt(X, y, GBDTParams(n_trees=2, max_depth=1), seed=0)
    with pytest.raises(ValueError):
        model.raw_score(np.zeros((5, 4)))


def _walk(model: dict, x) -> float:
    """The raw score of one row, read from the file form one node at a
    time and summed in tree order from the base score."""
    top = model["params"]["max_bins"] - 1
    score = model["base_score"]
    for tree in model["trees"]:
        node = 0
        while tree["feature"][node] >= 0:
            value = min(max(x[tree["feature"][node]], 0.0), top)
            node = (tree["left"][node] if value <= tree["threshold"][node]
                    else tree["right"][node])
        score += tree["value"][node]
    return score


def _fit(seed, n_rows, n_features, max_depth, min_samples_leaf, constant):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 12, size=(n_rows, n_features)).astype(float)
    X += rng.random(X.shape) * (rng.random(X.shape) < 0.3)
    if constant:
        X[:] = 3.0
    y = (rng.random(n_rows) < 0.4).astype(float)
    y[:2] = 0.0, 1.0
    params = GBDTParams(n_trees=8, max_depth=max_depth, subsample=0.7,
                        min_samples_leaf=min_samples_leaf, max_bins=10)
    return train_gbdt(X, y, params, seed=seed)


def _prefix(model, n_trees):
    return GBDTModel(base_score=model.base_score, trees=model.trees[:n_trees],
                     params=model.params, n_features=model.n_features)


def _assert_matches_walk(model, grid):
    form = model.to_dict()
    expected = np.array([_walk(form, x) for x in grid])
    assert model.raw_score(grid).tobytes() == expected.tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n_rows=st.integers(20, 150),
       n_features=st.integers(1, 4), max_depth=st.integers(1, 4),
       min_samples_leaf=st.integers(1, 40), constant=st.booleans(),
       n_trees=st.integers(0, 8))
def test_raw_score_matches_a_walk_over_the_file_form(
        seed, n_rows, n_features, max_depth, min_samples_leaf, constant,
        n_trees):
    model = _prefix(_fit(seed, n_rows, n_features, max_depth,
                         min_samples_leaf, constant), n_trees)
    rng = np.random.default_rng(seed + 1)
    grid = rng.integers(-2, 14, size=(60, n_features)) + rng.random((60, 1))
    _assert_matches_walk(model, grid)


def test_walk_cases_single_leaves_padding_chunks_no_trees_and_depth():
    model = _fit(seed=3, n_rows=120, n_features=3, max_depth=3,
                 min_samples_leaf=38, constant=False)
    sizes = [len(t["feature"]) for t in model.to_dict()["trees"]]
    assert 1 in sizes and len(set(sizes)) > 2, sizes
    rng = np.random.default_rng(5)
    grid = rng.integers(-2, 14, size=(SCORE_CHUNK_ROWS + 7, 3)) + 0.5
    _assert_matches_walk(model, grid)
    empty = _prefix(model, 0)
    assert len(empty.trees) == 0
    assert np.array_equal(empty.raw_score(grid),
                          np.full(len(grid), model.base_score))
    _assert_matches_walk(empty, grid[:10])
    # A loaded tree may be deeper than the file's max_depth; the walk
    # still goes down to its leaves.
    form = model.to_dict()
    form["params"]["max_depth"] = 1
    _assert_matches_walk(GBDTModel.from_dict(form), grid[:50])
