"""Pool-adjacent-violators calibration against an independent QP oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liftsim.liftmodel.isotonic import IsotonicMap, fit_isotonic


def _qp_isotonic(scores, labels):
    """Independent least-squares isotonic fit via non-negative least squares.

    Writing the fitted sequence as cumulative sums of non-negative
    increments (plus a free first level, which is itself non-negative for
    0/1 labels) turns the isotonic regression into an NNLS problem.
    """
    from scipy.optimize import nnls

    order = np.argsort(scores, kind="stable")
    y = labels[order]
    n = len(y)
    design = np.tril(np.ones((n, n)))
    z, _ = nnls(design, y)
    return scores[order], design @ z


def test_pav_matches_nnls_oracle_on_small_instances():
    rng = np.random.default_rng(21)
    for trial in range(30):
        n = int(rng.integers(3, 21))
        scores = rng.random(n)
        scores = np.unique(scores)  # distinct scores keep the oracle simple
        labels = (rng.random(len(scores)) < 0.5).astype(float)
        if labels.min() == labels.max():
            continue
        iso = fit_isotonic(scores, labels)
        xs, fitted = _qp_isotonic(scores, labels)
        ours = iso.apply(xs)
        assert np.allclose(ours, fitted, atol=1e-9), f"trial {trial}"


def test_monotone_non_decreasing_and_bounded():
    rng = np.random.default_rng(22)
    scores = rng.random(500)
    labels = (rng.random(500) < scores).astype(float)
    iso = fit_isotonic(scores, labels)
    grid = np.linspace(-0.5, 1.5, 1000)
    vals = iso.apply(grid)
    assert (np.diff(vals) >= 0).all()
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_monotone_scores_reproduce_binned_rates():
    # Scores already ordered with increasing label rate: PAV keeps the
    # per-score empirical rates untouched.
    scores = np.repeat([0.1, 0.2, 0.3, 0.4], 50)
    rates = np.array([0.05, 0.25, 0.55, 0.9])
    rng = np.random.default_rng(23)
    labels = np.concatenate([
        (rng.random(50) < r).astype(float) for r in rates
    ])
    empirical = [labels[scores == s].mean() for s in [0.1, 0.2, 0.3, 0.4]]
    if not all(a < b for a, b in zip(empirical, empirical[1:])):
        pytest.skip("rare draw produced non-monotone empirical rates")
    iso = fit_isotonic(scores, labels)
    for s, e in zip([0.1, 0.2, 0.3, 0.4], empirical):
        assert iso.apply(s) == pytest.approx(e)


def test_single_class_holdout_is_degenerate_constant():
    iso = fit_isotonic(np.array([0.2, 0.5, 0.9]), np.ones(3))
    assert iso.degenerate
    assert iso.apply(0.0) == 1.0
    assert iso.apply(1.0) == 1.0
    zeros = fit_isotonic(np.array([0.2, 0.5]), np.zeros(2))
    assert zeros.degenerate
    assert zeros.apply(0.7) == 0.0


def test_right_continuous_step_evaluation():
    iso = IsotonicMap(breakpoints=(0.1, 0.5, 0.8), values=(0.2, 0.4, 0.9))
    assert iso.apply(0.0) == 0.2   # below the first breakpoint
    assert iso.apply(0.1) == 0.2
    assert iso.apply(0.49999) == 0.2
    assert iso.apply(0.5) == 0.4   # jumps exactly at the breakpoint
    assert iso.apply(0.79) == 0.4
    assert iso.apply(0.8) == 0.9
    assert iso.apply(2.0) == 0.9


def test_map_validation():
    with pytest.raises(ValueError):
        IsotonicMap(breakpoints=(0.5, 0.1), values=(0.1, 0.2))
    with pytest.raises(ValueError):
        IsotonicMap(breakpoints=(0.1, 0.5), values=(0.5, 0.2))
    with pytest.raises(ValueError):
        IsotonicMap(breakpoints=(0.1,), values=(1.5,))


def test_ties_in_score_are_pooled():
    scores = np.array([0.3, 0.3, 0.3, 0.7, 0.7])
    labels = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    iso = fit_isotonic(scores, labels)
    assert iso.apply(0.3) == pytest.approx(1 / 3)
    assert iso.apply(0.7) == pytest.approx(1.0)


def test_serialization_round_trip():
    iso = IsotonicMap(breakpoints=(0.1, 0.6), values=(0.25, 0.75))
    clone = IsotonicMap.from_dict(iso.to_dict())
    assert clone == iso


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


# Scores and queries on a grid of step 1/64 in [-10, 10]: each transform
# below keeps distinct grid points distinct, so it keeps their order
# exactly and adds no tie.
GRID_POINTS = np.arange(-640, 641) / 64
GRID = st.integers(-640, 640).map(lambda k: k / 64)


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(GRID, st.booleans()), min_size=1,
                       max_size=60),
       queries=st.lists(GRID, min_size=1, max_size=30),
       slope=st.floats(1e-3, 1e3), offset=st.floats(-1e3, 1e3))
def test_a_strictly_increasing_transform_moves_no_prediction(
        points, queries, slope, offset):
    """An isotonic fit reads only the order of its scores, so fitting on
    f(scores) for a strictly increasing f (an affine map with positive
    slope, or the logistic) gives the same values, and the map applied to
    f(q) gives what the raw map gives at q."""
    scores, labels = (np.array(column, dtype=float) for column in zip(*points))
    q = np.array(queries)
    raw = fit_isotonic(scores, labels)
    for f in (lambda x: slope * x + offset, _logistic):
        assert np.all(np.diff(f(GRID_POINTS)) > 0)  # no two images collide
        moved = fit_isotonic(f(scores), labels)
        assert moved.values == raw.values
        assert moved.degenerate == raw.degenerate
        assert np.array_equal(moved.apply(f(q)), raw.apply(q))
