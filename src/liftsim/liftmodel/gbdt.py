"""Gradient-boosted decision trees with logistic loss.

Single-machine Newton boosting over integer-bucketed features: every
feature value is clipped into [0, max_bins) and its integer part is its
histogram bin, so split search is exact greedy over all (feature, bin)
cuts. Deterministic for a given seed, including row subsampling and
tie-breaking (first feature, then lowest threshold wins on equal gain).

The ensemble is one structured array of shape (trees, nodes) with the
fields of ``NODE``. Within a tree, node 0 is the root, a node is a leaf
iff its feature is -1, and a split's two children are appended before
the left one is grown, so nodes are numbered depth first. Shorter trees
are padded with zero-valued leaves. Fit and predict share one traversal
that steps all trees down together, one level at a time.

Each node's split search is one histogram: ``bincount`` over the
(feature, bin) cell of every (row, feature) pair, for g, h and counts.
``bincount`` adds in row order, so each bin sum is the one a per-feature
pass would give. A raw score is ``base_score`` plus the leaf values added
in tree order, so it is the same bits however many rows are scored.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from functools import cached_property

import numpy as np

from ..market import check_integer
from ..seeds import rng_for

NODE = np.dtype([("feature", np.int32), ("threshold", np.float64),
                 ("left", np.int32), ("right", np.int32),
                 ("value", np.float64)])
LEAF = (-1, 0.0, -1, -1, 0.0)
# Rows scored per traversal, so the (rows x trees) temporaries stay small.
SCORE_CHUNK_ROWS = 4096
# A split search holds (features x max_bins) histograms.
MAX_BINS = 4096


class TrainingError(ValueError):
    """Raised when the sample set cannot be trained on."""


@dataclass(frozen=True)
class GBDTParams:
    n_trees: int = 150
    max_depth: int = 4
    learning_rate: float = 0.15
    subsample: float = 0.8
    reg_lambda: float = 1.0
    min_child_weight: float = 1.0
    min_samples_leaf: int = 10
    max_bins: int = 64

    def __post_init__(self) -> None:
        for name in ("n_trees", "max_depth", "min_samples_leaf"):
            check_integer(name, getattr(self, name), 1)
        check_integer("max_bins", self.max_bins, 2, MAX_BINS)
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if not (0 <= self.reg_lambda < math.inf
                and 0 <= self.min_child_weight < math.inf):
            raise ValueError("regularizers must be finite and non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


def _stack(trees: list[np.ndarray]) -> np.ndarray:
    """Per-tree node arrays as one (trees, nodes) array, leaf-padded."""
    width = max((len(t) for t in trees), default=1)
    out = np.empty((len(trees), width), dtype=NODE)
    out[...] = LEAF
    for i, tree in enumerate(trees):
        out[i, :len(tree)] = tree
    return out


def _traversal(trees: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each tree's root, then per node: splits?, left and right child,
    feature, threshold, value. Node ids are flat indices into ``trees``;
    a leaf steps to itself."""
    leaf = trees["feature"] < 0
    own = np.arange(trees.size).reshape(trees.shape)
    offset = own[:, :1]
    return (offset.ravel(), ~leaf.ravel(),
            np.where(leaf, own, trees["left"] + offset).ravel(),
            np.where(leaf, own, trees["right"] + offset).ravel(),
            np.where(leaf, 0, trees["feature"]).ravel(),
            trees["threshold"].ravel(), trees["value"].ravel())


def _leaf_values(tables: tuple[np.ndarray, ...], Xb: np.ndarray) -> np.ndarray:
    """(rows, trees) leaf values: all trees step down one level at a time
    until every row is on a leaf, at most ``max_depth`` levels for a
    fitted model and as deep as a loaded tree goes."""
    roots, internal, left, right, feature, threshold, value = tables
    node = np.broadcast_to(roots, (len(Xb), len(roots)))
    rows = np.arange(len(Xb))[:, None]
    while internal[node].any():
        go_left = Xb[rows, feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return value[node]


@dataclass(frozen=True)
class GBDTModel:
    """Boosted ensemble producing raw log-odds scores; frozen, so ``trees``
    cannot change under the traversal tables built on the first score."""

    base_score: float
    trees: np.ndarray = field(default_factory=lambda: _stack([]))
    params: GBDTParams = field(default_factory=GBDTParams)
    seed: int = 0
    n_features: int = 0

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        return _traversal(self.trees)

    def raw_score(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}")
        Xb = np.clip(X, 0, self.params.max_bins - 1)
        out = np.empty(len(Xb))
        for start in range(0, len(Xb), SCORE_CHUNK_ROWS):
            chunk = Xb[start:start + SCORE_CHUNK_ROWS]
            terms = np.column_stack([
                np.full(len(chunk), self.base_score),
                _leaf_values(self._tables, chunk)])
            out[start:start + len(chunk)] = np.cumsum(terms, axis=1)[:, -1]
        return out

    def to_dict(self) -> dict:
        trees = []
        for tree in self.trees:
            used = tree[:2 * int((tree["feature"] >= 0).sum()) + 1]
            trees.append({name: used[name].tolist() for name in NODE.names})
        return {
            "base_score": self.base_score,
            "seed": self.seed,
            "n_features": self.n_features,
            "params": self.params.to_dict(),
            "trees": trees,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GBDTModel":
        """Raises ValueError for a malformed tree. A child must come after
        its parent in the same tree, so every walk ends on a leaf."""
        n_features = int(data["n_features"])
        trees = []
        for k, tree in enumerate(data["trees"]):
            if len({len(tree[name]) for name in NODE.names}) != 1:
                raise ValueError(f"tree {k}: node lists differ in length")
            nodes = np.empty(len(tree["feature"]), dtype=NODE)
            for name in NODE.names:
                nodes[name] = tree[name]
            if (nodes["feature"] >= n_features).any():
                raise ValueError(f"tree {k}: a split reads a feature "
                                 f"outside [0, {n_features})")
            split = np.flatnonzero(nodes["feature"] >= 0)
            for side in ("left", "right"):
                child = nodes[side][split]
                if ((child <= split) | (child >= len(nodes))).any():
                    raise ValueError(f"tree {k}: a {side} child is not a "
                                     "later node of the tree")
            trees.append(nodes)
        return cls(
            base_score=float(data["base_score"]),
            trees=_stack(trees),
            params=GBDTParams(**data["params"]),
            seed=int(data["seed"]),
            n_features=n_features,
        )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _best_split(cells: np.ndarray, g: np.ndarray, h: np.ndarray,
                G: float, H: float, params: GBDTParams):
    """(feature, bin) of the best positive-gain cut, or None.

    ``cells`` are the node's rows' (feature, bin) cells; ``g``, ``h``,
    ``G`` and ``H`` are its rows' gradients, hessians and their sums.
    """
    n, n_features = cells.shape
    bins = params.max_bins
    lam = params.reg_lambda
    flat = cells.ravel()
    size = n_features * bins

    def left_sums(weights):
        hist = np.bincount(flat, weights, minlength=size)
        return np.cumsum(hist.reshape(n_features, bins), axis=1)[:, :-1]

    gl = left_sums(np.repeat(g, n_features))
    hl = left_sums(np.repeat(h, n_features))
    cl = left_sums(None)
    gr = G - gl
    hr = H - hl
    cr = n - cl
    valid = (
        (cl >= params.min_samples_leaf)
        & (cr >= params.min_samples_leaf)
        & (hl >= params.min_child_weight)
        & (hr >= params.min_child_weight)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(
            valid,
            gl * gl / (hl + lam) + gr * gr / (hr + lam) - G * G / (H + lam),
            -np.inf,
        )
    if gains.size == 0:
        return None
    gains[~np.isfinite(gains)] = -np.inf
    best = int(np.argmax(gains))  # row-major: first feature, then lowest bin
    return divmod(best, bins - 1) if gains.flat[best] > 0.0 else None


def _grow(cells: np.ndarray, Xb: np.ndarray, g: np.ndarray, h: np.ndarray,
          rows: np.ndarray, params: GBDTParams) -> np.ndarray:
    """One tree's nodes, grown depth first from ``rows``."""
    lam = params.reg_lambda
    nodes = [LEAF]
    stack = [(0, rows, 0)]
    while stack:
        node, rows, depth = stack.pop()
        g_rows, h_rows = g[rows], h[rows]
        G, H = float(g_rows.sum()), float(h_rows.sum())
        split = None
        if (depth < params.max_depth
                and len(rows) >= 2 * params.min_samples_leaf):
            split = _best_split(cells[rows], g_rows, h_rows, G, H, params)
        if split is None:
            value = -params.learning_rate * G / (H + lam) if H + lam > 0 else 0.0
            nodes[node] = (-1, 0.0, -1, -1, value)
            continue
        feature, cut = split
        left = len(nodes)
        nodes[node] = (feature, float(cut), left, left + 1, 0.0)
        nodes += [LEAF, LEAF]
        go_left = Xb[rows, feature] <= cut
        stack += [(left + 1, rows[~go_left], depth + 1),
                  (left, rows[go_left], depth + 1)]
    return np.array(nodes, dtype=NODE)


def train_gbdt(
    X: np.ndarray,
    y: np.ndarray,
    params: GBDTParams | None = None,
    seed: int = 0,
) -> GBDTModel:
    """Fit a boosted logistic-loss ensemble; deterministic per seed."""
    params = params or GBDTParams()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise TrainingError("X must be (n, f) aligned with y")
    pos = float(np.count_nonzero(y > 0))
    neg = float(np.count_nonzero(y <= 0))
    if pos <= 0 or neg <= 0:
        raise TrainingError("training needs both positive and negative samples")

    Xb = np.clip(X, 0, params.max_bins - 1)
    cells = Xb.astype(np.int64) + np.arange(X.shape[1]) * params.max_bins
    base = float(np.log(pos / neg))
    scores = np.full(len(y), base)
    rng = rng_for(seed, "gbdt")
    trees = []
    n = len(y)
    for _ in range(params.n_trees):
        prob = _sigmoid(scores)
        g = prob - y
        h = np.maximum(prob * (1.0 - prob), 1e-12)
        if params.subsample < 1.0:
            rows = np.nonzero(rng.random(n) < params.subsample)[0]
            if rows.size < 2 * params.min_samples_leaf:
                rows = np.arange(n)
        else:
            rows = np.arange(n)
        tree = _grow(cells, Xb, g, h, rows, params)
        trees.append(tree)
        scores += _leaf_values(_traversal(tree[None]), Xb)[:, 0]
    return GBDTModel(base_score=base, trees=_stack(trees), params=params,
                     seed=seed, n_features=X.shape[1])
