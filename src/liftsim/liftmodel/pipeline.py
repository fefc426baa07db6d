"""End-to-end lift-model training and prediction.

Training splits samples by user into a fit set and a holdout, trains
the boosted ensemble on the fit set with negatives downsampled to a
configured ratio, and fits the isotonic map from raw ensemble score to
action rate on the untouched holdout; the map reads only the scores'
order, so no prior correction or sigmoid goes before it. The lift
estimate for an ad is the predicted rate with one extra impression
folded in minus the predicted rate as-is.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..events import EventLog
from ..fileio import atomic_write_text
from ..market import INT64_MAX, Population, check_real
from ..seeds import rng_for
from .features import (
    EventIndex, FeatureSchema, counterfactual_features, fold_context,
)
# Unused here; perfbench/tracer.py wraps it under this module by name.
from .features import extract_from_history  # noqa: F401
from .gbdt import GBDTModel, GBDTParams, TrainingError, train_gbdt
from .isotonic import IsotonicMap, fit_isotonic

if TYPE_CHECKING:  # importing numpy.typing takes about 0.7 ms
    from numpy.typing import ArrayLike

MODEL_FORMAT = "liftsim.model"
MODEL_VERSION = 2  # v2: breakpoints in raw-score units
# A calibration bin is within bounds when its error is at most REL of its
# action rate plus SE_MULT binomial standard errors.
CALIBRATION_BINS = 10
CALIBRATION_REL = 0.10
CALIBRATION_SE_MULT = 2.0


class SchemaMismatch(ValueError):
    """Raised when features do not match the model's training schema."""


class ModelFileError(ValueError):
    """Raised when a model file cannot be read as a liftsim model."""


@dataclass(frozen=True)
class ModelParams:
    gbdt: GBDTParams = field(default_factory=GBDTParams)
    neg_per_pos: float = 4.0
    holdout_fraction: float = 0.4

    def __post_init__(self) -> None:
        check_real("neg_per_pos", self.neg_per_pos, 0, math.inf, "()")
        check_real("holdout_fraction", self.holdout_fraction, 0, 1, "()")


@dataclass
class CalibratedModel:
    """Tree ensemble plus isotonic map plus training provenance; a row's
    action rate is ``isotonic.apply(gbdt.raw_score(row))``."""

    schema: FeatureSchema
    gbdt: GBDTModel
    isotonic: IsotonicMap
    feature_window_seconds: float  # as trained, an int unless fractional
    metadata: dict = field(default_factory=dict)

    @property
    def schema_digest(self) -> str:
        return self.schema.digest()

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.schema.n_features:
            raise SchemaMismatch(
                f"expected {self.schema.n_features} features "
                f"(schema {self.schema_digest}), got {X.shape[1]}")
        return X

    def predict_ar(self, X: np.ndarray) -> np.ndarray:
        """Calibrated action-rate predictions in [0, 1]."""
        X = self._check(X)
        return np.asarray(self.isotonic.apply(self.gbdt.raw_score(X)))

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "schema": self.schema.to_dict(),
            "schema_digest": self.schema_digest,
            "feature_window_seconds": self.feature_window_seconds,
            "gbdt": self.gbdt.to_dict(),
            "isotonic": self.isotonic.to_dict(),
            "metadata": self.metadata,
        }

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CalibratedModel":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"),
                              object_pairs_hook=_finite_object)
        except ModelFileError as exc:
            raise ModelFileError(f"{path} is malformed: {exc}") from exc
        except ValueError as exc:  # also undecodable bytes
            raise ModelFileError(f"{path} is not JSON: {exc}") from exc
        if (not isinstance(data, dict) or data.get("format") != MODEL_FORMAT
                or data.get("version") != MODEL_VERSION):
            raise ModelFileError(
                f"{path} is not a {MODEL_FORMAT} v{MODEL_VERSION} file")
        try:
            window = data["feature_window_seconds"]  # as saved, even fractional
            check_real("feature_window_seconds", window, 0, INT64_MAX, "(]")
            model = cls(
                schema=FeatureSchema.from_dict(data["schema"]),
                gbdt=GBDTModel.from_dict(data["gbdt"]),
                isotonic=IsotonicMap.from_dict(data["isotonic"]),
                feature_window_seconds=window,
                metadata=data.get("metadata", {}),
            )
            stored_digest = data["schema_digest"]
        except KeyError as exc:
            raise ModelFileError(f"{path} lacks the key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelFileError(f"{path} is malformed: {exc}") from exc
        if model.schema_digest != stored_digest:
            raise SchemaMismatch("stored schema digest does not match schema")
        if model.gbdt.n_features != model.schema.n_features:
            raise ModelFileError(f"{path} is malformed: its ensemble's feature "
                                 "count is not its schema's")
        return model


def _finite_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose numbers, and the numbers of its lists, are
    finite: ``json`` reads ``NaN``, ``Infinity`` and ``1e999`` as floats."""
    for key, value in pairs:
        for item in value if isinstance(value, list) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ModelFileError(f"{key} holds the non-finite number {item}")
    return dict(pairs)


@dataclass
class CalibrationReport:
    """Equal-count decile calibration of predicted vs empirical rates."""

    deciles: list[dict]
    n_holdout: int
    isotonic_degenerate: bool


def build_calibration_report(predictions: np.ndarray,
                             labels: np.ndarray) -> CalibrationReport:
    order = np.argsort(predictions, kind="stable")
    edges = np.linspace(0, len(order), CALIBRATION_BINS + 1).astype(int)
    deciles = []
    for b in range(CALIBRATION_BINS):
        idx = order[edges[b]:edges[b + 1]]
        if idx.size == 0:
            continue
        mean_pred = float(predictions[idx].mean())
        rate = float(labels[idx].mean())
        se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / idx.size)
        bound = CALIBRATION_REL * rate + CALIBRATION_SE_MULT * se
        deciles.append({
            "decile": b,
            "n": int(idx.size),
            "mean_predicted": mean_pred,
            "action_rate": rate,
            "abs_error": abs(mean_pred - rate),
            "bound": bound,
            "within": abs(mean_pred - rate) <= bound,
        })
    return CalibrationReport(deciles=deciles, n_holdout=len(labels),
                             isotonic_degenerate=False)


def train_calibrated_model(
    samples: np.recarray,
    schema: FeatureSchema,
    params: ModelParams | None = None,
    seed: int = 0,
    *,
    feature_window_seconds: float,
) -> tuple[CalibratedModel, CalibrationReport]:
    """Train and calibrate ``samples``, records as
    :func:`~.sampling.generate_samples` returns them; returns the model
    and its report.

    The holdout is split by user, not by sample, so no user contributes
    to both the ensemble fit and the calibration.
    """
    params = params or ModelParams()
    if len(samples) == 0:
        raise TrainingError("no samples to train on")
    shuffled = sorted(set(samples.user_id.tolist()))
    rng_for(seed, "model-split").shuffle(shuffled)
    n_holdout = max(1, int(round(params.holdout_fraction * len(shuffled))))
    holdout_users = shuffled[:n_holdout]

    X = samples.features
    y = samples.label.astype(float)
    # Membership by one sorted search (np.isin would first load numpy.ma).
    holdout_ids = np.sort(holdout_users)
    at = np.searchsorted(holdout_ids, samples.user_id).clip(max=n_holdout - 1)
    holdout = holdout_ids[at] == samples.user_id
    n_holdout_samples = int(np.count_nonzero(holdout))
    if n_holdout_samples in (0, len(samples)):
        raise TrainingError("user split left an empty side; need more users")

    X_fit, y_fit = X[~holdout], y[~holdout]
    pos_idx = np.nonzero(y_fit > 0)[0]
    neg_idx = np.nonzero(y_fit <= 0)[0]
    if pos_idx.size == 0 or neg_idx.size == 0:
        raise TrainingError("training needs both positive and negative samples")

    keep_neg = min(neg_idx.size, int(round(params.neg_per_pos * pos_idx.size)))
    ds_rng = rng_for(seed, "model-downsample")
    kept_neg = np.sort(ds_rng.choice(neg_idx, size=keep_neg, replace=False))
    rows = np.sort(np.concatenate([pos_idx, kept_neg]))
    gbdt = train_gbdt(X_fit[rows], y_fit[rows], params.gbdt, seed=seed)

    X_cal, y_cal = X[holdout], y[holdout]
    raw = gbdt.raw_score(X_cal)
    isotonic = fit_isotonic(raw, y_cal)

    model = CalibratedModel(
        schema=schema,
        gbdt=gbdt,
        isotonic=isotonic,
        feature_window_seconds=feature_window_seconds,
        metadata={
            "seed": seed,
            "n_samples": len(samples),
            "n_fit": len(samples) - n_holdout_samples,
            "n_holdout_samples": n_holdout_samples,
            "n_holdout_users": len(holdout_users),
            "holdout_users": sorted(holdout_users),
            "positives_fit": int(pos_idx.size),
            "negatives_kept": int(keep_neg),
            "gbdt_params": params.gbdt.to_dict(),
        },
    )
    # ``isotonic.apply(raw)`` is ``model.predict_ar(X_cal)``, without a
    # second pass of the ensemble over the holdout.
    report = build_calibration_report(isotonic.apply(raw), y_cal)
    report.isotonic_degenerate = isotonic.degenerate
    return model, report


class ModelBidEstimator:
    """Window-by-window (p, lift) estimates for model-driven bidding.

    Indexes the behavior events once (:class:`~.features.EventIndex`),
    learns the bidder's own impressions and clicks from the market as
    columns, once per settled window, and prices a window's requests with
    one columnar feature pass and one ensemble call: the calibrated
    action rate assuming the impression is shown, and the counterfactual
    lift of showing it. Features only read events at or before a
    request's time, so holding later behavior events changes no bid, and
    a batch gives each row the bits a one-row call would.
    """

    def __init__(
        self,
        model: CalibratedModel,
        population: Population,
        advertiser: str,
        behavior: EventLog,
    ) -> None:
        if behavior.users != population.user_ids:
            raise ValueError("the behavior log's users are not the population's")
        self.model = model
        self.advertiser = advertiser
        self._demographics = population.demographics
        self._events = EventIndex(behavior, model.schema)

    def observe(self, user_index: ArrayLike, kind: str, ref: object,
                ts: ArrayLike) -> None:
        """Learn events of one kind: users ``user_index`` at times ``ts``."""
        self._events.observe(user_index, kind, ref, ts)

    def estimate(self, user_index: ArrayLike, ts: ArrayLike,
                 topic_id: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """(p_hat, lift_hat) arrays for requests given as equal-length
        arrays of user index, time and topic, with one ensemble call."""
        user_index, ts, topic_id = (np.asarray(a, dtype=np.int64)
                                    for a in (user_index, ts, topic_id))
        if not (ts.ndim == 1 and user_index.shape == ts.shape == topic_id.shape):
            raise ValueError("user_index, ts and topic_id must be equal-length "
                             "1-d arrays")
        schema = self.model.schema
        features = self._events.rows(user_index, ts,
                                     self.model.feature_window_seconds,
                                     self._demographics[user_index])
        folded = fold_context(features, topic_id, schema)
        shown = counterfactual_features(folded, self.advertiser, schema)
        pred = self.model.predict_ar(np.concatenate([shown, folded]))
        p_hat = pred[:len(ts)]
        return p_hat, p_hat - pred[len(ts):]
