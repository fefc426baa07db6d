"""Action-rate lift prediction: samples, features, boosted trees, calibration."""

from .features import (  # noqa: F401
    MOST_RECENT_BUCKET,
    NEVER_BUCKET,
    FeatureSchema,
    UserHistory,
    counterfactual_features,
    fold_context,
)
from .sampling import SamplingConfig, generate_samples  # noqa: F401
from .gbdt import GBDTModel, GBDTParams, train_gbdt  # noqa: F401
from .isotonic import IsotonicMap, fit_isotonic  # noqa: F401
from .pipeline import (  # noqa: F401
    CalibratedModel,
    CalibrationReport,
    ModelBidEstimator,
    ModelParams,
    train_calibrated_model,
)
