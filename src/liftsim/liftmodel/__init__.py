"""Action-rate lift prediction: samples, features, boosted trees, calibration."""
