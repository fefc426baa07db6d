"""Run configuration: one JSON file per run, schema-validated.

The file is a nested object with one section per concern (world,
campaign, bidders, sampling, model, sweep, abtest) plus the master
seed. Unknown keys anywhere are rejected before any computation, and
command-line ``--set section.key=value`` overrides are applied to
leaves after loading. Every derived artifact carries the master seed
and a digest of the fully resolved configuration.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .bidders import BidderConfig, lineup
from .experiments import ABTestConfig, SweepConfig
from .liftmodel.gbdt import GBDTParams
from .liftmodel.pipeline import ModelParams
from .liftmodel.sampling import SamplingConfig
from .market import Campaign, Population, dollars_to_micros
from .seeds import derive_seed
from .world import WorldConfig, split_budget

SECONDS_PER_DAY = 86_400


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration input."""


# Allowed keys per section; None marks sections whose value is a free-form
# object validated by its consumer (distribution specs).
_SCHEMA: dict[str, set[str] | None] = {
    "master_seed": None,
    "output_dir": None,
    "world": {
        "n_users", "horizon_days", "topics", "apps", "advertisers",
        "p_distribution", "delta_p_distribution", "p_lift_dependence",
        "request_rate", "request_arrivals", "competitor_bids", "behavior",
        "reserve_micros",
    },
    "campaign": {
        "advertiser_id", "cpa_dollars", "budget_dollars", "action_window_days",
    },
    "bidders": {
        "kinds", "alpha_dollars", "beta_dollars", "budgets_dollars",
    },
    "sampling": {
        "action_window_days", "feature_window_days", "target_positive_count",
    },
    "model": {
        "n_trees", "max_depth", "learning_rate", "subsample", "reg_lambda",
        "min_child_weight", "min_samples_leaf", "max_bins", "neg_per_pos",
        "holdout_fraction",
    },
    "sweep": {
        "n_instances", "n_users", "tolerance", "mode", "mc_instances",
        "mc_trials", "alpha_dollars", "cpa_dollars",
    },
    "abtest": {
        "n_users", "replications", "cpa_dollars", "budget_per_bidder_dollars",
        "action_window_days", "horizon_days", "advertiser", "beta_dollars",
        "world_overrides",
    },
}


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("configuration root must be an object")
    for key, value in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration section {key!r}")
        allowed = _SCHEMA[key]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be an object")
        for sub in value:
            if sub not in allowed:
                raise ConfigError(f"unknown key {key}.{sub}")
    return cfg


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(cfg)


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply ``section.key=value`` overrides; values parse as JSON first."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node: Any = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot descend into {dotted!r}")
        node[parts[-1]] = value
    return validate_config(cfg)


def master_seed(cfg: dict) -> int:
    seed = cfg.get("master_seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("master_seed must be a non-negative integer")
    return seed


def build_world(cfg: dict, seed: int) -> WorldConfig:
    section = dict(cfg.get("world", {}))
    if "n_users" not in section:
        raise ConfigError("world.n_users is required")
    if "advertisers" in section:
        section["advertisers"] = tuple(section["advertisers"])
    try:
        return WorldConfig(seed=seed, **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid world section: {exc}") from exc


def build_campaign(cfg: dict) -> Campaign:
    section = cfg.get("campaign", {})
    try:
        return Campaign(
            advertiser_id=section.get("advertiser_id", "adv1"),
            cpa=dollars_to_micros(section.get("cpa_dollars", 100.0)),
            budget=dollars_to_micros(section.get("budget_dollars", 1e9)),
            action_window_days=section.get("action_window_days", 2),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid campaign section: {exc}") from exc


def build_bidders(
    cfg: dict, campaign: Campaign, population: Population
) -> tuple[list[BidderConfig], list[int]]:
    """Bidder lineup for a simulated market and each bidder's budget.

    Scales default as in :func:`~liftsim.bidders.lineup`; budgets default
    to the campaign budget split over the active bidders.
    """
    section = cfg.get("bidders", {})
    alpha = section.get("alpha_dollars")
    beta = section.get("beta_dollars")
    try:
        bidders = lineup(
            section.get("kinds", ["passive", "value", "lift"]), campaign.cpa,
            population,
            alpha=None if alpha is None else dollars_to_micros(alpha),
            beta=None if beta is None else float(dollars_to_micros(beta)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid bidders section: {exc}") from exc
    budgets = section.get("budgets_dollars")
    if budgets is None:
        return bidders, split_budget(bidders, campaign.budget)
    if len(budgets) != len(bidders):
        raise ConfigError("budgets_dollars must align with bidder kinds")
    try:
        return bidders, [dollars_to_micros(b) for b in budgets]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid bidders section: {exc}") from exc


def build_sampling(cfg: dict, seed: int) -> SamplingConfig:
    section = dict(cfg.get("sampling", {}))
    for window in ("action_window", "feature_window"):
        if f"{window}_days" in section:
            section[f"{window}_seconds"] = (section.pop(f"{window}_days")
                                            * SECONDS_PER_DAY)
    try:
        return SamplingConfig(seed=derive_seed(seed, "sampling"), **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sampling section: {exc}") from exc


def build_model_params(cfg: dict) -> ModelParams:
    section = dict(cfg.get("model", {}))
    top = {key: section.pop(key) for key in ("neg_per_pos", "holdout_fraction")
           if key in section}
    try:
        return ModelParams(gbdt=GBDTParams(**section), **top)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model section: {exc}") from exc


def build_sweep(cfg: dict, seed: int) -> SweepConfig:
    section = cfg.get("sweep", {})
    try:
        return SweepConfig(master_seed=seed, **section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sweep section: {exc}") from exc


def build_abtest(cfg: dict, seed: int) -> ABTestConfig:
    section = cfg.get("abtest", {})
    try:
        config = ABTestConfig(master_seed=seed, **section)
        config.world(0)  # the overrides make a valid world,
        config.campaign()  # the money and window a valid campaign
        if (config.beta_dollars is not None
                and dollars_to_micros(config.beta_dollars) <= 0):
            raise ValueError("beta_dollars must be positive")
        return config
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid abtest section: {exc}") from exc
