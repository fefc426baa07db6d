"""Run configuration: one JSON file per run, schema-validated.

The file is a nested object with one section per concern (world,
campaign, sampling, model, sweep, abtest) plus the master seed. Unknown
keys anywhere are rejected before any computation, and command-line
``--set section.key=value`` overrides are applied to leaves after
loading. Every derived artifact carries the master seed and a digest of
the fully resolved configuration.
"""
from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any

from .experiments import ABTestConfig, SweepConfig
from .liftmodel.gbdt import GBDTParams
from .liftmodel.pipeline import ModelParams
from .liftmodel.sampling import SamplingConfig
from .market import (
    DEFAULT_ACTION_WINDOW_DAYS, DEFAULT_ADVERTISER, DEFAULT_CPA_DOLLARS,
    Campaign, dollars_to_micros,
)
from .seeds import derive_seed
from .world import SECONDS_PER_DAY, WorldConfig


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration input."""


def _keys(cls, *excluded: str) -> set[str]:
    """The field names of dataclass ``cls``, less ``excluded``."""
    return {f.name for f in fields(cls)} - set(excluded)


# Allowed keys per section; None marks sections whose value is a free-form
# object validated by its consumer (distribution specs).
_SCHEMA: dict[str, set[str] | None] = {
    "master_seed": None,
    "world": _keys(WorldConfig, "seed"),
    "campaign": {
        "advertiser_id", "cpa_dollars", "budget_dollars", "action_window_days",
    },
    "sampling": {"feature_window_days", "target_positive_count"},
    "model": _keys(GBDTParams) | _keys(ModelParams, "gbdt"),
    "sweep": _keys(SweepConfig, "master_seed"),
    "abtest": _keys(ABTestConfig, "master_seed"),
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
            advertiser_id=section.get("advertiser_id", DEFAULT_ADVERTISER),
            cpa=dollars_to_micros(section.get("cpa_dollars", DEFAULT_CPA_DOLLARS)),
            budget=dollars_to_micros(section.get("budget_dollars", 1e9)),
            action_window_days=section.get("action_window_days",
                                           DEFAULT_ACTION_WINDOW_DAYS),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid campaign section: {exc}") from exc


def build_sampling(cfg: dict, seed: int, campaign: Campaign) -> SamplingConfig:
    """Sampling settings; a label's action window is the campaign's."""
    section = dict(cfg.get("sampling", {}))
    if "feature_window_days" in section:
        section["feature_window_seconds"] = (section.pop("feature_window_days")
                                             * SECONDS_PER_DAY)
    try:
        return SamplingConfig(
            action_window_seconds=campaign.action_window_days * SECONDS_PER_DAY,
            seed=derive_seed(seed, "sampling"), **section)
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
