"""Run configuration: one JSON file per run, schema-validated.

The file is a nested object with one section per concern (world,
campaign, sampling, model, sweep, abtest) plus the master seed. Unknown
keys anywhere are rejected before any computation, and command-line
``--set section.key=value`` overrides are applied to leaves after
loading. Every derived artifact carries the master seed and a digest of
the fully resolved configuration.

Each setting is stated once. The world's one advertiser is the
campaign's ``advertiser_id`` (``abtest.advertiser`` in an A/B test), and
``abtest.world_overrides`` sets any world key except ``n_users`` and
``horizon_days``, which the abtest section sets, and the seed, which
derives from ``master_seed``. Each ``build_*`` builds its section inside
one mapping of ``TypeError`` and ``ValueError`` to :class:`ConfigError`.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Any

from .experiments import ABTestConfig, SweepConfig
from .liftmodel.gbdt import GBDTParams
from .liftmodel.pipeline import ModelParams
from .liftmodel.sampling import SamplingConfig
from .market import (
    DEFAULT_ACTION_WINDOW_DAYS, DEFAULT_ADVERTISER, DEFAULT_CPA_DOLLARS,
    INT64_MAX, Campaign, check_integer, check_real, dollars_to_micros,
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
    except ValueError as exc:  # also an integer past Python's digit limit
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
        except ValueError:  # not JSON, or an integer past the digit limit
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
    check_integer("master_seed", seed, 0, 2**64 - 1, error=ConfigError)
    return seed


@contextmanager
def _section(name: str):
    """Map a TypeError or ValueError raised while building section ``name``
    to one ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name} section: {exc}") from exc


def build_world(cfg: dict, seed: int) -> WorldConfig:
    section = cfg.get("world", {})
    if "n_users" not in section:
        raise ConfigError("world.n_users is required")
    with _section("world"):
        return WorldConfig(seed=seed, **section)


def build_campaign(cfg: dict) -> Campaign:
    section = cfg.get("campaign", {})
    with _section("campaign"):
        return Campaign(
            advertiser_id=section.get("advertiser_id", DEFAULT_ADVERTISER),
            cpa=dollars_to_micros(section.get("cpa_dollars", DEFAULT_CPA_DOLLARS)),
            budget=dollars_to_micros(section.get("budget_dollars", 1e9)),
            action_window_days=section.get("action_window_days",
                                           DEFAULT_ACTION_WINDOW_DAYS),
        )


def build_sampling(cfg: dict, seed: int, campaign: Campaign) -> SamplingConfig:
    """Sampling settings; a label's action window is the campaign's."""
    section = dict(cfg.get("sampling", {}))
    with _section("sampling"):
        if "feature_window_days" in section:
            days = section.pop("feature_window_days")
            check_real("feature_window_days", days, 0,
                       INT64_MAX / SECONDS_PER_DAY, "(]")
            section["feature_window_seconds"] = days * SECONDS_PER_DAY
        return SamplingConfig(
            action_window_seconds=campaign.action_window_days * SECONDS_PER_DAY,
            seed=derive_seed(seed, "sampling"), **section)


def build_model_params(cfg: dict) -> ModelParams:
    section = dict(cfg.get("model", {}))
    top = {key: section.pop(key) for key in ("neg_per_pos", "holdout_fraction")
           if key in section}
    with _section("model"):
        return ModelParams(gbdt=GBDTParams(**section), **top)


def build_sweep(cfg: dict, seed: int) -> SweepConfig:
    with _section("sweep"):
        return SweepConfig(master_seed=seed, **cfg.get("sweep", {}))


def build_abtest(cfg: dict, seed: int) -> ABTestConfig:
    with _section("abtest"):
        return ABTestConfig(master_seed=seed, **cfg.get("abtest", {}))
