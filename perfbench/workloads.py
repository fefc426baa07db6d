"""The benchmark's workloads: the liftsim CLI calls each one makes.

Every workload is a fixed sequence of ``liftsim`` CLI calls over config
files generated from the workload seed. Paths are relative to the
repetition's work directory, so identical inputs give byte-identical
outputs wherever the benchmark runs.

Sizes: ``full`` is the measured size; ``smoke`` is a few-second size
used by the benchmark's own tests.
"""
from __future__ import annotations

from dataclasses import dataclass

OUT = "out"
CPA_MICROS = 100_000_000  # every market uses the config default of 100 dollars

# The train world and the model-priced abtest world share one shape, so
# the trained model's feature schema matches the abtest world. Action
# rates are higher than the world default so that a few hundred users
# give enough actions for sampling to need the same number of draws on
# every seed.
WORLD_SHAPE = {
    "behavior": {"enabled": True, "pv_rate": 2.0, "search_rate": 0.8,
                 "app_rate": 0.12, "click_rate": 0.1, "correlation": 0.85},
    "p_distribution": {"kind": "scaled_beta", "a": 2.0, "b": 5.0,
                       "low": 0.02, "high": 0.35},
}

SIZES = {
    "full": {
        "oracle_users": 10_000, "oracle_replications": 3,
        "oracle_budget_dollars": 35_000.0,
        "train_users": 300, "target_positives": 800, "trees": 16,
        "model_ab_users": 240, "model_ab_days": 4,
        "sweep_instances": 24, "sweep_users": 2000,
    },
    "smoke": {
        "oracle_users": 600, "oracle_replications": 1,
        "oracle_budget_dollars": 2_000.0,
        "train_users": 150, "target_positives": 150, "trees": 4,
        "model_ab_users": 30, "model_ab_days": 4,
        "sweep_instances": 3, "sweep_users": 300,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    configs: dict[str, dict]     # file name -> JSON payload
    calls: list[list[str]]       # liftsim CLI argv; each command at most once
    uses_model_bids: bool = False


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload ``name`` with inputs derived from ``seed``."""
    z = SIZES[size]
    if name == "market_oracle":
        configs = {
            "abtest.json": {
                "master_seed": seed,
                "abtest": {"n_users": z["oracle_users"],
                           "replications": z["oracle_replications"],
                           "budget_per_bidder_dollars":
                               z["oracle_budget_dollars"]},
            },
        }
        calls = [["abtest", "--config", "abtest.json", "--out-dir", OUT]]
        return Workload(name, seed, configs, calls)
    if name == "verify_sweep":
        configs = {
            # No Monte-Carlo cross-check: its nine 3-sigma tests fail by
            # chance on a few percent of seeds, and a run must not fail.
            "verify.json": {
                "master_seed": seed,
                "sweep": {"n_instances": z["sweep_instances"],
                          "n_users": z["sweep_users"], "mc_instances": 0},
            },
        }
        calls = [["verify", "--config", "verify.json", "--out-dir", OUT]]
        return Workload(name, seed, configs, calls)
    if name == "lift_pipeline":
        configs = {
            "train.json": {
                "master_seed": seed,
                "world": {"n_users": z["train_users"], **WORLD_SHAPE},
                "sampling": {"target_positive_count": z["target_positives"]},
                "model": {"n_trees": z["trees"]},
            },
            "abtest.json": {
                "master_seed": seed,
                "abtest": {"n_users": z["model_ab_users"], "replications": 1,
                           "horizon_days": z["model_ab_days"],
                           "budget_per_bidder_dollars": 1e6,
                           "world_overrides": WORLD_SHAPE},
            },
        }
        calls = [
            ["simulate", "--config", "train.json", "--out-dir", OUT],
            ["train", "--config", "train.json", "--log", f"{OUT}/events.jsonl",
             "--out-dir", OUT],
            ["abtest", "--config", "abtest.json", "--bids", f"{OUT}/model.json",
             "--out-dir", OUT],
        ]
        return Workload(name, seed, configs, calls, uses_model_bids=True)
    raise ValueError(f"unknown workload {name!r}")
