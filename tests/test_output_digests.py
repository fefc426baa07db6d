"""Pinned SHA-256 digests of the CLI's output files on small fixed configs.

The same config and seed must give byte-identical outputs, also across
refactors of the code that produces them. The digests below were
recorded with the numpy version in ``RECORDED_WITH``; other versions may
round differently, so the test is skipped there.
"""

import hashlib
import json
from pathlib import Path

import numpy
import pytest

from liftsim.cli import EXIT_OK, main

RECORDED_WITH = {"numpy": "2.4.6"}

# The shapes of test_cli's TRAIN_WORLD and AB_SMALL, cut down to keep
# this file a few seconds of test time.
WORLD = {
    "master_seed": 42,
    "world": {
        "n_users": 200,
        "horizon_days": 8,
        "topics": 3,
        "p_distribution": {"kind": "scaled_beta", "a": 2.0, "b": 5.0,
                           "low": 0.02, "high": 0.35},
        "request_rate": {"kind": "lognormal", "median": 2.0, "sigma": 0.4,
                         "low": 0.5, "high": 8.0},
        "behavior": {"enabled": True, "correlation": 0.9, "pv_rate": 3.0,
                     "search_rate": 1.0, "app_rate": 0.1, "click_rate": 0.1},
    },
    "campaign": {"advertiser_id": "adv1", "cpa_dollars": 100.0,
                 "budget_dollars": 1e9, "action_window_days": 2},
    "sampling": {"target_positive_count": 150},
    "model": {"n_trees": 8, "max_depth": 3},
}

VERIFY = {
    "master_seed": 9,
    "sweep": {"n_instances": 4, "n_users": 400, "mode": "both",
              "mc_instances": 2, "mc_trials": 2000},
}

ABTEST = {
    "master_seed": 17,
    "abtest": {"n_users": 900, "replications": 2,
               "budget_per_bidder_dollars": 3000.0},
}

MODEL_ABTEST = {
    "master_seed": 17,
    "abtest": {
        "n_users": 120, "replications": 1, "horizon_days": 4,
        "budget_per_bidder_dollars": 1e6, "beta_dollars": 300.0,
        "world_overrides": {key: WORLD["world"][key] for key in
                            ("topics", "behavior", "p_distribution")},
    },
}

DIGESTS = {
    "out/events.jsonl":
        "da7ded90957a11382aa5d6c94adb109564a554394c3cf8058bfe1a6219d79d4f",
    "out/simulate_summary.json":
        "a56da323f80922ae42abe735dd35b41c1a3c0b72a8c30de83fef57a209509590",
    "out/model.json":
        "c6eaee6e770279177bce7dc382897a632585032863764d0810e9419bab339672",
    "out/calibration.jsonl":
        "9f17ad596a71b283ec152c85f608eac61152bce5b80e38a5866f3174d8fd1721",
    "out/verify_report.jsonl":
        "36ff89d2818eae9bda261540d1bb2a64c912db2b875868b4e7721d91fb219e53",
    "out/abtest_report.jsonl":
        "095759cdf9edf042596428b320416295149682bb5bdbc2427467e6e99ec733e9",
    "model_ab/abtest_report.jsonl":
        "70063cd0c48eb49c21eeaf6f08c314f887cca9b8c4915bb27c8d0a00d7b085f1",
}


def _config(name, payload):
    Path(name).write_text(json.dumps(payload), encoding="utf-8")
    return name


def output_digests() -> dict[str, str]:
    """Run every command in the current directory; digest the outputs.

    Paths are relative because the abtest report records the model path.
    """
    calls = [
        ["simulate", "--config", _config("world.json", WORLD)],
        ["train", "--config", "world.json", "--log", "out/events.jsonl"],
        ["verify", "--config", _config("verify.json", VERIFY)],
        ["abtest", "--config", _config("abtest.json", ABTEST)],
    ]
    for argv in calls:
        assert main(argv + ["--out-dir", "out"]) == EXIT_OK, argv[0]
    assert main(["abtest", "--config", _config("model_ab.json", MODEL_ABTEST),
                 "--bids", "out/model.json", "--out-dir", "model_ab"]) == EXIT_OK
    names = ("out/events.jsonl", "out/simulate_summary.json", "out/model.json",
             "out/calibration.jsonl", "out/verify_report.jsonl",
             "out/abtest_report.jsonl", "model_ab/abtest_report.jsonl")
    return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.skipif(
    numpy.__version__ != RECORDED_WITH["numpy"],
    reason=f"digests were recorded with numpy {RECORDED_WITH['numpy']}")
def test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert output_digests() == DIGESTS
