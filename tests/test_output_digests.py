"""Pinned SHA-256 digests of the CLI's output files on small fixed configs.

The same config and seed must give byte-identical outputs, also across
refactors of the code that produces them. The digests below were
recorded with the numpy and scipy versions in ``RECORDED_WITH``; other
versions may round differently, so the test is skipped there.
"""

import hashlib
import json
from pathlib import Path

import numpy
import pytest
import scipy

from liftsim.cli import EXIT_OK, main

RECORDED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}

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
        "57460073262e0ed17f774ca7992452c3250fef9a2d798122650423ef076a7f0d",
    "out/simulate_summary.json":
        "6b164cda541d8a56c852c818fd6af760f9cec5ba9de82a2e07da9fe116e2d1a2",
    "out/model.json":
        "b183b18c7f619c8de7a3f6e72cac5ff8c57308dca3a48940b94132efc23515ef",
    "out/calibration.jsonl":
        "9f17ad596a71b283ec152c85f608eac61152bce5b80e38a5866f3174d8fd1721",
    "out/verify_report.jsonl":
        "016c286291d2f02322e688fcc23a94997e314e67af0dae37f453cc4c83678729",
    "out/abtest_report.jsonl":
        "ba0a19d7f68ac227a97261407ef8377e1b16b63ab45c9cabb74b62aab91245e1",
    "model_ab/abtest_report.jsonl":
        "83f25d02f8f2ac8057786f72399c5911ae2a035dae0012984fc25aa81d77483f",
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
    (numpy.__version__, scipy.__version__)
    != (RECORDED_WITH["numpy"], RECORDED_WITH["scipy"]),
    reason=f"digests were recorded with numpy {RECORDED_WITH['numpy']} and "
           f"scipy {RECORDED_WITH['scipy']}")
def test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert output_digests() == DIGESTS
