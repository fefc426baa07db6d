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
        "899374f2d5e2be3f7dd02bc43e7002425cea4c2ae325696b7114e7db5ad332a9",
    "out/events.npz":
        "622d873a22591fb133441754f3bf018437422f9277f16fe527547f3cb58f720f",
    "out/simulate_summary.json":
        "19b256da45a01537cf52fc39612bc394e3460a7e434279a9db06e03dd00d4bd0",
    "out/model.json":
        "76acc2fd527f82b5faae700c4eab5aae9b6728109bb69ec4bd80789e0e60fd8e",
    "out/calibration.jsonl":
        "a35c2e5961f2783eab075a5f0aaeab04248d6845391423e67c378c3ee056dd1b",
    "out/verify_report.jsonl":
        "d33754461eeab9d1d276894d48dd8b68e59d61a919ae98d6611dabbaf66e32de",
    "out/abtest_report.jsonl":
        "dd6cb82deaea0d36d0be62fc2ef52d7ddc47d40b71c54b019e7aa28420bc2294",
    "model_ab/abtest_report.jsonl":
        "f31d0301c4c37c0d08e1098c103c9efd9e742e1365837b33ce15afff034016d1",
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
    names = ("out/events.jsonl", "out/events.npz", "out/simulate_summary.json",
             "out/model.json", "out/calibration.jsonl",
             "out/verify_report.jsonl", "out/abtest_report.jsonl",
             "model_ab/abtest_report.jsonl")
    return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.skipif(
    numpy.__version__ != RECORDED_WITH["numpy"],
    reason=f"digests were recorded with numpy {RECORDED_WITH['numpy']}")
def test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert output_digests() == DIGESTS


def test_train_outputs_do_not_depend_on_the_sidecar(tmp_path, monkeypatch):
    # The sidecar only spares train the parse: the same log gives the same
    # model and calibration bytes with it and without it.
    monkeypatch.chdir(tmp_path)
    train = ["train", "--config", _config("world.json", WORLD),
             "--log", "out/events.jsonl"]
    assert main(["simulate", "--config", "world.json",
                 "--out-dir", "out"]) == EXIT_OK
    assert main(train + ["--out-dir", "with"]) == EXIT_OK
    Path("out/events.npz").unlink()
    assert main(train + ["--out-dir", "without"]) == EXIT_OK
    for name in ("model.json", "calibration.jsonl"):
        assert (Path("with", name).read_bytes()
                == Path("without", name).read_bytes()), name
