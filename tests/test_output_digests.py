"""Pinned SHA-256 digests of the CLI's output files on small fixed configs,
and of the market engine's runs on every ``ENGINE_CASES`` world.

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
from test_world import ENGINE_CASES, _abc_run, engine_world

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
        "8544c6e8a47bc5ccdb13430e7458fe13391c620e5ecc7ce9345a1d8cae649e7e",
    "out/calibration.jsonl":
        "a35c2e5961f2783eab075a5f0aaeab04248d6845391423e67c378c3ee056dd1b",
    "out/verify_report.jsonl":
        "8dbb01d5dd11f586e89b36f29a186e38f1f97b5d5f54df119371c17e45c79032",
    "out/abtest_report.jsonl":
        "dd6cb82deaea0d36d0be62fc2ef52d7ddc47d40b71c54b019e7aa28420bc2294",
    "model_ab/abtest_report.jsonl":
        "b32c8328e1fa694ed90065f66cce0354c898b54b38b672e9f1169975737629e4",
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


# One digest per ENGINE_CASES world (tests/test_world.py) and action
# window of 1, 2 and 3 days: the logged oracle run's log text, then the
# GroupStats of the logged and of the unlogged run, as JSON.
ENGINE_DIGESTS = {
    "default/1":
        "0125675f72ea6a6f6b2df59bb79ca79130760b4648049d564398cb1ca71af556",
    "default/2":
        "ea6004188f42c25a621965ec20e045f1c5112db2dedb23e0ce2996e8784f10fd",
    "default/3":
        "8539a2291ec365a080adb6ed46213d6edb1181427505cd84e1f14a38bfa3505d",
    "reserve/1":
        "3b2fd2eff43dd951fac5bfe7b3c00e1c02e9fcdb429ce80ec9a3ab5910f760bb",
    "reserve/2":
        "73a9613cba3b86ea95eb066b70554f2ea941b24cd8ef4285c4d1c5f4d54b5b03",
    "reserve/3":
        "6248e837f6cf7dd4ec5726a4754a44e3297539edcd26a0fcce5e64f3d501aeaf",
    "ties/1":
        "4a5e88ad9856769821e92a9b552a26c3f71eebe282d4f766ff49a15b46131e5b",
    "ties/2":
        "fc18cb309cd7a38f93c346bcf7ad884ad08e20a132369e07c28a5d008e08b87c",
    "ties/3":
        "8be6fe63d6ebd8147ee597e241ff9e3ce5508ac509a15ca648c353032b14be3b",
    "deterministic/1":
        "88a71118adc1b303116a414e37199e694f62b69ef9c0901b8b8de7d152fc629b",
    "deterministic/2":
        "4f4e7636aa766ea0867e376cfd28f9b42ca307b58a15524487c2fc1de078e180",
    "deterministic/3":
        "c977b5468ec8d7b83bb0133dcc6355a7eac31c2c9597b6f1f3677520ca98f0bb",
    "spend_out/1":
        "0b4217030e2af9c184785cf714e92e1e2112b4d4ae0a8f25044bcb7870e11441",
    "spend_out/2":
        "5047e561053882ac7c683f0dd31cc7fe2ac2c0edbe1fdca91ae3fa954889d139",
    "spend_out/3":
        "aea8f6a6f8570842ad08bb598a6a69e8a14f3ba7a4b3390f534c7560d0390c65",
    "staggered_spend_out/1":
        "393fecdc9268ed3360fef4c95dca8d1bd05d3ae6daa83d531dcb98c284a50aba",
    "staggered_spend_out/2":
        "46f8a49b5f87f53a750141b889b49e238f9a91aee25edaad7cb684c23bee5dac",
    "staggered_spend_out/3":
        "b812f728b3f21dab934cd183bbb9e9483d2f6591ed60d24683703f7f9734f437",
    "zero_lift/1":
        "4f2a22ed17ebd54744c32aa92386e9e067440b455ac91a879815b0bbe184fd1b",
    "zero_lift/2":
        "64b8ce07ccb195e515d1b6fc04444ba74fa472178a98d1f61a00fcba64b8b05e",
    "zero_lift/3":
        "279ed9d4219d37683da3a01359085192db56874c6745779ae0a9e2bb415a887a",
    "lognormal/1":
        "c7df4bb4c1492e90b16bfdf88c2adf54243d9bf3e75b2ad915af60fb6dae6837",
    "lognormal/2":
        "85b8db62ba37c35402366c7a8afc986d4a54c4bc9e677ad32a14d71d4afb280e",
    "lognormal/3":
        "87154ab9262bd874d2ea9c7350b025418133af82aaa289fca8cd73b616371905",
}


def engine_digest(case: str, aw_days: int) -> str:
    config, budget = engine_world(case)
    logged = _abc_run(config, budget, True, aw_days=aw_days)
    unlogged = _abc_run(config, budget, False, aw_days=aw_days)
    digest = hashlib.sha256(logged.log.dumps().encode("ascii"))
    for run in (logged, unlogged):
        digest.update(json.dumps([g.as_dict() for g in run.groups])
                      .encode("ascii"))
    return digest.hexdigest()


@pytest.mark.skipif(
    numpy.__version__ != RECORDED_WITH["numpy"],
    reason=f"digests were recorded with numpy {RECORDED_WITH['numpy']}")
@pytest.mark.parametrize("aw_days", [1, 2, 3])
@pytest.mark.parametrize("case", ENGINE_CASES)
def test_engine_runs_match_pinned_digests(case, aw_days):
    """Every market path an ENGINE_CASES world reaches (reserve winner
    codes, ties, deterministic arrivals, spend-outs, windows of 1 to 3
    days, with and without a log) keeps its bytes."""
    assert engine_digest(case, aw_days) == ENGINE_DIGESTS[f"{case}/{aw_days}"]
