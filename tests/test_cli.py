"""CLI contracts: subcommands, exit codes, determinism, atomic output."""

import json

import pytest

from liftsim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main

TRAIN_WORLD = {
    "master_seed": 42,
    "world": {
        "n_users": 300,
        "horizon_days": 12,
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
    "sampling": {"action_window_days": 2, "feature_window_days": 7,
                 "target_positive_count": 250},
    "model": {"n_trees": 25, "max_depth": 3},
}

VERIFY_SMALL = {
    "master_seed": 9,
    "sweep": {"n_instances": 4, "n_users": 400, "mc_instances": 1,
              "mc_trials": 2500},
}

AB_SMALL = {
    "master_seed": 17,
    "abtest": {"n_users": 900, "replications": 2,
               "budget_per_bidder_dollars": 3000.0},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_simulate_writes_log_and_summary(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_WORLD)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config),
                 "--out-dir", str(out)]) == EXIT_OK
    assert (out / "events.jsonl").exists()
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["master_seed"] == 42
    assert summary["events"] > 0
    assert not list(out.glob("*.tmp"))


def test_simulate_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path, TRAIN_WORLD)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(config), "--out-dir", str(out2)]) == EXIT_OK
    assert (out1 / "events.jsonl").read_bytes() == (out2 / "events.jsonl").read_bytes()
    assert (out1 / "simulate_summary.json").read_bytes() == \
        (out2 / "simulate_summary.json").read_bytes()


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    bad = dict(TRAIN_WORLD)
    bad["wheels"] = {"count": 4}
    config = write_config(tmp_path, bad)
    assert main(["simulate", "--config", str(config),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "unknown configuration section" in capsys.readouterr().err


def test_missing_required_field_is_a_config_error(tmp_path, capsys):
    bad = {"master_seed": 1, "world": {"horizon_days": 4}}
    config = write_config(tmp_path, bad)
    assert main(["simulate", "--config", str(config),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "n_users" in capsys.readouterr().err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG


def test_set_overrides_change_the_run(tmp_path):
    config = write_config(tmp_path, TRAIN_WORLD)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(config), "--out-dir", str(out2),
                 "--set", "master_seed=43"]) == EXIT_OK
    assert (out1 / "events.jsonl").read_bytes() != (out2 / "events.jsonl").read_bytes()


def test_train_end_to_end_and_determinism(tmp_path):
    config = write_config(tmp_path, TRAIN_WORLD)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    log = out / "events.jsonl"
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    for tdir in (t1, t2):
        assert main(["train", "--config", str(config), "--log", str(log),
                     "--out-dir", str(tdir)]) == EXIT_OK
    assert (t1 / "model.json").read_bytes() == (t2 / "model.json").read_bytes()
    assert (t1 / "calibration.jsonl").read_bytes() == \
        (t2 / "calibration.jsonl").read_bytes()
    model = json.loads((t1 / "model.json").read_text())
    assert model["format"] == "liftsim.model"
    assert model["schema_digest"]


def test_train_rejects_mismatched_log(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_WORLD)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    other = dict(TRAIN_WORLD)
    other["master_seed"] = 43
    other_config = write_config(tmp_path, other, "other.json")
    code = main(["train", "--config", str(other_config),
                 "--log", str(out / "events.jsonl"),
                 "--out-dir", str(tmp_path / "t")])
    assert code == EXIT_DATA
    assert "digest" in capsys.readouterr().err


def test_verify_small_sweep_passes_and_is_deterministic(tmp_path):
    config = write_config(tmp_path, VERIFY_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", str(config), "--out-dir", str(out1)]) == EXIT_OK
    assert main(["verify", "--config", str(config), "--out-dir", str(out2)]) == EXIT_OK
    assert (out1 / "verify_report.jsonl").read_bytes() == \
        (out2 / "verify_report.jsonl").read_bytes()
    assert (out1 / "verify_report.txt").read_bytes() == \
        (out2 / "verify_report.txt").read_bytes()


def test_verify_rejects_zero_instances(tmp_path, capsys):
    payload = {"master_seed": 1, "sweep": {"n_instances": 0}}
    config = write_config(tmp_path, payload)
    assert main(["verify", "--config", str(config),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG


def test_examples_prints_the_exact_table(capsys):
    assert main(["examples"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "0.041000" in out
    assert "0.050000" in out
    assert "$4.00" in out
    assert "$2.00" in out
    assert "$3.50" in out


def test_abtest_oracle_mode_and_determinism(tmp_path):
    config = write_config(tmp_path, AB_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["abtest", "--config", str(config), "--out-dir", str(out1)]) == EXIT_OK
    assert main(["abtest", "--config", str(config), "--out-dir", str(out2)]) == EXIT_OK
    assert (out1 / "abtest_report.jsonl").read_bytes() == \
        (out2 / "abtest_report.jsonl").read_bytes()
    header = json.loads((out1 / "abtest_report.jsonl").read_text().splitlines()[0])
    assert header["bid_source"] == "oracle"
    assert header["sign_counts"]["replications"] == 2


def test_abtest_model_mode_requires_matching_schema(tmp_path, capsys):
    # Train a model against the training world, then point the abtest at a
    # world with a different schema: the digests cannot match.
    config = write_config(tmp_path, TRAIN_WORLD)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    assert main(["train", "--config", str(config),
                 "--log", str(out / "events.jsonl"),
                 "--out-dir", str(out)]) == EXIT_OK
    ab = dict(AB_SMALL)
    ab["abtest"] = {**AB_SMALL["abtest"],
                    "world_overrides": {"topics": 5, "behavior": {"enabled": True}}}
    ab_config = write_config(tmp_path, ab, "ab.json")
    code = main(["abtest", "--config", str(ab_config),
                 "--bids", str(out / "model.json"),
                 "--out-dir", str(tmp_path / "m")])
    assert code == EXIT_DATA
    assert "schema" in capsys.readouterr().err


def test_abtest_model_mode_runs(tmp_path):
    config = write_config(tmp_path, TRAIN_WORLD)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    assert main(["train", "--config", str(config),
                 "--log", str(out / "events.jsonl"),
                 "--out-dir", str(out)]) == EXIT_OK
    ab = {
        "master_seed": 17,
        "abtest": {
            "n_users": 400, "replications": 1,
            "budget_per_bidder_dollars": 2000.0,
            "beta_dollars": 300.0,
            "world_overrides": {
                "topics": 3,
                "behavior": TRAIN_WORLD["world"]["behavior"],
                "p_distribution": TRAIN_WORLD["world"]["p_distribution"],
            },
        },
    }
    ab_config = write_config(tmp_path, ab, "ab.json")
    assert main(["abtest", "--config", str(ab_config),
                 "--bids", str(out / "model.json"),
                 "--out-dir", str(tmp_path / "m")]) == EXIT_OK
    report = (tmp_path / "m" / "abtest_report.jsonl").read_text().splitlines()
    assert json.loads(report[0])["bid_source"].endswith("model.json")
    rep = json.loads(report[1])
    assert rep["groups"]["value"]["impressions"] > 0


@pytest.mark.parametrize("content", [
    "not json",
    '{"format": "other"}',
    '{"format": "liftsim.model", "version": 1}',
], ids=["not-json", "wrong-format", "missing-keys"])
def test_abtest_malformed_model_is_a_data_error(tmp_path, capsys, content):
    model = tmp_path / "model.json"
    model.write_text(content)
    config = write_config(tmp_path, AB_SMALL)
    code = main(["abtest", "--config", str(config), "--bids", str(model),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["abtest", "train"])
def test_input_path_that_is_a_directory_is_a_data_error(tmp_path, capsys,
                                                        command):
    folder = tmp_path / "adir"
    folder.mkdir()
    if command == "abtest":
        argv = ["abtest", "--config", str(write_config(tmp_path, AB_SMALL)),
                "--bids", str(folder)]
    else:
        argv = ["train", "--config", str(write_config(tmp_path, TRAIN_WORLD)),
                "--log", str(folder)]
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert err.count("\n") == 1


def test_sampling_seed_tag_is_an_unknown_key(tmp_path, capsys):
    bad = {**TRAIN_WORLD,
           "sampling": {**TRAIN_WORLD["sampling"], "seed_tag": "other"}}
    config = write_config(tmp_path, bad)
    assert main(["simulate", "--config", str(config),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "unknown key sampling.seed_tag" in capsys.readouterr().err
