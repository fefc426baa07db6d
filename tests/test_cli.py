"""CLI contracts: subcommands, exit codes, determinism, atomic output."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import liftsim.world
from liftsim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_VERIFY, main
from liftsim.events import EventLog
from liftsim.liftmodel.features import FeatureSchema
from liftsim.liftmodel.gbdt import GBDTModel
from liftsim.liftmodel.isotonic import IsotonicMap
from liftsim.liftmodel.pipeline import CalibratedModel

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
    "sampling": {"feature_window_days": 7, "target_positive_count": 250},
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


def one_split_model(**tree):
    """Model file text: one depth-1 tree, with ``tree``'s lists replacing
    its own, on the schema of a 3-topic, 3-app world of ``adv1``."""
    schema = FeatureSchema(("adv1",), topics=3, apps=3)
    model = CalibratedModel(
        schema=schema, gbdt=GBDTModel(-3.0, n_features=schema.n_features),
        isotonic=IsotonicMap((-5.0, -3.0), (0.02, 0.08)),
        feature_window_seconds=7 * 86_400).to_dict()
    model["gbdt"]["trees"] = [{
        "feature": [0, -1, -1], "threshold": [0.0, 0.0, 0.0],
        "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, -1.0, 1.0],
        **tree}]
    return json.dumps(model)


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


def _outputs(out):
    """Each file under ``out`` as bytes, less the digest of the config as
    written, which names the config file's own text."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name in ("simulate_summary.json", "abtest_report.jsonl"):
            data = re.sub(rb'"config_digest": ?"[0-9a-f]+",?', b"", data)
        files[path.name] = data
    return files


@pytest.mark.parametrize("command, payload, dotted, key, value", [
    ("simulate", TRAIN_WORLD, "world.competitor_bids", "pool", 0.7),
    ("abtest", AB_SMALL, "abtest.world_overrides.request_rate", "sigma", 0.3),
], ids=["simulate", "abtest"])
def test_a_distribution_set_without_kind_edits_the_default_spec(
        tmp_path, command, payload, dotted, key, value):
    section = dotted.rsplit(".", 1)[1]
    spec = {**getattr(liftsim.world.WorldConfig(n_users=1), section),
            key: value}
    config = write_config(tmp_path, payload)
    edited, whole = tmp_path / "edited", tmp_path / "whole"
    assert main([command, "--config", str(config), "--out-dir", str(edited),
                 "--set", f"{dotted}.{key}={value}"]) == EXIT_OK
    assert main([command, "--config", str(config), "--out-dir", str(whole),
                 "--set", f"{dotted}={json.dumps(spec)}"]) == EXIT_OK
    assert _outputs(edited) == _outputs(whole)
    assert len(_outputs(whole)) >= 2


@pytest.mark.parametrize("seed, code", [
    (2**64 - 1, EXIT_OK), (2**64, EXIT_CONFIG), (2**64 + 5, EXIT_CONFIG),
], ids=["2**64-1", "2**64", "2**64+5"])
def test_master_seed_lies_in_64_bits(tmp_path, capsys, seed, code):
    """Seeds derive from the master's 64 bits: 2**64 + 5 would rerun seed 5
    under a header that names the other seed."""
    config = write_config(tmp_path, {**VERIFY_SMALL, "master_seed": seed})
    assert main(["verify", "--config", str(config),
                 "--out-dir", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == EXIT_OK else
                   f"config error: master_seed must be an integer in "
                   f"[0, {2**64 - 1}], got {seed}\n")


def test_an_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    """Python refuses to parse an integer of over 4300 digits with a
    ValueError that is not a JSONDecodeError."""
    digits = "1" * 5000
    config = tmp_path / "config.json"
    config.write_text('{"master_seed": %s}' % digits)
    assert main(["verify", "--config", str(config),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: config ")
    # Given by --set, it is not JSON, so it is read as a string.
    assert main(["verify", "--set", f"master_seed={digits}",
                 "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: master_seed") and err.count("\n") == 1


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


@pytest.mark.parametrize("days", [1e-5, 7])
def test_a_model_bids_with_the_feature_window_it_trained_on(tmp_path, days):
    payload = {**TRAIN_WORLD, "world": {**TRAIN_WORLD["world"], "n_users": 60},
               "sampling": {"feature_window_days": days,
                            "target_positive_count": 50}}
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    assert main(["train", "--config", str(config),
                 "--log", str(out / "events.jsonl"),
                 "--out-dir", str(out)]) == EXIT_OK
    text = (out / "model.json").read_text()
    model = CalibratedModel.load(out / "model.json")
    assert model.feature_window_seconds == days * 86_400
    assert type(model.feature_window_seconds) is type(days * 86_400)
    assert json.dumps(model.to_dict()) + "\n" == text


def test_train_exports_one_line_per_sample(tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_WORLD)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    samples_out = tmp_path / "samples.jsonl"
    capsys.readouterr()
    assert main(["train", "--config", str(config),
                 "--log", str(out / "events.jsonl"), "--out-dir", str(out),
                 "--samples-out", str(samples_out)]) == EXIT_OK
    counts = re.search(r"samples=(\d+) positives=(\d+)", capsys.readouterr().out)
    records = [json.loads(line) for line in samples_out.read_text().splitlines()]
    assert len(records) == int(counts[1]) > 0
    assert sum(r["label"] for r in records) == int(counts[2])


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
    err = capsys.readouterr().err
    assert err.startswith("data error: log digest") and err.count("\n") == 1


def test_train_on_a_log_with_an_unknown_user_is_a_data_error(tmp_path,
                                                            capsys):
    config = write_config(tmp_path, TRAIN_WORLD)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    header, *events = (out / "events.jsonl").read_text().splitlines()
    assert any('"u000001"' in line for line in events)
    renamed = [line.replace('"u000001"', '"u999999"') for line in events]
    log = tmp_path / "renamed.jsonl"
    log.write_text("\n".join([header, *renamed]) + "\n")
    assert main(["train", "--config", str(config), "--log", str(log),
                 "--out-dir", str(tmp_path / "t")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "u999999" in err
    assert err.count("\n") == 1


def test_train_on_a_log_without_actions_is_a_data_error(tmp_path, capsys):
    payload = {**TRAIN_WORLD, "world": {
        **TRAIN_WORLD["world"], "n_users": 60,
        "p_distribution": {"kind": "point", "value": 1e-9}}}
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    assert '"action"' not in (out / "events.jsonl").read_text()
    capsys.readouterr()
    assert main(["train", "--config", str(config),
                 "--log", str(out / "events.jsonl"),
                 "--out-dir", str(tmp_path / "t")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == "data error: log contains no actions to label samples by\n"


def test_market_invariant_violation_is_a_verification_failure(
        tmp_path, capsys, monkeypatch):
    settle = liftsim.world.run_auction

    def overcharging(our, comp, reserve, tie_rng):
        won, price = settle(our, comp, reserve, tie_rng)
        return won, np.where(won, our + 1, price)

    monkeypatch.setattr(liftsim.world, "run_auction", overcharging)
    config = write_config(tmp_path, AB_SMALL)
    assert main(["abtest", "--config", str(config),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("verification error:") and "winning bid" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_verify_small_sweep_passes_and_is_deterministic(tmp_path):
    config = write_config(tmp_path, VERIFY_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", str(config), "--out-dir", str(out1)]) == EXIT_OK
    assert main(["verify", "--config", str(config), "--out-dir", str(out2)]) == EXIT_OK
    assert (out1 / "verify_report.jsonl").read_bytes() == \
        (out2 / "verify_report.jsonl").read_bytes()
    assert (out1 / "verify_report.txt").read_bytes() == \
        (out2 / "verify_report.txt").read_bytes()


def test_a_monte_carlo_side_without_attributed_actions_fails_verify(
        tmp_path, capsys):
    # 30 users and 2 trials: on this seed one instance's lift side sees no
    # attributed action in either trial, so its ratio has no estimate.
    config = write_config(tmp_path, {})
    sets = ["sweep.n_users=30", "sweep.n_instances=3", "sweep.mc_instances=3",
            "sweep.mc_trials=2"]
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "--config", str(config), "--out-dir", str(out),
                     *(arg for s in sets for arg in ("--set", s))]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("verification error:") and err.count("\n") == 1

    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    lines = (out / "verify_report.jsonl").read_text().splitlines()
    checks = [json.loads(line, parse_constant=no_constant).get("mc_check")
              for line in lines]
    unseen = [c for c in checks if c and c["estimate"] is None]
    assert unseen
    assert all(c["stderr"] is None and c["within"] is False for c in unseen)


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
    err = capsys.readouterr().err
    assert err.startswith("data error: model schema") and err.count("\n") == 1


def test_abtest_model_mode_without_behavior_events_is_a_config_error(
        tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_WORLD)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    assert main(["train", "--config", str(config),
                 "--log", str(out / "events.jsonl"),
                 "--out-dir", str(out)]) == EXIT_OK
    capsys.readouterr()
    ab = dict(AB_SMALL)
    ab["abtest"] = {**AB_SMALL["abtest"],
                    "world_overrides": {"topics": 3}}
    ab_config = write_config(tmp_path, ab, "ab.json")
    code = main(["abtest", "--config", str(ab_config),
                 "--bids", str(out / "model.json"),
                 "--out-dir", str(tmp_path / "m")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "behavior" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "m").exists()


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


def model_abtest(behavior):
    """A small model-priced abtest on the world of :func:`one_split_model`."""
    return {"master_seed": 17, "abtest": {
        "n_users": 150, "replications": 1, "horizon_days": 4,
        "world_overrides": {"topics": 3, "behavior": behavior}}}


def test_abtest_model_mode_reads_behavior_as_the_world_does(tmp_path):
    # A behavior override without "enabled" leaves behavior on, as the
    # world's defaults have it, so model-driven bidding can run.
    model = tmp_path / "model.json"
    model.write_text(one_split_model())
    config = write_config(tmp_path, model_abtest({"pv_rate": 3.0}))
    assert main(["abtest", "--config", str(config), "--bids", str(model),
                 "--out-dir", str(tmp_path / "m")]) == EXIT_OK
    rep = json.loads((tmp_path / "m" / "abtest_report.jsonl").read_text()
                     .splitlines()[1])
    assert rep["groups"]["lift"]["impressions"] > 0


# Trees that would read another tree's nodes or a feature the rows lack,
# loop forever, or broadcast a one-item list over the tree.
@pytest.mark.parametrize("tree", [
    {"value": [0.5]}, {"left": [99, -1, -1]}, {"left": [0, -1, -1]},
    {"feature": [10**6, -1, -1]},
], ids=["lists-differ", "child-outside", "child-loops", "feature-outside"])
def test_abtest_malformed_tree_is_a_data_error(tmp_path, capsys, tree):
    model = tmp_path / "model.json"
    model.write_text(one_split_model(**tree))
    config = write_config(tmp_path, model_abtest({"enabled": True}))
    code = main(["abtest", "--config", str(config), "--bids", str(model),
                 "--out-dir", str(tmp_path / "m")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "tree 0" in err
    assert err.count("\n") == 1


def edited_model(edit):
    """``one_split_model()``'s text after ``edit`` changed its dict."""
    model = json.loads(one_split_model())
    edit(model)
    return json.dumps(model)


def as_v1(model):
    model.update(version=1, prior_logit_shift=0.0)


# A v1 file's breakpoints are probabilities, not raw scores; a width that
# is not the schema's, or a number json reads as NaN or infinity, cannot
# score a row.
@pytest.mark.parametrize("content", [
    "not json",
    '{"format": "other"}',
    '{"format": "liftsim.model", "version": 2}',
    edited_model(as_v1),
    edited_model(lambda m: m["gbdt"].update(
        n_features=m["gbdt"]["n_features"] + 10)),
    edited_model(lambda m: m["isotonic"].update(values=[float("nan"), 0.08])),
    edited_model(lambda m: m["gbdt"]["trees"][0].update(
        value=[0.0, -1.0, float("inf")])),
    one_split_model().replace('"base_score": -3.0', '"base_score": 1e999'),
], ids=["not-json", "wrong-format", "missing-keys", "version-1",
        "n-features-off", "nan-isotonic-value", "infinite-leaf", "1e999"])
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


@pytest.mark.parametrize("window", [True, "604800", float("nan"), -1.0, 0],
                         ids=["bool", "string", "nan", "negative", "zero"])
def test_a_model_with_a_malformed_feature_window_is_a_data_error(
        tmp_path, capsys, window):
    model = json.loads(one_split_model())
    model["feature_window_seconds"] = window
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    config = write_config(tmp_path, model_abtest({"enabled": True}))
    code = main(["abtest", "--config", str(config), "--bids", str(path),
                 "--out-dir", str(tmp_path / "m")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "feature_window_seconds" in err
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


HEADER ='{"format":"liftsim.events","version":1,"seed":1,"config_digest":"d"}'
PAGE_VIEW = '{"ts":5,"user":"u000000","kind":"page_view","topic":0}'
MALFORMED_LOGS = {
    "header-not-json": ["{format", PAGE_VIEW],
    "header-not-object": ['["liftsim.events", 1]', PAGE_VIEW],
    "header-without-seed": [HEADER.replace('"seed":1,', ""), PAGE_VIEW],
    "header-without-digest": [HEADER.replace(',"config_digest":"d"', ""),
                              PAGE_VIEW],
    "line-not-json": [HEADER, '{"ts":5,"user":'],
    "two-records-on-a-line": [HEADER, PAGE_VIEW + "," + PAGE_VIEW],
    "record-without-ts": [HEADER, PAGE_VIEW.replace('"ts":5,', "")],
    "record-without-user": [HEADER, PAGE_VIEW.replace('"user":"u000000",', "")],
    "record-without-kind": [HEADER, PAGE_VIEW.replace('"kind":"page_view",', "")],
    "negative-ts": [HEADER, PAGE_VIEW.replace('"ts":5', '"ts":-5')],
    "string-ts": [HEADER, PAGE_VIEW.replace('"ts":5', '"ts":"5"')],
    "negative-topic": [HEADER, PAGE_VIEW.replace('"topic":0', '"topic":-1')],
    "float-app": [HEADER, PAGE_VIEW.replace('"topic":0', '"app":1.5')],
    "string-price": [HEADER, PAGE_VIEW.replace('"topic":0', '"price":"7"')],
    "out-of-time-order": [HEADER, PAGE_VIEW,
                          PAGE_VIEW.replace('"ts":5', '"ts":4')],
}


@pytest.mark.parametrize("lines", MALFORMED_LOGS.values(),
                         ids=MALFORMED_LOGS.keys())
def test_train_on_a_malformed_log_is_a_data_error(tmp_path, capsys, lines):
    log = tmp_path / "events.jsonl"
    log.write_text("\n".join(lines) + "\n")
    config = write_config(tmp_path, TRAIN_WORLD)
    assert main(["train", "--config", str(config), "--log", str(log),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert err.count("\n") == 1


def test_train_on_a_malformed_log_with_a_stale_sidecar_is_a_data_error(
        tmp_path, capsys):
    config = write_config(tmp_path, TRAIN_WORLD)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    log = out / "events.jsonl"
    header, *events = log.read_text().splitlines()
    log.write_text("\n".join([header, events[0] + "," + events[1],
                              *events[2:]]) + "\n")
    assert (out / "events.npz").exists()
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--log", str(log),
                 "--out-dir", str(tmp_path / "t")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


def test_train_reads_the_columns_simulate_wrote(tmp_path, monkeypatch):
    # Parsing the JSONL was most of train's time; the sidecar beside it
    # holds the same columns, and train must take them from there.
    config = write_config(tmp_path, TRAIN_WORLD)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK

    def no_parse(cls, lines):
        raise AssertionError("train parsed the log instead of its sidecar")

    monkeypatch.setattr(EventLog, "parse", classmethod(no_parse))
    assert main(["train", "--config", str(config),
                 "--log", str(out / "events.jsonl"),
                 "--out-dir", str(out)]) == EXIT_OK


def test_train_on_a_log_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    log.write_bytes(HEADER.encode() + b"\n\xff\xfe\n")
    config = write_config(tmp_path, TRAIN_WORLD)
    assert main(["train", "--config", str(config), "--log", str(log),
                 "--out-dir", str(tmp_path / "o")]) == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("command, payload", [
    ("simulate", {**TRAIN_WORLD, "world": {
        **TRAIN_WORLD["world"], "behavior": {"enabled": True, "pv_rte": 3.0}}}),
    ("abtest", {**AB_SMALL, "abtest": {
        **AB_SMALL["abtest"], "world_overrides": {"behavior": {"pv_rte": 3.0}}}}),
    ("abtest", {**AB_SMALL, "abtest": {
        **AB_SMALL["abtest"], "world_overrides": {"pv_rte": 3.0}}}),
], ids=["world.behavior", "abtest.world_overrides.behavior",
        "abtest.world_overrides"])
def test_unknown_world_key_is_a_config_error(tmp_path, capsys, command, payload):
    code = main([command, "--config", str(write_config(tmp_path, payload)),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "pv_rte" in err
    assert err.count("\n") == 1


def with_key(payload, section, key, value):
    """``payload`` with ``section.key`` set to ``value``."""
    return {**payload, section: {**payload.get(section, {}), key: value}}


NEGATIVE_RATE = {"kind": "fixed", "value": -1}
MALFORMED_ABTEST = {
    "budget_per_bidder_dollars=-5": ("budget_per_bidder_dollars", -5),
    "cpa_dollars=NaN": ("cpa_dollars", float("nan")),
    "budget_per_bidder_dollars=1e300": ("budget_per_bidder_dollars", 1e300),
    "beta_dollars=-1": ("beta_dollars", -1),
    "action_window_days=0": ("action_window_days", 0),
    "n_users=30.5": ("n_users", 30.5),
    "n_users=true": ("n_users", True),
    "world_overrides.reserve_micros=-5": ("world_overrides",
                                          {"reserve_micros": -5}),
    "world_overrides.request_rate<0": ("world_overrides",
                                       {"request_rate": NEGATIVE_RATE}),
}
MALFORMED_SIMULATE = {
    "world.reserve_micros=-5": ("world", "reserve_micros", -5),
    "world.request_rate<0": ("world", "request_rate", NEGATIVE_RATE),
    "world.request_rate=3": ("world", "request_rate", 3),
    "world.n_users=30.5": ("world", "n_users", 30.5),
    "world.n_users=true": ("world", "n_users", True),
    "campaign.budget_dollars=1e300": ("campaign", "budget_dollars", 1e300),
    "campaign.cpa_dollars=abc": ("campaign", "cpa_dollars", "abc"),
    "world.competitor_bids-dollars": ("world", "competitor_bids",
                                      {"kind": "fixed"}),
    "world.behavior.pv_rate=-1": ("world", "behavior", {"pv_rate": -1}),
    "world.p_distribution-low": ("world", "p_distribution",
                                 {"kind": "scaled_beta"}),
    "world.delta_p_distribution.value=x": ("world", "delta_p_distribution",
                                           {"kind": "point_ratio", "value": "x"}),
    "world.competitor_bids.dollars=1e300": (
        "world", "competitor_bids", {"kind": "fixed", "dollars": 1e300}),
    "world.competitor_bids.median_dollars=1e300": (
        "world", "competitor_bids",
        {"kind": "lognormal", "median_dollars": 1e300, "sigma": 0.5}),
    "world.behavior.pv_rate=1e300": ("world", "behavior", {"pv_rate": 1e300}),
    "world.behavior.correlation=2": ("world", "behavior", {"correlation": 2.0}),
    "world.request_rate.value=1e300": ("world", "request_rate",
                                       {"kind": "fixed", "value": 1e300}),
    "world.competitor_bids-drawn-past-int64": (
        "world", "competitor_bids",
        {"kind": "lognormal", "median_dollars": 1e12, "sigma": 5.0}),
}

MALFORMED_SWEEP = {
    "cpa_dollars=-5": ("cpa_dollars", -5),
    "cpa_dollars=NaN": ("cpa_dollars", float("nan")),
    "cpa_dollars=1e300": ("cpa_dollars", 1e300),
    "mc_trials=0": ("mc_trials", 0),
    "mc_trials=1": ("mc_trials", 1),
    "mc_trials=2.5": ("mc_trials", 2.5),
    "mc_instances=-1": ("mc_instances", -1),
    "n_instances=1.5": ("n_instances", 1.5),
    "n_instances=true": ("n_instances", True),
    "tolerance=NaN": ("tolerance", float("nan")),
    "tolerance=2": ("tolerance", 2.0),
}


@pytest.mark.parametrize("command, payload", [
    *(("abtest", with_key(AB_SMALL, "abtest", *case))
      for case in MALFORMED_ABTEST.values()),
    *(("simulate", with_key(TRAIN_WORLD, *case))
      for case in MALFORMED_SIMULATE.values()),
    *(("verify", with_key(VERIFY_SMALL, "sweep", *case))
      for case in MALFORMED_SWEEP.values()),
], ids=[*(f"abtest:{i}" for i in MALFORMED_ABTEST),
        *(f"simulate:{i}" for i in MALFORMED_SIMULATE),
        *(f"verify:{i}" for i in MALFORMED_SWEEP)])
def test_malformed_config_value_is_a_config_error(tmp_path, capsys, command,
                                                  payload):
    code = main([command, "--config", str(write_config(tmp_path, payload)),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# Keys no section takes: the lineup is always passive/value/lift, a
# label's action window is the campaign's, verify's value side is priced
# at the sweep's cpa_dollars, and --out-dir alone sets the output directory.
@pytest.mark.parametrize("command, payload, name", [
    ("simulate", {**TRAIN_WORLD, "bidders": {}}, "'bidders'"),
    ("verify", {**VERIFY_SMALL, "output_dir": "elsewhere"}, "'output_dir'"),
    ("simulate", {**TRAIN_WORLD, "bidders": {"kinds": ["value", "lift"]}},
     "'bidders'"),
    ("simulate", with_key(TRAIN_WORLD, "sampling", "action_window_days", 2),
     "sampling.action_window_days"),
    ("verify", with_key(VERIFY_SMALL, "sweep", "alpha_dollars", 100.0),
     "sweep.alpha_dollars"),
    ("simulate", with_key(TRAIN_WORLD, "sampling", "seed_tag", "other"),
     "sampling.seed_tag"),
    ("simulate", with_key(TRAIN_WORLD, "sampling", "max_draws", 10_000),
     "sampling.max_draws"),
], ids=["bidders", "output_dir", "bidders.kinds", "sampling.action_window_days",
        "sweep.alpha_dollars", "sampling.seed_tag", "sampling.max_draws"])
def test_unknown_key_is_a_config_error(tmp_path, capsys, command, payload,
                                       name):
    code = main([command, "--config", str(write_config(tmp_path, payload)),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown") and name in err
    assert err.count("\n") == 1


ZERO_LIFT = {"kind": "zero"}


@pytest.mark.parametrize("command, payload", [
    ("simulate", with_key(TRAIN_WORLD, "world", "delta_p_distribution",
                          ZERO_LIFT)),
    ("abtest", with_key(AB_SMALL, "abtest", "world_overrides",
                        {"delta_p_distribution": ZERO_LIFT})),
], ids=["simulate", "abtest"])
def test_world_without_lift_is_a_config_error(tmp_path, capsys, command,
                                              payload):
    code = main([command, "--config", str(write_config(tmp_path, payload)),
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: the world's mean lift")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_the_cli_runs_without_scipy_and_imports_nothing_in_main(tmp_path):
    # Importing scipy was most of each CLI process's start-up time. And a
    # module first imported inside main moves its cost from start-up into
    # the run.
    calls = [["verify", "--config", str(write_config(tmp_path, VERIFY_SMALL,
                                                     "verify.json"))],
             ["abtest", "--config", str(write_config(tmp_path, AB_SMALL,
                                                     "abtest.json"))]]
    script = (
        "import json, sys\n"
        "import liftsim.cli\n"
        "loaded = set(sys.modules)\n"
        f"codes = [liftsim.cli.main(argv) for argv in {calls!r}]\n"
        "print(json.dumps({'codes': codes, 'in_main': sorted(set(sys.modules)"
        " - loaded), 'scipy': sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')}))\n")
    src = Path(liftsim.world.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report == {"codes": [EXIT_OK, EXIT_OK], "in_main": [], "scipy": []}


@pytest.mark.parametrize("shape, error", [
    ({"a": 0}, "a must be a finite number in (0, inf], got 0"),
    ({"b": 0}, "b must be a finite number in (0, inf], got 0"),
    ({"b": float("inf")}, "b must be a finite number in (0, inf], got inf"),
    ({"b": 2e6}, None),
    ({"a": 1e300, "b": 1e300}, None),
], ids=["a-0", "b-0", "b-inf", "b-2000000.0", "a-b-1e300"])
def test_beta_shape_must_be_positive_and_bounded(tmp_path, capsys, shape,
                                                 error):
    """A Beta shape must be > 0 and finite; any such shape simulates."""
    p_distribution = {**TRAIN_WORLD["world"]["p_distribution"], **shape}
    payload = with_key(TRAIN_WORLD, "world", "p_distribution", p_distribution)
    code = main(["simulate", "--config", str(write_config(tmp_path, payload)),
                 "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if error is None:
        assert code == EXIT_OK and err == ""
    else:
        assert code == EXIT_CONFIG
        assert err == (f"config error: invalid world section: p_distribution "
                       f"{error}\n")
