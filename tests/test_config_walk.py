"""The exit-code contract, walked over the whole configuration schema.

Every leaf of ``config._SCHEMA`` and every distribution parameter of
``world._KIND_PARAMS`` is set in turn to each value of ``VALUES``. A run
must end in exit 0, 2, 3 or 4, with nothing on stderr after exit 0 and
exactly one line after any other exit: never a traceback.

Left out: in-range sizes whose only effect is a long run (a huge
``abtest.replications``, ``sweep.n_instances`` or ``model.n_trees``);
no value in ``VALUES`` is one.
"""

import json
import math

import pytest

from liftsim import config, world
from liftsim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_VERIFY, main

VALUES = [-1, 0, 0.5, math.nan, math.inf, -math.inf, 1e300, 2**70, True,
          None, "x", [], {}]
PREFIX = {EXIT_CONFIG: "config error:", EXIT_DATA: "data error:",
          EXIT_VERIFY: "verification error:"}

N_USERS = 60
WORLD = {"n_users": N_USERS, "horizon_days": 4, "topics": 2, "apps": 1,
         "behavior": {"enabled": True, "pv_rate": 3.0},
         "p_distribution": {"kind": "scaled_beta", "a": 2.0, "b": 5.0,
                            "low": 0.05, "high": 0.4}}
BASE = {
    "simulate": {"master_seed": 3, "world": WORLD,
                 "campaign": {"budget_dollars": 1000.0}},
    "train": {"master_seed": 3, "world": WORLD,
              "campaign": {"budget_dollars": 1000.0},
              "sampling": {"target_positive_count": 10},
              "model": {"n_trees": 2, "max_depth": 2, "min_samples_leaf": 2}},
    "verify": {"master_seed": 3,
               "sweep": {"n_instances": 1, "n_users": N_USERS,
                         "mc_instances": 1, "mc_trials": 20}},
    "abtest": {"master_seed": 3,
               "abtest": {"n_users": N_USERS, "replications": 1,
                          "horizon_days": 4,
                          "budget_per_bidder_dollars": 100.0}},
}
COMMAND = {"master_seed": "simulate", "world": "simulate",
           "campaign": "simulate", "sampling": "train", "model": "train",
           "sweep": "verify", "abtest": "abtest"}

# A valid spec of each distribution kind, whose parameters are walked.
SPECS = {
    ("p_distribution", "scaled_beta"): {"a": 2.0, "b": 5.0, "low": 0.05,
                                        "high": 0.4},
    ("p_distribution", "fixed"): {"values": [0.1] * N_USERS},
    ("p_distribution", "point"): {"value": 0.1},
    ("delta_p_distribution", "uniform_ratio"): {"low": 0.1, "high": 0.9},
    ("delta_p_distribution", "fixed"): {"values": [0.05] * N_USERS},
    ("delta_p_distribution", "point_ratio"): {"value": 0.5},
    ("delta_p_distribution", "zero"): {},
    ("request_rate", "lognormal"): {"median": 2.0, "sigma": 0.5, "low": 0.2,
                                    "high": 8.0},
    ("request_rate", "fixed"): {"value": 2.0},
    ("competitor_bids", "fixed"): {"dollars": 1.0},
    ("competitor_bids", "lognormal"): {"median_dollars": 1.0, "sigma": 0.5},
    ("competitor_bids", "value_tracking"): {"scale_dollars": 100.0,
                                            "sigma": 0.15, "pool": 0.5},
}


def _leaves():
    """(command, dotted leaf, the values it takes) for every case."""
    cases = []
    for section, keys in config._SCHEMA.items():
        if keys is None:
            cases.append((COMMAND[section], section, VALUES))
        for key in sorted(keys or ()):
            cases.append((COMMAND[section], f"{section}.{key}", VALUES))
    for key in sorted(config._SCHEMA["world"]):
        cases.append(("abtest", f"abtest.world_overrides.{key}", VALUES))
    for key in sorted(world._default_behavior()):
        cases.append(("simulate", f"world.behavior.{key}", VALUES))
    for section, kinds in world._KIND_PARAMS.items():
        assert set(kinds) == {kind for s, kind in SPECS if s == section}
        for kind, params in kinds.items():
            for name in params:
                spec = {"kind": kind, **SPECS[section, kind]}
                specs = [{**spec, name: value} for value in VALUES]
                cases.append(("simulate", f"world.{section}.{kind}.{name}",
                              specs))
    return cases


CASES = _leaves()
# A warning would reach the CLI's stderr as a second line.
pytestmark = pytest.mark.filterwarnings("error")


def _run(tmp_path, capsys, command, overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE[command]))
    argv = [command, "--config", str(path), "--out-dir", str(tmp_path / "o")]
    if command == "train":
        argv += ["--log", str(tmp_path / "log" / "events.jsonl")]
    for dotted, value in overrides:
        argv += ["--set", f"{dotted}={json.dumps(value)}"]
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def train_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_log")
    path = out / "config.json"
    path.write_text(json.dumps(BASE["train"]))
    assert main(["simulate", "--config", str(path),
                 "--out-dir", str(out / "log")]) == EXIT_OK
    return out / "log"


@pytest.mark.parametrize("command", sorted(BASE))
def test_base_configs_run(tmp_path, capsys, train_log, command):
    (tmp_path / "log").symlink_to(train_log)
    assert _run(tmp_path, capsys, command, []) == (EXIT_OK, "")


@pytest.mark.parametrize("command, leaf, values", CASES,
                         ids=[leaf for _, leaf, _ in CASES])
def test_every_value_of_every_leaf_exits_by_the_contract(
        tmp_path, capsys, train_log, command, leaf, values):
    (tmp_path / "log").symlink_to(train_log)
    dotted = leaf
    if leaf.count(".") == 3:  # world.<section>.<kind>.<param>: a whole spec
        dotted = leaf.rsplit(".", 2)[0]
    broken = []
    for value in values:
        try:
            code, err = _run(tmp_path, capsys, command, [(dotted, value)])
        except Exception as exc:  # a traceback is the bug
            broken.append(f"{value!r}: {type(exc).__name__}: {exc}")
            continue
        lines = err.splitlines()
        if code == EXIT_OK:
            ok = not lines
        else:
            ok = (code in PREFIX and len(lines) == 1
                  and lines[0].startswith(PREFIX[code]))
        if not ok:
            broken.append(f"{value!r}: exit {code}, stderr {err!r}")
    assert not broken, f"{leaf}:\n" + "\n".join(broken)


@pytest.mark.parametrize("command, dotted, value", [
    ("simulate", "world.advertisers", ["adv1"]),
    ("simulate", "world.advertisers", "adv1"),
    ("abtest", "abtest.world_overrides.advertisers", ["adv1"]),
    ("abtest", "abtest.world_overrides.seed", 5),
    ("abtest", "abtest.world_overrides.seed", "x"),
    ("abtest", "abtest.world_overrides.n_users", 60),
    ("abtest", "abtest.world_overrides.horizon_days", 4),
], ids=["world.advertisers", "world.advertisers-string",
        "world_overrides.advertisers", "world_overrides.seed",
        "world_overrides.seed-string", "world_overrides.n_users",
        "world_overrides.horizon_days"])
def test_keys_that_restate_a_setting_are_config_errors(
        tmp_path, capsys, command, dotted, value):
    code, err = _run(tmp_path, capsys, command, [(dotted, value)])
    assert code == EXIT_CONFIG
    assert err.startswith("config error:") and err.count("\n") == 1
    assert dotted.rsplit(".", 1)[1] in err
