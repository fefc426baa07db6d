"""The probe world's committed configs still load and build.

``tests/data/probe_train.json`` is the world that ``simulate`` and
``train`` run on, and ``tests/data/probe_abtest.json`` the market that
``abtest`` (oracle bids or ``--bids model.json``) runs on. Together they
are the reference experiment of the learned lift model: 2,000 users,
``master_seed`` 3, 6 replications. Running them takes tens of seconds,
so this test only builds every setting through ``liftsim.config``, where
a renamed or retyped key fails.
"""

import json
from pathlib import Path

import pytest

from liftsim import config

DATA = Path(__file__).parent / "data"


@pytest.fixture(params=["probe_train.json", "probe_abtest.json"])
def probe(request):
    cfg = config.load_config(DATA / request.param)
    return cfg, config.master_seed(cfg)


def test_the_probe_configs_build(probe):
    cfg, seed = probe
    assert seed == 3
    if "abtest" in cfg:
        ab = config.build_abtest(cfg, seed)
        assert (ab.n_users, ab.replications) == (2000, 6)
        assert ab.world(0).behavior_settings["enabled"]
    else:
        assert config.build_world(cfg, seed).n_users == 2000
        campaign = config.build_campaign(cfg)
        sampling = config.build_sampling(cfg, seed, campaign)
        assert sampling.target_positive_count == 3000
        config.build_model_params(cfg)


def test_the_train_and_abtest_worlds_share_one_shape():
    train, ab = (json.loads((DATA / name).read_text())
                 for name in ("probe_train.json", "probe_abtest.json"))
    shape = {k: v for k, v in train["world"].items() if k != "n_users"}
    assert shape == ab["abtest"]["world_overrides"]
