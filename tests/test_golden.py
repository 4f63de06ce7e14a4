"""Golden byte-identity fixture for seeded runs, sweeps, training and evaluation.

Each digest is the SHA-256 of an output file produced from fixed seeds and
seeded, untrained policies.  A refactor that claims unchanged behaviour
must leave every digest as it is; a change that alters float summation or
RNG draw order moves them and has to say so.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from gridswarm import cli, qnet

SWEEP_DIGESTS = {
    "runs.csv": "c4bd93ec13e76eef60f26fc231a4c238be737d4c06f7fb932ab9712723ac0698",
    "summary.csv": "c8ff42d5e2119603677b155abf9933c1a4baf435d9911c1eeab71b0531776137",
    "summary.json": "2c6c5b8dc278704a9ad5d0e8739ee24c0dfc86141966fb5c765895dd1aa52e2b",
}
RUN_DIGESTS = {
    "trajectory.csv": "e63f9cd09549f919e0482eddefc4e57ee0f0876a305cf87e4ed7e30ff5e6bc80",
    "summary.json": "cc4a8fecad24057cbfb3a47d34df4e2eceb3269322135f205019cd56ce892892",
}
# `run` with 9 robots, clustered targets and 60 % multi-visit over 30 s: it
# reaches conflicts, masked nodes, neighbours and multi-slot allocations,
# which the 3-robot run above rarely does
CROWDED_RUN_DIGESTS = {
    "trajectory.csv": "4783d42f2076436bd1af43502ee8aef5a53333c5c3afc854220e1234b3d0d208",
    "summary.json": "156f2219b8fea0a238ae0ef27f91a84ac044d8c6aa49739fcc022b9457d94f96",
}
TRAIN_DIGESTS = {
    "free.qnet": "c25d39da87d0f36566030afc1f42f9ae1bdeaded8a04b35b734a87a674cfe2fa",
    "conflict.qnet": "663e957c77a445020cfbe4267defc347b03e65ab35e47a37e3024a572795029a",
}

# `train-conflict --agents 3` and `train-free`, 100 episodes each, seed 4
TRAIN_VERB_DIGESTS = {
    "conflict.qnet": "ccce4dd74dbef875bcf4cc6ad2f83aea900fa3dd4a9ac39b1cb00115588cbf14",
    "conflict_2agents.qnet": "6dfc6509f5d3b5ab407fbe53522d175e036ae9337dd62589dfaabd83c63e3925",
    "conflict_2agents_rewards.csv":
        "0b7d264cec0f7414a324476a47d2b360ce6daf7bfd24f62fed595a9037da9edc",
    "conflict_3agents.qnet": "ccce4dd74dbef875bcf4cc6ad2f83aea900fa3dd4a9ac39b1cb00115588cbf14",
    "conflict_3agents_rewards.csv":
        "0504f78e296cbc8d2416c1a71d2e7bc5fd153c9a3e4e2ffc5868efbac5ebfa25",
    "free.qnet": "3de08dc1d697f7b0adad473a03e050ea986b80c7a3b23ec5f145a831da0c71a3",
    "free_rewards.csv": "9fb932ba2c82f0d887dc33ee1112a17238ab6300bc2f5ca21334e23368d19bf4",
}
# stdout of `gridswarm defaults`, the YAML tree every config file overrides
DEFAULTS_DIGEST = "fced0b8e8c024e4534f14d7f389a41ec5f9e6ddd1d9bd02051c7d33878b67116"
# the trained policies the benchmark runs, as perfbench/README.md states them
POLICIES = Path(__file__).resolve().parents[1] / "perfbench" / "policies"
POLICY_DIGESTS = {
    "conflict.qnet": "6c6ba2a9ff115abdfb8dde84815ad173b7d0b92a20b39c97e4fc6075bc903374",
    "free.qnet": "5d72fdd632becbe90e211b94320092a46f663c17be0babf5baa8bfeb729b7f7d",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    """A small config file plus seeded conflict and free policy files."""
    d = tmp_path_factory.mktemp("golden")
    rng = np.random.default_rng(0)
    qnet.save_weights(qnet.QNetwork.initialize(qnet.NetworkSpec.conflict(), rng),
                      d / "c.qnet")
    qnet.save_weights(qnet.QNetwork.initialize(qnet.NetworkSpec.free(), rng),
                      d / "f.qnet")
    cfg = cli.load_config(None)
    cfg["max_time"] = 20.0
    cfg["robots"] = 3
    cfg["targets"]["total"] = 4
    cfg["sweep"] = {"axis": "robots", "values": [2, 3], "repetitions": 2}
    (d / "cfg.yaml").write_text(yaml.safe_dump(cfg))
    crowded = cli.load_config(None)
    crowded["max_time"] = 30.0
    crowded["robots"] = 9
    crowded["targets"]["kind"] = "clustered"
    crowded["targets"]["mrt_fraction"] = 0.6
    (d / "crowded.yaml").write_text(yaml.safe_dump(crowded))
    policies = ["--policy-conflict", str(d / "c.qnet"), "--policy-free", str(d / "f.qnet")]
    return d, policies


def test_defaults_digest(capsys):
    cli.main(["defaults"])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DEFAULTS_DIGEST


def test_benchmark_policy_digests():
    assert {name: sha256(POLICIES / name) for name in POLICY_DIGESTS} == POLICY_DIGESTS


def test_sweep_digests(golden_inputs):
    d, policies = golden_inputs
    cli.main(["sweep", "--seed", "11", "--out", str(d / "sweep"),
              "--config", str(d / "cfg.yaml")] + policies)
    assert {name: sha256(d / "sweep" / name) for name in SWEEP_DIGESTS} == SWEEP_DIGESTS


def test_run_digests(golden_inputs):
    d, policies = golden_inputs
    cli.main(["run", "--seed", "5", "--out", str(d / "run"),
              "--config", str(d / "cfg.yaml")] + policies)
    assert {name: sha256(d / "run" / name) for name in RUN_DIGESTS} == RUN_DIGESTS


def test_crowded_run_digests(golden_inputs):
    d, policies = golden_inputs
    cli.main(["run", "--seed", "5", "--out", str(d / "crowded"),
              "--config", str(d / "crowded.yaml")] + policies)
    assert {name: sha256(d / "crowded" / name)
            for name in CROWDED_RUN_DIGESTS} == CROWDED_RUN_DIGESTS


def test_training_digests(tmp_path):
    free_cfg = qnet.TrainerConfig(**dict(cli.FREE_TRAIN_DEFAULTS, episodes=200))
    free_net, _ = qnet.train_free(free_cfg, seed=0)
    qnet.save_weights(free_net, tmp_path / "free.qnet")
    conflict_cfg = qnet.TrainerConfig(**dict(cli.CONFLICT_TRAIN_DEFAULTS, episodes=200))
    conflict_net, _ = qnet.train_conflict_selfplay(conflict_cfg, n_agents=2,
                                                   seed=cli.splitmix64(0, 2))
    qnet.save_weights(conflict_net, tmp_path / "conflict.qnet")
    assert {name: sha256(tmp_path / name) for name in TRAIN_DIGESTS} == TRAIN_DIGESTS


def test_train_verb_digests(tmp_path):
    cli.main(["train-conflict", "--agents", "3", "--episodes", "100", "--seed", "4",
              "--out", str(tmp_path)])
    cli.main(["train-free", "--episodes", "100", "--seed", "4", "--out", str(tmp_path)])
    assert {p.name: sha256(p) for p in tmp_path.iterdir()} == TRAIN_VERB_DIGESTS
    # the 3-agent net is the one the verb ships as conflict.qnet
    assert (tmp_path / "conflict.qnet").read_bytes() == \
        (tmp_path / "conflict_3agents.qnet").read_bytes()
    for name in ("conflict_2agents", "conflict_3agents", "free"):
        lines = (tmp_path / f"{name}_rewards.csv").read_text().splitlines()
        assert lines[0] == "episode_block,mean_reward"
        assert len(lines) == 2  # one 100-episode block


@pytest.mark.parametrize("n_agents, rate", [(2, 0.5733333333333333),
                                            (3, 0.30000000000000004)])
def test_evaluation_values(n_agents, rate):
    net = qnet.QNetwork.initialize(qnet.NetworkSpec.conflict(), np.random.default_rng(0))
    assert qnet.evaluate_conflict_policy(net, n_cases=300, seed=1, n_agents=n_agents) == rate
