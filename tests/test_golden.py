"""Golden byte-identity fixture for seeded runs, sweeps and training.

Each digest is the SHA-256 of an output file produced from fixed seeds and
seeded, untrained policies.  A refactor that claims unchanged behaviour
must leave every digest as it is; a change that alters float summation or
RNG draw order moves them and has to say so.
"""

import hashlib

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
TRAIN_DIGESTS = {
    "free.qnet": "c25d39da87d0f36566030afc1f42f9ae1bdeaded8a04b35b734a87a674cfe2fa",
    "conflict.qnet": "663e957c77a445020cfbe4267defc347b03e65ab35e47a37e3024a572795029a",
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
    policies = ["--policy-conflict", str(d / "c.qnet"), "--policy-free", str(d / "f.qnet")]
    return d, ["--config", str(d / "cfg.yaml")] + policies


def test_sweep_digests(golden_inputs):
    d, args = golden_inputs
    cli.main(["sweep", "--seed", "11", "--out", str(d / "sweep")] + args)
    assert {name: sha256(d / "sweep" / name) for name in SWEEP_DIGESTS} == SWEEP_DIGESTS


def test_run_digests(golden_inputs):
    d, args = golden_inputs
    cli.main(["run", "--seed", "5", "--out", str(d / "run")] + args)
    assert {name: sha256(d / "run" / name) for name in RUN_DIGESTS} == RUN_DIGESTS


def test_training_digests(tmp_path):
    free_cfg = qnet.TrainerConfig(**dict(cli.FREE_TRAIN_DEFAULTS, episodes=200))
    free_net, _ = qnet.train_free(free_cfg, seed=0)
    qnet.save_weights(free_net, tmp_path / "free.qnet")
    conflict_cfg = qnet.TrainerConfig(**dict(cli.CONFLICT_TRAIN_DEFAULTS, episodes=200))
    conflict_net, _ = qnet.train_conflict_selfplay(conflict_cfg, n_agents=2,
                                                   seed=cli.splitmix64(0, 2))
    qnet.save_weights(conflict_net, tmp_path / "conflict.qnet")
    assert {name: sha256(tmp_path / name) for name in TRAIN_DIGESTS} == TRAIN_DIGESTS
