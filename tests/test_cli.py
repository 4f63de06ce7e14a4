import csv
import json
import math
import re

import numpy as np
import pytest
import yaml

from gridswarm import cli, qnet
from gridswarm.sim import MissionConfig
from gridswarm.world import ArenaConfig


def test_splitmix64_properties():
    a = cli.splitmix64(0, 0)
    b = cli.splitmix64(0, 1)
    c = cli.splitmix64(1, 0)
    assert a != b != c
    assert cli.splitmix64(0, 0) == a  # pure function
    assert 0 <= a < 2**64


def test_distribution_spec_validation():
    with pytest.raises(ValueError):
        cli.DistributionSpec(kind="ring")
    with pytest.raises(ValueError):
        cli.DistributionSpec(mrt_fraction=1.5)
    with pytest.raises(ValueError):
        cli.DistributionSpec(cluster_count=9)


def test_generate_uniform_scenario():
    arena = ArenaConfig()
    spec = cli.DistributionSpec(total_targets=15, mrt_fraction=0.2)
    targets = cli.generate_scenario(spec, arena, np.random.default_rng(0))
    assert len(targets) == 15
    assert all(arena.contains(t.position) for t in targets)
    assert sum(1 for t in targets if t.kind == "MRT") == 3  # ceil(0.2 * 15)


def test_generate_clustered_scenario():
    arena = ArenaConfig()
    spec = cli.DistributionSpec(
        kind="clustered", total_targets=15, cluster_count=4, cluster_radius=10.0,
        mrt_fraction=0.0,
    )
    rng = np.random.default_rng(1)
    targets = cli.generate_scenario(spec, arena, rng)
    assert len(targets) == 15
    assert all(arena.contains(t.position) for t in targets)
    # cluster sizes are floor(15/4) = 3 with the remainder on the last, and
    # targets are generated cluster by cluster: each group fits in its disc
    sizes = [3, 3, 3, 6]
    start = 0
    for size in sizes:
        group = [t.position for t in targets[start:start + size]]
        start += size
        for p in group:
            for q in group:
                assert math.hypot(p[0] - q[0], p[1] - q[1]) <= 20.0 + 1e-9


def test_scenario_deterministic():
    arena = ArenaConfig()
    spec = cli.DistributionSpec(kind="clustered", total_targets=9)
    a = cli.generate_scenario(spec, arena, np.random.default_rng(3))
    b = cli.generate_scenario(spec, arena, np.random.default_rng(3))
    assert [t.position for t in a] == [t.position for t in b]


def test_config_merge_and_defaults(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({"robots": 9, "arena": {"global_sensor_range": 25.0}}))
    cfg = cli.load_config(p)
    assert cfg["robots"] == 9
    assert cfg["arena"]["global_sensor_range"] == 25.0
    assert cfg["arena"]["width"] == 90.0  # untouched default


def test_config_rejects_unknown_keys_and_non_mappings(tmp_path):
    p = tmp_path / "c.yaml"
    for doc, message in [({"robot": 9}, "unknown config key 'robot'"),
                         ({"arena": {"widht": 80.0}}, "unknown config key 'arena.widht'"),
                         ({"arena": 80.0}, "config arena must be a mapping"),
                         ([6], "config document must be a mapping")]:
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.load_config(p)


def test_default_config_is_the_library_defaults():
    cfg = cli.load_config(None)
    assert cli.mission_config_from(cfg, seed=0) == MissionConfig()
    assert cli.distribution_from(cfg) == cli.DistributionSpec()


def test_apply_axis():
    cfg = cli.load_config(None)
    assert cli._apply_axis(cfg, "robots", 9)["robots"] == 9
    assert cli._apply_axis(cfg, "mrt_percent", 40)["targets"]["mrt_fraction"] == 0.4
    assert cli._apply_axis(cfg, "sensor_radius", 25)["arena"]["global_sensor_range"] == 25.0
    assert cli._apply_axis(cfg, "distribution", "clustered")["targets"]["kind"] == "clustered"
    with pytest.raises(ValueError):
        cli._apply_axis(cfg, "bogus", 1)


def test_missing_policy_file_is_reported(tmp_path):
    with pytest.raises(FileNotFoundError, match="no_such"):
        cli._load_policy(tmp_path / "no_such.qnet", "conflict")


@pytest.fixture(scope="module")
def policy_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("policies")
    rng = np.random.default_rng(0)
    qnet.save_weights(qnet.QNetwork.initialize(qnet.NetworkSpec.conflict(), rng),
                      d / "c.qnet")
    qnet.save_weights(qnet.QNetwork.initialize(qnet.NetworkSpec.free(), rng),
                      d / "f.qnet")
    return str(d / "c.qnet"), str(d / "f.qnet")


def small_cfg():
    cfg = cli.load_config(None)
    cfg["max_time"] = 10.0
    cfg["robots"] = 3
    cfg["targets"]["total"] = 2
    cfg["sweep"] = {"axis": "robots", "values": [2, 3], "repetitions": 2}
    return cfg


def test_run_verb(tmp_path, policy_files):
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text(yaml.safe_dump(small_cfg()))
    out = tmp_path / "out"
    cli.main([
        "run", "--config", str(cfgp), "--seed", "3", "--out", str(out),
        "--policy-conflict", policy_files[0], "--policy-free", policy_files[1],
    ])
    assert (out / "trajectory.csv").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert {"total_time", "search_time", "collisions", "success"} <= set(summary)
    with open(out / "trajectory.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "t"
    assert len(rows) > 10


def test_sweep_outputs_and_reproducibility(tmp_path, policy_files):
    cfg = small_cfg()
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    r1 = cli.run_sweep(cfg, 42, *policy_files, out1)
    r2 = cli.run_sweep(cfg, 42, *policy_files, out2)
    assert r1["rows"] == r2["rows"]
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert [row["axis_value"] for row in summary["rows"]] == [2, 3]
    assert all(row["runs"] == 2 for row in summary["rows"])


def test_sweep_parallel_matches_serial(tmp_path, policy_files):
    cfg = small_cfg()
    serial = cli.run_sweep(cfg, 7, *policy_files, tmp_path / "ser", jobs=1)
    par = cli.run_sweep(cfg, 7, *policy_files, tmp_path / "par", jobs=2)
    assert serial["rows"] == par["rows"]


def test_swapped_policy_files_rejected_at_load(tmp_path, policy_files):
    conflict, free = policy_files
    with pytest.raises(ValueError, match=re.escape(f"{free}: a --policy-conflict net "
                                                   "takes 12 inputs, this one takes 2")):
        cli.main(["run", "--out", str(tmp_path), "--policy-conflict", free,
                  "--policy-free", conflict])


@pytest.mark.parametrize("verb", ["train-conflict", "train-free"])
def test_training_budget_below_one_reward_block_rejected(tmp_path, verb):
    with pytest.raises(ValueError, match="reward_block"):
        cli.main([verb, "--episodes", "50", "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())


def test_defaults_verb(capsys):
    cli.main(["defaults"])
    printed = yaml.safe_load(capsys.readouterr().out)
    assert printed["robots"] == 6
    assert printed["arena"]["width"] == 90.0
