import csv
import dataclasses
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from gridswarm import cli, qnet
from gridswarm.motion import KinematicParams, PIState
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
    with pytest.raises(ValueError, match="mrt_visits"):
        cli.DistributionSpec(mrt_visits=0)
    with pytest.raises(ValueError, match="cluster_radius"):
        cli.DistributionSpec(cluster_radius=-1.0)


def test_generate_uniform_scenario():
    arena = ArenaConfig()
    spec = cli.DistributionSpec(total=15, mrt_fraction=0.2)
    targets = cli.generate_scenario(spec, arena, np.random.default_rng(0))
    assert len(targets) == 15
    assert all(arena.contains(t.position) for t in targets)
    assert sum(1 for t in targets if t.required_visits > 1) == 3  # ceil(0.2 * 15)


def test_generate_clustered_scenario():
    arena = ArenaConfig()
    spec = cli.DistributionSpec(
        kind="clustered", total=15, cluster_count=4, cluster_radius=10.0,
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
    spec = cli.DistributionSpec(kind="clustered", total=9)
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
                         ({"pi": {"integral_error": 0.0}},
                          "unknown config key 'pi.integral_error'"),
                         ({"arena": 80.0}, "config arena must be a mapping"),
                         ([6], "config document must be a mapping")]:
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.load_config(p)


def test_default_config_is_the_library_defaults():
    cfg = cli.load_config(None)
    assert cli.mission_config_from(cfg, seed=0) == MissionConfig()
    assert cli.distribution_from(cfg) == cli.DistributionSpec()
    # each mapping block is its dataclass's fields, declared nowhere else
    for block, default in [("arena", ArenaConfig()), ("kinematics", KinematicParams()),
                           ("pi", PIState()), ("targets", cli.DistributionSpec())]:
        assert cli.DEFAULT_CONFIG[block] == dataclasses.asdict(default), block


@pytest.mark.parametrize("key, value, field", [
    ("grid", [1, 1], "grid_rows"),
    ("grid", [2, 7], "grid_rows"),
    ("grid", [7, 2], "grid_cols"),
    ("spawn_box", [0.0, 0.0], "spawn_box"),
    ("spawn_box", [0.0, 0.0, 20.0, "20"], "spawn_box"),
    ("spawn_box", [10.0, 10.0, -5.0, 20.0], "spawn_box"),
    ("spawn_box", [10.0, 10.0, 20.0, -5.0], "spawn_box"),
    ("spawn_box", [80.0, 80.0, 20.0, 20.0], "spawn_box"),
])
def test_bad_mission_geometry_rejected_at_config_time(key, value, field):
    cfg = cli.load_config(None)
    cfg[key] = value
    with pytest.raises(ValueError, match=field):
        cli.mission_config_from(cfg, seed=0)


TARGET_FIELDS = {kind: [f for f in dataclasses.fields(cli.DistributionSpec)
                       if f.type.startswith(kind)] for kind in ("int", "float")}


@pytest.mark.parametrize("override, message", [
    ({"robots": True}, "config robots must be an integer, not True"),
    ({"robots": "6"}, "config robots must be an integer, not '6'"),
    ({"robots": 6.9}, "config robots must be an integer, not 6.9"),
    ({"grid": [7.8, 7]}, "config grid[0] must be an integer, not 7.8"),
    ({"grid": [7, 7.0]}, "config grid[1] must be an integer, not 7.0"),
    ({"grid": [7, 7, 7]}, "config grid must be a list [rows, cols], not [7, 7, 7]"),
    ({"grid": [7]}, "config grid must be a list [rows, cols], not [7]"),
    ({"grid": 7}, "config grid must be a list [rows, cols], not 7"),
    # every int field of the targets block, each given a non-integral value
    *(({"targets": {f.name: bad}}, f"config targets.{f.name} must be an integer, not {bad}")
      for f, bad in zip(TARGET_FIELDS["int"], itertools.cycle((4.5, 2.7, 2.5)))),
])
def test_counts_must_be_integers(tmp_path, override, message):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(override))
    cfg = cli.load_config(p)
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.mission_config_from(cfg, seed=0)
        cli.distribution_from(cfg)


HUGE = 10 ** 400  # a YAML integer beyond the float range

REAL_KEYS = [("max_time",)] + [("targets", f.name) for f in TARGET_FIELDS["float"]]
REAL_KEYS += [(block, key) for block in ("arena", "kinematics", "pi")
              for key in cli.DEFAULT_CONFIG[block]]


@pytest.mark.parametrize("path", REAL_KEYS, ids=".".join)
@pytest.mark.parametrize("bad", ["25", True, None, math.nan, math.inf, -math.inf,
                                 pytest.param(HUGE, id="10**400")])
def test_reals_must_be_numbers(tmp_path, path, bad):
    override = bad
    for key in reversed(path):
        override = {key: override}
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(override))
    cfg = cli.load_config(p)
    message = f"config {'.'.join(path)} must be a number, not {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.mission_config_from(cfg, seed=0)
        cli.distribution_from(cfg)


def test_negative_pi_gains_rejected_at_config_time():
    cfg = cli.load_config(None)
    cfg["pi"] = {"kp": -5.0, "ki": -1.0}
    with pytest.raises(ValueError, match="PI gains must be >= 0"):
        cli.mission_config_from(cfg, seed=0)


@pytest.mark.parametrize("box, message", [
    (5, "config spawn_box must be a list [x0, y0, w, h], not 5"),
    ([0, 0, 20], "config spawn_box must be a list [x0, y0, w, h], not [0, 0, 20]"),
    ([0, 0, True, 20], "config spawn_box[2] must be a number, not True"),
    ([0, math.nan, 20, 20], "config spawn_box[1] must be a number, not nan"),
    ([0, 0, 20, math.inf], "config spawn_box[3] must be a number, not inf"),
    ([0, HUGE, 20, 20], f"config spawn_box[1] must be a number, not {HUGE!r}"),
], ids=["scalar", "three", "bool", "nan", "inf", "huge"])
def test_spawn_box_must_be_four_numbers(tmp_path, box, message):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump({"spawn_box": box}))
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.mission_config_from(cli.load_config(p), seed=0)


def test_mission_config_rejects_bools_in_spawn_box():
    with pytest.raises(ValueError, match="spawn_box must be 4 numbers"):
        MissionConfig(spawn_box=(0.0, 0.0, True, 20.0))


@pytest.mark.parametrize("axis", ["mrt_percent", "sensor_radius"])
def test_real_sweep_values_must_be_numbers(axis):
    for bad in ("40", HUGE):
        with pytest.raises(ValueError,
                           match=re.escape(f"config sweep.values must be a number, not {bad!r}")):
            cli._apply_axis(cli.load_config(None), axis, bad)


INT_REALS = {
    "arena": {"width": 40, "height": 40, "swarm_bound_radius": 20,
              "global_sensor_range": 20, "local_sensor_range": 10, "neutralize_radius": 1},
    "kinematics": {"v_max": 15, "heading_gain": 1, "omega_max": 2, "dt": 1},
    "pi": {"kp": 1, "ki": 0},
    "max_time": 30, "spawn_box": [0, 0, 20, 20],
    "targets": {"mrt_fraction": 0, "cluster_radius": 10},
}


def test_reals_written_as_integers_are_read_as_floats(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text(yaml.safe_dump(INT_REALS))
    cfg = cli.load_config(p)
    mission = cli.mission_config_from(cfg, seed=0)
    dist = cli.distribution_from(cfg)
    reals = [mission.max_time, *mission.spawn_box, dist.mrt_fraction, dist.cluster_radius]
    for block in (mission.arena, mission.kinematics, mission.pi):
        reals += [getattr(block, f.name) for f in dataclasses.fields(block)]
    assert all(type(v) is float for v in reals), reals


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


def test_int_and_float_spellings_of_a_config_run_alike(tmp_path, policy_files):
    # a robot clipped to an int wall would print `40` where the float
    # spelling prints `40.0` in trajectory.csv
    outs = []
    for spelling in (int, float):
        cfgp = tmp_path / f"{spelling.__name__}.yaml"
        cfgp.write_text(yaml.safe_dump({
            "arena": {"width": spelling(40), "height": spelling(40),
                      "swarm_bound_radius": spelling(20)},
            "max_time": spelling(30), "spawn_box": [spelling(v) for v in (0, 0, 20, 20)],
        }))
        outs.append(tmp_path / spelling.__name__)
        cli.main(["run", "--config", str(cfgp), "--seed", "1", "--out", str(outs[-1]),
                  "--policy-conflict", policy_files[0], "--policy-free", policy_files[1]])
    for name in ("summary.json", "trajectory.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


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


def test_sweep_rejects_repeated_values(tmp_path, policy_files):
    cfg = small_cfg()
    cfg["sweep"] = {"axis": "robots", "values": [2, 3, 2], "repetitions": 1}
    with pytest.raises(ValueError, match="sweep value 2 is listed more than once"):
        cli.run_sweep(cfg, 0, *policy_files, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep, message", [
    ({"repetitions": 1.9}, "config sweep.repetitions must be an integer, not 1.9"),
    ({"values": [2, 2.5]}, "config sweep.values must be an integer, not 2.5"),
    ({"values": 3}, "config sweep.values must be a non-empty list, not 3"),
    ({"values": []}, "config sweep.values must be a non-empty list, not []"),
])
def test_sweep_counts_must_be_integers(tmp_path, policy_files, sweep, message):
    cfg = small_cfg()
    cfg["sweep"].update(sweep)
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.run_sweep(cfg, 0, *policy_files, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_sweep_parallel_matches_serial(tmp_path, policy_files):
    cfg = small_cfg()
    serial = cli.run_sweep(cfg, 7, *policy_files, tmp_path / "ser", jobs=1)
    par = cli.run_sweep(cfg, 7, *policy_files, tmp_path / "par", jobs=2)
    assert serial["rows"] == par["rows"]


def count_missions(monkeypatch):
    """The list `cli._worker_run` appends each mission's job to from now on."""
    jobs, run = [], cli._worker_run

    def counted(job):
        jobs.append(job)
        return run(job)

    monkeypatch.setattr(cli, "_worker_run", counted)
    return jobs


def test_sweep_checks_out_before_the_first_mission(tmp_path, policy_files, monkeypatch):
    missions = count_missions(monkeypatch)
    (tmp_path / "file").write_text("")
    with pytest.raises(OSError):
        cli.run_sweep(small_cfg(), 0, *policy_files, tmp_path / "file" / "out", jobs=1)
    assert missions == []


def test_sweep_checks_every_value_before_the_first_mission(tmp_path, policy_files,
                                                          monkeypatch):
    missions = count_missions(monkeypatch)
    cfg = small_cfg()
    cfg["sweep"]["values"] = [3, 0]
    with pytest.raises(ValueError, match="need at least one robot"):
        cli.run_sweep(cfg, 0, *policy_files, tmp_path / "out", jobs=1)
    assert missions == []
    assert not (tmp_path / "out").exists()


def test_one_repetition_sweep_writes_zero_spread(tmp_path, policy_files):
    cfg = small_cfg()
    cfg["sweep"]["repetitions"] = 1
    cli.run_sweep(cfg, 5, *policy_files, tmp_path / "out")
    rows = json.loads((tmp_path / "out" / "summary.json").read_text())["rows"]
    assert [row["std_time"] for row in rows] == [0.0, 0.0]
    with open(tmp_path / "out" / "summary.csv") as f:
        assert [row["std_time"] for row in csv.DictReader(f)] == ["0.0", "0.0"]


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_jobs_below_one_rejected(tmp_path, policy_files, jobs):
    with pytest.raises(ValueError, match=re.escape(f"jobs must be an integer >= 1, not {jobs}")):
        cli.run_sweep(small_cfg(), 0, *policy_files, tmp_path / "out", jobs=jobs)
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text(yaml.safe_dump(small_cfg()))
    with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
        cli.main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "out"),
                  "--jobs", str(jobs), "--policy-conflict", policy_files[0],
                  "--policy-free", policy_files[1]])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_yaml_date_reaches_the_number_check(tmp_path, policy_files, verb):
    # YAML reads an unquoted 2020-01-01 as a date; the sweep's per-value
    # copy of the config must carry it to the check, as `run` does
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text("max_time: 2020-01-01\n")
    message = "config max_time must be a number, not datetime.date(2020, 1, 1)"
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.main([verb, "--config", str(cfgp), "--out", str(tmp_path / "out"),
                  "--policy-conflict", policy_files[0], "--policy-free", policy_files[1]])
    # a rejected config leaves no output directory behind
    assert not (tmp_path / "out").exists()


class SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, runs the jobs in-process."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        SerialPool.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize("jobs, values, reps, pools", [
    (64, [2, 3], 2, [4]),  # 4 runs: 4 workers, not 64
    (3, [2, 3], 2, [3]),
    (8, [2], 1, []),  # a single run needs no pool at all
])
def test_sweep_pool_never_exceeds_the_runs(tmp_path, policy_files, monkeypatch,
                                           jobs, values, reps, pools):
    cfg = small_cfg()
    cfg["sweep"].update(values=values, repetitions=reps)
    SerialPool.sizes = []
    # run_sweep imports the pool from concurrent.futures only when it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    got = cli.run_sweep(cfg, 7, *policy_files, tmp_path / "pool", jobs=jobs)
    assert SerialPool.sizes == pools
    assert got["rows"] == cli.run_sweep(cfg, 7, *policy_files, tmp_path / "ser")["rows"]


def test_swapped_policy_files_rejected_at_load(tmp_path, policy_files):
    conflict, free = policy_files
    with pytest.raises(ValueError, match=re.escape(f"{free}: --policy-conflict needs the "
                                                   "conflict net, this file holds the other one")):
        cli.main(["run", "--out", str(tmp_path), "--policy-conflict", free,
                  "--policy-free", conflict])


@pytest.mark.parametrize("case", ["config", "yaml", "directory", "policy", "reach"])
def test_command_line_reports_a_rejected_input_in_one_line(tmp_path, policy_files, case):
    conflict, free = policy_files
    bad = tmp_path / "bad.yaml"
    bad.write_text({"config": "max_time: 1" + "0" * 400 + "\n",
                    "yaml": "max_time: [1\n",
                    "reach": "arena: {neutralize_radius: 1000}\n"}.get(case, ""))
    argv = ["--config", str(bad)]
    if case == "config":
        message = "config max_time must be a number, not 1000"
    elif case == "reach":
        message = "require global_sensor_range >= neutralize_radius > 0"
    elif case == "yaml":
        message = f"config {bad} is not valid YAML: while parsing"
    elif case == "directory":
        argv, message = ["--config", str(tmp_path)], "[Errno 21] Is a directory"
    else:
        conflict, free = free, conflict
        argv, message = [], f"{conflict}: --policy-conflict needs the conflict net"
    out = tmp_path / "out"
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "gridswarm.cli", "run", *argv, "--out", str(out),
         "--policy-conflict", conflict, "--policy-free", free],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"gridswarm: error: {message}")
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("bad, message", [
    ("nope.qnet", "policy file not found: {bad}"),
    ("free", "{bad}: --policy-conflict needs the conflict net, this file holds the other one"),
], ids=["missing", "swapped"])
def test_parallel_sweep_names_a_bad_policy_file(tmp_path, policy_files, bad, message):
    # a worker that fails to load a policy would break the pool instead
    bad = policy_files[1] if bad == "free" else str(tmp_path / bad)
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text("max_time: 10.0\nsweep: {axis: robots, values: [2, 3], repetitions: 1}\n")
    out = tmp_path / "out"
    with pytest.raises((FileNotFoundError, ValueError),
                       match=re.escape(message.format(bad=bad))):
        cli.main(["sweep", "--jobs", "2", "--config", str(cfgp), "--out", str(out),
                  "--policy-conflict", bad, "--policy-free", policy_files[1]])
    assert not out.exists()


def save_free_net(path, hidden_widths, outputs):
    """A 2-input net whose matrices all agree with `hidden_widths` and `outputs`,
    written by a stand-in, since a NetworkSpec's output width is fixed."""
    spec = SimpleNamespace(input_dim=2, hidden_widths=hidden_widths, skip_concat=None,
                           output_dim=outputs)
    rng = np.random.default_rng(0)
    widths = (*hidden_widths, outputs)
    weights = [rng.standard_normal((w, n + 1)) for w, n in zip(widths, (2, *widths))]
    qnet.save_weights(SimpleNamespace(spec=spec, weights=weights), path)


def test_net_of_the_wrong_output_width_rejected_at_load(tmp_path, policy_files):
    # a free net whose three outputs are consistent through every matrix
    bad = tmp_path / "narrow.qnet"
    save_free_net(bad, (16, 16), 3)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(
            f"{bad}: a net of 2 inputs, hidden widths (16, 16), skip_concat None "
            "and 3 outputs is not a conflict or free net")):
        cli.main(["run", "--out", str(out), "--policy-conflict", policy_files[0],
                  "--policy-free", str(bad)])
    assert not out.exists()


def test_net_with_an_empty_layer_rejected_at_load(tmp_path, policy_files):
    # with no units in its last hidden layer the net would answer its output
    # bias whatever the input: a constant policy
    bad = tmp_path / "hollow.qnet"
    save_free_net(bad, (16, 0), 5)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(
            f"{bad}: a net of 2 inputs, hidden widths (16, 0), skip_concat None "
            "and 5 outputs is not a conflict or free net")):
        cli.main(["run", "--out", str(out), "--policy-conflict", policy_files[0],
                  "--policy-free", str(bad)])
    assert not out.exists()


SHIPPED = Path(__file__).resolve().parents[1] / "perfbench" / "policies"


@pytest.mark.parametrize("case", ["rewired", "third"])
def test_a_net_of_neither_architecture_rejected_at_load(tmp_path, capsys, case):
    bad = tmp_path / f"{case}.qnet"
    if case == "rewired":
        # the shipped conflict net with its skip source moved from layer 1
        # to 2: every hidden width is 32, so no matrix changes shape
        data = bytearray((SHIPPED / "conflict.qnet").read_bytes())
        struct.pack_into("<I", data, 9, 2)
        bad.write_bytes(data)
        role, other = "conflict", "free"
    else:
        save_free_net(bad, (32, 32, 32), 5)  # 2 inputs, as the free net takes
        role, other = "free", "conflict"
    message = f"{bad}: a net of "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}.* is not a conflict or free net$"):
        qnet.load_weights(bad)
    out = tmp_path / "out"
    code = cli.script(["run", "--out", str(out), f"--policy-{role}", str(bad),
                       f"--policy-{other}", str(SHIPPED / f"{other}.qnet")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"gridswarm: error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("spelling", ["1.0e300", "1e5", "2.5E3", "1e+5"])
def test_an_exponent_that_yaml_reads_as_text_gets_a_hint(tmp_path, spelling):
    p = tmp_path / "c.yaml"
    p.write_text(f"max_time: {spelling}\n")
    with pytest.raises(ValueError, match=re.escape(
            f"config max_time must be a number, not '{spelling}' (YAML reads a number "
            "with an exponent only with a dot and a signed exponent, as in 1.0e+300)")):
        cli.mission_config_from(cli.load_config(p), seed=0)
    # the hint's spelling is a float to YAML
    p.write_text("max_time: 3.0e+2\n")
    assert cli.mission_config_from(cli.load_config(p), seed=0).max_time == 300.0


@pytest.mark.parametrize("verb", ["train-conflict", "train-free"])
def test_training_budget_below_one_reward_block_rejected(tmp_path, verb):
    with pytest.raises(ValueError, match="reward_block"):
        cli.main([verb, "--episodes", "50", "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["train-conflict", "--episodes", "50"],
    ["train-conflict", "--episodes", "50", "--agents", "3"],
    ["train-free", "--episodes", "0"],
])
def test_rejected_training_budget_leaves_no_output_directory(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="reward_block"):
        cli.main([*argv, "--out", str(out)])
    assert not out.exists()


def test_train_free_rejects_a_negative_seed(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape("--seed must be >= 0 for train-free, not -1")):
        cli.main(["train-free", "--seed", "-1", "--episodes", "100", "--out", str(out)])
    assert not out.exists()


def test_defaults_verb(capsys):
    cli.main(["defaults"])
    printed = yaml.safe_load(capsys.readouterr().out)
    assert printed["robots"] == 6
    assert printed["arena"]["width"] == 90.0
