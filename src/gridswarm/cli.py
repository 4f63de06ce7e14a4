"""Experiment runner CLI.

Verbs: train-conflict, train-free, run, sweep, defaults.  Configuration is
a YAML document overriding any subset of the library defaults (print them
with `gridswarm defaults`; unknown keys are rejected); all randomness flows
from a master seed through a splitmix64 stream so every output is
bit-reproducible.

PyYAML loads only for `--config` and `gridswarm defaults`, and the process
pool only for `sweep --jobs` above 1.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from gridswarm import qnet, scenario
from gridswarm.motion import KinematicParams, PIState
from gridswarm.sim import MissionConfig, Mission
from gridswarm.world import ArenaConfig, Target, reject_non_finite

_U64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(seed: int, index: int) -> int:
    """Child seed `index` of the stream rooted at `seed` (splitmix64 step)."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


@dataclass
class DistributionSpec:
    kind: str = "uniform"  # uniform | clustered
    total: int = 15
    mrt_fraction: float = 0.2
    mrt_visits: int = 2
    cluster_count: int | None = None  # None: random in [1, 5] per mission
    cluster_radius: float = 10.0

    def __post_init__(self):
        reject_non_finite(self)
        if self.kind not in ("uniform", "clustered"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.total < 0:
            raise ValueError("total must be >= 0")
        if not (0.0 <= self.mrt_fraction <= 1.0):
            raise ValueError("mrt_fraction must lie in [0, 1]")
        if self.mrt_visits < 1:
            raise ValueError("mrt_visits must be >= 1")
        if self.cluster_count is not None and not (1 <= self.cluster_count <= 5):
            raise ValueError("cluster_count must lie in [1, 5]")
        if self.cluster_radius < 0:
            raise ValueError("cluster_radius must be >= 0")


def generate_scenario(spec: DistributionSpec, arena: ArenaConfig, rng) -> list:
    """Random target set: i.i.d. uniform or clustered positions.

    Clustered: m random centers; each cluster gets floor(total/m) targets
    (the last one takes the remainder), uniform in a disc of the cluster
    radius, clipped to the arena.  The first ceil(fraction * total) targets
    become multi-visit.
    """
    positions = []
    if spec.kind == "uniform":
        for _ in range(spec.total):
            positions.append((rng.uniform(0, arena.width), rng.uniform(0, arena.height)))
    else:
        m = spec.cluster_count or int(rng.integers(1, 6))
        per = spec.total // m
        sizes = [per] * m
        sizes[-1] += spec.total - per * m
        for size in sizes:
            cx = rng.uniform(0, arena.width)
            cy = rng.uniform(0, arena.height)
            for _ in range(size):
                ang = rng.uniform(0, 2 * math.pi)
                rad = spec.cluster_radius * math.sqrt(rng.random())
                positions.append((
                    min(max(cx + rad * math.cos(ang), 0.0), arena.width),
                    min(max(cy + rad * math.sin(ang), 0.0), arena.height),
                ))
    n_mrt = math.ceil(spec.mrt_fraction * spec.total)
    targets = []
    for i, pos in enumerate(positions):
        visits = spec.mrt_visits if i < n_mrt else 1
        targets.append(Target(id=i, position=pos, required_visits=visits))
    return targets


def _default_config() -> dict:
    """The YAML tree of the library defaults, plus the sweep block."""
    m = MissionConfig()
    return {
        "arena": asdict(m.arena),
        "robots": m.n_robots,
        "max_time": m.max_time,
        "spawn_box": list(m.spawn_box),
        "grid": [m.grid_rows, m.grid_cols],
        "kinematics": asdict(m.kinematics),
        "pi": asdict(m.pi),
        "targets": asdict(DistributionSpec()),
        "sweep": {"axis": "robots", "values": [3, 6, 9], "repetitions": 30},
    }


DEFAULT_CONFIG = _default_config()
SWEEP_AXES = ("robots", "mrt_percent", "sensor_radius", "distribution")


def _merge(base: dict, override, where: str = "") -> dict:
    """`override` laid over `base`; a key that `base` lacks is rejected."""
    if not isinstance(override, dict):
        raise ValueError(f"config {where or 'document'} must be a mapping, "
                         f"not {type(override).__name__}")
    out = dict(base)
    for k, v in override.items():
        key = f"{where}.{k}" if where else str(k)
        if k not in base:
            raise ValueError(f"unknown config key {key!r}")
        out[k] = _merge(base[k], v, key) if isinstance(base[k], dict) else v
    return out


def load_config(path) -> dict:
    """DEFAULT_CONFIG with the YAML file at `path` (if any) laid over it."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    import yaml

    with open(path) as f:
        try:
            override = yaml.safe_load(f)
        except yaml.YAMLError as exc:  # its message spans lines: join them
            raise ValueError(f"config {path} is not valid YAML: "
                             f"{' '.join(str(exc).split())}") from None
    return cfg if override is None else _merge(cfg, override)


def _count(value, key: str) -> int:
    """`value` if it is an int (not a bool), else a ValueError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config {key} must be an integer, not {value!r}")
    return value


def _real(value, key: str) -> float:
    """`value` as a float if it is an int or float (not a bool) within the
    float range, so not NaN or infinite, else a ValueError naming `key`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ValueError(f"config {key} must be a number, not {value!r}{_exponent_hint(value)}")
    return float(value)


def _exponent_hint(value) -> str:
    """A hint for a string that float() reads with an exponent, which YAML
    reads as text unless it has a dot and a signed exponent."""
    if isinstance(value, str) and "e" in value.lower():
        try:
            float(value)
            return (" (YAML reads a number with an exponent only with a dot and a "
                    "signed exponent, as in 1.0e+300)")
        except ValueError:
            pass
    return ""


def _block(cls, cfg: dict, block: str):
    """The `block` mapping of `cfg` as a `cls`, each field's value read by its
    annotation: a float by `_real`, an int (or an `int | None` that is set)
    by `_count`, anything else as it is."""
    kw = {}
    for f in fields(cls):
        value, key = cfg[block][f.name], f"{block}.{f.name}"
        if f.type == "float":
            value = _real(value, key)
        elif f.type == "int" or (f.type == "int | None" and value is not None):
            value = _count(value, key)
        kw[f.name] = value
    return cls(**kw)


def mission_config_from(cfg: dict, seed: int) -> MissionConfig:
    grid = cfg["grid"]
    if not isinstance(grid, list) or len(grid) != 2:
        raise ValueError(f"config grid must be a list [rows, cols], not {grid!r}")
    box = cfg["spawn_box"]
    if not isinstance(box, list) or len(box) != 4:
        raise ValueError(f"config spawn_box must be a list [x0, y0, w, h], not {box!r}")
    return MissionConfig(
        arena=_block(ArenaConfig, cfg, "arena"),
        n_robots=_count(cfg["robots"], "robots"),
        kinematics=_block(KinematicParams, cfg, "kinematics"),
        pi=_block(PIState, cfg, "pi"),
        grid_rows=_count(grid[0], "grid[0]"),
        grid_cols=_count(grid[1], "grid[1]"),
        max_time=_real(cfg["max_time"], "max_time"),
        seed=seed,
        spawn_box=tuple(_real(v, f"spawn_box[{i}]") for i, v in enumerate(box)),
    )


def distribution_from(cfg: dict) -> DistributionSpec:
    return _block(DistributionSpec, cfg, "targets")


def _load_policy(path, role: str) -> qnet.QNetwork:
    """Weights for the `role` ("conflict" or "free") policy, checked at load."""
    if not Path(path).is_file():
        raise FileNotFoundError(f"policy file not found: {path}")
    net = qnet.load_weights(path)
    if net.spec != qnet.POLICIES[role]:
        raise ValueError(f"{path}: --policy-{role} needs the {role} net, this file "
                         "holds the other one")
    return net


def _apply_axis(cfg: dict, axis: str, value):
    cfg = copy.deepcopy(cfg)
    if axis == "robots":
        cfg["robots"] = _count(value, "sweep.values")
    elif axis == "mrt_percent":
        cfg["targets"]["mrt_fraction"] = _real(value, "sweep.values") / 100.0
    elif axis == "sensor_radius":
        cfg["arena"]["global_sensor_range"] = _real(value, "sweep.values")
    elif axis == "distribution":
        cfg["targets"]["kind"] = str(value)
    else:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")
    return cfg


def build_mission(cfg: dict, child_seed: int, conflict_net, free_net) -> Mission:
    """One seeded mission: scenario from one child stream, sim from another."""
    scen_rng = np.random.default_rng(splitmix64(child_seed, 0))
    mconfig = mission_config_from(cfg, splitmix64(child_seed, 1))
    targets = generate_scenario(distribution_from(cfg), mconfig.arena, scen_rng)
    return Mission(mconfig, targets, conflict_net, free_net)


_WORKER = {}


def _worker_init(conflict_path, free_path):
    _WORKER["conflict"] = _load_policy(conflict_path, "conflict")
    _WORKER["free"] = _load_policy(free_path, "free")


def _worker_run(job):
    axis_value, rep, child_seed, cfg = job
    result = build_mission(cfg, child_seed, _WORKER["conflict"], _WORKER["free"]).run()
    return (axis_value, rep, child_seed, result.total_time, result.search_time,
            result.collisions, int(result.success))


def run_sweep(cfg: dict, master_seed: int, conflict_path, free_path,
              out_dir: Path, jobs: int = 1) -> dict:
    axis = cfg["sweep"]["axis"]
    values = cfg["sweep"]["values"]
    reps = _count(cfg["sweep"]["repetitions"], "sweep.repetitions")
    if not isinstance(values, list) or not values:
        raise ValueError(f"config sweep.values must be a non-empty list, not {values!r}")
    # each value is read by its axis before the repeat check compares them
    run_cfgs = [_apply_axis(cfg, axis, value) for value in values]
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"sweep value {repeated[0]!r} is listed more than once")
    if reps < 1:
        raise ValueError("repetitions must be >= 1")
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, not {jobs!r}")
    # load the policies here first, so a bad file is named before a worker
    # starts; every worker loads them again, so start no more than the runs
    _worker_init(conflict_path, free_path)
    # every value's config, and the output directory, before the first mission
    for run_cfg in run_cfgs:
        mission_config_from(run_cfg, master_seed)
        distribution_from(run_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    job_list = [(value, rep, splitmix64(master_seed, i * reps + rep), run_cfg)
                for i, (value, run_cfg) in enumerate(zip(values, run_cfgs))
                for rep in range(reps)]
    workers = min(jobs, len(job_list))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init,
            initargs=(conflict_path, free_path),
        ) as pool:
            rows = list(pool.map(_worker_run, job_list, chunksize=4))
    else:
        rows = [_worker_run(j) for j in job_list]

    with open(out_dir / "runs.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["axis_value", "repetition", "child_seed", "mission_time",
                    "search_time", "collisions", "success"])
        w.writerows(rows)

    summary = []
    for value in values:
        times = [r[3] for r in rows if r[0] == value]
        succ = [r[6] for r in rows if r[0] == value]
        summary.append({
            "axis": axis,
            "axis_value": value,
            "runs": len(times),
            "mean_time": float(np.mean(times)),
            "std_time": float(np.std(times)),
            "success_rate": float(np.mean(succ)),
        })
    with open(out_dir / "summary.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(summary[0].keys()))
        w.writeheader()
        w.writerows(summary)
    with open(out_dir / "summary.json", "w") as f:
        json.dump({"axis": axis, "master_seed": master_seed, "rows": summary},
                  f, indent=2, sort_keys=True)
    return {"rows": rows, "summary": summary}


def record_trajectory(mission: Mission):
    """Run `mission` to its end; return the table of `trajectory.csv`, header
    first, then one row per robot after each step, and the mission's result."""
    rows = [("t", "robot_id", "x", "y", "heading", "scenario", "action",
             "assigned_target")]
    while mission.running:
        t = round(mission.world.time, 6)  # the time the step starts at
        mission.step()
        for robot in mission.world.robots:
            ctl = mission.ctl[robot.id]
            rows.append((t, robot.id, *robot.position, robot.heading, ctl.label,
                         scenario.ACTIONS[ctl.action], ctl.assigned))
    return rows, mission.run()  # no step left: run only builds the result


# ---------------------------------------------------------------------------

# Tuned training budgets: the conflict net needs long low-epsilon self-play
# with a late learning-rate anneal to settle into a stable policy; the free
# net converges quickly on the 3x3 gridworld.
CONFLICT_TRAIN_DEFAULTS = {
    "episodes": 100_000,
    "learning_rate": 5e-3,
    "eps_decay_fraction": 0.4,
    "eps_end": 0.005,
    "lr_end_scale": 0.001,
}
FREE_TRAIN_DEFAULTS = {"episodes": 20_000}


def _trainer_config(args, defaults: dict) -> qnet.TrainerConfig:
    kw = dict(defaults)
    if args.episodes is not None:
        kw["episodes"] = args.episodes
    return qnet.TrainerConfig(**kw)


def cmd_train_conflict(args):
    # every agent count trains with this config; a rejected one leaves no
    # output directory behind
    config = _trainer_config(args, CONFLICT_TRAIN_DEFAULTS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    net = None
    for n_agents in range(2, args.agents + 1):
        net, log = qnet.train_conflict_selfplay(
            config, n_agents=n_agents, seed=splitmix64(args.seed, n_agents),
            base_net=net,
        )
        qnet.save_weights(net, out / f"conflict_{n_agents}agents.qnet")
        qnet.save_reward_log(log, out / f"conflict_{n_agents}agents_rewards.csv")
        print(f"trained conflict policy ({n_agents} agents): "
              f"final block reward {log[-1][1]:.3f}")
    qnet.save_weights(net, out / "conflict.qnet")
    print(f"wrote {out / 'conflict.qnet'}")


def cmd_train_free(args):
    if args.seed < 0:  # the free trainer seeds numpy with it as it is
        raise ValueError(f"--seed must be >= 0 for train-free, not {args.seed}")
    config = _trainer_config(args, FREE_TRAIN_DEFAULTS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    net, log = qnet.train_free(config, seed=args.seed)
    qnet.save_weights(net, out / "free.qnet")
    qnet.save_reward_log(log, out / "free_rewards.csv")
    print(f"trained conflict-free policy: final block reward {log[-1][1]:.3f}")
    print(f"wrote {out / 'free.qnet'}")


def cmd_run(args):
    cfg = load_config(args.config)
    conflict_net = _load_policy(args.policy_conflict, "conflict")
    free_net = _load_policy(args.policy_free, "free")
    # a rejected config or policy leaves no output directory behind
    mission = build_mission(cfg, splitmix64(args.seed, 0), conflict_net, free_net)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows, result = record_trajectory(mission)
    with open(out / "trajectory.csv", "w", newline="") as f:
        csv.writer(f).writerows(rows)
    summary = json.dumps(result.summary(), indent=2, sort_keys=True)
    (out / "summary.json").write_text(summary)
    print(summary)


def cmd_sweep(args):
    cfg = load_config(args.config)
    out = run_sweep(cfg, args.seed, args.policy_conflict, args.policy_free,
                    Path(args.out), jobs=args.jobs)
    for row in out["summary"]:
        print(f"{row['axis']}={row['axis_value']}: "
              f"time {row['mean_time']:.1f} +- {row['std_time']:.1f} s, "
              f"success {row['success_rate']:.2%}")


def cmd_defaults(_args):
    import yaml

    print(yaml.safe_dump(DEFAULT_CONFIG, sort_keys=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridswarm",
        description="Decentralized search-and-neutralize experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    train = argparse.ArgumentParser(add_help=False, parents=[seeded])
    train.add_argument("--out", default="policies")
    train.add_argument("--episodes", type=int, default=None)
    mission = argparse.ArgumentParser(add_help=False, parents=[seeded])
    mission.add_argument("--config", default=None)
    mission.add_argument("--out", default="out")
    mission.add_argument("--policy-conflict", required=True)
    mission.add_argument("--policy-free", required=True)

    p = sub.add_parser("train-conflict", parents=[train],
                       help="self-play train the conflict net")
    p.add_argument("--agents", type=int, default=2, choices=(2, 3, 4),
                   help="train incrementally up to this many agents")
    p.set_defaults(func=cmd_train_conflict)

    p = sub.add_parser("train-free", parents=[train], help="train the conflict-free net")
    p.set_defaults(func=cmd_train_free)

    p = sub.add_parser("run", parents=[mission],
                       help="run one mission and dump its trajectory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", parents=[mission], help="Monte Carlo sweep over one axis")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at least 1 (never more than the runs)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("defaults", help="print the default configuration")
    p.set_defaults(func=cmd_defaults)

    args = parser.parse_args(argv)
    args.func(args)
    return 0


def script(argv=None) -> int:
    """`main` as the `gridswarm` command: a rejected config, policy or option,
    or a file that cannot be read or written, prints one `gridswarm: error:`
    line and exits 2, as argparse errors do."""
    try:
        return main(argv)
    except (ValueError, OSError) as exc:
        print(f"gridswarm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(script())
