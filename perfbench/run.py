"""gridswarm benchmark: self-play training and mission workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mission-default --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one after another

Each workload is a closed loop with one client: the next operation (one
mission, or one training run) starts only when the previous one has
finished.  The workload seed and ``--seconds`` fix a pass of distinct
operations, sized to take about ``--seconds`` on a 2-vCPU host; a run is one
pass, so it always attempts the same operations.  Throughput is the steps of
every operation over the seconds spent inside them; latencies are
percentiles over the steps of one kind, plain or choice (see README.md).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` then sets up again
with a probe on every layer (see ``spans.py``), re-runs the first operations,
checks that they reproduce the untraced results byte for byte, and prints the
per-layer metrics.  The last line of standard output is one JSON object; the
lines before it are a readable report.  The program under test is imported
from ``src/`` of the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, before imports

import argparse
import contextlib
import hashlib
import importlib
import json
import resource
import statistics
import struct
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
POLICY_DIR = BENCH_DIR / "policies"
SETUP_REPEATS = 4  # extra set-ups, each in a fresh interpreter

# Missions run to completion: under the shipped 300 s cap a few default
# missions (about 4 %) are cut off although they finish by 360 s, and a cut
# mission counts as a failed operation.  A mission still live at 600 s fails.
MISSION = {"max_time": 600.0}
# Crowded: the largest values on the paper's swarm-size and multi-visit axes.
CROWDED = {**MISSION, "robots": 9, "targets.kind": "clustered",
           "targets.mrt_fraction": 0.6}
TRAIN_EPISODES = 500

# name -> (kind, config overrides, operations per second of --seconds,
# operations traced).  The rates are those of a 2-vCPU host; a 40 s default
# pass holds 64 missions.
WORKLOADS = {
    "train-conflict": ("train", {}, 1 / 3, 1),
    "mission-default": ("mission", MISSION, 1.6, 4),
    "mission-crowded": ("mission", CROWDED, 0.6, 2),
}


def pass_size(name: str, seconds: float) -> int:
    return max(1, round(WORKLOADS[name][2] * seconds))


# A "step" is one Mission.step call or one SGD update; an "episode" is one
# mission or one self-play episode.  The report also prints these under
# their names for the workload's kind.
REPORT_NAMES = {
    "mission": {"steps_per_s": "sim_steps_per_s", "episodes_per_s": "missions_per_s",
                "sim.mission_time_mean_s": "mission_time_mean_s",
                "sim.collisions_per_mission": "collisions_per_mission"},
    "train": {"steps_per_s": "updates_per_s"},
}


def import_program():
    """The gridswarm modules of this checkout, by module name."""
    if not (ROOT / "src" / "gridswarm" / "__init__.py").is_file():
        sys.exit(f"gridswarm sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    names = ("allocation", "cli", "context_grid", "motion", "qnet", "scenario",
             "sim", "world")
    return {n: importlib.import_module(f"gridswarm.{n}") for n in names}


def load_policy(gs, path: Path, spec):
    """Load a stored policy and fail loudly unless it is a sound `spec` net."""
    try:
        net = gs["qnet"].load_weights(path)
    except (OSError, ValueError, struct.error) as exc:
        raise SystemExit(f"{path}: unreadable policy file ({exc})")
    layers = range(1, len(spec.hidden_widths) + 1)
    shapes = [(spec.hidden_widths[k - 1], spec.layer_input_width(k) + 1) for k in layers]
    shapes.append((spec.output_dim, spec.hidden_widths[-1] + 1))
    if net.spec != spec or [w.shape for w in net.weights] != shapes:
        raise SystemExit(f"{path}: holds a {net.spec} net, expected {spec}")
    if not all(np.isfinite(w).all() for w in net.weights):
        raise SystemExit(f"{path}: non-finite weights")
    return net


class Outcome:
    """What one operation produced, as the checks see it."""

    def __init__(self, digest: bytes, problems: list, episodes=1, timed_out=False,
                 quality=None):
        self.digest = digest  # bytes that must repeat exactly for the same input
        self.problems = problems  # broken invariants
        self.episodes = episodes  # missions, or self-play episodes of a training run
        self.timed_out = timed_out  # mission hit max_time with live targets
        self.quality = quality or {}


class MissionWorkload:
    """Missions of one configuration, one per child seed of the workload seed."""

    kind = "mission"

    def __init__(self, gs, overrides: dict, seed: int):
        self.gs = gs
        qnet = gs["qnet"]
        self.conflict = load_policy(gs, POLICY_DIR / "conflict.qnet", qnet.NetworkSpec.conflict())
        self.free = load_policy(gs, POLICY_DIR / "free.qnet", qnet.NetworkSpec.free())
        self.cfg = gs["cli"].load_config(None)
        for key, value in overrides.items():
            node = self.cfg
            *path, leaf = key.split(".")
            for part in path:
                node = node[part]
            node[leaf] = value
        self.seed = seed

    def step_sites(self):
        """(owner, attribute) of one step, and of one robot's choice of move:
        every robot decision senses exactly once, and nothing else senses."""
        return (self.gs["sim"].Mission, "step"), (self.gs["world"], "sense")

    def prepare(self, i: int):
        """Mission i, built exactly as `gridswarm run`/`sweep` build one."""
        cli = self.gs["cli"]
        child = cli.splitmix64(self.seed, i)
        rng = np.random.default_rng(cli.splitmix64(child, 0))
        targets = cli.generate_scenario(cli.distribution_from(self.cfg),
                                        self.gs["world"].ArenaConfig(**self.cfg["arena"]), rng)
        config = cli.mission_config_from(self.cfg, cli.splitmix64(child, 1))
        return self.gs["sim"].Mission(config, targets, self.conflict, self.free)

    @staticmethod
    def run(mission):
        return mission.run()

    @staticmethod
    def check(mission, result) -> Outcome:
        problems = []
        arena = mission.arena
        for r in mission.world.robots:
            if not arena.contains(r.position):
                problems.append(f"robot {r.id} outside the arena at {r.position}")
        for t in mission.world.targets:
            if t.sequence_progress > t.required_visits:
                problems.append(f"target {t.id}: progress {t.sequence_progress} "
                                f"> required {t.required_visits}")
            if len(t.visited_by) != t.sequence_progress:
                problems.append(f"target {t.id}: {len(t.visited_by)} visitors, "
                                f"progress {t.sequence_progress}")
            if t.live == (t.sequence_progress == t.required_visits):
                problems.append(f"target {t.id}: live={t.live} at progress "
                                f"{t.sequence_progress}/{t.required_visits}")
        for tid, when in result.target_times.items():
            if when > result.total_time:
                problems.append(f"target {tid} neutralized at {when} > total {result.total_time}")
        live = any(t.live for t in mission.world.targets)
        if result.success == live:
            problems.append(f"success={result.success} with live targets={live}")
        summary = json.dumps(result.summary(), sort_keys=True).encode()
        return Outcome(summary, problems, timed_out=not result.success,
                       quality={"time_s": result.total_time, "collisions": result.collisions})


class TrainWorkload:
    """2-agent conflict self-play at the shipped budget settings, short runs."""

    kind = "train"

    def __init__(self, gs, _overrides: dict, seed: int):
        self.gs = gs
        defaults = dict(gs["cli"].CONFLICT_TRAIN_DEFAULTS, episodes=TRAIN_EPISODES)
        self.config = gs["qnet"].TrainerConfig(**defaults)
        self.seed = seed

    def step_sites(self):
        """(owner, attribute) of one SGD update, and of one self-play move,
        which the agents choose together; with two agents a move feeds two
        updates."""
        return (self.gs["qnet"], "td_loss"), (self.gs["qnet"].ConflictGame, "step")

    def prepare(self, i: int):
        return self.gs["cli"].splitmix64(self.seed, i)

    def run(self, seed):
        return self.gs["qnet"].train_conflict_selfplay(self.config, n_agents=2, seed=seed)

    def check(self, _seed, result) -> Outcome:
        net, log = result
        problems = []
        if not all(np.isfinite(w).all() for w in net.weights):
            problems.append("non-finite weights after training")
        rows = self.config.episodes // self.config.reward_block
        if len(log) != rows:
            problems.append(f"reward log has {len(log)} rows, expected {rows}")
        digest = b"".join(np.ascontiguousarray(w, dtype="<f8").tobytes() for w in net.weights)
        return Outcome(digest + repr(log).encode(), problems, episodes=self.config.episodes)


def make_workload(gs, name: str, seed: int, n_ops: int):
    kind, overrides, _, _ = WORKLOADS[name]
    cls = MissionWorkload if kind == "mission" else TrainWorkload
    workload = cls(gs, overrides, seed)
    return workload, [workload.prepare(i) for i in range(n_ops)]


@contextlib.contextmanager
def step_clock(workload, stamps: array, chose: array):
    """Record the start time of every step (Mission.step or SGD update), and
    how many moves were chosen between it and the next step."""
    (step_owner, step_attr), (choice_owner, choice_attr) = workload.step_sites()
    step, choose = getattr(step_owner, step_attr), getattr(choice_owner, choice_attr)
    clock = time.perf_counter

    def stamped(*args, **kwargs):
        stamps.append(clock())
        chose.append(0)
        return step(*args, **kwargs)

    def marked(*args, **kwargs):
        if chose:
            chose[-1] = min(chose[-1] + 1, 127)
        return choose(*args, **kwargs)

    setattr(step_owner, step_attr, stamped)
    setattr(choice_owner, choice_attr, marked)
    try:
        yield
    finally:
        setattr(choice_owner, choice_attr, choose)
        setattr(step_owner, step_attr, step)


class Tally:
    """Outcomes and step timings of every operation a loop ran."""

    def __init__(self):
        self.outcomes = []  # per attempt: Outcome, or None if it raised
        self.walls = []  # per attempt: seconds inside the program
        self.raised = []
        self.steps = 0
        self.latency = []  # per operation: step latencies
        self.chose = []  # per operation: moves chosen in each step

    def add(self, outcome, stamps: array, chose: array):
        """`stamps`: start of the operation, of each step, end of the operation."""
        self.outcomes.append(outcome)
        self.walls.append(stamps[-1] - stamps[0])
        self.steps += len(stamps) - 2
        self.latency.append(np.diff(stamps[1:]))
        self.chose.append(np.frombuffer(chose, dtype=np.int8))


def attempt(workload, op, tally: Tally):
    """Run one operation, then check its result outside the timing."""
    stamps, chose = array("d"), array("b")
    with step_clock(workload, stamps, chose):
        t0 = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # an operation that raises has failed
            tally.raised.append(f"{type(exc).__name__}: {exc}")
            tally.outcomes.append(None)
            tally.walls.append(0.0)
            return
        t1 = time.perf_counter()
    stamps.insert(0, t0)
    stamps.append(t1)
    tally.add(workload.check(op, result), stamps, chose)


def measure(workload, ops: list) -> Tally:
    """Closed loop over the pass: each operation starts when the last ends."""
    tally = Tally()
    for i, op in enumerate(ops):
        ops[i] = None  # a finished mission is not kept
        attempt(workload, op, tally)
    return tally


def setup_probe(name: str, seed: int, seconds: float) -> float:
    """Set-up seconds of a fresh interpreter running this workload's set-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(name: str, seed: int, seconds: float, setup_s: float, tally: Tally) -> dict:
    done = [o for o in tally.outcomes if o is not None]
    if not done:
        raise SystemExit(f"{name}: no operation completed; first error: {tally.raised[0]}")
    setups = [setup_s] + [setup_probe(name, seed, seconds) for _ in range(SETUP_REPEATS)]
    lat_ms = np.concatenate(tally.latency) * 1e3
    chose = np.concatenate(tally.chose)
    seconds = sum(tally.walls)
    episodes = sum(o.episodes for o in done)
    # mission quality of the pass: deterministic for a seed
    quality = [o.quality for o in done if o.quality]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps_per_s": tally.steps / seconds,
        "episodes_per_s": episodes / seconds,
        "plain_step_ms_p5": percentile(lat_ms[chose == 0], 5),
        "one_choice_step_ms_p5": percentile(lat_ms[chose == 1], 5),
        "plain_step_ms_p50": percentile(lat_ms[chose == 0], 50),
        "one_choice_step_ms_p50": percentile(lat_ms[chose == 1], 50),
        "step_ms_p50": float(np.percentile(lat_ms, 50)),
        "step_ms_p95": float(np.percentile(lat_ms, 95)),
        "step_ms_p99": float(np.percentile(lat_ms, 99)),
        "sim.mission_time_mean_s": statistics.fmean(q["time_s"] for q in quality)
        if quality else 0.0,
        "sim.collisions_per_mission": statistics.fmean(q["collisions"] for q in quality)
        if quality else 0.0,
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(hashlib.sha256(o.digest if o is not None else b"raised").digest())
    return h.hexdigest()


def traced_pass(gs, name: str, seed: int, untraced: Tally):
    """Set up again under the probes, then run each of the first operations
    twice, plain and then traced, so the overhead ratio compares like with
    like; the traced results must match the untraced run byte for byte."""
    import spans

    n = min(WORKLOADS[name][3], len(untraced.outcomes))
    tracer = spans.Tracer()
    with spans.probes(tracer, gs):
        workload, ops = make_workload(gs, name, seed, n)
    plain, tally = Tally(), Tally()
    for i, op in enumerate(ops):
        attempt(workload, workload.prepare(i), plain)
        tracer.op_id = i
        with spans.probes(tracer, gs):
            attempt(workload, op, tally)
    tracer.write(ROOT / ".perfbench" / f"spans-{name}-seed{seed}.npz")
    layers = spans.layer_metrics(tracer, sum(tally.walls), sum(plain.walls))
    reference = digest(untraced.outcomes[:n])
    same = digest(tally.outcomes) == reference
    print(f"  sha256 traced first {n}:   {digest(tally.outcomes)}"
          f" ({'identical to' if same else 'DIFFERS from'} untraced {reference})")
    print(f"traced pass: {n} operations, {sum(tally.walls):.3f} s, {len(tracer.start)} spans "
          f"(self share = self seconds / traced wall)")
    print(f"  {'span':<34} {'calls':>9} {'self_s':>10} {'share':>7}")
    for span in sorted(tracer.names):
        if layers[f"{span}.calls"]:
            print(f"  {span:<34} {layers[span + '.calls']:>9} "
                  f"{layers[span + '.self_s']:>10.4f} {layers[span + '.self_share']:>7.1%}")
    for key, value in layers.items():
        if key.rsplit(".", 1)[0] not in tracer.names:
            print(f"  {key:<34} {value:>10.4g}")
    return layers, same and not tally.raised


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    gs = import_program()
    kind = WORKLOADS[name][0]
    workload, ops = make_workload(gs, name, seed, pass_size(name, seconds))
    setup_s = time.perf_counter() - T_START
    tally = measure(workload, ops)
    e2e = end_to_end(name, seed, seconds, setup_s, tally)

    done = [o for o in tally.outcomes if o is not None]
    broken = [o for o in done if o.problems]
    timed_out = [o for o in done if o.timed_out and not o.problems]
    attempted = len(tally.outcomes)
    failed = len(tally.raised) + len(broken) + len(timed_out)
    correct = not tally.raised and not broken

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # reported, not gated: rates and percentiles over all steps move with the
    # mix of missions a seed draws (see README.md)
    units.update(steps_per_s="1/s", episodes_per_s="1/s", plain_step_ms_p50="ms",
                 one_choice_step_ms_p50="ms", step_ms_p50="ms", step_ms_p95="ms",
                 step_ms_p99="ms")
    print(f"gridswarm benchmark: {name}, seed {seed}, closed loop, one client: "
          f"a pass of {len(ops)} operations sized for {seconds:g} s")
    print(f"operations: {attempted} attempted, {failed} failed "
          f"({100.0 * failed / attempted:.1f} %): {len(tally.raised)} raised, "
          f"{len(broken)} broke an invariant, {len(timed_out)} ended at max_time "
          "with live targets")
    for msg in tally.raised[:5] + [p for o in broken[:5] for p in o.problems[:3]]:
        print(f"  ! {msg}")
    aliases = REPORT_NAMES[kind]
    for key, value in e2e.items():
        alias = f" = {aliases[key]}" if key in aliases else ""
        print(f"  {key:<24} {value:>14.6g} {units.get(key, '')}{alias}")
    kinds = np.bincount(np.concatenate(tally.chose), minlength=2)
    print(f"  {tally.steps} steps in {sum(tally.walls):.3f} s inside the operations: "
          f"{kinds[0]} plain, {kinds[1]} with one choice of move, "
          f"{kinds[2:].sum()} with more")
    print(f"  sha256 of the pass: {digest(tally.outcomes)}")

    values, listed = e2e, spec["end_to_end"]
    if trace:
        layers, same = traced_pass(gs, name, seed, tally)
        correct = correct and same
        values, listed = {**e2e, **layers}, spec["per_layer"]
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        results = {}
        for name in WORKLOADS:
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            *report, last = out.stdout.strip().splitlines()
            print("\n".join(report), flush=True)
            results[name] = json.loads(last)
        print(json.dumps(results))
        return 0
    if args.setup_only:
        make_workload(import_program(), args.workload, args.seed,
                      pass_size(args.workload, args.seconds))
        print(time.perf_counter() - T_START)
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
