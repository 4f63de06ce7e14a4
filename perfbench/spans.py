"""Span tracer and layer probes for the gridswarm benchmark.

A probe replaces one public function of a gridswarm module, for the length
of a traced pass, with a wrapper that records a span around the call: name,
start, end, the enclosing span and the operation (mission or training run)
it belongs to.  Each probe is installed on the name its caller looks up:

- a module attribute where callers go through the module
  (``sim`` calls ``motion.step_kinematics``; ``bind_snapshot`` calls the
  module global ``deform``);
- the importing module's global where a name was imported with
  ``from ... import`` (``act_epsilon_greedy`` lives in both ``sim`` and
  ``qnet``; ``encode_conflict_state`` in both ``scenario`` and ``qnet``);
- the class attribute for methods (``QNetwork.forward_cached``,
  ``Mission.step``).

Nothing under ``src/`` is edited, and every probe is removed when the pass
ends.  Spans are kept in flat arrays in memory and written out once, after
the traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

SETUP_OP = -1  # operation id of spans recorded while setting up


class Tracer:
    """In-memory span store; one span per probed call."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []  # indices of the spans still open
        self.op_id = SETUP_OP
        self.counts = defaultdict(float)  # event counters, by metric stem

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def probe(self, name: str, fn, count=None):
        """Wrap `fn` so each call records a span called `name`."""
        nid = self.name_id(name)
        clock = time.perf_counter
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def self_times(self):
        """(name ids, operation ids, durations, self times, parents) as arrays.

        Spans on one thread nest, so the children of a span cover disjoint
        parts of it: its self time is its duration minus theirs.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return name, op, dur, dur - covered, parent

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )


# -- event counters: run after the probed call, outside its span -----------

def _count_accept(counts, _args, accepted):
    counts["world.try_neutralize.accepted"] += bool(accepted)


def _count_slots(counts, args, _alloc):
    cost, capacities = args
    counts["allocation.allocate.slots"] += sum(
        int(capacities.get(tid, 1)) for tid in cost.target_ids)


def _count_deform(counts, args, grid):
    # the mission deforms each freshly built grid once, so every clamped
    # entry on the returned grid comes from this call
    counts["context_grid.deform.objects"] += len(args[1])
    counts["context_grid.deform.clamped"] += len(grid.clamped)


def _count_conflict(counts, _args, label):
    counts["scenario.classify.conflicts"] += label.label == "conflict"


def probe_sites(gs) -> list:
    """(span name, owner, attribute, counter) for every probed call site.

    `gs` maps module names to the imported gridswarm modules.
    """
    world, alloc, cg, scen = gs["world"], gs["allocation"], gs["context_grid"], gs["scenario"]
    motion, qnet, sim, cli = gs["motion"], gs["qnet"], gs["sim"], gs["cli"]
    sites = [
        ("world.sense", world, "sense", None),
        ("world.hale_centroid", world, "hale_centroid", None),
        ("world.try_neutralize", world, "try_neutralize", _count_accept),
        ("allocation.build_cost_matrix", alloc, "build_cost_matrix", None),
        ("allocation.allocate", alloc, "allocate", _count_slots),
        ("allocation.mrt_sequence", alloc, "mrt_sequence", None),
        ("context_grid.build_grid", cg, "build_grid", None),
        ("context_grid.bind_snapshot", cg, "bind_snapshot", None),
        ("context_grid.deform", cg, "deform", _count_deform),
        ("context_grid.node_coords", cg, "node_coords", None),
        ("context_grid.pick_search_node", cg, "pick_search_node", None),
        ("scenario.classify", scen, "classify", _count_conflict),
        ("scenario.action_mask_grid", scen, "action_mask_grid", None),
        ("qnet.td_loss", qnet, "td_loss", None),
        ("qnet.sync_target", qnet, "sync_target", None),
        ("qnet.train_conflict_selfplay", qnet, "train_conflict_selfplay", None),
        ("qnet.load_weights", qnet, "load_weights", None),
        ("qnet.forward_cached", qnet.QNetwork, "forward_cached", None),
        ("qnet.forward", qnet.QNetwork, "forward", None),
        ("qnet.backward", qnet.QNetwork, "backward", None),
        ("qnet.replay_sample", qnet.ReplayBuffer, "sample", None),
        ("qnet.replay_push", qnet.ReplayBuffer, "push", None),
        ("qnet.game_encode", qnet.ConflictGame, "encode", None),
        ("qnet.game_step", qnet.ConflictGame, "step", None),
        ("sim.step", sim.Mission, "step", None),
        ("sim.mission_init", sim.Mission, "__init__", None),
        ("cli.generate_scenario", cli, "generate_scenario", None),
    ]
    for fn in ("desired_heading", "pi_heading_command", "speed_command",
               "corrected_setpoint", "step_kinematics"):
        sites.append((f"motion.{fn}", motion, fn, None))
    for owner in (scen, qnet):  # qnet imported these by name
        sites.append(("scenario.encode_conflict_state", owner, "encode_conflict_state", None))
        sites.append(("scenario.encode_free_state", owner, "encode_free_state", None))
    for owner in (qnet, sim):  # sim imported it by name
        sites.append(("qnet.act_epsilon_greedy", owner, "act_epsilon_greedy", None))
    return sites


@contextlib.contextmanager
def probes(tracer: Tracer, gs):
    """Install every probe for the duration of the block."""
    installed = []
    try:
        for name, owner, attr, count in probe_sites(gs):
            original = getattr(owner, attr)
            setattr(owner, attr, tracer.probe(name, original, count))
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, pass_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-span calls and self seconds, counter ratios and trace health.

    Calls and self seconds cover set-up and the traced pass; shares cover
    the pass alone, against its wall time.
    """
    name, op, dur, self_t, parent = tracer.self_times()
    n = len(tracer.names)
    in_pass = op != SETUP_OP
    calls = np.bincount(name, minlength=n)
    self_s = np.bincount(name, weights=self_t, minlength=n)
    pass_self_s = np.bincount(name[in_pass], weights=self_t[in_pass], minlength=n)
    out = {}
    for i, span in enumerate(tracer.names):
        out[f"{span}.calls"] = int(calls[i])
        out[f"{span}.self_s"] = float(self_s[i])
        out[f"{span}.self_share"] = float(pass_self_s[i]) / pass_wall_s
    for module in sorted({s.split(".")[0] for s in tracer.names}):
        out[f"{module}.self_share"] = sum(
            out[f"{s}.self_share"] for s in tracer.names if s.split(".")[0] == module)

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    out["world.try_neutralize.accept_share"] = ratio(
        c["world.try_neutralize.accepted"], out["world.try_neutralize.calls"])
    out["allocation.allocate.slots_mean"] = ratio(
        c["allocation.allocate.slots"], out["allocation.allocate.calls"])
    out["context_grid.deform.objects_mean"] = ratio(
        c["context_grid.deform.objects"], out["context_grid.deform.calls"])
    out["context_grid.deform.clamped_share"] = ratio(
        c["context_grid.deform.clamped"], c["context_grid.deform.objects"])
    out["scenario.classify.conflict_share"] = ratio(
        c["scenario.classify.conflicts"], out["scenario.classify.calls"])
    # every decision senses exactly once, and nothing else senses
    out["sim.decisions_per_step"] = ratio(out["world.sense.calls"], out["sim.step.calls"])
    top = (parent < 0) & in_pass
    out["trace.covered_share"] = float(dur[top].sum()) / pass_wall_s
    out["trace.overhead_ratio"] = pass_wall_s / untraced_wall_s
    out["trace.spans"] = len(dur)
    return out
