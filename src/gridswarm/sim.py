"""Mission engine: the sense -> allocate -> grid -> classify -> act loop.

Each robot re-decides its waypoint whenever it reaches the previous one
(or a leg timeout fires): it senses, solves the shared allocation problem
over its own view, rebuilds and deforms its context grid, runs the
scenario identifier and asks the matching Q-network (greedy) for the next
grid node.  Motion integrates every dt; neutralizations and collisions are
committed once per step in ascending robot id order.

Robots exchange no messages, but decisions read live state, not a frozen
snapshot: a robot allocated to a multi-visit target takes the next open
slot of its visit sequence at once (`world.commit`), and holds next to a
target whose next slot is another's (`world.waits_for`).  That sequence is
a target-side blackboard; `step` drops its uncommitted tail after
SEQUENCE_TIMEOUT seconds without progress.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from gridswarm import allocation as alloc_mod
from gridswarm import context_grid as cg
from gridswarm import motion, scenario, world as world_mod
from gridswarm.qnet import QNetwork, act_epsilon_greedy
from gridswarm.world import ArenaConfig, Robot, Target, WorldState

COLLISION_RADIUS = 0.5  # meters; node-granular proximity counted as collision
STAY_DWELL = 0.5  # seconds to hold position after a deliberate stay
ANCHOR_STALL = 60.0  # seconds of no mission progress before the circuit advances
SEQUENCE_TIMEOUT = 8.0  # seconds without progress before an ordered visit
# sequence drops its uncommitted tail (robots named from stale views may
# never come; the next allocation recommits from fresh positions)


@dataclass
class MissionConfig:
    arena: ArenaConfig = ArenaConfig()
    n_robots: int = 6
    kinematics: motion.KinematicParams = motion.KinematicParams()
    pi: motion.PIState = motion.PIState()
    grid_rows: int = 7
    grid_cols: int = 7
    max_time: float = 300.0
    seed: int = 0
    spawn_box: tuple = (0.0, 0.0, 20.0, 20.0)
    log_trajectory: bool = False

    def __post_init__(self):
        world_mod.reject_non_finite(self)
        if self.n_robots < 1:
            raise ValueError("need at least one robot")
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")
        for name in ("grid_rows", "grid_cols"):
            if getattr(self, name) < 3:  # the scenario probe is a 3x3 block
                raise ValueError(f"{name} must be at least 3")
        box = self.spawn_box
        if len(box) != 4 or not all(isinstance(v, numbers.Real)
                                    and not isinstance(v, bool) for v in box):
            raise ValueError(f"spawn_box must be 4 numbers (x0, y0, w, h), not {box!r}")
        x0, y0, w, h = box
        if w < 0 or h < 0:
            raise ValueError("spawn_box width and height must be non-negative")
        if not (self.arena.contains((x0, y0)) and self.arena.contains((x0 + w, y0 + h))):
            raise ValueError("spawn_box outside the arena")

    @property
    def grid_spacing(self) -> float:
        return 2.0 * self.arena.swarm_bound_radius / (max(self.grid_rows, self.grid_cols) - 1)


@dataclass
class MissionResult:
    total_time: float
    search_time: float
    target_times: dict  # target_id -> neutralization completion time
    collisions: int
    success: bool
    trajectory: list | None = None

    def summary(self) -> dict:
        return {
            "total_time": self.total_time,
            "search_time": self.search_time,
            "target_times": dict(sorted(self.target_times.items())),
            "collisions": self.collisions,
            "success": self.success,
        }


@dataclass
class _RobotCtl:
    """Per-robot controller state between decisions."""

    waypoint: tuple | None = None
    deadline: float = -1.0
    integral: float = 0.0  # PI heading-error integral, reset at each decision
    memory: dict = field(default_factory=dict)  # target id -> position
    engaged: int | None = None  # MRT the robot sticks with
    label: str = ""
    action: int = scenario.STAY
    assigned: int | None = None
    stalled: int = 0  # consecutive stay decisions while the goal is elsewhere


class Mission:
    def __init__(self, config: MissionConfig, targets, conflict_net: QNetwork,
                 free_net: QNetwork):
        seen = set()
        for t in targets:
            if not config.arena.contains(t.position):
                raise ValueError(f"target {t.id} outside the arena")
            if t.id in seen:
                raise ValueError(f"target id {t.id} is used by more than one target")
            seen.add(t.id)
        x0, y0, w, h = config.spawn_box
        self.config = config
        self.arena = config.arena
        self.rng = np.random.default_rng(config.seed)
        self.conflict_net = conflict_net
        self.free_net = free_net
        robots = [
            Robot(
                id=i,
                position=(x0 + w * self.rng.random(), y0 + h * self.rng.random()),
                heading=motion.wrap_angle(self.rng.uniform(-math.pi, math.pi)),
            )
            for i in range(config.n_robots)
        ]
        # the mission's own targets: visited_by is their one mutable field
        own = [replace(t, visited_by=set(t.visited_by)) for t in targets]
        self.world = WorldState(robots=robots, targets=own)
        self.targets_by_id = {t.id: t for t in self.world.targets}
        self.ctl = {r.id: _RobotCtl() for r in robots}
        self.first_detect: dict = {}
        self.target_times: dict = {}
        self.collisions = 0
        self._colliding_pairs: set = set()
        self.trajectory: list = [] if config.log_trajectory else None
        self.arrival = 0.5 * self.arena.neutralize_radius
        # Deterministic coverage circuit: every robot can derive the same
        # anchor sequence from the arena geometry and the shared centroid,
        # so this needs no communication.  Anchors advance once the swarm
        # centroid gets close; search-node ties break toward the anchor.
        mx = min(0.3 * self.arena.swarm_bound_radius, self.arena.width / 4.0)
        my = min(0.3 * self.arena.swarm_bound_radius, self.arena.height / 4.0)
        w, h = self.arena.width, self.arena.height
        self.sweep_anchors = [
            (mx, my), (w - mx, my), (w - mx, h - my), (mx, h - my),
            (w / 2.0, h / 2.0),
        ]
        self.sweep_idx = 0
        self._sweep_reach = 0.4 * self.arena.swarm_bound_radius
        self._sweep_best = math.inf  # closest centroid approach to the anchor
        self._sweep_since = 0.0  # time of last approach improvement
        self._last_visit = 0.0  # time of last successful neutralization
        self._seq_stamp: dict = {}  # target id -> time of last sequence activity

    # -- decision phase -----------------------------------------------------

    def _decide(self, robot: Robot, hale):
        """Re-plan one robot's waypoint; `hale` is the step's swarm centroid."""
        cfg, arena = self.config, self.arena
        ctl = self.ctl[robot.id]
        targets, neighbors = world_mod.sense(robot, self.world, arena)
        # targets never move, so a robot's own past detections remain valid:
        # remember them, and forget one only when close enough to have seen
        # it again (it must have been neutralized meanwhile)
        memory = ctl.memory
        for tid, pos in targets:
            self.first_detect.setdefault(tid, self.world.time)
            memory[tid] = pos
        if len(memory) > len(targets):  # some remembered target is out of view
            visible_ids = {tid for tid, _pos in targets}
            forget = 0.8 * arena.global_sensor_range
            remembered = []
            for tid in sorted(memory):
                if tid not in visible_ids:
                    pos = memory[tid]
                    if math.dist(robot.position, pos) <= forget:
                        del memory[tid]
                    else:
                        remembered.append((tid, pos))
            targets += tuple(remembered)
        centroid = (
            min(max(hale[0], 0.0), arena.width),
            min(max(hale[1], 0.0), arena.height),
        )
        targets_by_id = self.targets_by_id
        grid = cg.build_grid(centroid, cfg.grid_rows, cfg.grid_cols,
                             cfg.grid_spacing, arena)
        bind, allocable, caps, in_bound = [], [], {}, {}
        for entry in targets:
            tid, pos = entry
            tgt = targets_by_id[tid]
            visited = robot.id in tgt.visited_by
            # a live multi-visit target stays bound even after this robot's
            # own visit: the robot cannot serve it again, but keeping it on
            # the grid lets the robot loiter nearby and drag the swarm
            # centroid back into range for the peers who still can
            if not visited or (tgt.live and tgt.required_visits > 1):
                bind.append(entry)
            in_bound[tid] = math.dist(pos, centroid) <= arena.swarm_bound_radius
            if in_bound[tid] and not visited:
                allocable.append(entry)
                caps[tid] = max(1, tgt.required_visits - tgt.sequence_progress)
        cg.bind_snapshot(grid, robot.id, robot.position, bind, neighbors)
        cost = alloc_mod.build_cost_matrix(robot.id, robot.position, allocable, neighbors)
        alloc = alloc_mod.allocate(cost, caps)

        assigned = alloc.assigned.get(robot.id)
        if assigned is not None and world_mod.commit(robot.id, targets_by_id[assigned]):
            self._seq_stamp[assigned] = self.world.time

        if ctl.engaged is not None:
            eng = targets_by_id.get(ctl.engaged)
            # in_bound has an entry for every target in view or remembered
            if (eng is not None and eng.live and robot.id not in eng.visited_by
                    and ctl.engaged in in_bound):
                assigned = ctl.engaged
            else:
                ctl.engaged = None
        if assigned is not None and targets_by_id[assigned].required_visits > 1:
            ctl.engaged = assigned
        ctl.assigned = assigned

        self_node = grid.node_of[("self", robot.id)]
        tnode = self._goal_node(robot, grid, self_node, assigned, targets, in_bound)
        label = scenario.classify(grid, self_node, tnode)
        ctl.label = label.label
        if tnode == self_node:
            net, action = None, scenario.STAY
        else:
            if label.label == scenario.CONFLICT:
                net = self.conflict_net
                robot_goals = {rid: grid.node_of.get(("target", tid))
                               for rid, tid in alloc.assigned.items() if rid != robot.id}
                state = scenario.encode_conflict_state(
                    label.conflict_region, grid.bindings, self_node, tnode, robot_goals
                )
            else:
                net = self.free_net
                state = scenario.encode_free_state(
                    cg.node_coords(grid, self_node), cg.node_coords(grid, tnode)
                )
            avail = scenario.action_mask_grid(self_node, grid, label.masked_nodes)
            action = act_epsilon_greedy(net, state, avail, 0.0, self.rng)

        # symmetric-deadlock breaker: a tight cluster of robots can bind
        # each other's surrounding nodes and all yield (stay) indefinitely;
        # after a few stalled decisions take a seeded random move, ignoring
        # robot-bound nodes (grid nodes are far apart — physical collision
        # happens at a much smaller radius than a shared node)
        if action == scenario.STAY and net is not None:
            ctl.stalled += 1
            if ctl.stalled >= 3:
                avail = scenario.action_mask_grid(self_node, grid,
                                                  label.masked_nodes,
                                                  robot_obstacles=False)
                moves = [a for a in range(scenario.N_ACTIONS)
                         if avail[a] and a != scenario.STAY]
                if moves:
                    action = moves[int(self.rng.integers(len(moves)))]
                ctl.stalled = 0
        else:
            ctl.stalled = 0

        ctl.action = action
        dr, dc = scenario.ACTION_DELTAS[action]
        dest = (self_node[0] + dr, self_node[1] + dc)
        ctl.waypoint = cg.node_coords(grid, dest)
        if action == scenario.STAY:
            ctl.deadline = self.world.time + STAY_DWELL
        else:
            leg = 3.0 * cfg.grid_spacing / cfg.kinematics.v_max
            ctl.deadline = self.world.time + max(leg, 1.0)
        ctl.integral = 0.0

    def _goal_node(self, robot, grid, own, assigned, targets, in_bound):
        """Grid node the robot is ultimately trying to occupy; `own` is its node."""
        if assigned is not None and ("target", assigned) in grid.node_of:
            tnode = grid.node_of[("target", assigned)]
            if world_mod.waits_for(robot.id, self.targets_by_id[assigned]):
                return self._adjacent_hold(grid, tnode, own)
            return tnode
        # no allocated target: detected-but-out-of-bound targets act as cues
        cue = min(
            ((math.dist(robot.position, pos), tid)
             for tid, pos in targets
             if not in_bound[tid] and ("target", tid) in grid.node_of),
            default=None,
        )
        if cue is not None:
            tnode = grid.node_of[("target", cue[1])]
            if robot.id in self.targets_by_id[cue[1]].visited_by:
                return self._adjacent_hold(grid, tnode, own)
            return tnode
        return cg.pick_search_node(grid, self.sweep_anchors[self.sweep_idx], robot.id)

    @staticmethod
    def _adjacent_hold(grid, tnode, own):
        """Own node if next to the target, else the first free neighbour, else the target."""
        around = [(tnode[0] + dr, tnode[1] + dc) for dr, dc in scenario.ACTION_DELTAS[:4]]
        if own in around:
            return own
        return next((n for n in around if n in grid.free), tnode)

    # -- motion / commit phase ----------------------------------------------

    def step(self):
        """One dt of mission time: decisions, motion, neutralization."""
        cfg = self.config
        dt = cfg.kinematics.dt
        for tgt in self.world.targets:
            if (tgt.live and tgt.required_visits > 1
                    and len(tgt.visit_sequence) > tgt.sequence_progress
                    and self.world.time - self._seq_stamp.get(tgt.id, 0.0)
                    > SEQUENCE_TIMEOUT):
                tgt.visit_sequence = tgt.visit_sequence[:tgt.sequence_progress]
                self._seq_stamp.pop(tgt.id, None)
        # the HALE broadcasts one centroid per step; no robot moves while
        # robots decide, so it also holds for the motion below
        centroid = world_mod.hale_centroid(self.world.robots)
        for robot in self.world.robots:
            ctl = self.ctl[robot.id]
            if ctl.waypoint is None or self.world.time >= ctl.deadline or \
                    math.dist(robot.position, ctl.waypoint) <= self.arrival:
                self._decide(robot, centroid)

        anchor = self.sweep_anchors[self.sweep_idx]
        # advance on arrival, or when nothing is progressing at all (no
        # centroid approach and no visits): robots engaged beyond the bound
        # can pin the centroid, and only circuit progress frees them
        d = math.dist(centroid, anchor)
        if d < self._sweep_best - 0.5:
            self._sweep_best = d
            self._sweep_since = self.world.time
        if d <= self._sweep_reach or self.world.time - max(
                self._sweep_since, self._last_visit) > ANCHOR_STALL:
            self.sweep_idx = (self.sweep_idx + 1) % len(self.sweep_anchors)
            self._sweep_best = math.inf
            self._sweep_since = self.world.time
        kp, ki = cfg.pi.kp, cfg.pi.ki
        bound, arrival = self.arena.swarm_bound_radius, self.arrival
        for robot in self.world.robots:
            ctl = self.ctl[robot.id]
            waypoint = ctl.waypoint
            if math.dist(robot.position, centroid) > bound:
                waypoint = centroid  # cohesion override: head back in
            dist = math.dist(robot.position, waypoint)
            if dist > arrival:
                ctl.integral = motion.advance(robot, waypoint, dist, ctl.integral,
                                              kp, ki, cfg.kinematics, self.arena)

        # a target can die within this loop, so `tgt.live` is tested again
        live = [t for t in self.world.targets if t.live]
        for robot in self.world.robots:
            ctl = self.ctl[robot.id]
            for tgt in live:
                if tgt.live and math.dist(robot.position, tgt.position) \
                        <= self.arena.neutralize_radius:
                    if world_mod.try_neutralize(robot.id, tgt):
                        self._seq_stamp[tgt.id] = self.world.time + dt
                        self._last_visit = self.world.time
                        if not tgt.live:
                            self.target_times[tgt.id] = self.world.time + dt
                        ctl.waypoint = None  # force a fresh decision

        self._count_collisions()
        if self.trajectory is not None:
            for robot in self.world.robots:
                ctl = self.ctl[robot.id]
                self.trajectory.append((
                    round(self.world.time, 6), robot.id, robot.position[0],
                    robot.position[1], robot.heading, ctl.label,
                    scenario.ACTIONS[ctl.action], ctl.assigned,
                ))
        self.world.time += dt

    def _count_collisions(self):
        pts = [(r.id, r.position) for r in self.world.robots]
        for i, (a, pa) in enumerate(pts):
            for b, pb in pts[i + 1:]:
                d = math.dist(pa, pb)
                if d <= COLLISION_RADIUS:
                    if (a, b) not in self._colliding_pairs:
                        self._colliding_pairs.add((a, b))
                        self.collisions += 1
                elif d > 2.0 * COLLISION_RADIUS and self._colliding_pairs:
                    self._colliding_pairs.discard((a, b))

    def run(self) -> MissionResult:
        while self.world.time < self.config.max_time and \
                any(t.live for t in self.world.targets):
            self.step()
        success = not any(t.live for t in self.world.targets)
        total = self.world.time if success else self.config.max_time
        search = max(self.first_detect.values()) if (
            success and self.first_detect) else 0.0
        return MissionResult(
            total_time=total,
            search_time=search,
            target_times=dict(self.target_times),
            collisions=self.collisions,
            success=success,
            trajectory=self.trajectory,
        )


def run_mission(config: MissionConfig, targets, conflict_net: QNetwork,
                free_net: QNetwork) -> MissionResult:
    """Run one full mission; deterministic in (config, targets, seed)."""
    return Mission(config, targets, conflict_net, free_net).run()
