"""Mission engine: the sense -> allocate -> grid -> classify -> act loop.

Each robot re-decides its waypoint whenever it reaches the previous one
(or a leg timeout fires): it senses, solves the shared allocation problem
over its own view, rebuilds and deforms its context grid, runs the
scenario identifier and asks the matching Q-network (greedy) for the next
grid node.  Motion integrates every dt; neutralizations and collisions are
committed once per step in ascending robot id order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from gridswarm import allocation as alloc_mod
from gridswarm import context_grid as cg
from gridswarm import motion, scenario, world as world_mod
from gridswarm.qnet import QNetwork, act_epsilon_greedy
from gridswarm.world import ArenaConfig, Detections, Robot, Target, WorldState

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
        if self.n_robots < 1:
            raise ValueError("need at least one robot")
        if self.max_time <= 0:
            raise ValueError("max_time must be positive")

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
    pi: motion.PIState = motion.PIState()
    visited: set = field(default_factory=set)
    memory: dict = field(default_factory=dict)  # target id -> (position, visits)
    engaged: int | None = None  # MRT the robot sticks with
    label: str = ""
    action: int = scenario.STAY
    assigned: int | None = None
    stalled: int = 0  # consecutive stay decisions while the goal is elsewhere


class Mission:
    def __init__(self, config: MissionConfig, targets, conflict_net: QNetwork,
                 free_net: QNetwork):
        for t in targets:
            if not config.arena.contains(t.position):
                raise ValueError(f"target {t.id} outside the arena")
        x0, y0, w, h = config.spawn_box
        if not (config.arena.contains((x0, y0)) and config.arena.contains((x0 + w, y0 + h))):
            raise ValueError("spawn box outside the arena")
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
        self.world = WorldState(robots=robots, targets=copy.deepcopy(targets))
        self.ctl = {r.id: _RobotCtl(pi=config.pi) for r in robots}
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

    def _decide(self, robot: Robot):
        cfg = self.config
        ctl = self.ctl[robot.id]
        det = world_mod.sense(robot, self.world, self.arena)
        for tid, _pos, _req in det.visible_targets:
            self.first_detect.setdefault(tid, self.world.time)
        # targets never move, so a robot's own past detections remain valid:
        # remember them, and forget one only when close enough to have seen
        # it again (it must have been neutralized meanwhile)
        visible_ids = {tid for tid, _pos, _req in det.visible_targets}
        for tid, pos, req in det.visible_targets:
            ctl.memory[tid] = (pos, req)
        for tid in sorted(ctl.memory):
            pos, _req = ctl.memory[tid]
            if tid not in visible_ids and self._dist(robot.position, pos) \
                    <= 0.8 * self.arena.global_sensor_range:
                del ctl.memory[tid]
        remembered = tuple(
            (tid, pos, req)
            for tid, (pos, req) in sorted(ctl.memory.items())
            if tid not in visible_ids
        )
        if remembered:
            det = Detections(det.robot_id, det.visible_targets + remembered,
                             det.visible_neighbors, det.hale_centroid)
        centroid = (
            min(max(det.hale_centroid[0], 0.0), self.arena.width),
            min(max(det.hale_centroid[1], 0.0), self.arena.height),
        )
        targets_by_id = {t.id: t for t in self.world.targets}
        grid = cg.build_grid(centroid, cfg.grid_rows, cfg.grid_cols,
                             cfg.grid_spacing, self.arena)
        # a live multi-visit target stays bound even after this robot's own
        # visit: the robot cannot serve it again, but keeping it on the grid
        # lets the robot loiter nearby and drag the swarm centroid back into
        # range for the peers who still can
        cg.bind_snapshot(
            grid, robot.id, robot.position, det,
            target_filter=lambda tid, pos: tid not in ctl.visited
            or (targets_by_id[tid].live
                and targets_by_id[tid].required_visits > 1),
        )

        in_bound = {
            tid: math.hypot(pos[0] - centroid[0], pos[1] - centroid[1])
            <= self.arena.swarm_bound_radius
            for tid, pos, _ in det.visible_targets
        }
        allocable = tuple(
            (tid, pos, req)
            for tid, pos, req in det.visible_targets
            if in_bound[tid] and tid not in ctl.visited
        )
        det_alloc = Detections(det.robot_id, allocable, det.visible_neighbors,
                               det.hale_centroid)
        cost = alloc_mod.build_cost_matrix(det_alloc, robot.position)
        caps = {
            tid: max(1, targets_by_id[tid].required_visits
                     - targets_by_id[tid].sequence_progress)
            for tid, _, _ in allocable
        }
        alloc = alloc_mod.mrt_sequence(alloc_mod.allocate(cost, caps), cost)

        assigned = alloc.assigned.get(robot.id)
        if ctl.engaged is not None:
            eng = targets_by_id.get(ctl.engaged)
            if (eng is not None and eng.live and ctl.engaged not in ctl.visited
                    and any(tid == ctl.engaged for tid, _, _ in det.visible_targets)):
                assigned = ctl.engaged
            else:
                ctl.engaged = None
        if assigned is not None and targets_by_id[assigned].kind == "MRT":
            ctl.engaged = assigned
        ctl.assigned = assigned

        # commit the visit sequence the local allocation implies; ordering
        # only matters for multi-visit targets, and a robot may only commit
        # ITSELF — naming a peer from a stale local view pins the slot on a
        # robot whose own allocation may disagree, deadlocking the target
        for tid, seq in alloc.sequences.items():
            tgt = targets_by_id[tid]
            if tgt.required_visits == 1 or robot.id not in seq:
                continue
            if robot.id not in tgt.visit_sequence and \
                    len(tgt.visit_sequence) < tgt.required_visits:
                tgt.visit_sequence += (robot.id,)
                self._seq_stamp[tid] = self.world.time

        self_node = grid.node_of[("self", robot.id)]
        tnode = self._goal_node(robot, grid, assigned, targets_by_id, det, in_bound)

        robot_goals = {}
        for rid, tid in alloc.assigned.items():
            if rid != robot.id:
                robot_goals[rid] = grid.node_of.get(("target", tid))

        label = scenario.classify(grid, self_node, tnode)
        ctl.label = label.label
        if tnode == self_node:
            net, state = None, None
            action = scenario.STAY
        elif label.label == scenario.CONFLICT:
            net = self.conflict_net
            state = scenario.encode_conflict_state(
                label.conflict_region, grid.bindings, self_node, tnode, robot_goals
            )
            avail = scenario.action_mask_grid(self_node, grid, label.masked_nodes)
            action = act_epsilon_greedy(net, state, avail, 0.0, self.rng)
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
        ctl.pi = ctl.pi.reset()

    def _goal_node(self, robot, grid, assigned, targets_by_id, det, in_bound):
        """Grid node the robot is ultimately trying to occupy."""
        if assigned is not None and ("target", assigned) in grid.node_of:
            tnode = grid.node_of[("target", assigned)]
            tgt = targets_by_id[assigned]
            seq = tgt.visit_sequence
            if tgt.required_visits > 1 and seq and \
                    tgt.sequence_progress < len(seq) and \
                    seq[tgt.sequence_progress] != robot.id:
                # not our turn yet: hold on a free node next to the target
                return self._adjacent_hold(grid, tnode)
            return tnode
        # no allocated target: detected-but-out-of-bound targets act as cues
        cues = sorted(
            (self._dist(robot.position, pos), tid)
            for tid, pos, _req in det.visible_targets
            if not in_bound.get(tid, True) and ("target", tid) in grid.node_of
        )
        if cues:
            tid = cues[0][1]
            tnode = grid.node_of[("target", tid)]
            if tid in self.ctl[robot.id].visited:
                return self._adjacent_hold(grid, tnode)
            return tnode
        return cg.pick_search_node(grid, self.sweep_anchors[self.sweep_idx], robot.id)

    @staticmethod
    def _adjacent_hold(grid, tnode):
        self_nodes = None
        best = None
        for dr, dc in scenario.ACTION_DELTAS[:4]:
            n = (tnode[0] + dr, tnode[1] + dc)
            if not grid.in_range(n) or grid.mask[n]:
                continue
            b = grid.bindings.get(n)
            if b is None or b[0] == "self":
                if best is None:
                    best = n
                if b is not None:
                    self_nodes = n  # already holding next to it
        if self_nodes is not None:
            return self_nodes
        return best if best is not None else tnode

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
        for robot in self.world.robots:
            ctl = self.ctl[robot.id]
            if ctl.waypoint is None or self.world.time >= ctl.deadline or \
                    self._dist(robot.position, ctl.waypoint) <= self.arrival:
                self._decide(robot)

        centroid = world_mod.hale_centroid(self.world.robots)
        anchor = self.sweep_anchors[self.sweep_idx]
        # advance on arrival, or when nothing is progressing at all (no
        # centroid approach and no visits): robots engaged beyond the bound
        # can pin the centroid, and only circuit progress frees them
        d = self._dist(centroid, anchor)
        if d < self._sweep_best - 0.5:
            self._sweep_best = d
            self._sweep_since = self.world.time
        if d <= self._sweep_reach or self.world.time - max(
                self._sweep_since, self._last_visit) > ANCHOR_STALL:
            self.sweep_idx = (self.sweep_idx + 1) % len(self.sweep_anchors)
            self._sweep_best = math.inf
            self._sweep_since = self.world.time
        for robot in self.world.robots:
            ctl = self.ctl[robot.id]
            waypoint = ctl.waypoint
            off = self._dist(robot.position, centroid)
            if off > self.arena.swarm_bound_radius:
                waypoint = centroid  # cohesion override: head back in
            dist = self._dist(robot.position, waypoint)
            if dist > self.arrival:
                psi_d = motion.desired_heading(robot.position, waypoint)
                cmd, ctl.pi = motion.pi_heading_command(
                    robot.heading, psi_d, ctl.pi, dt, cfg.kinematics.omega_max
                )
                speed = motion.speed_command(
                    dist, cfg.kinematics, self.arrival,
                    heading_error=psi_d - robot.heading,
                )
                setpoint = motion.corrected_setpoint(robot.heading, psi_d, cmd)
                updated = motion.step_kinematics(
                    robot, setpoint, speed, cfg.kinematics, self.arena,
                )
                robot.position = updated.position
                robot.heading = updated.heading
                robot.speed = updated.speed
            else:
                robot.speed = 0.0

        for robot in self.world.robots:
            ctl = self.ctl[robot.id]
            for tgt in self.world.targets:
                if tgt.live and self._dist(robot.position, tgt.position) \
                        <= self.arena.neutralize_radius:
                    if world_mod.try_neutralize(robot.id, tgt):
                        ctl.visited.add(tgt.id)
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
        robots = self.world.robots
        for i in range(len(robots)):
            for j in range(i + 1, len(robots)):
                d = self._dist(robots[i].position, robots[j].position)
                pair = (robots[i].id, robots[j].id)
                if d <= COLLISION_RADIUS:
                    if pair not in self._colliding_pairs:
                        self._colliding_pairs.add(pair)
                        self.collisions += 1
                elif d > 2.0 * COLLISION_RADIUS:
                    self._colliding_pairs.discard(pair)

    @staticmethod
    def _dist(a, b) -> float:
        return math.hypot(a[0] - b[0], a[1] - b[1])

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
