"""Mission engine: the sense -> allocate -> grid -> classify -> act loop.

Each robot re-decides its waypoint whenever it reaches the previous one
(or a leg timeout fires): it senses, solves the shared allocation problem
over its own view, rebuilds and deforms its context grid, runs the
scenario identifier and asks the matching Q-network (greedy) for the next
grid node.  A step runs all decisions, then each robot in ascending id
moves one dt and commits its neutralizations, then counts collisions;
`Mission.step` says why this equals moving every robot first.

Robots exchange no messages, but decisions read live state, not a frozen
snapshot: a robot allocated to a multi-visit target takes the next open
slot of its visit sequence at once (`world.commit`), and holds next to a
target whose next slot is another's (`world.waits_for`).  That channel is
the target's `visit_sequence` and its `active_at` time, which only `world`
writes: `commit` and `try_neutralize` take slots, and `expire` drops a
sequence's uncommitted tail after SEQUENCE_TIMEOUT seconds without either.
A mission runs on unvisited copies of the targets it is given.

The engine records nothing: a caller reads the robots and their `ctl`
after each `step`, as `cli.record_trajectory` does for `gridswarm run`.
"""

from __future__ import annotations

import itertools
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
    """One seeded mission; it runs on unvisited copies of its targets."""

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
        own = [replace(t) for t in targets]
        self.world = WorldState(robots=robots, targets=own)
        self.targets_by_id = {t.id: t for t in self.world.targets}
        self.ctl = {r.id: _RobotCtl() for r in robots}
        self.first_detect: dict = {}
        self.target_times: dict = {}
        self.collisions = 0
        self._colliding_pairs: set = set()
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
        self._progress_at = 0.0  # time of last approach gain, anchor advance or visit
        # targets only die, so the live list is rebuilt only when one does
        self.live_targets = list(own)
        self._multi_visit = [t for t in own if t.required_visits > 1]

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
        if assigned is not None:
            world_mod.commit(robot.id, targets_by_id[assigned], self.world.time)

        if ctl.engaged is not None:
            eng = targets_by_id[ctl.engaged]
            # in_bound has an entry for every target in view or remembered
            if eng.live and robot.id not in eng.visited_by and ctl.engaged in in_bound:
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
        """One dt of mission time.

        All decisions come first, against positions no robot has moved yet.
        Then one pass takes each robot in ascending id: it moves, then
        neutralizes every live target within reach.  Collisions are counted
        last.  The pass equals moving every robot before any visit: motion
        reads no target state, and a visit writes only target state and the
        visiting robot's own `ctl.waypoint`, which its move has already read.
        """
        world, cfg, arena = self.world, self.config, self.arena
        robots, ctls, dist = world.robots, self.ctl, math.dist
        dt = cfg.kinematics.dt
        now = world.time
        world_mod.expire(self._multi_visit, now)
        # the HALE broadcasts one centroid per step; no robot moves while
        # robots decide, so it also holds for the motion below
        centroid = world_mod.hale_centroid(robots)
        arrival = self.arrival
        for robot in robots:
            ctl = ctls[robot.id]
            if ctl.waypoint is None or now >= ctl.deadline or \
                    dist(robot.position, ctl.waypoint) <= arrival:
                self._decide(robot, centroid)

        anchor = self.sweep_anchors[self.sweep_idx]
        # advance on arrival, or when nothing is progressing at all (no
        # centroid approach and no visits): robots engaged beyond the bound
        # can pin the centroid, and only circuit progress frees them
        d = dist(centroid, anchor)
        if d < self._sweep_best - 0.5:
            self._sweep_best = d
            self._progress_at = now
        if d <= self._sweep_reach or now - self._progress_at > ANCHOR_STALL:
            self.sweep_idx = (self.sweep_idx + 1) % len(self.sweep_anchors)
            self._sweep_best = math.inf
            self._progress_at = now

        kp, ki, kin = cfg.pi.kp, cfg.pi.ki, cfg.kinematics
        bound, reach = arena.swarm_bound_radius, arena.neutralize_radius
        live, died = self.live_targets, False
        for robot in robots:
            ctl = ctls[robot.id]
            position = robot.position
            waypoint = ctl.waypoint
            if dist(position, centroid) > bound:
                waypoint = centroid  # cohesion override: head back in
            gap = dist(position, waypoint)
            if gap > arrival:
                ctl.integral = motion.advance(robot, waypoint, gap, ctl.integral,
                                              kp, ki, kin, arena)
                position = robot.position
            for tgt in live:
                if dist(position, tgt.position) <= reach \
                        and world_mod.try_neutralize(robot.id, tgt, now + dt):
                    self._progress_at = now
                    if not tgt.live:
                        self.target_times[tgt.id] = now + dt
                        died = True
                    ctl.waypoint = None  # force a fresh decision
        if died:
            self.live_targets = [t for t in live if t.live]

        self._count_collisions()
        world.time = now + dt

    def _count_collisions(self):
        pairs, dist = self._colliding_pairs, math.dist
        for ra, rb in itertools.combinations(self.world.robots, 2):
            d = dist(ra.position, rb.position)
            if d <= COLLISION_RADIUS:
                if (ra.id, rb.id) not in pairs:
                    pairs.add((ra.id, rb.id))
                    self.collisions += 1
            elif d > 2.0 * COLLISION_RADIUS and pairs:
                pairs.discard((ra.id, rb.id))

    @property
    def running(self) -> bool:
        """Whether the mission goes on: time is left and a target is live."""
        return self.world.time < self.config.max_time and bool(self.live_targets)

    def run(self) -> MissionResult:
        """Step until the mission ends; deterministic in (config, targets, seed)."""
        while self.running:
            self.step()
        success = not self.live_targets
        total = self.world.time if success else self.config.max_time
        search = max(self.first_detect.values()) if (
            success and self.first_detect) else 0.0
        return MissionResult(
            total_time=total,
            search_time=search,
            target_times=dict(self.target_times),
            collisions=self.collisions,
            success=success,
        )
