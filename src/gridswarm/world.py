"""Arena, robots, targets and sensing.

All state here is plain data, and only this module writes a target.
Visits go through `try_neutralize`, which the mission engine calls in a
single-writer commit phase; `commit` writes the target-side channel,
`Target.visit_sequence` and its `active_at` time, mid-decision; and
`expire`, called once per mission step, drops a stale sequence's tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

SEQUENCE_TIMEOUT = 8.0  # seconds without progress before an ordered visit
# sequence drops its uncommitted tail (robots named from stale views may
# never come; the next allocation recommits from fresh positions)


def reject_non_finite(config) -> None:
    """Raise ValueError naming the first float field of `config` that is NaN or infinite."""
    for f in fields(config):
        if f.type in ("float", float) and not math.isfinite(getattr(config, f.name)):
            raise ValueError(f"{f.name} must be finite, not {getattr(config, f.name)!r}")


@dataclass(frozen=True)
class ArenaConfig:
    """Rectangular search area plus the sensing / swarm-bound geometry."""

    width: float = 90.0
    height: float = 90.0
    swarm_bound_radius: float = 45.0
    global_sensor_range: float = 20.0
    local_sensor_range: float = 10.0
    neutralize_radius: float = 1.0

    def __post_init__(self):
        reject_non_finite(self)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("arena dimensions must be positive")
        if not (self.global_sensor_range > self.local_sensor_range > 0):
            raise ValueError("require global_sensor_range > local_sensor_range > 0")
        if self.swarm_bound_radius <= 0:
            raise ValueError("swarm_bound_radius must be positive")
        # a robot within reach of a target must be within its sensing range
        if not (self.global_sensor_range >= self.neutralize_radius > 0):
            raise ValueError("require global_sensor_range >= neutralize_radius > 0")

    def contains(self, point) -> bool:
        x, y = point
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height


@dataclass
class Robot:
    id: int
    position: tuple
    heading: float = 0.0


@dataclass
class Target:
    """A target that needs `required_visits` in-order robot visits to die.

    Its progress counts its visitors, who lead its visit sequence when it
    needs several visits, and it is live until every visit is made.
    """

    id: int
    position: tuple
    required_visits: int
    sequence_progress: int = 0
    live: bool = True
    visit_sequence: tuple = ()
    visited_by: set = field(default_factory=set)
    active_at: float = field(default=0.0, init=False)  # time of last slot or visit

    def __post_init__(self):
        if self.required_visits < 1:
            raise ValueError(f"target {self.id} needs at least one visit")
        k, n = self.sequence_progress, self.required_visits
        if not (k <= n and len(self.visited_by) == k and self.live == (k < n)
                and (n == 1 or set(self.visit_sequence[:k]) == self.visited_by)):
            raise ValueError(f"target {self.id}: progress {k} of {n} visits, visitors "
                             f"{sorted(self.visited_by)}, visit sequence "
                             f"{self.visit_sequence} and live={self.live} disagree")


@dataclass
class WorldState:
    """Robots and targets, each kept in ascending id order."""

    robots: list
    targets: list
    time: float = 0.0

    def __post_init__(self):
        self.robots = sorted(self.robots, key=lambda r: r.id)
        self.targets = sorted(self.targets, key=lambda t: t.id)


def hale_centroid(robots) -> tuple:
    """Arithmetic mean of robot positions: the virtual-robot anchor point."""
    if not robots:
        raise ValueError("centroid of an empty swarm is undefined")
    # added left to right in a loop, not by the builtin sum, which adds
    # floats with compensation since Python 3.12 and so gives other bits
    # on other versions
    x = y = 0
    for r in robots:
        x += r.position[0]
        y += r.position[1]
    n = len(robots)
    return (x / n, y / n)


def sense(robot: Robot, world: WorldState, arena: ArenaConfig) -> tuple:
    """Deterministic noise-free sensing snapshot for one robot.

    Returns `(targets, neighbors)`: the live targets within r_g and the
    other robots within r_l, each a tuple of `(id, position)` in ascending
    id.  The swarm centroid is the HALE's one broadcast per step, not a
    per-robot reading: see `hale_centroid` and `sim.Mission.step`.
    """
    pos = robot.position
    rg, rl = arena.global_sensor_range, arena.local_sensor_range
    targets = tuple([
        (t.id, t.position)
        for t in world.targets
        if t.live and math.dist(pos, t.position) <= rg
    ])
    neighbors = tuple([
        (r.id, r.position)
        for r in world.robots
        if r.id != robot.id and math.dist(pos, r.position) <= rl
    ])
    return targets, neighbors


def waits_for(robot_id: int, target: Target) -> bool:
    """True if the next visit of `target` is committed to another robot."""
    k, seq = target.sequence_progress, target.visit_sequence
    return k < len(seq) and seq[k] != robot_id


def commit(robot_id: int, target: Target, now: float) -> bool:
    """Take the next open slot of a multi-visit target; True if one was written.

    A robot commits only ITSELF: a peer named from one robot's local view
    may never learn of its slot, or its own allocation may disagree, and
    either deadlocks the target.  So visit order is decision order, and
    robots deciding later in the same step see the commitment.  Nothing is
    written for a single-visit target, a robot already in the sequence, or
    a full sequence.
    """
    seq = target.visit_sequence
    if target.required_visits == 1 or robot_id in seq or len(seq) >= target.required_visits:
        return False
    target.visit_sequence = seq + (robot_id,)
    target.active_at = now
    return True


def try_neutralize(robot_id: int, target: Target, now: float) -> bool:
    """Attempt one neutralization visit; returns True if progress advanced.

    A visit counts unless the target is dead, this robot visited it before,
    or it `waits_for` another robot's slot; an open slot is `commit`ted to
    it on the spot.
    """
    if not target.live or robot_id in target.visited_by or waits_for(robot_id, target):
        return False
    commit(robot_id, target, now)
    target.active_at = now
    target.sequence_progress += 1
    target.visited_by.add(robot_id)
    if target.sequence_progress >= target.required_visits:
        target.live = False
    return True


def expire(targets, now: float) -> None:
    """Drop the uncommitted tail of every live target's visit sequence that
    has gone more than SEQUENCE_TIMEOUT seconds without a slot or a visit."""
    for tgt in targets:
        if (tgt.live and len(tgt.visit_sequence) > tgt.sequence_progress
                and now - tgt.active_at > SEQUENCE_TIMEOUT):
            tgt.visit_sequence = tgt.visit_sequence[:tgt.sequence_progress]
