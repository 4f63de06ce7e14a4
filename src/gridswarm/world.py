"""Arena, robots, targets and sensing.

All state here is plain data; mutation happens only through the small
helpers at the bottom (`try_neutralize`), which the mission engine calls
in a single-writer commit phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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
        if self.width <= 0 or self.height <= 0:
            raise ValueError("arena dimensions must be positive")
        if not (self.global_sensor_range > self.local_sensor_range > 0):
            raise ValueError("require global_sensor_range > local_sensor_range > 0")
        if self.swarm_bound_radius <= 0:
            raise ValueError("swarm_bound_radius must be positive")
        if self.neutralize_radius <= 0:
            raise ValueError("neutralize_radius must be positive")

    def contains(self, point) -> bool:
        x, y = point
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height


@dataclass
class Robot:
    id: int
    position: tuple
    heading: float = 0.0
    speed: float = 0.0


@dataclass
class Target:
    """A target that needs `required_visits` in-order robot visits to die."""

    id: int
    position: tuple
    required_visits: int
    sequence_progress: int = 0
    live: bool = True
    visit_sequence: tuple = ()
    visited_by: set = field(default_factory=set)

    def __post_init__(self):
        if self.required_visits < 1:
            raise ValueError("a target needs at least one visit")

    @property
    def kind(self) -> str:
        return "SRT" if self.required_visits == 1 else "MRT"


@dataclass
class WorldState:
    robots: list
    targets: list
    time: float = 0.0


@dataclass(frozen=True)
class Detections:
    """What a single robot can see: targets in r_g, neighbors in r_l, HALE."""

    robot_id: int
    visible_targets: tuple  # (target_id, position, required_visits), sorted by id
    visible_neighbors: tuple  # (robot_id, position), sorted by id
    hale_centroid: tuple


def _dist(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def hale_centroid(robots) -> tuple:
    """Arithmetic mean of robot positions: the virtual-robot anchor point."""
    if not robots:
        raise ValueError("centroid of an empty swarm is undefined")
    n = len(robots)
    return (
        sum(r.position[0] for r in robots) / n,
        sum(r.position[1] for r in robots) / n,
    )


def sense(robot: Robot, world: WorldState, arena: ArenaConfig) -> Detections:
    """Deterministic noise-free sensing snapshot for one robot."""
    targets = tuple(
        (t.id, t.position, t.required_visits)
        for t in sorted(world.targets, key=lambda t: t.id)
        if t.live and _dist(robot.position, t.position) <= arena.global_sensor_range
    )
    neighbors = tuple(
        (r.id, r.position)
        for r in sorted(world.robots, key=lambda r: r.id)
        if r.id != robot.id
        and _dist(robot.position, r.position) <= arena.local_sensor_range
    )
    return Detections(
        robot_id=robot.id,
        visible_targets=targets,
        visible_neighbors=neighbors,
        hale_centroid=hale_centroid(world.robots),
    )


def try_neutralize(robot_id: int, target: Target) -> bool:
    """Attempt one neutralization visit; returns True if progress advanced.

    A single-visit target accepts whichever robot reaches it first.  For a
    multi-visit target the ordered visit sequence binds committed slots: if
    an entry exists for the next slot, only that robot's visit counts.  With
    no commitment for the next slot, any robot that has not hit this target
    before may take it (the slot is committed to it on the spot) — allocated
    sequences name robots from one robot's local view, and a named robot
    that never learns of the commitment must not block the visit forever.
    """
    if not target.live:
        return False
    if robot_id in target.visited_by:
        return False
    if target.required_visits > 1:
        if target.sequence_progress < len(target.visit_sequence):
            if target.visit_sequence[target.sequence_progress] != robot_id:
                return False
        else:
            target.visit_sequence += (robot_id,)
    target.sequence_progress += 1
    target.visited_by.add(robot_id)
    if target.sequence_progress >= target.required_visits:
        target.live = False
    return True
