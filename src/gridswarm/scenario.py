"""Scenario identification and DQN state encodings.

A robot probes sub-blocks of its context grid: a 3x3 block toward its
goal node, further 3x3 blocks toward any other target found there, and a
2x2 block toward any robot found.  A block is named by its south-west
corner (row0, col0), as the grid names nodes by (row, col), and
`region_toward` places every one.  A foreign robot inside the final 2x2
block makes the situation a conflict, and that block's corner is what the
conflict encoding reads; everything else is conflict-free with the
offending objects masked as obstacles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Action order is fixed; grid deltas are (row, col) with rows growing north.
ACTIONS = ("left", "up", "right", "down", "stay")
ACTION_DELTAS = ((0, -1), (1, 0), (0, 1), (-1, 0), (0, 0))
N_ACTIONS = len(ACTIONS)
STAY = 4

CONFLICT = "conflict"
CONFLICT_FREE = "conflict-free"


def sign(v) -> int:
    """Componentwise sign with sign(0) = 0."""
    return (v > 0) - (v < 0)


@dataclass
class ScenarioLabel:
    label: str
    masked_nodes: set = field(default_factory=set)
    # (row0, col0) of the 2x2 block toward the conflicting robot, on conflict
    conflict_region: tuple | None = None


def region_toward(self_node, probe_node, size: int, rows: int, cols: int) -> tuple:
    """(row0, col0), the SW corner of the `size`^2 block placed toward the probe.

    Among all in-bounds blocks containing the self node, picks the one
    whose center is closest to the probe node; ties go to the smallest
    (row0, col0).  The squared distance from a block's centre to the probe
    is one term per axis, so each axis clamps its probe-centred start to
    the starts that keep self inside.  Written with comparisons: the
    `min`/`max` builtins cost several times as much on this per-decision
    path.
    """
    (sr, sc), (pr, pc) = self_node, probe_node
    rlo, rhi = sr - size + 1, rows - size
    clo, chi = sc - size + 1, cols - size
    rlo, rhi = (rlo if rlo > 0 else 0), (sr if sr < rhi else rhi)
    clo, chi = (clo if clo > 0 else 0), (sc if sc < chi else chi)
    if rlo > rhi or clo > chi:
        raise ValueError("grid too small for the requested region")
    r0, c0 = pr - size // 2, pc - size // 2
    r0 = rlo if r0 < rlo else rhi if r0 > rhi else r0
    c0 = clo if c0 < clo else chi if c0 > chi else c0
    return r0, c0


def classify(grid, self_node, target_node) -> ScenarioLabel:
    """Run the scenario-identifier over the robot's context grid.

    `target_node` is the robot's goal node (a search node counts).  Returns
    the label plus the set of nodes to treat as obstacles; on conflict the
    corner of the 2x2 block toward the conflicting robot is attached.  One
    pass over the bindings collects the robots and the other targets;
    `region_toward` places every block, which is then tested by its bounds.
    """
    rows, cols = grid.rows, grid.cols
    goal = tuple(target_node)
    robots, others = [], []
    for node, (kind, oid) in grid.bindings.items():
        if kind == "robot":
            robots.append((node, oid))
        elif kind == "target" and node != goal:
            others.append(node)

    def robots_in(corner, size):
        """Robots in the size x size block at `corner`."""
        r0, c0 = corner
        return [(n, rid) for n, rid in robots
                if r0 <= n[0] < r0 + size and c0 <= n[1] < c0 + size]

    r0, c0 = region_toward(self_node, target_node, 3, rows, cols)
    masked: set = set()
    # robots to run the conflict-with-robot check on: those in the goal
    # block, and those near any other target in it; a target with no robot
    # near it becomes an obstacle
    candidates = set(robots_in((r0, c0), 3)) if robots else set()
    for tnode in others:
        if r0 <= tnode[0] < r0 + 3 and c0 <= tnode[1] < c0 + 3:
            near = robots and robots_in(region_toward(self_node, tnode, 3, rows, cols), 3)
            if near:
                candidates.update(near)
            else:
                masked.add(tnode)

    # each robot is bound to one node, so ids break every distance tie
    for _dist, _rid, rnode in sorted((math.dist(n, self_node), rid, n)
                                     for n, rid in candidates):
        corner = region_toward(self_node, rnode, 2, rows, cols)
        if robots_in(corner, 2):
            return ScenarioLabel(CONFLICT, masked, corner)
        masked.add(rnode)
    return ScenarioLabel(CONFLICT_FREE, masked)


def encode_free_state(position, target_position) -> np.ndarray:
    """2-vector of displacement signs toward the goal."""
    return np.array(
        [
            sign(target_position[0] - position[0]),
            sign(target_position[1] - position[1]),
        ],
        dtype=float,
    )


def encode_conflict_state(corner, bindings: dict, self_node,
                          own_target, robot_goals: dict) -> np.ndarray:
    """12-vector over the 2x2 block at `corner`, clockwise from the self node.

    Each node contributes [sign(dx to that robot's goal), sign(dy), flag]
    with flag 1 for self, 0 otherwise; empty nodes (or robots with no known
    goal) contribute zeros.  dx/dy are column/row displacements.  Only the
    block's four nodes are looked up in `bindings`.
    """
    r0, c0 = corner
    sr, sc = self_node
    ring = ((r0 + 1, c0), (r0 + 1, c0 + 1), (r0, c0 + 1), (r0, c0))  # NW, NE, SE, SW
    start = ring.index((sr, sc))
    out = np.zeros(12)
    out[2] = 1.0  # self comes first, whatever `bindings` holds at its node
    out[0] = sign(own_target[1] - sc)  # column displacement
    out[1] = sign(own_target[0] - sr)  # row displacement
    for i in 1, 2, 3:
        node = ring[(start + i) % 4]
        b = bindings.get(node)
        goal = robot_goals.get(b[1]) if b is not None and b[0] == "robot" else None
        if goal is not None:
            out[3 * i] = sign(goal[1] - node[1])
            out[3 * i + 1] = sign(goal[0] - node[0])
    return out


def action_mask_bounds(node, rows: int, cols: int) -> np.ndarray:
    """Availability mask from geometry alone (training playfields)."""
    mask = np.zeros(N_ACTIONS, dtype=bool)
    for a, (dr, dc) in enumerate(ACTION_DELTAS):
        r, c = node[0] + dr, node[1] + dc
        if 0 <= r < rows and 0 <= c < cols:
            mask[a] = True
    mask[STAY] = True
    return mask


def action_mask_grid(node, grid, masked_nodes=(), robot_obstacles: bool = True) -> np.ndarray:
    """Availability mask on the context grid.

    An action is available when the destination node is usable (free or
    bound), is not in `masked_nodes`, and, when `robot_obstacles` is set,
    is not bound to another robot.  Stay is always available.
    """
    mask = np.zeros(N_ACTIONS, dtype=bool)
    for a, (dr, dc) in enumerate(ACTION_DELTAS):
        dest = (node[0] + dr, node[1] + dc)
        if a != STAY:
            if dest in masked_nodes:
                continue
            b = grid.bindings.get(dest)
            if b is None:
                if dest not in grid.free:
                    continue
            elif robot_obstacles and b[0] == "robot":
                continue
        mask[a] = True
    return mask
