"""Scenario identification and DQN state encodings.

A robot probes sub-blocks of its context grid: a 3x3 region toward its
goal node, further 3x3 regions toward any other target found there, and a
2x2 region toward any robot found.  A foreign robot inside the final 2x2
region makes the situation a conflict; everything else is conflict-free
with the offending objects masked as obstacles.
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


@dataclass(frozen=True)
class Region:
    """A size x size sub-block of the grid, anchored at its SW corner."""

    row0: int
    col0: int
    size: int

    def contains(self, node) -> bool:
        r, c = node
        return self.row0 <= r < self.row0 + self.size and \
            self.col0 <= c < self.col0 + self.size

    def nodes(self):
        for r in range(self.row0, self.row0 + self.size):
            for c in range(self.col0, self.col0 + self.size):
                yield (r, c)

    def clockwise_from(self, start):
        """Perimeter nodes in clockwise order starting at `start` (2x2 only)."""
        if self.size != 2:
            raise ValueError("clockwise traversal defined for 2x2 regions")
        r0, c0 = self.row0, self.col0
        ring = [(r0 + 1, c0), (r0 + 1, c0 + 1), (r0, c0 + 1), (r0, c0)]
        i = ring.index(tuple(start))
        return ring[i:] + ring[:i]


@dataclass
class ScenarioLabel:
    label: str
    masked_nodes: set = field(default_factory=set)
    conflict_region: Region | None = None


def region_toward(self_node, probe_node, size: int, rows: int, cols: int) -> Region:
    """Block of `size`^2 nodes containing self, placed toward the probe.

    Among all in-bounds blocks containing the self node, picks the one
    whose center is closest to the probe node; ties go to the smallest
    (row0, col0).  The squared distance is one term per axis, so each axis
    clamps its probe-centred start to the starts that keep self inside.
    """
    starts = []
    for s, p, n in zip(self_node, probe_node, (rows, cols)):
        lo, hi = max(0, s - size + 1), min(s, n - size)
        if lo > hi:
            raise ValueError("grid too small for the requested region")
        starts.append(min(max(p - size // 2, lo), hi))
    return Region(*starts, size)


def _foreign_robot_nodes(grid, region: Region):
    out = []
    for n in region.nodes():
        b = grid.bindings.get(n)
        if b is not None and b[0] == "robot":
            out.append((n, b[1]))
    return out


def classify(grid, self_node, target_node) -> ScenarioLabel:
    """Run the scenario-identifier over the robot's context grid.

    `target_node` is the robot's goal node (a search node counts).  Returns
    the label plus the set of nodes to treat as obstacles; on conflict the
    2x2 region toward the conflicting robot is attached.
    """
    masked: set = set()
    rows, cols = grid.rows, grid.cols
    reg = region_toward(self_node, target_node, 3, rows, cols)

    candidates = []  # (node, robot_id) to run the conflict-with-robot check on

    other_targets = []
    for n in reg.nodes():
        b = grid.bindings.get(n)
        if b is not None and b[0] == "target" and n != tuple(target_node):
            other_targets.append((b[1], n))
    for _tid, tnode in sorted(other_targets):
        reg_t = region_toward(self_node, tnode, 3, rows, cols)
        robots_near = _foreign_robot_nodes(grid, reg_t)
        if robots_near:
            candidates.extend(robots_near)
        else:
            masked.add(tnode)

    candidates.extend(_foreign_robot_nodes(grid, reg))

    # each robot is bound to one node, so the set holds one entry per id
    ordered = sorted(set(candidates),
                     key=lambda nr: (math.dist(nr[0], self_node), nr[1]))

    for rnode, rid in ordered:
        reg2 = region_toward(self_node, rnode, 2, rows, cols)
        if _foreign_robot_nodes(grid, reg2):
            return ScenarioLabel(CONFLICT, masked, reg2)
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


def encode_conflict_state(region: Region, bindings: dict, self_node,
                          own_target, robot_goals: dict) -> np.ndarray:
    """12-vector over the 2x2 region, clockwise starting at the self node.

    Each node contributes [sign(dx to that robot's goal), sign(dy), flag]
    with flag 1 for self, 0 otherwise; empty nodes (or robots with no known
    goal) contribute zeros.  dx/dy are column/row displacements.
    """
    out = np.zeros(12)
    for i, node in enumerate(region.clockwise_from(self_node)):
        if node == tuple(self_node):
            goal, flag = own_target, 1.0
        else:
            b = bindings.get(node)
            if b is None or b[0] != "robot":
                continue
            goal, flag = robot_goals.get(b[1]), 0.0
        if goal is not None:
            out[3 * i] = sign(goal[1] - node[1])  # column displacement
            out[3 * i + 1] = sign(goal[0] - node[0])  # row displacement
        out[3 * i + 2] = flag
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

    An action is available when the destination node exists, is not masked
    (boundary or obstacle), and, when `robot_obstacles` is set, is not
    bound to another robot.  Stay is always available.
    """
    mask = np.zeros(N_ACTIONS, dtype=bool)
    masked_nodes = set(masked_nodes)
    for a, (dr, dc) in enumerate(ACTION_DELTAS):
        dest = (node[0] + dr, node[1] + dc)
        if a != STAY:
            if not grid.in_range(dest):
                continue
            if grid.mask[dest[0]][dest[1]] or dest in masked_nodes:
                continue
            b = grid.bindings.get(dest)
            if robot_obstacles and b is not None and b[0] == "robot":
                continue
        mask[a] = True
    return mask
