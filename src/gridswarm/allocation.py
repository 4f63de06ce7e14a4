"""Distance-based task allocation with per-target visit capacities.

Every robot solves the same assignment problem over whatever it can see;
determinism of the solver is what lets robots that share a view agree on
the allocation without exchanging a single message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass
class CostMatrix:
    entries: np.ndarray  # (n_robots, n_targets) Euclidean distances
    robot_ids: tuple
    target_ids: tuple


@dataclass
class Allocation:
    assigned: dict = field(default_factory=dict)  # robot_id -> target_id
    sequences: dict = field(default_factory=dict)  # target_id -> (robot ids)

    def robots_on(self, target_id) -> list:
        return [r for r, t in self.assigned.items() if t == target_id]


def build_cost_matrix(self_id: int, self_position, targets, neighbors) -> CostMatrix:
    """All-pairs distances between robots (self plus `neighbors`) and `targets`.

    `targets` and `neighbors` hold (id, position) entries.  Rows and
    columns are ordered by ascending id so any robot building the matrix
    from the same information gets the identical matrix.
    """
    robots = sorted([(self_id, self_position), *neighbors])
    targets = sorted(targets)
    entries = np.zeros((len(robots), len(targets)))
    for i, (_rid, rpos) in enumerate(robots):
        for j, (_tid, tpos) in enumerate(targets):
            entries[i, j] = math.dist(rpos, tpos)
    return CostMatrix(
        entries=entries,
        robot_ids=tuple(r for r, _ in robots),
        target_ids=tuple(t for t, _ in targets),
    )


def allocate(cost: CostMatrix, capacities: dict) -> Allocation:
    """Min-cost assignment with each target duplicated `capacity` times.

    Solves the rectangular assignment exactly on the raw distances with
    scipy's modified Jonker-Volgenant solver; every robot gets at most one
    target and every target at most its capacity.  Robots stay unassigned
    when there are more robots than visit slots.  Equal-cost optima follow
    scipy's rule, which is fixed for a given matrix, so robots that share a
    view still agree: `[[5, 5], [5, 5], [1, 1]]` over targets 10 and 11
    gives `{1: 11, 2: 10}`.  The two cases most decisions meet skip the
    solver with its answer: no target assigns nothing, and a lone robot
    takes the first cheapest slot, which is a slot of the first cheapest
    target.
    """
    caps = [int(capacities.get(tid, 1)) for tid in cost.target_ids]
    for tid, cap in zip(cost.target_ids, caps):
        if cap < 1:
            raise ValueError(f"capacity for target {tid} must be >= 1")
    alloc = Allocation()
    if not caps:
        return alloc
    if len(cost.robot_ids) == 1:
        row = cost.entries[0].tolist()
        alloc.assigned[cost.robot_ids[0]] = cost.target_ids[row.index(min(row))]
        return alloc
    slots = np.repeat(np.arange(len(caps)), caps)  # slot column -> target column
    rows, chosen = linear_sum_assignment(cost.entries[:, slots])
    for i, j in zip(rows, chosen):
        alloc.assigned[cost.robot_ids[i]] = cost.target_ids[slots[j]]
    return alloc


def mrt_sequence(alloc: Allocation, cost: CostMatrix) -> Allocation:
    """Order each target's assigned robots by distance, ties by robot id."""
    col = {tid: j for j, tid in enumerate(cost.target_ids)}
    row = {rid: i for i, rid in enumerate(cost.robot_ids)}
    for tid in set(alloc.assigned.values()):
        robots = alloc.robots_on(tid)
        robots.sort(key=lambda r: (cost.entries[row[r], col[tid]], r))
        alloc.sequences[tid] = tuple(robots)
    return alloc
