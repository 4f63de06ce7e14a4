"""Distance-based task allocation with per-target visit capacities.

Every robot solves the same assignment problem over whatever it can see;
determinism of the solver is what lets robots that share a view agree on
the allocation without exchanging a single message.

The solver is a pure-Python port of scipy's `linear_sum_assignment`: the
shortest augmenting path algorithm for rectangular problems of Crouse,
"On implementing 2D rectangular assignment algorithms", IEEE Transactions
on Aerospace and Electronic Systems 52(4), 2016.  It keeps scipy's float
operations and tie rules, so it returns scipy's assignment bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter


@dataclass
class CostMatrix:
    entries: list  # one row of Euclidean distances per robot, one column per target
    robot_ids: tuple
    target_ids: tuple


@dataclass
class Allocation:
    assigned: dict = field(default_factory=dict)  # robot_id -> target_id

    def robots_on(self, target_id) -> list:
        return [r for r, t in self.assigned.items() if t == target_id]


def build_cost_matrix(self_id: int, self_position, targets, neighbors) -> CostMatrix:
    """All-pairs distances between robots (self plus `neighbors`) and `targets`.

    `targets` and `neighbors` hold (id, position) entries.  Rows and
    columns are ordered by ascending id so any robot building the matrix
    from the same information gets the identical matrix.
    """
    robot_ids, robot_pos = zip(*sorted([(self_id, self_position), *neighbors]))
    targets = sorted(targets)
    target_ids, target_pos = zip(*targets) if targets else ((), ())
    dist = math.dist
    return CostMatrix(
        entries=[[dist(r, t) for t in target_pos] for r in robot_pos],
        robot_ids=robot_ids,
        target_ids=target_ids,
    )


def allocate(cost: CostMatrix, capacities: dict) -> Allocation:
    """Min-cost assignment with each target duplicated `capacity` times.

    Solves the rectangular assignment exactly on the raw distances with
    `_assign`, a port of scipy's solver; every robot gets at most one target
    and every target at most its capacity.  Robots stay unassigned when
    there are more robots than visit slots.  Equal-cost optima follow
    scipy's rule, which is fixed for a given matrix, so robots that share a
    view still agree: `[[5, 5], [5, 5], [1, 1]]` over targets 10 and 11
    gives `{1: 11, 2: 10}`.  The two cases most decisions meet skip the
    solver with its answer: no target (or robot) assigns nothing, and a
    lone robot takes the first cheapest slot, which is a slot of the first
    cheapest target, after the solver's own checks of its row.
    `cost.entries` is read row by row, so a numpy array works too.
    """
    caps = [int(capacities.get(tid, 1)) for tid in cost.target_ids]
    if caps and min(caps) < 1:
        tid = next(tid for tid, cap in zip(cost.target_ids, caps) if cap < 1)
        raise ValueError(f"capacity for target {tid} must be >= 1")
    alloc = Allocation()
    robot_ids, target_ids, entries = cost.robot_ids, cost.target_ids, cost.entries
    if not caps or not robot_ids:
        return alloc
    # a lone robot is a third of a default mission's allocations, at under
    # half the solver's cost; the shortcut also keeps a single slot off the
    # solver path, where `itemgetter(*slots)` would return a bare float
    if len(robot_ids) == 1:
        row = list(entries[0])
        _check_entries([row])
        best = min(row)
        if best == math.inf:
            raise ValueError(_INFEASIBLE)
        alloc.assigned[robot_ids[0]] = target_ids[row.index(best)]
        return alloc
    slots = [*chain.from_iterable(map(repeat, range(len(caps)), caps))]  # slot -> target column
    if len(slots) < len(robot_ids):
        # more robots than slots: solve the transpose, whose row4col gives
        # each robot its slot (or -1), in ascending robot row
        columns = [*zip(*entries)]
        _, robot_slot = _assign([columns[j] for j in slots])
    else:
        pick = itemgetter(*slots)
        robot_slot, _ = _assign([pick(row) for row in entries])
    for i, j in enumerate(robot_slot):
        if j >= 0:
            alloc.assigned[robot_ids[i]] = target_ids[slots[j]]
    return alloc


_INFEASIBLE = "cost matrix is infeasible"  # scipy's message: no finite assignment


def _check_entries(c) -> None:
    """Raise scipy's ValueError if a row of `c` holds a NaN or -inf entry."""
    # the sum is NaN or -inf if an entry is (or if finite entries overflow)
    if not -math.inf < sum(map(sum, c)):
        for row in c:
            for x in row:
                if x != x or x == -math.inf:
                    raise ValueError("matrix contains invalid numeric entries")


def _assign(c) -> tuple:
    """(col4row, row4col) of a min-cost assignment of every row of `c`.

    `c` is a non-empty sequence of rows, with no more rows than columns;
    row4col holds -1 for a column left unassigned.  This is scipy's solver
    (`rectangular_lsap.cpp`) step by step, so every float and every tie
    comes out the same:
    - each row `cur` adds the shortest augmenting path from it to a free
      column; `remaining` starts in reverse column order and drops the
      column each step reaches by moving the last column into its place;
    - the reduced cost is summed as `min_val + c[i][j] - u[i] - v[j]`, left
      to right; of the columns at the lowest one, a step takes the last free
      one in scan order, or the first if none is free;
    - a NaN or -inf entry, or a matrix with no finite assignment, raises
      scipy's `ValueError`.
    The dual update walks the columns the path reached but the free one
    (`seen`): scipy's SR rows are `cur` and the rows these hold, and the
    free column's own update subtracts zero.
    """
    inf = math.inf
    nr, nc = len(c), len(c[0])
    _check_entries(c)
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    order = range(nc - 1, -1, -1)
    for cur in range(nr):
        min_val = 0.0
        remaining = [*order]
        costs = [inf] * nc  # shortest path cost to each column
        seen = []
        i = cur
        while True:
            ci, ui = c[i], u[i]
            lowest, best = inf, -1
            for j in remaining:
                r = min_val + ci[j] - ui - v[j]
                s = costs[j]
                if r < s:
                    path[j] = i
                    costs[j] = s = r
                if s <= lowest and (s < lowest or row4col[j] < 0):
                    lowest, best = s, j
            if lowest == inf:
                raise ValueError(_INFEASIBLE)
            min_val, j = lowest, best
            i = row4col[j]
            if i < 0:  # a free column: the path ends here
                break
            seen.append(j)
            index = remaining.index(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for k in seen:
            d = min_val - costs[k]
            u[row4col[k]] += d
            v[k] -= d
        while True:  # augment along the path, back from the free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row, row4col


def mrt_sequence(alloc: Allocation, cost: CostMatrix) -> dict:
    """Each target's assigned robots, ordered by distance, ties by robot id."""
    col = {tid: j for j, tid in enumerate(cost.target_ids)}
    row = {rid: i for i, rid in enumerate(cost.robot_ids)}
    sequences = {}
    for tid in set(alloc.assigned.values()):
        robots = alloc.robots_on(tid)
        robots.sort(key=lambda r: (cost.entries[row[r]][col[tid]], r))
        sequences[tid] = tuple(robots)
    return sequences
