import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridswarm.allocation import (
    Allocation,
    CostMatrix,
    allocate,
    build_cost_matrix,
    mrt_sequence,
)
from gridswarm.world import Detections


def dets(robot_id, self_pos, neighbors, targets):
    return Detections(
        robot_id=robot_id,
        visible_targets=tuple(
            (tid, pos, 1) for tid, pos in sorted(targets)
        ),
        visible_neighbors=tuple(sorted(neighbors)),
        hale_centroid=(0.0, 0.0),
    ), self_pos


def brute_force(entries, capacities):
    """Exhaustive min-cost assignment; returns (best cost, count of robots)."""
    n, m = entries.shape
    slots = []
    for j in range(m):
        slots.extend([j] * capacities[j])
    k = min(n, len(slots))
    best = math.inf
    for rows in itertools.permutations(range(n), k):
        for cols in itertools.permutations(range(len(slots)), k):
            cost = sum(entries[r, slots[c]] for r, c in zip(rows, cols))
            best = min(best, cost)
    return best, k


def alloc_cost(alloc, cost):
    col = {tid: j for j, tid in enumerate(cost.target_ids)}
    row = {rid: i for i, rid in enumerate(cost.robot_ids)}
    return sum(cost.entries[row[r], col[t]] for r, t in alloc.assigned.items())


def test_cost_matrix_ordering():
    det, pos = dets(
        3, (0.0, 0.0),
        neighbors=[(1, (10.0, 0.0))],
        targets=[(7, (0.0, 5.0)), (2, (3.0, 4.0))],
    )
    cm = build_cost_matrix(det, pos)
    assert cm.robot_ids == (1, 3)
    assert cm.target_ids == (2, 7)
    assert cm.entries[1, 0] == pytest.approx(5.0)  # robot 3 to target 2
    assert cm.entries[1, 1] == pytest.approx(5.0)


def test_allocate_simple_cross():
    cm = CostMatrix(np.array([[1.0, 9.0], [9.0, 1.0]]), (0, 1), (10, 11))
    a = allocate(cm, {10: 1, 11: 1})
    assert a.assigned == {0: 10, 1: 11}


def test_allocate_respects_capacity():
    cm = CostMatrix(np.array([[1.0], [2.0], [3.0]]), (0, 1, 2), (5,))
    a = allocate(cm, {5: 2})
    assert a.assigned == {0: 5, 1: 5}  # robot 2 left idle


def test_allocate_deterministic_ties():
    cm = CostMatrix(np.ones((2, 2)), (0, 1), (10, 11))
    a = allocate(cm, {10: 1, 11: 1})
    b = allocate(cm, {10: 1, 11: 1})
    assert a.assigned == b.assigned == {0: 10, 1: 11}


def test_allocate_empty():
    cm = CostMatrix(np.zeros((0, 0)), (), ())
    assert allocate(cm, {}).assigned == {}


def test_mrt_sequence_orders_by_distance_then_id():
    cm = CostMatrix(np.array([[5.0], [2.0], [2.0]]), (0, 1, 2), (9,))
    a = Allocation(assigned={0: 9, 1: 9, 2: 9})
    a = mrt_sequence(a, cm)
    assert a.sequences[9] == (1, 2, 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.lists(st.integers(1, 2), min_size=3, max_size=3),
    st.randoms(use_true_random=False),
)
def test_allocation_matches_brute_force(n_robots, n_targets, caps, rnd):
    entries = np.array(
        [[rnd.uniform(0, 100) for _ in range(n_targets)] for _ in range(n_robots)]
    )
    capacities = {j: caps[j] for j in range(n_targets)}
    cm = CostMatrix(entries, tuple(range(n_robots)), tuple(range(n_targets)))
    a = allocate(cm, capacities)
    best, k = brute_force(entries, [caps[j] for j in range(n_targets)])
    assert len(a.assigned) == k
    assert alloc_cost(a, cm) == pytest.approx(best)
    # capacities respected
    for tid in range(n_targets):
        assert len(a.robots_on(tid)) <= capacities[tid]
