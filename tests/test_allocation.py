import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from gridswarm.allocation import (
    Allocation,
    CostMatrix,
    allocate,
    build_cost_matrix,
    mrt_sequence,
)


def sensed(neighbors, targets):
    """(targets, neighbors) entries as a robot senses them: ascending id."""
    return tuple(sorted(targets)), tuple(sorted(neighbors))


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
    targets, neighbors = sensed(
        neighbors=[(1, (10.0, 0.0))],
        targets=[(7, (0.0, 5.0)), (2, (3.0, 4.0))],
    )
    cm = build_cost_matrix(3, (0.0, 0.0), targets, neighbors)
    assert cm.robot_ids == (1, 3)
    assert cm.target_ids == (2, 7)
    assert cm.entries[1][0] == pytest.approx(5.0)  # robot 3 to target 2
    assert cm.entries[1][1] == pytest.approx(5.0)
    # no target in view: one empty row per robot
    cm = build_cost_matrix(3, (0.0, 0.0), (), neighbors)
    assert cm.entries == [[], []] and cm.target_ids == ()


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


def test_allocate_on_raw_costs():
    # a cost gap of 1e-9 m is a real difference, not a tie
    cm = CostMatrix(np.array([[1e-9, 0.0]]), (0,), (10, 11))
    assert allocate(cm, {}).assigned == {0: 11}
    # exact ties follow the solver's fixed rule
    cm = CostMatrix(np.array([[5.0, 5.0], [5.0, 5.0], [1.0, 1.0]]), (0, 1, 2), (10, 11))
    assert allocate(cm, {}).assigned == {1: 11, 2: 10}


def test_allocate_empty():
    cm = CostMatrix(np.zeros((0, 0)), (), ())
    assert allocate(cm, {}).assigned == {}


def test_mrt_sequence_orders_by_distance_then_id():
    cm = CostMatrix(np.array([[5.0], [2.0], [2.0]]), (0, 1, 2), (9,))
    a = Allocation(assigned={0: 9, 1: 9, 2: 9})
    assert mrt_sequence(a, cm) == {9: (1, 2, 0)}


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


def solver_reference(cost, capacities):
    """The assignment scipy's solver gives on the slot matrix, for every case."""
    caps = [int(capacities.get(tid, 1)) for tid in cost.target_ids]
    slots = np.repeat(np.arange(len(caps)), caps)
    entries = np.array(cost.entries, dtype=float).reshape(len(cost.robot_ids), len(caps))
    rows, chosen = linear_sum_assignment(entries[:, slots])
    return {cost.robot_ids[i]: cost.target_ids[slots[j]] for i, j in zip(rows, chosen)}


def outcome(solve, cost, caps):
    """The (robot, target) pairs in key order, or the ValueError raised."""
    try:
        return list(solve(cost, caps).items())
    except ValueError as e:
        return f"ValueError: {e}"


@st.composite
def tied_costs(draw):
    """Small integer costs, so ties are common, with capacities up to 3.

    Up to 6 robots, so robots often outnumber the visit slots.  Up to two
    cells may be replaced by +inf, NaN or -inf.
    """
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    cells = draw(st.lists(st.integers(0, 3).map(float), min_size=n * m, max_size=n * m))
    if m:
        for k, x in draw(st.lists(st.tuples(st.integers(0, n * m - 1),
                                            st.sampled_from([math.inf, math.nan, -math.inf])),
                                  max_size=2)):
            cells[k] = x
    robot_ids = tuple(sorted(draw(st.sets(st.integers(0, 20), min_size=n, max_size=n))))
    target_ids = tuple(sorted(draw(st.sets(st.integers(0, 20), min_size=m, max_size=m))))
    caps = {tid: draw(st.integers(1, 3)) for tid in target_ids}
    entries = [cells[i * m:(i + 1) * m] for i in range(n)]  # rows, as built
    return CostMatrix(entries, robot_ids, target_ids), caps


@settings(max_examples=400, deadline=None)
@given(tied_costs())
@example((CostMatrix(np.zeros((1, 0)), (4,), ()), {}))  # no target
@example((CostMatrix(np.zeros((3, 0)), (1, 2, 3), ()), {}))
@example((CostMatrix(np.array([[2.0, 1.0, 3.0]]), (4,), (7, 8, 9)), {}))  # lone robot
@example((CostMatrix(np.array([[2.0, 1.0, 1.0]]), (4,), (7, 8, 9)), {8: 3, 9: 2}))  # tied slots
@example((CostMatrix(np.ones((1, 3)), (0,), (7, 8, 9)), {7: 2, 8: 2, 9: 2}))
@example((CostMatrix([[3.0], [1.0], [2.0], [1.0]], (9, 2, 5, 4), (7,)), {7: 2}))  # robots > slots
@example((CostMatrix([[1.0, 2.0], [math.nan, 0.0]], (0, 1), (7, 8)), {}))
@example((CostMatrix([[1.0, 2.0], [-math.inf, 0.0]], (0, 1), (7, 8)), {}))
@example((CostMatrix([[math.inf, 1.0], [math.inf, 0.0]], (0, 1), (7, 8)), {}))  # infeasible
@example((CostMatrix([[math.inf, math.inf, 0.0]], (0,), (7, 8, 9)), {}))
@example((CostMatrix([[math.nan, 1.0]], (0,), (7, 8)), {}))  # lone robot, invalid
@example((CostMatrix([[math.inf, math.inf]], (0,), (7, 8)), {}))  # lone robot, infeasible
def test_allocate_matches_solver_with_ties(case):
    # same pairs, in the same key order, and the same error as scipy's solver
    cost, caps = case
    got = outcome(lambda c, k: allocate(c, k).assigned, cost, caps)
    assert got == outcome(solver_reference, cost, caps)


def test_allocate_short_cuts():
    cm = CostMatrix(np.zeros((2, 0)), (0, 1), ())
    assert allocate(cm, {}).assigned == {}
    cm = CostMatrix(np.array([[4.0, 2.0, 2.0]]), (3,), (10, 11, 12))
    assert allocate(cm, {11: 2, 12: 1}).assigned == {3: 11}
    with pytest.raises(ValueError, match="capacity for target 11"):
        allocate(cm, {11: 0})
