import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridswarm.context_grid import build_grid, deform
from gridswarm.scenario import (
    ACTION_DELTAS,
    ACTIONS,
    CONFLICT,
    CONFLICT_FREE,
    ScenarioLabel,
    action_mask_bounds,
    action_mask_grid,
    classify,
    encode_conflict_state,
    encode_free_state,
    region_toward,
    sign,
)
from gridswarm.world import ArenaConfig

ARENA = ArenaConfig(swarm_bound_radius=30.0)


def block_nodes(corner, size):
    """Every node of the size x size block whose SW corner is `corner`."""
    r0, c0 = corner
    return [(r, c) for r in range(r0, r0 + size) for c in range(c0, c0 + size)]


def grid_with(objects, centroid=(45.0, 45.0)):
    g = build_grid(centroid, 5, 5, 15.0, ARENA)
    deform(g, objects)
    return g


def test_sign():
    assert sign(3.2) == 1 and sign(-0.1) == -1 and sign(0) == 0


def test_action_geometry():
    assert ACTIONS == ("left", "up", "right", "down", "stay")
    # left decreases the column, up increases the row (north)
    assert ACTION_DELTAS[ACTIONS.index("left")] == (0, -1)
    assert ACTION_DELTAS[ACTIONS.index("up")] == (1, 0)
    assert ACTION_DELTAS[ACTIONS.index("down")] == (-1, 0)
    assert ACTION_DELTAS[ACTIONS.index("stay")] == (0, 0)


def test_region_toward_contains_self():
    for probe in [(0, 0), (4, 4), (2, 3)]:
        assert (2, 2) in block_nodes(region_toward((2, 2), probe, 3, 5, 5), 3)


def test_region_toward_leans_toward_probe():
    assert region_toward((2, 2), (4, 4), 3, 5, 5) == (2, 2)
    assert region_toward((2, 2), (0, 0), 3, 5, 5) == (0, 0)


def _region_toward_by_search(self_node, probe_node, size, rows, cols):
    """Every in-bounds block holding self; the nearest centre wins, ties to the smallest start."""
    (sr, sc), (pr, pc) = self_node, probe_node
    return min(
        (math.hypot(pr - (r0 + (size - 1) / 2.0), pc - (c0 + (size - 1) / 2.0)), r0, c0)
        for r0 in range(max(0, sr - size + 1), min(sr, rows - size) + 1)
        for c0 in range(max(0, sc - size + 1), min(sc, cols - size) + 1)
    )[1:]


def test_region_toward_matches_nearest_centre_search():
    """The per-axis clamp equals the search over all blocks, probes up to 2 nodes off-grid."""
    checked = 0
    for rows, cols, size in itertools.product(range(3, 10), range(3, 10), (2, 3)):
        probes = list(itertools.product(range(-2, rows + 2), range(-2, cols + 2)))
        for self_node in itertools.product(range(rows), range(cols)):
            for probe in probes:
                corner = region_toward(self_node, probe, size, rows, cols)
                assert corner == _region_toward_by_search(
                    self_node, probe, size, rows, cols), (rows, cols, size, self_node, probe)
                checked += 1
    assert checked == 401_408


def test_region_toward_rejects_a_grid_smaller_than_the_block():
    with pytest.raises(ValueError, match="grid too small"):
        region_toward((0, 0), (1, 1), 3, 2, 5)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=4, max_size=4))
def test_math_dist_equals_hypot_of_differences(v):
    """The engine measures with math.dist; it must give hypot's exact bits."""
    a, b = (v[0], v[1]), (v[2], v[3])
    assert math.dist(a, b) == math.hypot(a[0] - b[0], a[1] - b[1])


def test_clockwise_ring_starts_at_self():
    """Self fills the first triple; a peer lands in the triple its clockwise
    step from self names, for every self node of block (1, 1)."""
    clockwise = [(2, 1), (2, 2), (1, 2), (1, 1)]  # NW, NE, SE, SW
    goal = (9, 0)  # north-west of every node: triple (-1, +1)
    for s, self_node in enumerate(clockwise):
        state = encode_conflict_state((1, 1), {}, self_node, own_target=goal,
                                      robot_goals={})
        assert state.tolist() == [-1, 1, 1] + [0] * 9
        for p, peer in enumerate(clockwise):
            if peer == self_node:
                continue
            state = encode_conflict_state((1, 1), {peer: ("robot", 7)}, self_node,
                                          own_target=goal, robot_goals={7: goal})
            k = 3 * ((p - s) % 4)
            want = [0] * 12
            want[:3] = [-1, 1, 1]
            want[k:k + 3] = [-1, 1, 0]
            assert state.tolist() == want, (self_node, peer)


def test_classify_free_when_alone():
    g = grid_with([("self", 0, (45.0, 45.0)), ("target", 1, (52.0, 45.0))])
    label = classify(g, g.node_of[("self", 0)], g.node_of[("target", 1)])
    assert label.label == CONFLICT_FREE
    assert label.masked_nodes == set()


def test_classify_conflict_with_adjacent_robot():
    g = grid_with([
        ("self", 0, (45.0, 45.0)),
        ("target", 1, (60.0, 45.0)),
        ("robot", 2, (52.0, 45.0)),
    ])
    label = classify(g, g.node_of[("self", 0)], g.node_of[("target", 1)])
    assert label.label == CONFLICT
    block = block_nodes(label.conflict_region, 2)
    assert g.node_of[("self", 0)] in block
    assert g.node_of[("robot", 2)] in block


def test_classify_masks_far_robot():
    # robot two nodes away on the far side of the goal region: no conflict,
    # but its node becomes an obstacle
    g = grid_with([
        ("self", 0, (30.0, 45.0)),
        ("target", 1, (45.0, 45.0)),
        ("robot", 2, (60.0, 45.0)),
    ])
    self_node = g.node_of[("self", 0)]
    label = classify(g, self_node, g.node_of[("target", 1)])
    assert label.label == CONFLICT_FREE
    assert g.node_of[("robot", 2)] in label.masked_nodes


def test_classify_masks_other_target_without_robots():
    g = grid_with([
        ("self", 0, (45.0, 45.0)),
        ("target", 1, (60.0, 45.0)),
        ("target", 2, (45.0, 60.0)),
    ])
    label = classify(g, g.node_of[("self", 0)], g.node_of[("target", 1)])
    assert label.label == CONFLICT_FREE
    assert g.node_of[("target", 2)] in label.masked_nodes


# -- classify against a reference: the walk over every node of every region --

def _foreign_robot_nodes(grid, corner, size):
    out = []
    for n in block_nodes(corner, size):
        b = grid.bindings.get(n)
        if b is not None and b[0] == "robot":
            out.append((n, b[1]))
    return out


def reference_classify(grid, self_node, target_node):
    masked = set()
    rows, cols = grid.rows, grid.cols
    reg = region_toward(self_node, target_node, 3, rows, cols)
    candidates = []
    other_targets = []
    for n in block_nodes(reg, 3):
        b = grid.bindings.get(n)
        if b is not None and b[0] == "target" and n != tuple(target_node):
            other_targets.append((b[1], n))
    for _tid, tnode in sorted(other_targets):
        reg_t = region_toward(self_node, tnode, 3, rows, cols)
        robots_near = _foreign_robot_nodes(grid, reg_t, 3)
        if robots_near:
            candidates.extend(robots_near)
        else:
            masked.add(tnode)
    candidates.extend(_foreign_robot_nodes(grid, reg, 3))
    ordered = sorted(set(candidates), key=lambda nr: (math.dist(nr[0], self_node), nr[1]))
    for rnode, _rid in ordered:
        reg2 = region_toward(self_node, rnode, 2, rows, cols)
        if _foreign_robot_nodes(grid, reg2, 2):
            return ScenarioLabel(CONFLICT, masked, reg2)
        masked.add(rnode)
    return ScenarioLabel(CONFLICT_FREE, masked)


@st.composite
def crowded_grids(draw):
    """A deformed grid with self, targets and robots bound, and a goal node."""
    rows, cols = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    d = draw(st.sampled_from([7.5, 10.0, 15.0]))
    centroid = (draw(st.floats(20.0, 70.0)), draw(st.floats(20.0, 70.0)))
    point = st.tuples(st.floats(0.0, 90.0), st.floats(0.0, 90.0))
    objects = [("self", 0, draw(point))]
    objects += [("target", i, p) for i, p in enumerate(draw(st.lists(point, max_size=6)))]
    objects += [("robot", i, p) for i, p in enumerate(draw(st.lists(point, max_size=8)), 1)]
    g = deform(build_grid(centroid, rows, cols, d, ARENA), objects)
    goal = (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)))
    if draw(st.booleans()):  # or the node of a bound target, as missions pass
        targets = sorted(n for n, b in g.bindings.items() if b[0] == "target")
        goal = draw(st.sampled_from(targets)) if targets else goal
    return g, goal


@settings(max_examples=400, deadline=None)
@given(crowded_grids())
def test_classify_matches_region_walk_reference(case):
    g, goal = case
    self_node = g.node_of[("self", 0)]
    got = classify(g, self_node, goal)
    want = reference_classify(g, self_node, goal)
    assert got.label == want.label
    assert got.masked_nodes == want.masked_nodes
    assert got.conflict_region == want.conflict_region


def test_free_state_signs():
    assert encode_free_state((10.0, 10.0), (20.0, 5.0)).tolist() == [1.0, -1.0]
    assert encode_free_state((3.0, 3.0), (3.0, 3.0)).tolist() == [0.0, 0.0]


def test_conflict_state_swap_pair():
    """Two robots on adjacent nodes each wanting the other's node."""
    tl, tr = (1, 0), (1, 1)  # top-left and top-right of the block
    bindings = {tr: ("robot", 2)}
    s1 = encode_conflict_state((0, 0), bindings, tl, own_target=tr,
                               robot_goals={2: tl})
    assert s1.tolist() == [1, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0]
    bindings = {tl: ("robot", 1)}
    s2 = encode_conflict_state((0, 0), bindings, tr, own_target=tl,
                               robot_goals={1: tr})
    assert s2.tolist() == [-1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0]


def test_conflict_state_peer_without_goal():
    s = encode_conflict_state((0, 0), {(0, 1): ("robot", 5)}, (1, 0),
                              own_target=(0, 0), robot_goals={})
    # peer triple contributes nothing without a known goal
    assert s.tolist() == [0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_action_mask_bounds_corner():
    mask = action_mask_bounds((0, 0), 4, 4)
    assert mask.tolist() == [False, True, True, False, True]


def test_action_mask_grid_obstacles():
    g = grid_with([
        ("self", 0, (45.0, 45.0)),
        ("robot", 2, (52.0, 45.0)),
    ])
    self_node = g.node_of[("self", 0)]
    mask = action_mask_grid(self_node, g, robot_obstacles=True)
    assert not mask[ACTIONS.index("right")]  # robot 2 sits east
    assert mask[ACTIONS.index("stay")]
    mask = action_mask_grid(self_node, g, robot_obstacles=False)
    assert mask[ACTIONS.index("right")]


def test_action_mask_grid_masked_nodes():
    g = grid_with([("self", 0, (45.0, 45.0))])
    self_node = g.node_of[("self", 0)]
    north = (self_node[0] + 1, self_node[1])
    mask = action_mask_grid(self_node, g, masked_nodes={north})
    assert not mask[ACTIONS.index("up")]


def test_action_mask_grid_boundary():
    g = grid_with([("self", 0, (45.0, 72.0))])  # bound near the mask edge
    self_node = g.node_of[("self", 0)]
    mask = action_mask_grid(self_node, g)
    assert not mask[ACTIONS.index("up")]  # node beyond the swarm bound
    assert mask[ACTIONS.index("stay")]
