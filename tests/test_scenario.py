import numpy as np
import pytest

from gridswarm.context_grid import build_grid, deform
from gridswarm.scenario import (
    ACTION_DELTAS,
    ACTIONS,
    CONFLICT,
    CONFLICT_FREE,
    Region,
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


def grid_with(objects, centroid=(45.0, 45.0)):
    g = build_grid(centroid, 5, 5, 15.0, ARENA)
    deform(g, objects)
    return g


def node_pos(g, node):
    return g.uniform_coords(node)


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
        reg = region_toward((2, 2), probe, 3, 5, 5)
        assert reg.contains((2, 2))


def test_region_toward_leans_toward_probe():
    reg = region_toward((2, 2), (4, 4), 3, 5, 5)
    assert (reg.row0, reg.col0) == (2, 2)
    reg = region_toward((2, 2), (0, 0), 3, 5, 5)
    assert (reg.row0, reg.col0) == (0, 0)


def test_clockwise_ring_starts_at_self():
    reg = Region(1, 1, 2)
    assert reg.clockwise_from((2, 1)) == [(2, 1), (2, 2), (1, 2), (1, 1)]
    assert reg.clockwise_from((1, 2)) == [(1, 2), (1, 1), (2, 1), (2, 2)]


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
    assert label.conflict_robot == 2
    assert label.conflict_region.contains(g.node_of[("self", 0)])
    assert label.conflict_region.contains(g.node_of[("robot", 2)])


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


def test_free_state_signs():
    assert encode_free_state((10.0, 10.0), (20.0, 5.0)).tolist() == [1.0, -1.0]
    assert encode_free_state((3.0, 3.0), (3.0, 3.0)).tolist() == [0.0, 0.0]


def test_conflict_state_swap_pair():
    """Two robots on adjacent nodes each wanting the other's node."""
    region = Region(0, 0, 2)
    tl, tr = (1, 0), (1, 1)  # top-left and top-right of the block
    bindings = {tr: ("robot", 2)}
    s1 = encode_conflict_state(region, bindings, tl, own_target=tr,
                               robot_goals={2: tl})
    assert s1.tolist() == [1, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0]
    bindings = {tl: ("robot", 1)}
    s2 = encode_conflict_state(region, bindings, tr, own_target=tl,
                               robot_goals={1: tr})
    assert s2.tolist() == [-1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0]


def test_conflict_state_peer_without_goal():
    region = Region(0, 0, 2)
    s = encode_conflict_state(region, {(0, 1): ("robot", 5)}, (1, 0),
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
