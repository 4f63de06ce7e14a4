import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridswarm.context_grid import (
    CLAMP_FRACTION,
    ContextGrid,
    bind_snapshot,
    build_grid,
    deform,
    node_coords,
    pick_search_node,
)
from gridswarm.world import ArenaConfig, Detections


ARENA = ArenaConfig(swarm_bound_radius=30.0)


def fresh(centroid=(45.0, 45.0), rows=5, cols=5, d=15.0):
    return build_grid(centroid, rows, cols, d, ARENA)


def test_uniform_coords_center():
    g = fresh()
    assert node_coords(g, g.center) == pytest.approx((45.0, 45.0))
    # one node east of center is one spacing along +x
    assert node_coords(g, (2, 3)) == pytest.approx((60.0, 45.0))
    # one node north of center is one spacing along +y
    assert node_coords(g, (3, 2)) == pytest.approx((45.0, 60.0))


def test_mask_swarm_bound():
    g = fresh()
    # corners sit sqrt(2)*30 from the centroid: outside the bound circle
    assert g.mask[0, 0] and g.mask[4, 4] and g.mask[0, 4] and g.mask[4, 0]
    assert not g.mask[2, 2] and not g.mask[0, 2]


def test_mask_arena_boundary():
    g = build_grid((10.0, 45.0), 5, 5, 15.0, ARENA)
    # western column would fall at x = -20: outside the arena
    assert g.mask[:, 0].all()
    assert not g.mask[2, 2]


def test_centroid_outside_arena_rejected():
    with pytest.raises(ValueError):
        build_grid((-1.0, 45.0), 5, 5, 15.0, ARENA)


def test_deform_lands_on_object():
    g = fresh()
    obj = (48.0, 51.0)  # nearest node is the center one
    deform(g, [("target", 7, obj)])
    node = g.node_of[("target", 7)]
    assert node == (2, 2)
    assert node_coords(g, node) == pytest.approx(obj)
    assert g.clamped == []


def test_deform_only_moves_bound_node():
    g = fresh()
    before = {n: node_coords(g, n) for n in g.iter_nodes()}
    deform(g, [("target", 1, (47.0, 43.0))])
    node = g.node_of[("target", 1)]
    moved = [n for n in g.iter_nodes() if not np.allclose(node_coords(g, n), before[n])]
    assert moved == [node]


def test_deform_two_adjacent_objects_both_exact():
    g = fresh()
    a, b = (47.0, 44.0), (61.0, 47.0)
    deform(g, [("target", 0, a), ("target", 1, b)])
    assert node_coords(g, g.node_of[("target", 0)]) == pytest.approx(a)
    assert node_coords(g, g.node_of[("target", 1)]) == pytest.approx(b)


def test_deform_clamps_large_offset():
    g = fresh()
    # 7.45 m offset from the nearest node > 0.49 * 15 m is clamped
    deform(g, [("target", 3, (45.0 + 7.45, 45.0))])
    assert ("target", 3) in [c for c in g.clamped]
    node = g.node_of[("target", 3)]
    x, _ = node_coords(g, node)
    assert x == pytest.approx(45.0 + CLAMP_FRACTION * 15.0)


def test_deform_priority_order():
    g = fresh()
    p = (45.5, 45.2)  # both objects closest to the center node
    deform(g, [("self", 0, p), ("target", 9, p)])
    assert g.node_of[("self", 0)] == g.center
    assert g.node_of[("target", 9)] != g.center


def test_duplicate_binding_rejected():
    g = fresh()
    deform(g, [("self", 0, (45, 45))])
    with pytest.raises(ValueError):
        deform(g, [("self", 0, (46, 46))])


coords = st.floats(20.0, 70.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=6, unique=True))
def test_deform_exact_within_clamp(points):
    """Any object within the clamp range of its chosen node lands exactly."""
    g = fresh()
    objs = [("target", i, p) for i, p in enumerate(points)]
    deform(g, objs)
    lim = CLAMP_FRACTION * g.base_spacing
    for kind, oid, p in objs:
        node = g.node_of.get((kind, oid))
        if node is None or (kind, oid) in g.clamped:
            continue
        got = node_coords(g, node)
        assert math.isclose(got[0], p[0], abs_tol=1e-9)
        assert math.isclose(got[1], p[1], abs_tol=1e-9)
        ux, uy = g.uniform_coords(node)
        assert abs(p[0] - ux) <= lim + 1e-9 and abs(p[1] - uy) <= lim + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=8, unique=True))
def test_deform_bindings_unique(points):
    g = fresh()
    deform(g, [("robot", i, p) for i, p in enumerate(points)])
    nodes = list(g.bindings.keys())
    assert len(nodes) == len(set(nodes))
    for n in nodes:
        assert not g.mask[n]


def test_bind_snapshot_priority_and_filter():
    det = Detections(
        robot_id=2,
        visible_targets=((4, (50.0, 45.0), None), (6, (40.0, 45.0), None)),
        visible_neighbors=((1, (45.0, 50.0)),),
        hale_centroid=(45.0, 45.0),
    )
    g = fresh()
    bind_snapshot(g, 2, (45.0, 44.0), det, target_filter=lambda tid, pos: tid != 6)
    assert ("self", 2) in g.node_of
    assert ("target", 4) in g.node_of
    assert ("target", 6) not in g.node_of  # filtered out
    assert ("robot", 1) in g.node_of


def test_pick_search_node_ranks_toward_anchor():
    g = fresh()
    deform(g, [("self", 0, (45.0, 45.0)), ("robot", 1, (60.0, 45.0))])
    anchor = (80.0, 70.0)
    free = [n for n in g.iter_nodes() if not g.mask[n] and n not in g.bindings]
    picks = [pick_search_node(g, anchor, rank) for rank in range(4)]
    # distinct ranks claim distinct free nodes, nearest to the anchor first
    assert len(set(picks)) == 4 and all(n in free for n in picks)
    dists = [math.dist(g.uniform_coords(n), anchor) for n in picks]
    assert dists == sorted(dists)
    assert dists[0] == min(math.dist(g.uniform_coords(n), anchor) for n in free)
    assert pick_search_node(g, anchor, len(free)) == picks[0]  # rank wraps
