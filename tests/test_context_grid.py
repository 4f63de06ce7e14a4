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
from gridswarm.scenario import ACTION_DELTAS, STAY, action_mask_grid
from gridswarm.world import ArenaConfig


ARENA = ArenaConfig(swarm_bound_radius=30.0)
CENTER = (2, 2)  # the centre node of `fresh`'s 5x5 grid


def fresh(centroid=(45.0, 45.0), rows=5, cols=5, d=15.0):
    return build_grid(centroid, rows, cols, d, ARENA)


def all_nodes(rows, cols):
    """Every node of a rows x cols grid, row-major."""
    return [(r, c) for r in range(rows) for c in range(cols)]


def test_uniform_coords_center():
    g = fresh()
    assert node_coords(g, CENTER) == pytest.approx((45.0, 45.0))
    # one node east of center is one spacing along +x
    assert node_coords(g, (2, 3)) == pytest.approx((60.0, 45.0))
    # one node north of center is one spacing along +y
    assert node_coords(g, (3, 2)) == pytest.approx((45.0, 60.0))


def test_mask_swarm_bound():
    g = fresh()
    # corners sit sqrt(2)*30 from the centroid: outside the bound circle
    assert all(n not in g.free for n in [(0, 0), (4, 4), (0, 4), (4, 0)])
    assert (2, 2) in g.free and (0, 2) in g.free


def test_mask_arena_boundary():
    g = build_grid((10.0, 45.0), 5, 5, 15.0, ARENA)
    # western column would fall at x = -20: outside the arena
    assert all((r, 0) not in g.free for r in range(5))
    assert (2, 2) in g.free


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_spacing_must_be_positive_and_finite(d):
    with pytest.raises(ValueError, match="base spacing must be positive and finite"):
        build_grid((45.0, 45.0), 7, 7, d, ArenaConfig())


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
    before = {n: node_coords(g, n) for n in all_nodes(5, 5)}
    deform(g, [("target", 1, (47.0, 43.0))])
    node = g.node_of[("target", 1)]
    moved = [n for n in all_nodes(5, 5) if not np.allclose(node_coords(g, n), before[n])]
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
    assert g.node_of[("self", 0)] == CENTER
    assert g.node_of[("target", 9)] != CENTER


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
        ux, uy = reference_uniform((45.0, 45.0), 5, 5, 15.0, node)
        assert abs(p[0] - ux) <= lim + 1e-9 and abs(p[1] - uy) <= lim + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=8, unique=True))
def test_deform_bindings_unique(points):
    g = fresh()
    deform(g, [("robot", i, p) for i, p in enumerate(points)])
    nodes = list(g.bindings.keys())
    assert len(nodes) == len(set(nodes))
    usable = fresh().free
    for node in nodes:
        assert node in usable and node not in g.free


def test_bind_snapshot_priority():
    targets = ((4, (50.0, 45.0)), (6, (45.5, 44.0)))
    neighbors = ((1, (45.0, 50.0)),)
    g = fresh()
    bind_snapshot(g, 2, (45.0, 44.0), targets, neighbors)
    assert g.node_of[("self", 2)] == CENTER  # self first: it takes the centre
    assert g.node_of[("target", 4)] == (2, 3)
    assert g.node_of[("target", 6)] != CENTER  # nearest node already taken
    assert g.node_of[("robot", 1)] == (3, 2)


def test_pick_search_node_ranks_toward_anchor():
    g = fresh()
    deform(g, [("self", 0, (45.0, 45.0)), ("robot", 1, (60.0, 45.0))])
    anchor = (80.0, 70.0)
    free = list(g.free)
    picks = [pick_search_node(g, anchor, rank) for rank in range(4)]
    # distinct ranks claim distinct free nodes, nearest to the anchor first
    assert len(set(picks)) == 4 and all(n in free for n in picks)

    def dist(n):
        return math.dist(reference_uniform((45.0, 45.0), 5, 5, 15.0, n), anchor)

    dists = [dist(n) for n in picks]
    assert dists == sorted(dists)
    assert dists[0] == min(dist(n) for n in free)
    assert pick_search_node(g, anchor, len(free)) == picks[0]  # rank wraps


# -- the grid code against a reference: the per-node loop and full sort ------

def reference_uniform(centroid, rows, cols, d, node):
    """Undeformed position of a node of build_grid(centroid, rows, cols, d)."""
    r, c = node
    return (float(centroid[0]) + (c - cols // 2) * d,
            float(centroid[1]) + (r - rows // 2) * d)


def reference_mask(centroid, rows, cols, d, arena):
    mask = np.zeros((rows, cols), dtype=bool)
    for node in all_nodes(rows, cols):
        p = reference_uniform(centroid, rows, cols, d, node)
        off = math.hypot(p[0] - centroid[0], p[1] - centroid[1])
        if not arena.contains(p) or off > arena.swarm_bound_radius + 1e-9:
            mask[node] = True
    return mask


def assert_free(g, centroid, rows, cols, d, arena):
    """A fresh grid's free map holds every usable node, row-major."""
    mask = reference_mask(centroid, rows, cols, d, arena)
    assert list(g.free.items()) == [
        (n, reference_uniform(centroid, rows, cols, d, n))
        for n in all_nodes(rows, cols) if not mask[n]]


def reference_offset(grid, node, dx, dy):
    """Shift one node by (dx, dy) via its adjacent gaps, one block per axis;
    True if exact."""
    r, c = node
    lim = CLAMP_FRACTION * grid.base_spacing
    exact = True
    if c == 0:
        exact = exact and abs(dx) < 1e-9
        dx = 0.0
    else:
        if abs(dx) > lim:
            dx = math.copysign(lim, dx)
            exact = False
        grid.d_x[r][c - 1] += dx
    if 0 < c < grid.cols - 1:
        grid.d_x[r][c] -= dx
    if r == 0:
        exact = exact and abs(dy) < 1e-9
        dy = 0.0
    else:
        if abs(dy) > lim:
            dy = math.copysign(lim, dy)
            exact = False
        grid.d_y[c][r - 1] += dy
    if 0 < r < grid.rows - 1:
        grid.d_y[c][r] -= dy
    return exact


def reference_deform(g, objects, centroid, rows, cols, d):
    """Each object takes the first node of a full sort of the free nodes."""
    def uniform(n):
        return reference_uniform(centroid, rows, cols, d, n)

    for kind, obj_id, pos in objects:
        candidates = sorted(
            (n for n in all_nodes(rows, cols) if n in g.free),
            key=lambda n: (math.hypot(pos[0] - uniform(n)[0],
                                      pos[1] - uniform(n)[1]), n),
        )
        if not candidates:
            g.clamped.append((kind, obj_id))
            continue
        node = candidates[0]
        ux, uy = uniform(node)
        exact = reference_offset(g, node, pos[0] - ux, pos[1] - uy)
        del g.free[node]
        g.bindings[node] = (kind, obj_id)
        g.node_of[(kind, obj_id)] = node
        if not exact:
            g.clamped.append((kind, obj_id))


def metres(lo, hi):
    """Whole metres too, so nodes land exactly on the bound and ties occur."""
    return st.one_of(st.integers(int(lo), int(hi)).map(float), st.floats(lo, hi))


# anywhere in or near the 90 m arena, so some objects lie outside the bound
anywhere = st.tuples(metres(-20.0, 110.0), metres(-20.0, 110.0))


@st.composite
def grids_and_objects(draw, max_side=10):
    centroid = (draw(metres(0.0, 90.0)), draw(metres(0.0, 90.0)))
    rows, cols = draw(st.integers(2, max_side)), draw(st.integers(2, max_side))
    d = draw(st.one_of(st.sampled_from([7.5, 10.0, 15.0]), st.floats(1.0, 30.0)))
    points = draw(st.lists(anywhere, min_size=1, max_size=6))
    # indices into `points` may repeat: objects stacked on one point
    picks = draw(st.lists(st.integers(0, len(points) - 1), max_size=12))
    kinds = ("self", "target", "robot")
    objects = [(kinds[i % 3], i, points[p]) for i, p in enumerate(picks)]
    return centroid, rows, cols, d, objects


@settings(max_examples=200, deadline=None)
@given(grids_and_objects())
def test_build_grid_matches_reference(case):
    centroid, rows, cols, d, _ = case
    g = build_grid(centroid, rows, cols, d, ARENA)
    assert_free(g, centroid, rows, cols, d, ARENA)
    assert g.origin == reference_uniform(centroid, rows, cols, d, (0, 0))
    assert g.d_x == [[d] * (cols - 1)] * rows
    assert g.d_y == [[d] * (rows - 1)] * cols


def bits(gaps):
    """Every gap as its exact bits, so -0.0 and 0.0 differ."""
    return [[g.hex() for g in row] for row in gaps]


@settings(max_examples=200, deadline=None)
@given(grids_and_objects())
def test_deform_matches_full_sort_reference(case):
    centroid, rows, cols, d, objects = case
    got = deform(build_grid(centroid, rows, cols, d, ARENA), objects)
    want = build_grid(centroid, rows, cols, d, ARENA)
    reference_deform(want, objects, centroid, rows, cols, d)
    assert got.bindings == want.bindings
    assert list(got.free.items()) == list(want.free.items())
    assert got.node_of == want.node_of
    assert got.clamped == want.clamped
    assert bits(got.d_x) == bits(want.d_x)
    assert bits(got.d_y) == bits(want.d_y)


@settings(max_examples=200, deadline=None)
@given(grids_and_objects(), st.data())
def test_free_and_bound_nodes_partition_the_usable_ones(case, data):
    centroid, rows, cols, d, objects = case
    g = deform(build_grid(centroid, rows, cols, d, ARENA), objects)
    mask = reference_mask(centroid, rows, cols, d, ARENA)
    usable = {n for n in all_nodes(rows, cols) if not mask[n]}
    assert not g.free.keys() & g.bindings.keys()
    assert g.free.keys() | g.bindings.keys() == usable
    assert list(g.free) == sorted(g.free)  # row-major
    # one grid step past the edge, so some destinations lie off the grid
    nodes = st.tuples(st.integers(-1, rows), st.integers(-1, cols))
    masked_nodes = data.draw(st.sets(nodes, max_size=4))
    for node in all_nodes(rows, cols):
        for robot_obstacles in (True, False):
            want = []
            for a, (dr, dc) in enumerate(ACTION_DELTAS):
                dest = (node[0] + dr, node[1] + dc)
                kind = g.bindings.get(dest, (None,))[0]
                want.append(a == STAY or (
                    dest in usable and dest not in masked_nodes
                    and not (robot_obstacles and kind == "robot")))
            got = action_mask_grid(node, g, masked_nodes, robot_obstacles)
            assert got.tolist() == want


@settings(max_examples=200, deadline=None)
@given(grids_and_objects(max_side=8))
def test_node_coords_matches_np_sum(case):
    """Bit-identical to np.sum while a row or column has under eight gaps."""
    centroid, rows, cols, d, objects = case
    g = deform(build_grid(centroid, rows, cols, d, ARENA), objects)
    x0, y0 = reference_uniform(centroid, rows, cols, d, (0, 0))
    for r, c in all_nodes(rows, cols):
        x = x0 + float(np.sum(g.d_x[r][:c]))
        y = y0 + float(np.sum(g.d_y[c][:r]))
        assert node_coords(g, (r, c)) == (x, y)


# -- the cached layout: one entry per (rows, cols, spacing, arena) -----------

def test_build_grid_layout_follows_arena_and_spacing():
    """Alternating configurations in one process: no grid reads a stale layout."""
    wide = ArenaConfig(width=60.0, height=120.0, swarm_bound_radius=45.0)
    centroid = (30.0, 45.0)
    for arena, d in [(ARENA, 15.0), (wide, 15.0), (ARENA, 10.0), (wide, 10.0)] * 2:
        g = build_grid(centroid, 7, 7, d, arena)
        assert_free(g, centroid, 7, 7, d, arena)
    # the two arenas mask different nodes, so a layout keyed without the
    # arena (or the spacing) could not pass the loop above
    assert not np.array_equal(reference_mask(centroid, 7, 7, 15.0, ARENA),
                              reference_mask(centroid, 7, 7, 15.0, wide))


BOUND = 45.0 + 1e-9  # the default swarm bound and the margin build_grid adds


@pytest.mark.parametrize("d, x0", [
    (BOUND / 3, 70.0),  # the axis nodes' offset equals the bound
    (math.nextafter(BOUND / 3, math.inf), 140.0),  # one ulp past it
])
def test_build_grid_tests_nodes_on_the_bound_per_grid(d, x0):
    """A node whose offset rounds to either side of the bound is tested on each grid."""
    arena = ArenaConfig(width=300.0, height=90.0)  # bound 45 m
    verdicts = set()
    for i in range(200):
        centroid = (x0 + i * 0.0137, 45.0)
        g = build_grid(centroid, 7, 7, d, arena)
        assert_free(g, centroid, 7, 7, d, arena)
        verdicts.add((3, 6) in g.free)  # the east axis node
    assert verdicts == {True, False}
