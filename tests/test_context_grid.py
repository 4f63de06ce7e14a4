import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridswarm import cli, context_grid as cg, sim
from gridswarm.context_grid import (
    CLAMP_FRACTION,
    ContextGrid,
    bind_snapshot,
    build_grid,
    deform,
    node_coords,
    pick_search_node,
)
from gridswarm.qnet import load_weights
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


def gap_line(lines, k, n, d):
    """Line k's n - 1 gaps: uniform until a node on it first moves."""
    return lines.get(k, [float(d)] * (n - 1))


def reference_offset(grid, node, dx, dy):
    """Shift one node by (dx, dy) via its adjacent gaps, one block per axis;
    True if exact.  A line gets its own gap list when one of its nodes moves."""
    r, c = node
    d = grid.base_spacing
    lim = CLAMP_FRACTION * d
    exact = True
    if c == 0:
        exact = exact and abs(dx) < 1e-9
    else:
        if abs(dx) > lim:
            dx = math.copysign(lim, dx)
            exact = False
        row = grid.d_x[r] = gap_line(grid.d_x, r, grid.cols, d)
        row[c - 1] += dx
        if c < grid.cols - 1:
            row[c] -= dx
    if r == 0:
        exact = exact and abs(dy) < 1e-9
    else:
        if abs(dy) > lim:
            dy = math.copysign(lim, dy)
            exact = False
        col = grid.d_y[c] = gap_line(grid.d_y, c, grid.rows, d)
        col[r - 1] += dy
        if r < grid.rows - 1:
            col[r] -= dy
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
    assert (g.xs[0], g.ys[0]) == reference_uniform(centroid, rows, cols, d, (0, 0))
    assert g.xs == [reference_uniform(centroid, rows, cols, d, (0, c))[0] for c in range(cols)]
    assert g.ys == [reference_uniform(centroid, rows, cols, d, (r, 0))[1] for r in range(rows)]
    assert g.d_x == {} and g.d_y == {}  # so every line reads `uniform`
    assert g.uniform == (d,) * (max(rows, cols) - 1)


def bits(gaps):
    """Every gap of every line that has its own list, as its exact bits, so
    -0.0 and 0.0 differ."""
    return {k: [g.hex() for g in line] for k, line in gaps.items()}


def assert_deform_matches_reference(centroid, rows, cols, d, arena, objects):
    """deform binds, moves and clamps exactly as the full-sort reference."""
    got = deform(build_grid(centroid, rows, cols, d, arena), objects)
    want = build_grid(centroid, rows, cols, d, arena)
    reference_deform(want, objects, centroid, rows, cols, d)
    assert got.bindings == want.bindings
    assert list(got.free.items()) == list(want.free.items())
    assert got.node_of == want.node_of
    assert got.clamped == want.clamped
    assert bits(got.d_x) == bits(want.d_x)
    assert bits(got.d_y) == bits(want.d_y)


@settings(max_examples=200, deadline=None)
@given(grids_and_objects())
def test_deform_matches_full_sort_reference(case):
    centroid, rows, cols, d, objects = case
    assert_deform_matches_reference(centroid, rows, cols, d, ARENA, objects)


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
        x = x0 + float(np.sum(gap_line(g.d_x, r, cols, d)[:c]))
        y = y0 + float(np.sum(gap_line(g.d_y, c, rows, d)[:r]))
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


# -- the cell-first bind: objects placed by the lattice, and mission traffic --

WIDE = ArenaConfig(width=300.0, height=90.0)  # the bound test's arena: bound 45 m
# 15 m, and the bound test's two spacings, on which nodes sit within rounding
# of the bound and no distance is a round number
SPACINGS = [(15.0, ARENA), (BOUND / 3, WIDE), (math.nextafter(BOUND / 3, math.inf), WIDE)]


@st.composite
def lattice_objects(draw):
    """A grid, and objects on its nodes, edge midpoints and cell centres (2-
    and 4-way ties), on its lines, and past its edges on every side; points
    repeat, so later objects find the nodes of their cell bound."""
    d, arena = draw(st.sampled_from(SPACINGS))
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    centroid = (draw(metres(0.0, arena.width)), draw(metres(0.0, arena.height)))

    def coord(centre, n):
        # near the centroid, or anywhere up to three lines past the edges
        i = draw(st.one_of(st.integers(n // 2 - 1, n // 2 + 1), st.integers(-3, n + 2)))
        line = centre + (i - n // 2) * d  # as build_grid puts it
        step = draw(st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.0, None]))
        if step is None:
            step = draw(st.floats(-1.0, 1.0))
        return line + step * d

    points = [(coord(centroid[0], cols), coord(centroid[1], rows))
              for _ in range(draw(st.integers(1, 8)))]
    picks = draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=10))
    kinds = ("self", "target", "robot")
    objects = [(kinds[i % 3], i, points[p]) for i, p in enumerate(picks)]
    return centroid, rows, cols, d, arena, objects


def stacked(*points, times=4):
    """Objects `times` deep on each point, in turn."""
    kinds = ("self", "target", "robot")
    return [(kinds[i % 3], i, p) for i, p in enumerate(points * times)]


@settings(max_examples=300, deadline=None)
@given(lattice_objects())
# on a node, an edge midpoint and a cell centre, then on lines past each edge
@example(((45.0, 45.0), 5, 5, 15.0, ARENA, stacked((45.0, 45.0), (52.5, 45.0), (52.5, 52.5))))
@example(((45.0, 45.0), 5, 5, 15.0, ARENA, stacked((45.0, 5.0), (45.0, 85.0), (5.0, 45.0),
                                                     (85.0, 45.0), (10.0, 10.0))))
def test_deform_matches_reference_on_the_lattice(case):
    assert_deform_matches_reference(*case)


@pytest.mark.parametrize("pos, node", [
    ((47.0, 44.0), (2, 2)), ((58.0, 44.0), (2, 3)), ((47.0, 58.0), (3, 2)), ((58.0, 58.0), (3, 3)),
])
def test_deform_measures_only_the_cell_when_it_decides(monkeypatch, pos, node):
    """An object nearer a node of its cell than any line past the cell is
    bound after four distances, without a scan of all of `free`."""
    calls = []
    dist = math.dist
    monkeypatch.setattr(math, "dist", lambda p, q: calls.append(q) or dist(p, q))
    g = deform(fresh(), [("target", 0, pos)])
    assert g.node_of[("target", 0)] == node
    assert len(calls) == 4


def test_deform_tie_past_the_cell_goes_to_the_smallest_node():
    """The second object on a node ties four nodes at one spacing; the
    first of them row-major lies outside its cell, on the line past it."""
    g = deform(fresh(), [("self", 0, (45.0, 45.0)), ("target", 1, (45.0, 45.0))])
    assert g.node_of[("target", 1)] == (1, 2)


POLICIES = Path(__file__).resolve().parents[1] / "perfbench" / "policies"
CROWDED = {"robots": 9, "targets": {"kind": "clustered", "mrt_fraction": 0.6}}


@pytest.mark.parametrize("overrides, index", [({}, 0), ({}, 1), (CROWDED, 0)],
                         ids=["default-0", "default-1", "crowded-0"])
def test_mission_grids_match_the_references(monkeypatch, overrides, index):
    """Every grid that a seed-3 mission of perfbench's default or crowded
    workload builds and binds (under the shipped 300 s cap), against the
    per-node and full-sort references."""
    cfg = cli.load_config(None)
    cfg["robots"] = overrides.get("robots", cfg["robots"])
    cfg["targets"].update(overrides.get("targets", {}))
    child = cli.splitmix64(3, index)
    targets = cli.generate_scenario(cli.distribution_from(cfg), ArenaConfig(**cfg["arena"]),
                                    np.random.default_rng(cli.splitmix64(child, 0)))
    mission = sim.Mission(cli.mission_config_from(cfg, cli.splitmix64(child, 1)), targets,
                          load_weights(POLICIES / "conflict.qnet"),
                          load_weights(POLICIES / "free.qnet"))
    calls = []
    build, bind = cg.build_grid, cg.bind_snapshot
    monkeypatch.setattr(cg, "build_grid", lambda *a: calls.append(a) or build(*a))
    monkeypatch.setattr(cg, "bind_snapshot", lambda grid, self_id, self_pos, tgts, nbrs: (
        calls.append([("self", self_id, self_pos), *(("target", i, p) for i, p in tgts),
                      *(("robot", i, p) for i, p in nbrs)])
        or bind(grid, self_id, self_pos, tgts, nbrs)))
    mission.run()
    assert len(calls) > 100
    for (centroid, rows, cols, d, arena), objects in zip(calls[::2], calls[1::2], strict=True):
        assert_free(build_grid(centroid, rows, cols, d, arena), centroid, rows, cols, d, arena)
        assert_deform_matches_reference(centroid, rows, cols, d, arena, objects)
