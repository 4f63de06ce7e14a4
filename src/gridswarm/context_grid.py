"""Per-robot deformable context grid.

The grid is centered on the swarm (HALE) centroid.  Its geometry is the
undeformed position of node (0, 0), `origin`, and two gap lists: d_x holds
the (cols-1) column gaps of every row and d_y the (rows-1) row gaps of
every column.  A node lies at the origin plus the gaps before it along its
row and its column, so deforming one node only touches its adjacent gaps
and leaves the rest of the grid in place.

Axis convention used throughout the package: column index grows with +x
(east), row index grows with +y (north).  Row 0 / column 0 are therefore
the south-west edge; their nodes anchor the prefix sums and cannot be
deformed along the anchored axis (bindings there are clamped instead).

Every grid of one configuration (rows, cols, spacing, arena) puts its
nodes at the same offsets from the centroid, so `build_grid` reads the
offsets and each node's swarm-bound verdict from a small layout cached
per configuration; only the arena test and the few nodes that lie within
rounding of the bound are evaluated per grid.  A node is usable when it
lies inside the arena and the swarm bound.  A grid keeps its usable nodes
that no object is bound to in `free`, a row-major map to their undeformed
positions; `deform` moves each node it binds from `free` to `bindings`, so
a usable node is in exactly one of the two and any other node in neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

CLAMP_FRACTION = 0.49  # max gap adjustment, as a fraction of base spacing
# A node whose config-only offset puts it within this relative distance of
# the swarm bound is tested against the bound on every grid: its offset from
# the float centroid can round to either side.  The rounding error of
# `cx + off - cx` and of hypot is a few ulps of the magnitudes involved.
_BOUND_MARGIN = 1e-12


@dataclass
class ContextGrid:
    rows: int
    cols: int
    base_spacing: float
    origin: tuple  # undeformed (x, y) of node (0, 0), where the prefix sums start
    d_x: list  # rows lists of cols-1 column gaps
    d_y: list  # cols lists of rows-1 row gaps
    free: dict  # (row, col) -> undeformed (x, y) of every usable unbound node, row-major
    bindings: dict = field(default_factory=dict)  # (row, col) -> (kind, id), usable nodes only
    node_of: dict = field(default_factory=dict)  # (kind, id) -> (row, col)
    clamped: list = field(default_factory=list)  # objects bound off-position


@lru_cache(maxsize=None, typed=True)
def _layout(rows: int, cols: int, d: float, arena) -> tuple:
    """(col_off, row_off, inside, bound), shared by every grid of one configuration.

    The offsets are from the centroid; inside lists (node, row, col, sure)
    for each node not surely off-bound, row-major, and sure=False marks a
    node within rounding of the bound, tested per grid against `bound`.
    """
    col_off = tuple((c - cols // 2) * d for c in range(cols))
    row_off = tuple((r - rows // 2) * d for r in range(rows))
    bound = arena.swarm_bound_radius + 1e-9
    inside = []
    for r, oy in enumerate(row_off):
        for c, ox in enumerate(col_off):
            off = math.hypot(ox, oy)
            margin = _BOUND_MARGIN * (arena.width + arena.height + abs(ox) + abs(oy))
            if abs(off - bound) <= margin:
                inside.append(((r, c), r, c, False))
            elif off <= bound:
                inside.append(((r, c), r, c, True))
    return col_off, row_off, tuple(inside), bound


def build_grid(centroid, rows: int, cols: int, d: float, arena) -> ContextGrid:
    """Uniform grid around the centroid, every usable node free."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2x2 nodes")
    if not 0.0 < d < math.inf:  # False for NaN as well
        raise ValueError(f"base spacing must be positive and finite, not {d}")
    if not arena.contains(centroid):
        raise ValueError("centroid outside the arena")
    cx, cy = float(centroid[0]), float(centroid[1])
    col_off, row_off, inside, bound = _layout(rows, cols, d, arena)
    xs = [cx + o for o in col_off]
    ys = [cy + o for o in row_off]
    # the centroid is inside the arena, so these test one axis each
    width, height = arena.width, arena.height
    x_in = [0.0 <= x <= width for x in xs]
    y_in = [0.0 <= y <= height for y in ys]
    free = {
        node: (xs[c], ys[r]) for node, r, c, sure in inside
        if x_in[c] and y_in[r] and (sure or math.hypot(xs[c] - cx, ys[r] - cy) <= bound)
    }
    gap = float(d)
    return ContextGrid(
        rows=rows,
        cols=cols,
        base_spacing=d,
        origin=(xs[0], ys[0]),
        d_x=[[gap] * (cols - 1) for _ in range(rows)],
        d_y=[[gap] * (rows - 1) for _ in range(cols)],
        free=free,
    )


def node_coords(grid: ContextGrid, node) -> tuple:
    """Global coordinates of a node, prefix-summed from the gap lists."""
    r, c = node
    if not (0 <= r < grid.rows and 0 <= c < grid.cols):
        raise IndexError(f"node {(r, c)} outside {grid.rows}x{grid.cols} grid")
    # summed left to right in a loop, not by the builtin sum, which adds
    # floats with compensation since Python 3.12 and so gives other bits
    # on other versions
    x = y = 0.0
    for g in grid.d_x[r][:c]:
        x += g
    for g in grid.d_y[c][:r]:
        y += g
    ox, oy = grid.origin
    return (ox + x, oy + y)


def _shift(gaps: list, i: int, n: int, delta: float, lim: float) -> bool:
    """Move node i of an n-node line by delta via its adjacent gaps; True if exact.

    Node 0 anchors the prefix sums and stays put; any other node's delta is
    clamped to lim.
    """
    if i == 0:
        return abs(delta) < 1e-9
    exact = True
    if abs(delta) > lim:
        delta = math.copysign(lim, delta)
        exact = False
    gaps[i - 1] += delta
    if i < n - 1:
        gaps[i] -= delta
    return exact


def deform(grid: ContextGrid, objects) -> ContextGrid:
    """Bind every object to its nearest free node and pull the node onto it.

    `objects` is an ordered iterable of (kind, id, position); order is the
    priority used when two objects want the same node (the caller passes
    self first, then targets and robots in ascending id).  Distance ties go
    to the smallest node.  Objects whose offset exceeds the clamp limit are
    bound without landing exactly and recorded in `grid.clamped`.
    """
    free = grid.free
    dist = math.dist
    lim = CLAMP_FRACTION * grid.base_spacing
    for kind, obj_id, pos in objects:
        if (kind, obj_id) in grid.node_of:
            raise ValueError(f"object {(kind, obj_id)} already bound")
        if not free:
            grid.clamped.append((kind, obj_id))
            continue
        dists = [dist(pos, xy) for xy in free.values()]
        # free is row-major, so the first minimum is the smallest tied node
        node = [*free][dists.index(min(dists))]
        ux, uy = free.pop(node)
        r, c = node
        exact = _shift(grid.d_x[r], c, grid.cols, pos[0] - ux, lim)
        exact = _shift(grid.d_y[c], r, grid.rows, pos[1] - uy, lim) and exact
        grid.bindings[node] = (kind, obj_id)
        grid.node_of[(kind, obj_id)] = node
        if not exact:
            grid.clamped.append((kind, obj_id))
    return grid


def bind_snapshot(grid: ContextGrid, self_id: int, self_position,
                  targets, neighbors) -> ContextGrid:
    """Deform with the standard priority order: self, targets, neighbors.

    `targets` and `neighbors` hold (id, position) entries, each in the
    order they are to be bound.
    """
    objects = [("self", self_id, self_position)]
    objects += [("target", tid, pos) for tid, pos in targets]
    objects += [("robot", rid, pos) for rid, pos in neighbors]
    return deform(grid, objects)


def pick_search_node(grid: ContextGrid, toward, rank: int) -> tuple:
    """Free node to head for while searching.

    Free nodes are ordered by distance to the global point `toward` and the
    node at position `rank` (modulo the free count) is returned: robots
    using their own id as rank march as a group toward the common point
    while claiming distinct nodes.  With no free node the robot's own node
    is returned.
    """
    if not grid.free:
        self_nodes = [n for n, b in grid.bindings.items() if b[0] == "self"]
        if not self_nodes:
            raise ValueError("no free node and no self binding")
        return self_nodes[0]
    ranked = sorted((math.dist(xy, toward), node) for node, xy in grid.free.items())
    return ranked[int(rank) % len(ranked)][1]
