"""Per-robot deformable context grid.

The grid is centered on the swarm (HALE) centroid.  Undeformed, it is its
lattice lines: `xs`, the x of each column, and `ys`, the y of each row.  Its
deformation is kept as gaps: d_x maps a row to its (cols-1) column gaps and
d_y a column to its (rows-1) row gaps, each a copy of the undeformed
`uniform` made when a node on the line first moves.  A node lies at
(xs[0], ys[0]) plus the gaps before it along its row and its column, so
deforming one node only touches its adjacent gaps.

Axis convention used throughout the package: column index grows with +x
(east), row index grows with +y (north).  Row 0 / column 0 are therefore
the south-west edge; their nodes anchor the prefix sums and cannot be
deformed along the anchored axis (bindings there are clamped instead).

A node is usable when it lies inside the arena and the swarm bound.  Every
grid of one configuration (rows, cols, spacing, the arena's size and swarm
bound) puts its nodes at the same offsets from the centroid, and its columns
and rows inside the arena are one run each, so `build_grid` reads its run's
usable nodes from a layout cached per configuration and tests only those
within rounding of the bound.  A grid keeps its usable nodes that no object is bound to in
`free`, a row-major map to their undeformed positions; `deform` moves each
node it binds from `free` to `bindings`, trying the lattice cell around the
object before a scan of all of `free`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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
    xs: list  # undeformed x of each column, ascending; node (0, 0) is at (xs[0], ys[0])
    ys: list  # undeformed y of each row, ascending
    uniform: tuple  # the gaps of an undeformed line, read-only, long enough for either axis
    free: dict  # (row, col) -> undeformed (x, y) of every usable unbound node, row-major
    d_x: dict = field(default_factory=dict)  # row -> its cols-1 column gaps, once a node moves
    d_y: dict = field(default_factory=dict)  # col -> its rows-1 row gaps, once a node moves
    bindings: dict = field(default_factory=dict)  # (row, col) -> (kind, id), usable nodes only
    node_of: dict = field(default_factory=dict)  # (kind, id) -> (row, col)
    clamped: list = field(default_factory=list)  # objects bound off-position


@lru_cache(maxsize=None, typed=True)
def _layout(rows: int, cols: int, d: float, width: float, height: float, radius: float) -> tuple:
    """(col_off, row_off, uniform, bound, inside, runs) of every grid of one configuration.

    The offsets are from the centroid; inside lists ((node, row, col), sure)
    for each node not surely off-bound, row-major, and sure=False marks a
    node within rounding of the bound, tested per grid against `bound`;
    runs maps each run (c0, c1, r0, r1) of in-arena columns and rows met
    so far to its inside and its unsure (node, row, col), the same tuples.
    """
    col_off = tuple((c - cols // 2) * d for c in range(cols))
    row_off = tuple((r - rows // 2) * d for r in range(rows))
    uniform = (float(d),) * (max(rows, cols) - 1)
    bound = radius + 1e-9
    inside = []
    for r, oy in enumerate(row_off):
        for c, ox in enumerate(col_off):
            off = math.hypot(ox, oy)
            margin = _BOUND_MARGIN * (width + height + abs(ox) + abs(oy))
            if abs(off - bound) <= margin:
                inside.append((((r, c), r, c), False))
            elif off <= bound:
                inside.append((((r, c), r, c), True))
    return col_off, row_off, uniform, bound, tuple(inside), {}


def build_grid(centroid, rows: int, cols: int, d: float, arena) -> ContextGrid:
    """Uniform grid around the centroid, every usable node free."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2x2 nodes")
    if not 0.0 < d < math.inf:  # False for NaN as well
        raise ValueError(f"base spacing must be positive and finite, not {d}")
    if not arena.contains(centroid):
        raise ValueError("centroid outside the arena")
    cx, cy = float(centroid[0]), float(centroid[1])
    width, height, radius = arena.width, arena.height, arena.swarm_bound_radius
    col_off, row_off, uniform, bound, inside, runs = _layout(rows, cols, d, width, height, radius)
    xs, ys = [cx + o for o in col_off], [cy + o for o in row_off]
    # xs and ys ascend, so the columns with 0 <= x <= width form one run,
    # and so do the rows with 0 <= y <= height
    key = (bisect_left(xs, 0.0), bisect_right(xs, width),
           bisect_left(ys, 0.0), bisect_right(ys, height))
    run = runs.get(key)
    if run is None:
        c0, c1, r0, r1 = key
        nodes = [(e, sure) for e, sure in inside if c0 <= e[2] < c1 and r0 <= e[1] < r1]
        run = runs[key] = ([e for e, _ in nodes], [e for e, sure in nodes if not sure])
    free = {node: (xs[c], ys[r]) for node, r, c in run[0]}
    for node, r, c in run[1]:
        if not math.hypot(xs[c] - cx, ys[r] - cy) <= bound:
            del free[node]
    return ContextGrid(rows=rows, cols=cols, base_spacing=d, xs=xs, ys=ys,
                       uniform=uniform, free=free)


def node_coords(grid: ContextGrid, node) -> tuple:
    """Global coordinates of a node, prefix-summed from the gap lines."""
    r, c = node
    if not (0 <= r < grid.rows and 0 <= c < grid.cols):
        raise IndexError(f"node {(r, c)} outside {grid.rows}x{grid.cols} grid")
    # summed left to right in a loop, not by the builtin sum, which adds
    # floats with compensation since Python 3.12 and so gives other bits
    # on other versions
    x = y = 0.0
    for g in grid.d_x.get(r, grid.uniform)[:c]:
        x += g
    for g in grid.d_y.get(c, grid.uniform)[:r]:
        y += g
    return (grid.xs[0] + x, grid.ys[0] + y)


def _shift(lines: dict, k: int, uniform: tuple, i: int, n: int, delta: float, lim: float) -> bool:
    """Move node i of n-node line k by delta via its adjacent gaps; True if exact.

    Node 0 anchors the prefix sums and stays put; any other node's delta is
    clamped to lim.  A line's first shift copies its gaps from `uniform`.
    """
    if i == 0:
        return abs(delta) < 1e-9
    exact = True
    if abs(delta) > lim:
        delta = math.copysign(lim, delta)
        exact = False
    gaps = lines.get(k) or lines.setdefault(k, list(uniform[:n - 1]))
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
    free, bindings, node_of, clamped = grid.free, grid.bindings, grid.node_of, grid.clamped
    rows, cols, d_x, d_y, uniform = grid.rows, grid.cols, grid.d_x, grid.d_y, grid.uniform
    inf, dist, get, lim = math.inf, math.dist, free.get, CLAMP_FRACTION * grid.base_spacing
    # column j's x is xe[j + 2] and row j's y ye[j + 2], with two lines at infinity past each end
    xe, ye = [-inf, -inf, *grid.xs, inf, inf], [-inf, -inf, *grid.ys, inf, inf]
    for kind, obj_id, pos in objects:
        if (key := (kind, obj_id)) in node_of:
            raise ValueError(f"object {key} already bound")
        if not free:
            clamped.append(key)
            continue
        # pos's cell: columns c, c + 1 and rows r, r + 1, with c from -1 to cols - 1 and r
        # from -1 to rows - 1, so a cell past an edge of the grid holds only that edge's nodes
        px, py = pos
        c = bisect_right(xe, px, 2, cols + 2) - 3
        r = bisect_right(ye, py, 2, rows + 2) - 3
        best, node = inf, None
        for n in ((r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)):
            xy = get(n)
            if xy is not None:
                dn = dist(pos, xy)
                if dn < best:
                    best, node = dn, n
        # Any other node lies on or past column c - 1 or c + 2 or row r - 1 or r + 2, so its
        # difference from pos on that axis, rounded as math.dist rounds it, is at least pos's
        # distance to that line.  math.dist errs by under an ulp, so below (1 - 1e-12) times
        # each of the four, no node outside the cell ties or beats the cell's first minimum.
        if not (best < (px - xe[c + 1]) * (1 - 1e-12) and best < (xe[c + 4] - px) * (1 - 1e-12)
                and best < (py - ye[r + 1]) * (1 - 1e-12)
                and best < (ye[r + 4] - py) * (1 - 1e-12)):
            dists = [dist(pos, xy) for xy in free.values()]
            # free is row-major, so the first minimum is the smallest tied node
            node = [*free][dists.index(min(dists))]
        ux, uy = free.pop(node)
        r, c = node
        exact = _shift(d_x, r, uniform, c, cols, px - ux, lim)
        exact = _shift(d_y, c, uniform, r, rows, py - uy, lim) and exact
        bindings[node] = key
        node_of[key] = node
        if not exact:
            clamped.append(key)
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
