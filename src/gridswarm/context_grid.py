"""Per-robot deformable context grid.

The grid is centered on the swarm (HALE) centroid.  Node spacings live in
two gap matrices: d_x holds the (cols-1) column gaps of every row and d_y
the (rows-1) row gaps of every column, so deforming one node only touches
its two adjacent gaps and leaves the rest of the grid in place.

Axis convention used throughout the package: column index grows with +x
(east), row index grows with +y (north).  Row 0 / column 0 are therefore
the south-west edge; their nodes anchor the prefix sums and cannot be
deformed along the anchored axis (bindings there are clamped instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CLAMP_FRACTION = 0.49  # max gap adjustment, as a fraction of base spacing


@dataclass
class ContextGrid:
    rows: int
    cols: int
    base_spacing: float
    centroid: tuple
    d_x: np.ndarray  # (rows, cols-1) column gaps
    d_y: np.ndarray  # (rows-1, cols) row gaps
    mask: np.ndarray  # (rows, cols) bool, True = unusable
    bindings: dict = field(default_factory=dict)  # (row, col) -> (kind, id)
    node_of: dict = field(default_factory=dict)  # (kind, id) -> (row, col)
    clamped: list = field(default_factory=list)  # objects bound off-position

    @property
    def center(self) -> tuple:
        return (self.rows // 2, self.cols // 2)

    def in_range(self, node) -> bool:
        r, c = node
        return 0 <= r < self.rows and 0 <= c < self.cols

    def uniform_coords(self, node) -> tuple:
        """Node position of the undeformed grid (used for masking/search)."""
        r, c = node
        rc, cc = self.center
        d = self.base_spacing
        return (self.centroid[0] + (c - cc) * d, self.centroid[1] + (r - rc) * d)

    def iter_nodes(self):
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)


def build_grid(centroid, rows: int, cols: int, d: float, arena) -> ContextGrid:
    """Uniform grid around the centroid with boundary / swarm-bound masking."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2x2 nodes")
    if d <= 0:
        raise ValueError("base spacing must be positive")
    if not arena.contains(centroid):
        raise ValueError("centroid outside the arena")
    grid = ContextGrid(
        rows=rows,
        cols=cols,
        base_spacing=d,
        centroid=(float(centroid[0]), float(centroid[1])),
        d_x=np.full((rows, cols - 1), float(d)),
        d_y=np.full((rows - 1, cols), float(d)),
        mask=np.zeros((rows, cols), dtype=bool),
    )
    for node in grid.iter_nodes():
        p = grid.uniform_coords(node)
        off = math.hypot(p[0] - centroid[0], p[1] - centroid[1])
        if not arena.contains(p) or off > arena.swarm_bound_radius + 1e-9:
            grid.mask[node] = True
    return grid


def node_coords(grid: ContextGrid, node) -> tuple:
    """Global coordinates of a node, prefix-summed from the gap matrices."""
    r, c = node
    if not grid.in_range((r, c)):
        raise IndexError(f"node {(r, c)} outside {grid.rows}x{grid.cols} grid")
    rc, cc = grid.center
    d = grid.base_spacing
    x0 = grid.centroid[0] - cc * d
    y0 = grid.centroid[1] - rc * d
    x = x0 + float(np.sum(grid.d_x[r, :c]))
    y = y0 + float(np.sum(grid.d_y[:r, c]))
    return (x, y)


def _apply_offset(grid: ContextGrid, node, dx: float, dy: float) -> bool:
    """Shift one node by (dx, dy) via its adjacent gaps; True if exact."""
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
        grid.d_x[r, c - 1] += dx
    if 0 < c < grid.cols - 1:
        grid.d_x[r, c] -= dx
    if r == 0:
        exact = exact and abs(dy) < 1e-9
        dy = 0.0
    else:
        if abs(dy) > lim:
            dy = math.copysign(lim, dy)
            exact = False
        grid.d_y[r - 1, c] += dy
    if 0 < r < grid.rows - 1:
        grid.d_y[r, c] -= dy
    return exact


def deform(grid: ContextGrid, objects) -> ContextGrid:
    """Bind every object to its nearest free node and pull the node onto it.

    `objects` is an ordered iterable of (kind, id, position); order is the
    priority used when two objects want the same node (the caller passes
    self first, then targets and robots in ascending id).  Objects whose
    offset exceeds the clamp limit are bound without landing exactly and
    recorded in `grid.clamped`.
    """
    uniform = {n: grid.uniform_coords(n) for n in grid.iter_nodes()}
    for kind, obj_id, pos in objects:
        if (kind, obj_id) in grid.node_of:
            raise ValueError(f"object {(kind, obj_id)} already bound")
        candidates = sorted(
            (n for n in grid.iter_nodes() if not grid.mask[n] and n not in grid.bindings),
            key=lambda n: (
                math.hypot(pos[0] - uniform[n][0], pos[1] - uniform[n][1]),
                n,
            ),
        )
        if not candidates:
            grid.clamped.append((kind, obj_id))
            continue
        node = candidates[0]
        ux, uy = uniform[node]
        exact = _apply_offset(grid, node, pos[0] - ux, pos[1] - uy)
        grid.bindings[node] = (kind, obj_id)
        grid.node_of[(kind, obj_id)] = node
        if not exact:
            grid.clamped.append((kind, obj_id))
    return grid


def bind_snapshot(grid: ContextGrid, self_id: int, self_position,
                  detections, target_filter=None) -> ContextGrid:
    """Deform with the standard priority order: self, targets, neighbors."""
    objects = [("self", self_id, self_position)]
    for tid, pos, _req in detections.visible_targets:
        if target_filter is None or target_filter(tid, pos):
            objects.append(("target", tid, pos))
    for rid, pos in detections.visible_neighbors:
        objects.append(("robot", rid, pos))
    return deform(grid, objects)


def pick_search_node(grid: ContextGrid, toward, rank: int) -> tuple:
    """Unmasked free node to head for while searching.

    Free nodes are ordered by distance to the global point `toward` and the
    node at position `rank` (modulo the free count) is returned: robots
    using their own id as rank march as a group toward the common point
    while claiming distinct nodes.  With no free node the robot's own node
    is returned.
    """
    free = [
        n for n in grid.iter_nodes() if not grid.mask[n] and n not in grid.bindings
    ]
    if not free:
        self_nodes = [n for n, b in grid.bindings.items() if b[0] == "self"]
        if not self_nodes:
            raise ValueError("no free node and no self binding")
        return self_nodes[0]

    def pull(n):
        p = grid.uniform_coords(n)
        return (math.hypot(p[0] - toward[0], p[1] - toward[1]), n)

    free.sort(key=pull)
    return free[int(rank) % len(free)]
