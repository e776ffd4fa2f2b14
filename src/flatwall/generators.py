"""Deterministic constructors for the graph families used everywhere else:
grids, triangulated grids with a loaded corner, walls, pyramids, and the
grid-plus-clique lower-bound graph.

Coordinates are 1-based, x for the column and y for the row, row 1 at the
north.  Vertex ids are row-major over the underlying full grid, so the
coordinate map stays stable when construction prunes vertices.
"""

from functools import lru_cache
from typing import List, Tuple

from .graph import Graph, delete, strip_leaves


class GridCoords:
    """Bijection between (x, y) coordinates and row-major vertex ids."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols

    def id(self, x: int, y: int) -> int:
        if not self.contains(x, y):
            raise ValueError("coordinate (%d,%d) outside %dx%d grid" % (x, y, self.rows, self.cols))
        return (y - 1) * self.cols + (x - 1)

    def coord(self, v: int) -> Tuple[int, int]:
        if not 0 <= v < self.rows * self.cols:
            raise ValueError("id %r outside %dx%d grid" % (v, self.rows, self.cols))
        return v % self.cols + 1, v // self.cols + 1

    def contains(self, x: int, y: int) -> bool:
        return 1 <= x <= self.cols and 1 <= y <= self.rows

    def external_ids(self) -> Tuple[int, ...]:
        """Boundary vertices in clockwise cyclic order starting at (1,1)."""
        ring = [(x, 1) for x in range(1, self.cols + 1)]
        ring += [(self.cols, y) for y in range(2, self.rows + 1)]
        ring += [(x, self.rows) for x in range(self.cols - 1, 0, -1)]
        ring += [(1, y) for y in range(self.rows - 1, 1, -1)]
        return tuple(self.id(x, y) for x, y in ring)


def grid(k: int, r: int) -> Tuple[Graph, GridCoords]:
    """The (k x r)-grid: k rows by r columns."""
    if k < 2 or r < 2:
        raise ValueError("grid needs both sides >= 2, got %dx%d" % (k, r))
    coords = GridCoords(k, r)
    edges = []
    for y in range(1, k + 1):
        for x in range(1, r + 1):
            if x < r:
                edges.append((coords.id(x, y), coords.id(x + 1, y)))
            if y < k:
                edges.append((coords.id(x, y), coords.id(x, y + 1)))
    return Graph(range(k * r), edges), coords


class TriangulatedGrid:
    """Square grid with NW-SE cell diagonals and a loaded corner joined to
    the whole external face."""

    __slots__ = ("graph", "coords", "loaded", "external", "size")

    def __init__(self, graph: Graph, coords: GridCoords, loaded: int,
                 external: Tuple[int, ...], size: int):
        self.graph = graph
        self.coords = coords
        self.loaded = loaded
        self.external = external
        self.size = size


def gamma(k: int) -> TriangulatedGrid:
    """Triangulated (k x k)-grid with corner (1,1) loaded."""
    if k < 3:
        raise ValueError("triangulated grid needs k >= 3, got %d" % (k,))
    base, coords = grid(k, k)
    diag = [(coords.id(x, y), coords.id(x + 1, y + 1))
            for y in range(1, k) for x in range(1, k)]
    loaded = coords.id(1, 1)
    ring = coords.external_ids()
    g = base.add_edges(diag)
    loading = [(loaded, u) for u in ring if u != loaded and not g.has_edge(loaded, u)]
    return TriangulatedGrid(g.add_edges(loading), coords, loaded, ring, k)


def gamma_star(k: int) -> Graph:
    """gamma(k) with every non-grid edge at the loaded corner removed."""
    tg = gamma(k)
    x0, y0 = tg.coords.coord(tg.loaded)
    keep = {tg.coords.id(x0 + 1, y0), tg.coords.id(x0, y0 + 1)}
    drop = [(tg.loaded, u) for u in tg.graph.neighbors(tg.loaded) if u not in keep]
    return delete(tg.graph, edges=drop)


class WallGraph:
    """The wall of height k with its coordinate bookkeeping.

    Built from the ((k+1) x (2k+2))-grid by dropping the vertical edges
    {(x,y),(x,y+1)} with x+y odd and then pruning degree-1 vertices.  The
    ids are the underlying grid's row-major ids.
    """

    __slots__ = ("height", "graph", "coords", "corners", "_perimeter")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("wall height must be >= 1, got %d" % (k,))
        self.height = k
        g, c = grid(k + 1, 2 * k + 2)
        odd = [(c.id(x, y), c.id(x, y + 1))
               for y in range(1, k + 1) for x in range(1, 2 * k + 3) if (x + y) % 2]
        self.coords = c
        self.graph = strip_leaves(delete(g, edges=odd))
        even = (k + 1) % 2
        self.corners = (
            self.coords.id(1, 1),
            self.coords.id(2 * k + 1, 1),
            self.coords.id(2 * k + 1 + even, k + 1),
            self.coords.id(1 + even, k + 1),
        )
        self._perimeter = None

    def id(self, x: int, y: int) -> int:
        v = self.coords.id(x, y)
        if not self.graph.has_vertex(v):
            raise ValueError("(%d,%d) was pruned from the wall" % (x, y))
        return v

    def coord(self, v: int) -> Tuple[int, int]:
        return self.coords.coord(v)

    def perimeter(self) -> Tuple[int, ...]:
        """Boundary cycle, starting at corner 1 and heading toward corner 2.

        The coordinate drawing is plane, with the outer face north of row 1,
        so the walk east from corner 1 that turns left where it can, else
        goes straight on, else turns right, goes once round the outer face.
        """
        if self._perimeter is None:
            steps = ((1, 0), (0, 1), (-1, 0), (0, -1))  # east, south, west, north
            x, y, d, cyc = 1, 1, 0, []
            while not cyc or (x, y) != (1, 1):
                cyc.append(self.coords.id(x, y))
                near = {self.coord(u) for u in self.graph.neighbors(cyc[-1])}
                d = next(t for t in ((d + 3) % 4, d, (d + 1) % 4)
                         if (x + steps[t][0], y + steps[t][1]) in near)
                x, y = x + steps[d][0], y + steps[d][1]
            self._perimeter = tuple(cyc)
        return self._perimeter

    def bricks(self) -> List[Tuple[int, ...]]:
        """All k^2 hexagonal faces, row by row, west to east."""
        out = []
        k = self.height
        for r in range(1, k + 1):
            rungs = [x for x in range(1, 2 * k + 3)
                     if (x + r) % 2 == 0
                     and self.graph.has_vertex(self.coords.id(x, r))
                     and self.graph.has_vertex(self.coords.id(x, r + 1))]
            for x1, x2 in zip(rungs, rungs[1:]):
                out.append((self.id(x1, r), self.id(x1 + 1, r), self.id(x2, r),
                            self.id(x2, r + 1), self.id(x1 + 1, r + 1), self.id(x1, r + 1)))
        return out


@lru_cache(maxsize=None)
def wall(k: int) -> WallGraph:
    """The wall of height k; one shared pattern object per height."""
    return WallGraph(k)


def pyramid(k: int, l: int) -> Graph:
    """(k x k)-grid plus an l-clique joined completely to the grid."""
    if k < 2:
        raise ValueError("pyramid grid side must be >= 2, got %d" % (k,))
    if l < 0:
        raise ValueError("clique size must be >= 0, got %d" % (l,))
    base, _ = grid(k, k)
    clique = list(range(k * k, k * k + l))
    edges = [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    edges += [(a, v) for a in clique for v in range(k * k)]
    return base.add_vertices(clique).add_edges(edges)


def lower_bound_graph(k: int, h: int) -> Graph:
    """(k x k)-grid joined to K_{h-5}: treewidth k+h-5 but no K_h minor."""
    if k < 3:
        raise ValueError("need k >= 3, got %d" % (k,))
    if h < 6:
        raise ValueError("need h >= 6, got %d" % (h,))
    return pyramid(k, h - 5)
