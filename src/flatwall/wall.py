"""Subdivided walls drawn inside host graphs.

A subdivided wall is the canonical wall pattern with each pattern edge
realized by a host path; paths share no internal vertices.  This module
keeps that bookkeeping honest and implements the operations that need it:
perimeter/layer/brick geometry, the compass, the flatness test, wall
extraction from a smooth contraction of a loaded triangulated grid,
packing of disjoint subwalls, and re-finding the wall after sequences of
edge subdivisions and triangle-to-star rewrites.
"""

from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .common import SizeCapExceeded, Verdict
from .graph import Graph, bfs, induced_subgraph, path_to
from .generators import WallGraph, gamma, wall
from .minors import (SmoothContractionWitness, delta_y, subdivide, verify_smooth_contraction,
                     verify_topological_embedding)
from .paths import two_disjoint_paths
from .planarity import embeds_in_disk_with_boundary


class SubdividedWall:
    """A height-h wall in a host graph.

    original maps pattern vertices to host vertices; paths maps each
    pattern edge, keyed (min, max), to the host path tuple from the smaller
    endpoint's original to the larger's.  The constructor only copies both
    maps, so re-anchoring a wall in another host never raises; verify_wall
    decides whether the result is a wall there.
    """

    __slots__ = ("host", "height", "original", "paths")

    def __init__(self, host: Graph, height: int,
                 original: Dict[int, int],
                 paths: Dict[Tuple[int, int], Sequence[int]]):
        self.host = host
        self.height = height
        self.original = dict(original)
        self.paths = dict(paths)

    @property
    def pattern(self) -> WallGraph:
        return wall(self.height)

    @property
    def corners(self) -> Tuple[int, int, int, int]:
        return tuple(self.original[c] for c in self.pattern.corners)

    def host_path(self, a: int, b: int) -> Tuple[int, ...]:
        """Host path for pattern edge {a, b}, oriented from a to b."""
        p = self.paths[(min(a, b), max(a, b))]
        return p if a <= b else p[::-1]

    def vertices(self) -> frozenset:
        used = set(self.original.values())
        for p in self.paths.values():
            used.update(p)
        return frozenset(used)

    def __repr__(self) -> str:
        return "SubdividedWall(height=%d, %d host vertices)" % (self.height, len(self.vertices()))


def verify_wall(w: SubdividedWall) -> Verdict:
    """Check that w really is the wall pattern subdivided into its host.

    wall(h) has 2h(h+2) vertices, each with its own host vertex, so a
    height the host is too small for is rejected before the pattern is
    built.
    """
    if w.height < 1 or 2 * w.height * (w.height + 2) > w.host.n:
        return Verdict.reject("bad-height", witness=w.height)
    return verify_topological_embedding(w.host, w.pattern.graph, w.original, w.paths)


def identity_wall(k: int) -> SubdividedWall:
    """wall(k) drawn in itself, every pattern edge a single host edge."""
    wg = wall(k)
    original = {v: v for v in wg.graph.vertices}
    paths = {(a, b): (a, b) for a, b in wg.graph.edges}
    return SubdividedWall(wg.graph, k, original, paths)


def _require_valid(w: SubdividedWall) -> None:
    ok = verify_wall(w)
    if not ok:
        raise ValueError("invalid wall certificate: %s" % ok.condition)


def _expand_cycle(w: SubdividedWall, pattern_cycle: Sequence[int]) -> Tuple[int, ...]:
    """Turn a cycle of pattern vertices into the host cycle through the paths."""
    out = []
    n = len(pattern_cycle)
    for i in range(n):
        seg = w.host_path(pattern_cycle[i], pattern_cycle[(i + 1) % n])
        out.extend(seg[:-1])
    return tuple(out)


def _rim(w: SubdividedWall) -> Tuple[int, ...]:
    # perimeter of a wall already verified in its host
    return _expand_cycle(w, w.pattern.perimeter())


def perimeter(w: SubdividedWall) -> Tuple[int, ...]:
    """The host cycle around the wall, starting at the first corner."""
    _require_valid(w)
    return _rim(w)


def layers(w: SubdividedWall) -> List[Tuple[int, ...]]:
    """Nested disjoint cycles, outermost (the perimeter) first.

    Layer i is the perimeter of the height k - 2i subwall at pattern
    position (2i + 1, i + 1): the cycle that peeling i boundary cycles off
    wall(k), with the leaves each peel leaves, uncovers.  It starts at that
    subwall's first corner and heads toward its second; a wall of height k
    has max(1, k // 2) layers.
    """
    _require_valid(w)
    return [_rim(subwall(w, 2 * i + 1, i + 1, w.height - 2 * i))
            for i in range(max(1, w.height // 2))]


def bricks(w: SubdividedWall) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, int]]]:
    """All brick cycles in the host plus the pairs that share an edge."""
    _require_valid(w)
    cycles = [_expand_cycle(w, b) for b in w.pattern.bricks()]
    edge_sets = []
    for c in cycles:
        edge_sets.append({frozenset((c[i], c[(i + 1) % len(c)])) for i in range(len(c))})
    touching = [(i, j) for i in range(len(cycles)) for j in range(i + 1, len(cycles))
                if edge_sets[i] & edge_sets[j]]
    return cycles, touching


class Compass:
    """The part of a host graph the wall can reach without crossing its perimeter."""

    __slots__ = ("wall", "graph")

    def __init__(self, wall: SubdividedWall, graph: Graph):
        self.wall = wall
        self.graph = graph

    @property
    def corners(self) -> Tuple[int, int, int, int]:
        return self.wall.corners

    def __repr__(self) -> str:
        return "Compass(height=%d, %d vertices)" % (self.wall.height, self.graph.n)


def compass(g: Graph, w: SubdividedWall) -> Compass:
    """Induced subgraph on the perimeter plus the component holding the interior.

    wall(k) has no chord (no pattern edge off the perimeter joins two
    perimeter vertices) and wall(k) minus its perimeter is connected, so
    the interior of a valid wall lies in one component of g minus the
    perimeter, and one search from any interior vertex finds it.  A wall
    of height one is all perimeter; its compass is the perimeter alone.
    Raises on a wall that is not valid in g.
    """
    anchored = SubdividedWall(g, w.height, w.original, w.paths)
    _require_valid(anchored)
    return _compass(anchored)


def _compass(w: SubdividedWall) -> Compass:
    # compass(w.host, w) for a wall already verified in its host
    g = w.host
    ring = set(_rim(w))
    interior = w.vertices() - ring
    keep = set(ring)
    if interior:
        keep.update(bfs(g, min(interior), set(g.vertices) - ring)[0])
    return Compass(w, induced_subgraph(g, keep))


# is_flat tries the corner-wheel test first above this many vertices.  On plane
# walls (best of 60) the search takes ~0.04, ~0.4 and ~12 ms at 16, 30 and 48
# vertices, the wheel ~0.07, ~0.11 and ~0.16 ms, so the crossover lies
# between 16 and 30; the bound stays at 40 because it fixes the `explored`
# count that check-flat reports.
WHEEL_FIRST_ABOVE = 40


class FlatnessResult:
    """Flatness verdict: True, False (with the two crossing paths), or
    None when the search budget was spent."""

    __slots__ = ("flat", "witness", "explored")

    def __init__(self, flat, witness, explored: int):
        self.flat = flat
        self.witness = witness
        self.explored = explored

    def __repr__(self) -> str:
        return "FlatnessResult(flat=%r, explored=%d)" % (self.flat, self.explored)


def is_flat(c: Compass) -> FlatnessResult:
    """A wall is flat when no two disjoint paths join its opposite corner pairs.

    Past WHEEL_FIRST_ABOVE vertices a planar corner wheel answers flat with
    explored 0: the compass plus the corner 4-cycle plus a hub on the
    corners is planar only if the wall is flat, as disjoint c1-c3 and c2-c4
    paths, the cycle and the hub would form a K5 minor (branch sets: the
    hub, c1, c2, the c1-c3 path minus c1 and the c2-c4 path minus c2).  A
    non-planar wheel proves nothing (non-planar pieces behind small
    separations spoil it), so the exhaustive search decides within its budget.
    """
    if c.graph.n > WHEEL_FIRST_ABOVE and embeds_in_disk_with_boundary(c.graph, c.corners):
        return FlatnessResult(True, None, 0)
    hit = two_disjoint_paths(c.graph, c.corners[0::2], c.corners[1::2])
    if hit.verdict == "found":
        return FlatnessResult(False, tuple(hit.paths), hit.explored)
    return FlatnessResult(True if hit.verdict == "none" else None, None, hit.explored)


def _window_map(small: WallGraph, big: WallGraph, x0: int, y0: int) -> Optional[Dict[int, int]]:
    """Place the small wall pattern at offset (x0, y0) of the big one.

    Vertical edges exist only at even coordinate sums, so windows at odd
    offsets are placed mirrored in x, which restores the parity.  Returns
    the vertex map or None when the window hits a pruned corner.
    """
    h = small.height
    mirror = (x0 + y0) % 2 == 1
    out = {}
    for v in small.graph.vertices:
        x, y = small.coord(v)
        gx = (x0 - 1 + (2 * h + 3 - x)) if mirror else (x0 - 1 + x)
        gy = y0 - 1 + y
        if not big.coords.contains(gx, gy):
            return None
        gv = big.coords.id(gx, gy)
        if not big.graph.has_vertex(gv):
            return None
        out[v] = gv
    for a, b in small.graph.edges:
        if not big.graph.has_edge(out[a], out[b]):
            return None
    return out


def subwall(w: SubdividedWall, x0: int, y0: int, sub_height: int) -> SubdividedWall:
    """The height sub_height subwall whose window starts at pattern position (x0, y0)."""
    small = wall(sub_height)
    win = _window_map(small, w.pattern, x0, y0)
    if win is None:
        raise ValueError("no height-%d window at (%d,%d)" % (sub_height, x0, y0))
    original = {v: w.original[win[v]] for v in small.graph.vertices}
    paths = {(a, b): w.host_path(win[a], win[b]) for a, b in small.graph.edges}
    return SubdividedWall(w.host, sub_height, original, paths)


def disjoint_subwalls(w: SubdividedWall, count: int, sub_height: int) -> List[SubdividedWall]:
    """Pack count disjoint subwalls of the given height, row-major windows.

    Windows never share pattern positions, so the subwalls are disjoint in
    the host as well.
    """
    _require_valid(w)
    k = w.height
    if not 1 <= sub_height <= k:
        raise ValueError("sub_height must be between 1 and %d, got %d" % (k, sub_height))
    out = []
    for y0 in range(1, k + 2 - sub_height, sub_height + 1):
        for x0 in range(1, 2 * k + 2 - 2 * sub_height, 2 * sub_height + 2):
            if len(out) == count:
                return out
            try:
                sw = subwall(w, x0, y0, sub_height)
            except ValueError:
                continue
            out.append(sw)
    if len(out) < count:
        raise ValueError("wall of height %d cannot pack %d subwalls of height %d"
                         % (k, count, sub_height))
    return out


def _route_to_set(g: Graph, allowed: frozenset, start: int, targets) -> List[int]:
    """Shortest path from start to the target set, staying inside allowed."""
    parent, hit = bfs(g, start, allowed, targets)
    if hit is None:
        raise ValueError("branch set fails to reach its own attachment")
    return path_to(parent, hit)


def _lift_wall_through_contraction(g: Graph, model, gw_map: Dict[int, int],
                                   k: int) -> Optional[SubdividedWall]:
    """Realize a wall drawn on the contracted grid as a subdivision in the host.

    gw_map places each wall pattern vertex on a pattern vertex of the
    contraction; each placement vertex expands to its branch set, inside
    which the two or three incident wall paths are routed as a Y that
    shares only its center.
    """
    pat = wall(k).graph
    sets = {p: model.model_of(gw_map[p]) for p in pat.vertices}
    realizer = {}
    for p, q in pat.edges:
        hit = None
        for a in sorted(sets[p]):
            for b in g.neighbors(a):
                if b in sets[q]:
                    hit = (a, b)
                    break
            if hit:
                break
        if hit is None:
            return None
        realizer[(p, q)] = hit
        realizer[(q, p)] = (hit[1], hit[0])
    original = {}
    legs = {}
    for p in pat.vertices:
        nbs = sorted(pat.neighbors(p))
        ends = [realizer[(p, q)][0] for q in nbs]
        spine = _route_to_set(g, sets[p], ends[0], {ends[1]})
        if len(nbs) == 2:
            w0 = spine[0]
            legs[(p, nbs[0])] = (w0,)
            legs[(p, nbs[1])] = tuple(spine)
        else:
            branch = _route_to_set(g, sets[p], ends[2], set(spine))
            w0 = branch[-1]
            i0 = spine.index(w0)
            legs[(p, nbs[0])] = tuple(spine[i0::-1])
            legs[(p, nbs[1])] = tuple(spine[i0:])
            legs[(p, nbs[2])] = tuple(branch[::-1])
        original[p] = w0
    paths = {}
    for p, q in pat.edges:
        paths[(p, q)] = legs[(p, q)] + legs[(q, p)][::-1]
    return SubdividedWall(g, k, original, paths)


def extract_wall_from_gamma_contraction(g: Graph, witness: SmoothContractionWitness) -> SubdividedWall:
    """Pull a wall of height k out of a smooth contraction onto a loaded
    triangulated grid of size 2k+8.

    The wall is drawn on the internal part of the grid and lifted through
    the contraction's branch sets, sliding the window until the compass in
    g embeds in a closed disk bounded by the perimeter.  Whether a window
    works depends on the witness, not on k: on gamma(12) every window of
    the witness that subdivides each edge once passes, while no window of
    the identity witness does, because there the compass has chords whose
    ends interleave along the perimeter.  When no window works the
    extraction is undetermined and SizeCapExceeded is raised.
    """
    pat = witness.model.pattern
    m = isqrt(pat.n)
    if m * m != pat.n or m < 10 or m % 2 != 0:
        raise ValueError("pattern has %d vertices, expected an even square >= 100" % pat.n)
    tg = gamma(m)
    if pat != tg.graph:
        raise ValueError("pattern is not the loaded triangulated %d-grid" % m)
    if witness.v != tg.loaded:
        raise ValueError("witness must contract onto the loaded corner %d, got %r"
                         % (tg.loaded, witness.v))
    ok = verify_smooth_contraction(witness)
    if not ok:
        raise ValueError("smooth contraction rejected: %s" % ok.condition)
    k = (m - 8) // 2

    target = wall(k)
    for y0 in range(2, m - k - 1):
        for x0 in range(2, m - 2 * k - 1):
            gw_map = {p: tg.coords.id(x0 - 1 + x, y0 - 1 + y)
                      for p in target.graph.vertices
                      for x, y in [target.coord(p)]}
            cand = _lift_wall_through_contraction(g, witness.model, gw_map, k)
            if (cand is not None and verify_wall(cand)
                    and embeds_in_disk_with_boundary(_compass(cand).graph, _rim(cand))):
                return cand
    raise SizeCapExceeded("window search found no height-%d wall with a disk compass" % k)


def _locate_edges(w: SubdividedWall) -> Dict[frozenset, Tuple[Tuple[int, int], int]]:
    """Map each host edge the wall uses to (path key, position)."""
    where = {}
    for key, p in w.paths.items():
        for i in range(len(p) - 1):
            where[frozenset((p[i], p[i + 1]))] = (key, i)
    return where


def _insert_on_path(w: SubdividedWall, host2: Graph, key: Tuple[int, int],
                    i: int, nv: int) -> SubdividedWall:
    paths = dict(w.paths)
    p = paths[key]
    paths[key] = p[:i + 1] + (nv,) + p[i + 1:]
    return SubdividedWall(host2, w.height, w.original, paths)


def _refind_subdivide(w: SubdividedWall, host2: Graph, e: Tuple[int, int],
                      nv: int) -> SubdividedWall:
    hit = _locate_edges(w).get(frozenset(e))
    if hit is None:
        return SubdividedWall(host2, w.height, w.original, w.paths)
    return _insert_on_path(w, host2, hit[0], hit[1], nv)


def _refind_delta_y(w: SubdividedWall, host2: Graph, tri: Tuple[int, int, int],
                    nv: int) -> SubdividedWall:
    where = _locate_edges(w)
    x, y, z = tri
    shared = [e for e in (frozenset((x, y)), frozenset((y, z)), frozenset((x, z)))
              if e in where]
    if len(shared) == 0:
        return SubdividedWall(host2, w.height, w.original, w.paths)
    if len(shared) == 1:
        key, i = where[shared[0]]
        return _insert_on_path(w, host2, key, i, nv)
    if len(shared) == 3:
        raise ValueError("a triangle cannot lie entirely inside a wall")

    # two wall edges meet at s; the rewrite hinges on the wall degree of s
    (s,) = set.intersection(*map(set, shared))
    at_s = [e for e in where if s in e]
    original = dict(w.original)
    paths = dict(w.paths)
    if len(at_s) == 2:
        # s has no third wall direction: the new vertex simply takes its place
        for key, p in paths.items():
            if s in p:
                paths[key] = tuple(nv if v == s else v for v in p)
        for pv, hv in original.items():
            if hv == s:
                original[pv] = nv
    else:
        # s is a branch vertex: it slides onto its third path as a plain
        # subdivision vertex while the new vertex takes over the branch role
        ps = next(pv for pv, hv in original.items() if hv == s)
        for q in w.pattern.graph.neighbors(ps):
            key = (min(ps, q), max(ps, q))
            p = paths[key] if paths[key][0] == s else paths[key][::-1]
            if frozenset(p[:2]) in shared:
                p = (nv,) + p[1:]
            else:
                p = (nv,) + p
            paths[key] = p if key[0] == ps else p[::-1]
        original[ps] = nv
    return SubdividedWall(host2, w.height, original, paths)


def refind_after_transform(c: Compass, ops: Sequence[Tuple[str, tuple]]) -> SubdividedWall:
    """Track the wall through a sequence of rewrites of its host.

    Each op is ("subdivide", edge) or ("delta_y", triangle); triangles must
    lie inside the current compass.  The result is a wall of the same
    height in the rewritten host, isomorphic to a subdivision of the input.
    """
    w = c.wall
    g = w.host
    for tag, arg in ops:
        if tag == "subdivide":
            e = tuple(arg)
            g2, nv = subdivide(g, e)
            w = _refind_subdivide(w, g2, e, nv)
        elif tag == "delta_y":
            tri = tuple(arg)
            current = compass(g, w)
            for u in tri:
                if not current.graph.has_vertex(u):
                    raise ValueError("triangle vertex %r is outside the wall compass" % (u,))
            g2, nv = delta_y(g, tri)
            w = _refind_delta_y(w, g2, tri, nv)
        else:
            raise ValueError("unknown rewrite %r" % (tag,))
        g = g2
    return w
