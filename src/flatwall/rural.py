"""Rural divisions of a wall compass.

A rural division chops the compass into edge-disjoint flaps that touch
each other only at small boundary sets.  Validation checks five numbered
properties in order and reports the lowest-numbered failure, so broken
fixtures reject deterministically:

  1. the flap edge sets partition the compass edges into non-empty parts;
  2. the flap boundaries are pairwise distinct, and two flaps share
     exactly their boundary intersection;
  3. inside each flap, every pair of boundary vertices is joined by a
     path whose internal vertices avoid the rest of the boundary;
  4. every boundary has at most three vertices;
  5. the hypergraph of boundaries embeds in a closed disk with the four
     wall corners in order on the rim, and each boundary is linked to
     the corners by as many vertex-disjoint paths as it has vertices.
"""

from itertools import combinations
from typing import Collection, Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Tuple

from .common import Verdict
from .graph import Graph, _norm_edge, bfs
from .paths import max_vertex_disjoint_paths
from .planarity import _disk_planar
from .wall import Compass, _require_valid, _rim


class Flap(NamedTuple):
    """A flap as read: its sorted vertices and its sorted, normalised edges."""
    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]


class RuralDivision:
    """A compass together with an ordered list of flaps (Flap records, or Graphs)."""

    __slots__ = ("compass", "flaps")

    def __init__(self, compass: Compass, flaps: Iterable[Flap]):
        self.compass = compass
        self.flaps = tuple(flaps)

    def __repr__(self) -> str:
        return "RuralDivision(%d flaps over %d compass edges)" % (
            len(self.flaps), self.compass.graph.m)


def division_from_edge_lists(c: Compass, groups: Sequence[Sequence[Tuple[int, int]]]) -> RuralDivision:
    """Build a division whose flaps are the subgraphs spanned by each edge list."""
    flaps = []
    for edges in groups:
        es = tuple(sorted({_norm_edge((a, b)) for a, b in edges}))
        flaps.append(Flap(tuple(sorted({v for e in es for v in e})), es))
    return RuralDivision(c, flaps)


def trivial_division(c: Compass) -> RuralDivision:
    """One flap per compass edge; valid for every plane wall compass."""
    return division_from_edge_lists(c, [[e] for e in c.graph.edges])


def _boundaries_embed_in_disk(boundaries: Sequence[Collection[int]],
                              corners: Sequence[int]) -> bool:
    """True iff the incidence graph of distinct boundaries embeds in a
    closed disk with the corners on the rim in the given order, tested on a
    gadget that planarity.py's kernel makes of that graph anyway.

    A two-vertex boundary ab is the edge ab: its incidence node has degree
    2, so the kernel smooths it into ab, or deletes it beside an ab that is
    already there.  A boundary of three or more vertices is one fresh node
    joined to each of them, and one of at most one vertex, whose node the
    kernel deletes, adds nothing.  Each step preserves planarity both ways.
    """
    adj: Dict[int, set] = {v: set() for bs in (corners, *boundaries) for v in bs}
    x = max(adj, default=-1)
    for bs in boundaries:
        if len(bs) == 2:
            a, b = bs
            adj[a].add(b)
            adj[b].add(a)
        elif len(bs) > 2:
            x += 1
            adj[x] = set(bs)
            for v in bs:
                adj[v].add(x)
    return _disk_planar(adj, corners)


def check_linkage(k: Compass, e: Iterable[int]) -> bool:
    """True iff |e| pairwise vertex-disjoint paths run from e to the corners."""
    terminals = sorted(set(e))
    if len(terminals) > 4:
        raise ValueError("a boundary of %d vertices cannot be linked to 4 corners"
                         % len(terminals))
    flow, _ = max_vertex_disjoint_paths(k.graph, terminals, k.corners)
    return flow >= len(terminals)


def _separator_tree(g: Graph, corners: Sequence[int]) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(up, top) for the vertices of g that reach a corner.

    up[v] is the next vertex that separates v from the corners, or a sink t
    joined to every corner (a fresh id, with up[t] = t) if none does; so v,
    up[v], up[up[v]], ... before t are v and the vertices that separate it
    from the corners.  top[v] is the last of them, the one whose up is t
    (and top[t] = t).

    One iterative lowpoint DFS of g plus t, rooted at t, finds the blocks
    (Hopcroft and Tarjan): when a child v of u has low[v] >= depth[u], the
    vertices stacked since v, with u, form a block that hangs at u toward
    t, so each of them gets up = u.  up[v] is an ancestor of v, so top
    fills in preorder.
    """
    adj = g._adj
    t = g.fresh_id()
    on_rim = set(corners)
    depth = {t: 0}
    low = {t: 0}
    up = {t: t}
    pending: List[int] = []
    stack = [(t, t, iter(corners))]
    while stack:
        u, above, it = stack[-1]
        for w in it:
            if w not in depth:
                d = depth[u] + 1
                depth[w] = d
                # a corner entered from below t has its back edge to t
                low[w] = 0 if w in on_rim and u != t else d
                pending.append(w)
                stack.append((w, u, iter(adj[w])))
                break
            if w != above and depth[w] < low[u]:
                low[u] = depth[w]
        else:
            stack.pop()
            if u != t:
                low[above] = min(low[above], low[u])
                if low[u] >= depth[above]:  # u's subtree closes a block at above
                    x = None
                    while x != u:
                        x = pending.pop()
                        up[x] = above
    top: Dict[int, int] = {}
    for v in depth:  # in preorder
        top[v] = v if up[v] == t else top[up[v]]
    return up, top


def _linked_by_top(top: Dict[int, int], e: Collection[int]) -> bool:
    """check_linkage for a set e of at most two vertices, from _separator_tree.

    By Menger's theorem |e| disjoint paths run from e to the corners iff no
    set of fewer than |e| vertices separates e from them: each vertex of e
    reaches a corner, and no one vertex separates both of a pair.  The
    separators of a and b are root paths of the up tree, so they meet
    iff they end at the same top.
    """
    tops = {top.get(v) for v in e}
    return None not in tops and len(tops) == len(e)


def _swept_boundaries(rd: RuralDivision, seen: Dict[Tuple[int, int], int]
                      ) -> Tuple[FrozenSet[int], ...]:
    """The boundary of each flap of rd, from seen, which maps every compass
    edge to the one flap holding it (property 1 holds).

    The boundary of flap i is its corners plus its vertices incident to a
    compass edge outside it: v's edges lie in more than one flap, or all in
    one flap other than i (v is an isolated vertex of i).
    """
    owner: Dict[int, int] = {}
    for (a, b), i in seen.items():
        # -1 marks a vertex whose edges lie in two or more flaps
        if owner.setdefault(a, i) != i:
            owner[a] = -1
        if owner.setdefault(b, i) != i:
            owner[b] = -1
    corners = set(rd.compass.corners)
    return tuple(frozenset(v for v in d.vertices if owner.get(v, i) != i or v in corners)
                 for i, d in enumerate(rd.flaps))


def validate_rural(rd: RuralDivision) -> Verdict:
    """Check properties 1-5 in order; the verdict names the first failure.

    A flap vertex or edge outside the compass fails property 1, which
    asks the flaps to partition the compass edges.
    """
    kg = rd.compass.graph
    # 1: flaps inside the compass, with non-empty edge sets partitioning its edges
    for i, d in enumerate(rd.flaps):
        for v in d.vertices:
            if not kg.has_vertex(v):
                return Verdict.reject("property-1", witness=v,
                                      detail="flap %d references vertex %r outside the compass"
                                      % (i, v))
        for a, b in d.edges:
            if not kg.has_edge(a, b):
                return Verdict.reject("property-1", witness=(a, b),
                                      detail="flap %d references edge %r-%r outside the compass"
                                      % (i, a, b))
    seen = {}
    for i, d in enumerate(rd.flaps):
        if not d.edges:
            return Verdict.reject("property-1", witness=i,
                                  detail="flap %d has no edges" % i)
        for e in d.edges:
            if e in seen:
                return Verdict.reject("property-1", witness=e,
                                      detail="edge %r-%r lies in flaps %d and %d"
                                      % (e[0], e[1], seen[e], i))
            seen[e] = i
    missing = [e for e in kg.edges if e not in seen]
    if missing:
        return Verdict.reject("property-1", witness=missing[0],
                              detail="edge %r-%r is in no flap" % missing[0])

    # 2: distinct boundaries; shared vertices are exactly shared boundary.
    # A boundary lies inside its flap, so only flaps with equal boundaries,
    # or that share a vertex off the boundary of one of them, can fail;
    # those pairs are checked in (i, j) order, which names the same first
    # failure as checking every pair.
    bounds = _swept_boundaries(rd, seen)
    verts = [set(d.vertices) for d in rd.flaps]
    by_bound: Dict[FrozenSet[int], List[int]] = {}
    for i, bs in enumerate(bounds):
        by_bound.setdefault(bs, []).append(i)
    groups = [group for group in by_bound.values() if len(group) > 1]
    by_vertex: Dict[int, List[int]] = {v: [] for vs, bs in zip(verts, bounds) for v in vs - bs}
    for i, vs in enumerate(verts):
        for v in vs & by_vertex.keys():
            by_vertex[v].append(i)
    groups += by_vertex.values()
    near: Dict[int, set] = {}  # i -> the flaps that may fail beside flap i
    for group in groups:
        for i in group:
            near.setdefault(i, set()).update(group)
    for i in sorted(near):
        for j in sorted(j for j in near[i] if j > i):
            if bounds[i] == bounds[j]:
                return Verdict.reject("property-2", witness=(i, j),
                                      detail="flaps %d and %d have the same boundary" % (i, j))
            shared = verts[i] & verts[j]
            if shared != bounds[i] & bounds[j]:
                v = sorted(shared ^ (bounds[i] & bounds[j]))[0]
                return Verdict.reject("property-2", witness=(i, j, v),
                                      detail="flaps %d and %d share %r beyond their boundaries"
                                      % (i, j, v))

    # 3: boundary pairs joined inside the flap, by an edge (seen holds the
    # flap's edges) or a path whose internal vertices avoid the boundary
    for i, d in enumerate(rd.flaps):
        for a, b in combinations(sorted(bounds[i]), 2):
            if seen.get((a, b)) != i and bfs(Graph._trusted(d.vertices, d.edges), a,
                                             (set(d.vertices) - bounds[i]) | {b}, (b,))[1] is None:
                return Verdict.reject("property-3", witness=(i, a, b),
                                      detail="boundary pair %r,%r not joined inside flap %d"
                                      % (a, b, i))

    # 4: boundaries have at most 3 vertices
    for i, bs in enumerate(bounds):
        if len(bs) > 3:
            return Verdict.reject("property-4", witness=(i, sorted(bs)),
                                  detail="flap %d has boundary of size %d" % (i, len(bs)))

    # 5: boundary hypergraph drawable in a disk, every boundary corner-linked
    if not _boundaries_embed_in_disk(bounds, rd.compass.corners):
        return Verdict.reject("property-5", witness="disk",
                              detail="boundary hypergraph does not embed in a disk")
    # at most two vertices: Menger on one DFS; three: the flow
    _, top = _separator_tree(kg, rd.compass.corners)
    for i, bs in enumerate(bounds):
        if not (_linked_by_top(top, bs) if len(bs) <= 2 else check_linkage(rd.compass, bs)):
            return Verdict.reject("property-5", witness=("linkage", i),
                                  detail="boundary of flap %d is not linked to the corners" % i)
    return Verdict.accept()


def internal_flaps(rd: RuralDivision) -> List[Graph]:
    """Flaps that avoid the wall perimeter entirely, as Graphs; raises on an invalid wall."""
    _require_valid(rd.compass.wall)
    return _internal_flaps(rd, 0)


def _internal_flaps(rd: RuralDivision, over: int) -> List[Graph]:
    # internal_flaps of more than over vertices, for a wall already verified
    ring = set(_rim(rd.compass.wall))
    return [Graph._trusted(d.vertices, d.edges) for d in rd.flaps
            if len(d.vertices) > over and ring.isdisjoint(d.vertices)]
