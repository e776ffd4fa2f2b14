"""Planarity: a yes/no test, disk embeddings with a given boundary, and
apex sets.

The yes/no test `is_planar` first shrinks the graph to its degree-3 kernel:
it deletes vertices of degree at most one and smooths vertices of degree two
into an edge (or deletes them, when that edge is already there), which
preserves planarity both ways.  Only the kernel, often empty, is tested, by
the left-right planarity test (de Fraysseix, Ossona de Mendez and
Rosenstiehl, "Trémaux trees and planarity", 2006; Brandes, "The Left-Right
Planarity Test", 2009): two depth-first searches, linear in the kernel's
size, that answer yes or no and build no embedding.  The disk test and
the apex search reduce to it.
"""
from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .common import SizeCapExceeded
from .graph import Graph

APEX_CAP = 16


def _lr_planar(adj: Dict[int, set]) -> bool:
    """The left-right planarity test on the simple graph with adjacency sets adj.

    The first depth-first search orients every edge, tree edges away from
    the root and back edges toward it, and gives each edge its two lowest
    return heights; the second takes each vertex's outgoing edges by
    nesting depth and keeps the return edges of finished subtrees on a
    stack of conflict pairs (two intervals of return edges that must lie on
    opposite sides).  The graph is planar iff no return edge is forced onto
    both sides.  Both searches keep their own stacks, so no recursion limit
    bounds the depth; a forest of search trees covers disconnected graphs.
    """
    n = len(adj)
    m = sum(map(len, adj.values())) // 2
    if n >= 3 and m > 3 * n - 6:
        return False
    index = {v: i for i, v in enumerate(adj)}
    nbrs = [[index[w] for w in ns] for ns in adj.values()]
    height, parent, pos = [-1] * n, [-1] * n, [0] * n  # parent: the tree edge in
    src, dst, low, low2, depth = ([0] * m for _ in range(5))
    out: List[List[int]] = [[] for _ in range(n)]
    edges = 0

    def settle(e: int) -> None:
        # e's nesting depth; its return heights pass to the tree edge above it
        up = parent[src[e]]
        depth[e] = 2 * low[e] + (low2[e] < height[src[e]])
        if up >= 0:
            if low[e] < low[up]:
                low2[up] = min(low[up], low2[e])
                low[up] = low[e]
            else:
                low2[up] = min(low2[up], low[e] if low[e] > low[up] else low2[e])

    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        stack = [root]
        while stack:
            v = stack[-1]
            ns, hv = nbrs[v], height[v]
            above = src[parent[v]] if parent[v] >= 0 else -1
            while pos[v] < len(ns):
                w = ns[pos[v]]
                pos[v] += 1
                if height[w] >= hv or w == above:
                    continue  # oriented from w already, as a back edge or the tree edge
                e, edges = edges, edges + 1
                out[v].append(e)
                src[e], dst[e], low2[e] = v, w, hv
                if height[w] < 0:
                    low[e], parent[w], height[w] = hv, e, hv + 1
                    stack.append(w)
                    break
                low[e] = height[w]
                settle(e)
            else:
                stack.pop()
                if parent[v] >= 0:
                    settle(parent[v])

    for es in out:
        es.sort(key=depth.__getitem__)
    ref: List[Optional[int]] = [None] * m
    low_edge: List[Optional[int]] = [None] * m
    bottom: List[Optional[list]] = [None] * m
    pairs: List[list] = []  # conflict pairs [left low, left high, right low, right high]

    def constrain(ei: int, e: int) -> bool:
        # merge the return edges of ei, then those of earlier siblings that
        # conflict with them, into one new pair; False once a side is forced twice
        l_low = l_high = r_low = r_high = None
        while True:
            q = pairs.pop()
            if q[0] is not None:
                q[:] = q[2:] + q[:2]
                if q[0] is not None:
                    return False
            if low[q[2]] > low[e]:
                if r_low is None:
                    r_high = q[3]
                else:
                    ref[r_low] = q[3]
                r_low = q[2]
            else:
                ref[q[2]] = low_edge[e]
            if (pairs[-1] if pairs else None) is bottom[ei]:
                break

        def conflicting(high: Optional[int]) -> bool:
            return high is not None and low[high] > low[ei]

        while pairs and (conflicting(pairs[-1][1]) or conflicting(pairs[-1][3])):
            q = pairs.pop()
            if conflicting(q[3]):
                q[:] = q[2:] + q[:2]
                if conflicting(q[3]):
                    return False
            if r_low is not None:
                ref[r_low] = q[3]
            if q[2] is not None:
                r_low = q[2]
            if l_low is None:
                l_high = q[1]
            else:
                ref[l_low] = q[1]
            l_low = q[0]
        if l_low is not None or r_low is not None:
            pairs.append([l_low, l_high, r_low, r_high])
        return True

    def integrate(ei: int) -> bool:
        # the return edges of ei, a back edge or a finished tree edge, at its source
        v = src[ei]
        if low[ei] >= height[v]:
            return True
        if ei == out[v][0]:
            low_edge[parent[v]] = low_edge[ei]
            return True
        return constrain(ei, parent[v])

    def trim(u: int) -> None:
        # drop the back edges that end at u, as the search returns to u
        while pairs and min(low[x] for x in pairs[-1][0::2] if x is not None) == height[u]:
            pairs.pop()
        if pairs:
            q = pairs[-1]
            for side in (0, 2):  # the left interval, then the right one
                while q[side + 1] is not None and dst[q[side + 1]] == u:
                    q[side + 1] = ref[q[side + 1]]
                if q[side + 1] is None and q[side] is not None:
                    ref[q[side]] = q[2 - side]
                    q[side] = None

    pos = [0] * n
    for root in range(n):
        stack = [root] if parent[root] < 0 else []
        while stack:
            v = stack[-1]
            es = out[v]
            while pos[v] < len(es):
                ei = es[pos[v]]
                pos[v] += 1
                bottom[ei] = pairs[-1] if pairs else None
                if parent[dst[ei]] == ei:
                    stack.append(dst[ei])
                    break
                low_edge[ei] = ei
                pairs.append([None, None, ei, ei])
                if not integrate(ei):
                    return False
            else:
                stack.pop()
                e = parent[v]
                if e >= 0:
                    trim(src[e])
                    if not integrate(e):
                        return False
    return True


def _kernel_planar(adj: Dict[int, set]) -> bool:
    """Planarity of the graph with adjacency sets adj, which it consumes.

    Deleting a vertex of degree at most one, smoothing a vertex of degree
    two into an edge between its neighbours, and deleting such a vertex
    when its neighbours are already adjacent (a path beside an edge can be
    drawn next to it) all preserve planarity both ways.  What is left when
    none applies has minimum degree 3, or is empty and so planar.
    """
    todo = [v for v, ns in adj.items() if len(ns) <= 2]
    while todo:
        v = todo.pop()
        ns = adj.get(v)
        if ns is None or len(ns) > 2:
            continue
        del adj[v]
        for u in ns:
            adj[u].discard(v)
        if len(ns) == 2:
            a, b = ns
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
        todo.extend(ns)
    if not adj:
        return True
    return _lr_planar(adj)


def is_planar(g: Graph) -> bool:
    return _kernel_planar({v: set(g.neighbors(v)) for v in g.vertices})


def planarizing_set(g: Graph, size: int) -> Optional[Tuple[int, ...]]:
    """The lexicographically first set of exactly size vertices whose
    deletion leaves g planar, or None.

    Sets are tried in combinations order of the sorted vertices.  Euler's
    bound rules a set S out without a planarity test: with r = n - |S| >= 3
    remaining vertices, g - S is not planar if it keeps more than 3r - 6
    edges, counted as m - (degrees in S) + (edges inside S).  For r <= 5
    the bound is exact, since K5 is the only non-planar graph on at most 5
    vertices, so no test runs at all.
    """
    rest = g.n - size
    limit = 3 * rest - 6 if rest >= 3 else None
    for s in combinations(g.vertices, size):
        if limit is not None:
            inside = sum(1 for i, a in enumerate(s) for b in s[i + 1:] if g.has_edge(a, b))
            if g.m - sum(g.degree(v) for v in s) + inside > limit:
                continue
        if rest <= 5 or _kernel_planar({v: set(g.neighbors(v)).difference(s)
                                        for v in g.vertices if v not in s}):
            return s
    return None


def apex_number(g: Graph) -> Tuple[int, Tuple[int, ...]]:
    """Smallest number of vertices whose removal leaves g planar, with the
    lexicographically least witness set."""
    if g.n > APEX_CAP:
        raise SizeCapExceeded("apex search capped at %d vertices, got %d" % (APEX_CAP, g.n))
    for size in range(g.n + 1):
        s = planarizing_set(g, size)
        if s is not None:
            return size, s
    raise AssertionError("unreachable: the empty graph is planar")


def embeds_in_disk_with_boundary(g: Graph, cycle: Sequence[int]) -> bool:
    """True iff g embeds in a closed disk with the cycle's vertices on the
    boundary in this cyclic order; equivalently, iff g plus the rim edges
    of the cycle that it lacks embeds in a disk bounded by the cycle.

    The test adds the missing rim edges and one hub joined to every cycle
    vertex, and asks whether that graph is planar.  Hub and rim form a
    wheel, which is 3-connected, so its embedding is unique.  A piece of
    the graph drawn inside a triangle hub-a-b can attach to the rest only
    at a and b (the rim edge ab is present), so it can be flipped across
    ab; once every triangle is empty, deleting the hub leaves the rim
    bounding a face.  Conversely a hub fits into any face the rim bounds.
    """
    return _disk_planar({v: set(ns) for v, ns in g._adj.items()}, cycle)


def _disk_planar(adj: Dict[int, set], cycle: Sequence[int]) -> bool:
    """embeds_in_disk_with_boundary for the graph with adjacency sets adj,
    which it consumes."""
    cyc = list(cycle)
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise ValueError("boundary must be a simple cycle")
    for v in cyc:
        if v not in adj:
            raise ValueError(f"boundary vertex {v} is not in the graph")
    hub = max(adj) + 1
    adj[hub] = set(cyc)
    for i, a in enumerate(cyc):
        adj[a].update((cyc[i - 1], cyc[(i + 1) % len(cyc)], hub))
    return _kernel_planar(adj)
