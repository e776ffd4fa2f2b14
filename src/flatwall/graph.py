"""Immutable simple graphs with opaque integer vertex ids.

All derived orders (vertex lists, neighbor lists, search orders) are by
ascending id so that every operation is deterministic. Ids are stable under
deletion; nothing is ever renumbered behind the caller's back.
"""
from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from collections import deque
from typing import Container, Iterable, List, Mapping, Optional, Tuple


def _norm_edge(e) -> Tuple[int, int]:
    a, b = e
    if a == b:
        raise ValueError(f"loop edge {e!r} not allowed")
    return (a, b) if a < b else (b, a)


class Graph:
    """Finite simple undirected graph. Immutable value; equality is structural."""

    __slots__ = ("vertices", "edges", "_adj", "_hash")

    def __init__(self, vertices: Iterable[int], edges: Iterable = ()):
        vs = sorted(set(vertices))
        es = sorted({_norm_edge(e) for e in edges})
        vset = set(vs)
        for a, b in es:
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a},{b}) has endpoint outside vertex set")
        self._fill(vs, es)

    @classmethod
    def _trusted(cls, vertices: Iterable[int], edges: Iterable[Tuple[int, int]]) -> "Graph":
        """The graph on vertices and edges that are already sorted, distinct
        and normalised (a < b, both ends among the vertices); nothing is
        checked, so callers pass only parts of a valid graph or input they
        normalised themselves."""
        g = cls.__new__(cls)
        g._fill(vertices, edges)
        return g

    def _fill(self, vs: Iterable[int], es: Iterable[Tuple[int, int]]) -> None:
        self.vertices: Tuple[int, ...] = tuple(vs)
        self.edges: Tuple[Tuple[int, int], ...] = tuple(es)
        adj = {v: [] for v in self.vertices}
        # edges come sorted, so each list gets v's smaller neighbours (from
        # edges (a, v)) ascending, then its larger ones: no sort needed
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = {v: tuple(ns) for v, ns in adj.items()}
        self._hash = hash((self.vertices, self.edges))

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, a: int, b: int) -> bool:
        if a == b:
            return False
        return b in self._adj.get(a, ())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs ------------------------------------------------

    def add_vertices(self, new: Iterable[int]) -> "Graph":
        return self._spliced(set(new).difference(self._adj), (), ())

    def add_edges(self, new: Iterable) -> "Graph":
        es = [_norm_edge(e) for e in new]
        for a, b in sorted(es):
            if a not in self._adj or b not in self._adj:
                raise ValueError(f"edge ({a},{b}) has endpoint outside vertex set")
        return self._spliced((), (), {e for e in es if not self.has_edge(*e)})

    def _spliced(self, new_vertices: Iterable[int], cut: Iterable, new_edges: Iterable) -> "Graph":
        """This graph plus new_vertices and new_edges, minus the edges in cut,
        all checked by the caller (cut edges present, new parts absent and
        normalised): nothing is re-checked, and each sort only merges the
        parent's sorted run with the new items appended to it."""
        vs = [*self.vertices, *new_vertices]
        vs.sort()
        es = list(self.edges)
        for e in cut:
            del es[bisect_left(es, e)]
        es += new_edges
        es.sort()
        return Graph._trusted(vs, es)

    def fresh_id(self) -> int:
        return self.vertices[-1] + 1 if self.vertices else 0


def complete_graph(n: int) -> Graph:
    return Graph(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs >= 3 vertices")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    ss = set(s)
    unknown = ss - set(g.vertices)
    if unknown:
        raise ValueError(f"unknown vertex ids {sorted(unknown)}")
    return Graph._trusted([v for v in g.vertices if v in ss],
                          [e for e in g.edges if e[0] in ss and e[1] in ss])


def delete(g: Graph, vertices: Iterable[int] = (), edges: Iterable = ()) -> Graph:
    vs = set(vertices)
    es = {_norm_edge(e) for e in edges}
    adj = g._adj
    unknown_v = [v for v in vs if v not in adj]
    if unknown_v:
        raise ValueError(f"unknown vertex ids {sorted(unknown_v)}")
    unknown_e = [e for e in es if e[1] not in adj.get(e[0], ())]
    if unknown_e:
        raise ValueError(f"unknown edges {sorted(unknown_e)}")
    keep = [v for v in g.vertices if v not in vs]
    kept_edges = [
        e for e in g.edges if e not in es and e[0] not in vs and e[1] not in vs
    ]
    return Graph._trusted(keep, kept_edges)


def bfs(g: Graph, start: int, allowed: Container[int],
        targets: Container[int] = ()) -> Tuple[dict, Optional[int]]:
    """Breadth-first search from start, entering only vertices in allowed.

    start itself is always entered.  Neighbours are queued in ascending id
    order; the search stops at the first vertex of targets taken off the
    queue.  Returns (parent, hit): parent maps every vertex reached to its
    predecessor (start to None) in the order reached, and hit is the target
    found or None.
    """
    adj = g._adj
    parent = {start: None}
    queue = deque((start,))
    while queue:
        u = queue.popleft()
        if u in targets:
            return parent, u
        for w in adj[u]:
            if w not in parent and w in allowed:
                parent[w] = u
                queue.append(w)
    return parent, None


def path_to(parent: Mapping[int, Optional[int]], v: int) -> List[int]:
    """The path from the root of a bfs parent map to v."""
    path = []
    while v is not None:
        path.append(v)
        v = parent[v]
    return path[::-1]


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(bfs(g, g.vertices[0], g._adj)[0]) == g.n


def adjacency_masks(g: Graph) -> Tuple[List[int], List[int]]:
    """(order, adj): vertices in ascending order, adj[i] the bitmask of the
    neighbours of order[i] by position."""
    order = list(g.vertices)
    index = {v: i for i, v in enumerate(order)}
    adj = [0] * len(order)
    for a, b in g.edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    return order, adj


def strip_leaves(g: Graph) -> Graph:
    """g minus its vertices of degree at most 1, repeated until none is left."""
    while True:
        drop = [v for v in g.vertices if g.degree(v) <= 1]
        if not drop:
            return g
        g = delete(g, vertices=drop)


def graph_hash(g: Graph) -> str:
    """Stable content hash used to reference host graphs from certificates."""
    payload = json.dumps(
        {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]},
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()
