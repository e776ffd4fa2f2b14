"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: permutations, subset sweeps and
exhaustive path packing.  Keep inputs tiny.
"""

import itertools
import random
from typing import Optional

from flatwall.graph import Graph
from flatwall.decomposition import TreeDecomposition
from flatwall.minors import (MinorModel, _connected_subsets, _host_masks,
                             _mask_neighborhood)


def treewidth_by_elimination(g: Graph) -> int:
    """Exact treewidth as the best max-clique-at-elimination over all orders."""
    if g.n == 0:
        return -1
    best = g.n - 1
    vs = list(g.vertices)
    for order in itertools.permutations(vs):
        adj = {v: set(g.neighbors(v)) for v in vs}
        worst = 0
        for v in order:
            nb = adj.pop(v)
            worst = max(worst, len(nb))
            for a in nb:
                adj[a].discard(v)
                adj[a] |= nb - {a}
            if worst >= best:
                break
        best = min(best, worst)
    return best


def _connected(g: Graph, vs) -> bool:
    vs = set(vs)
    if not vs:
        return False
    stack = [next(iter(vs))]
    seen = set()
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(u for u in g.neighbors(v) if u in vs and u not in seen)
    return seen == vs


def has_minor_by_partition(host: Graph, pattern: Graph) -> bool:
    """Assign each host vertex to a pattern vertex or to nobody; exhaustive."""
    pv = list(pattern.vertices)
    hv = list(host.vertices)
    if len(hv) < len(pv):
        return False
    for assign in itertools.product([None] + pv, repeat=len(hv)):
        parts = {p: [v for v, a in zip(hv, assign) if a == p] for p in pv}
        if any(not parts[p] for p in pv):
            continue
        if any(not _connected(host, parts[p]) for p in pv):
            continue
        if all(any(host.has_edge(x, y) for x in parts[a] for y in parts[b])
               for a, b in pattern.edges):
            return True
    return False


def min_vertex_cut(g: Graph, sources, sinks) -> int:
    """Set-Menger oracle: smallest separator, subsets may include terminals."""
    sources, sinks = set(sources), set(sinks)

    def linked(blocked):
        seen = {s for s in sources if s not in blocked}
        stack = list(seen)
        while stack:
            v = stack.pop()
            if v in sinks:
                return True
            for u in g.neighbors(v):
                if u not in blocked and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return bool(seen & sinks)

    # a separator no larger than the smaller terminal side always exists
    for size in range(min(len(sources), len(sinks)) + 1):
        for cut in itertools.combinations(g.vertices, size):
            if not linked(set(cut)):
                return size
    raise AssertionError("unreachable: the smaller terminal side is a cut")


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


def random_elimination_td(rng: random.Random, g: Graph) -> TreeDecomposition:
    """Valid decomposition from a random elimination order (fill-in bags)."""
    order = list(g.vertices)
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    bags = {}
    later = {}
    for v in order:
        nb = {u for u in adj[v] if pos[u] > pos[v]}
        bags[pos[v]] = [v] + sorted(nb)
        later[v] = min(nb, key=pos.get) if nb else None
        for a in nb:
            adj[a] |= nb - {a}
            adj[a].discard(v)
    tree_edges = [(pos[v], pos[later[v]]) for v in order if later[v] is not None]
    roots = sorted(pos[v] for v in order if later[v] is None)
    tree_edges += list(zip(roots, roots[1:]))  # chain components into one tree
    tree = Graph(range(g.n), tree_edges)
    return TreeDecomposition(g, tree, bags)


def find_minor_unpruned(host: Graph, pattern: Graph) -> Optional[MinorModel]:
    """find_minor without its capacity cut: same order, same first model."""
    if pattern.n > host.n or pattern.m > host.m:
        return None
    if pattern.n == 0:
        return MinorModel(host, pattern, {})

    order, adj = _host_masks(host)
    full = (1 << host.n) - 1
    porder = sorted(pattern.vertices, key=lambda v: (-pattern.degree(v), v))

    def rec(i, used, sets):
        if i == len(porder):
            return sets
        p = porder[i]
        free = full & ~used
        max_size = free.bit_count() - (len(porder) - i - 1)
        if max_size <= 0:
            return None
        req = [sets[q] for q in pattern.neighbors(p) if q in sets]
        anchors = (_mask_neighborhood(adj, req[0]) & free) if req else free
        for s in _connected_subsets(adj, free, anchors, max_size):
            if any(not _mask_neighborhood(adj, s) & r for r in req[1:]):
                continue
            sets[p] = s
            out = rec(i + 1, used | s, sets)
            if out is not None:
                return out
            del sets[p]
        return None

    found = rec(0, 0, {})
    if found is None:
        return None
    branch = {p: [order[i] for i in range(host.n) if s >> i & 1] for p, s in found.items()}
    return MinorModel(host, pattern, branch)
