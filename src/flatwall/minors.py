"""Minor and contraction relations with explicit certifying models.

A contraction is certified by a total map phi (host vertex -> pattern
vertex), a minor by disjoint connected branch sets, a topological minor by
an injective branch-vertex map plus internally disjoint paths.  find_minor
is exhaustive within size caps, so a None is a proof of absence, not a
timeout, and iter_topological_embeddings lists every subdivision
embedding.  find_minor also answers None without a search
when the host's apex number is below the pattern's; apex number cannot
grow under taking minors, so that None is a proof of absence too.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .common import SizeCapExceeded, Verdict
from .decomposition import treewidth_at_most
from .graph import Graph, adjacency_masks, bfs, delete, is_connected
from .planarity import (RotationEmbedding, _canon_cycle, apex_number, planarizing_set,
                        trace_faces, validate_embedding)

MINOR_PATTERN_CAP = 6
MINOR_HOST_CAP = 30


class ContractionModel:
    """Total map phi from host vertices onto pattern vertices."""

    __slots__ = ("host", "pattern", "phi", "models")

    def __init__(self, host: Graph, pattern: Graph, phi: Mapping[int, int]):
        for v in host.vertices:
            if v not in phi:
                raise ValueError("phi is not total: vertex %r unmapped" % (v,))
        models = {v: set() for v in pattern.vertices}
        for v, img in phi.items():
            if not host.has_vertex(v):
                raise ValueError("phi maps unknown host vertex %r" % (v,))
            if not pattern.has_vertex(img):
                raise ValueError("phi hits unknown pattern vertex %r" % (img,))
            models[img].add(v)
        self.host = host
        self.pattern = pattern
        self.phi = dict(phi)
        self.models = {v: frozenset(s) for v, s in models.items()}

    def model_of(self, v: int) -> frozenset:
        """The set of host vertices mapped to pattern vertex v."""
        return self.models.get(v, frozenset())


def verify_contraction(m: ContractionModel) -> Verdict:
    """Check the three contraction conditions; report the first failure.

    In order: each preimage induces a connected subgraph, each pattern
    edge's joint preimage induces a connected subgraph, and each host edge
    maps to equal endpoints or to a pattern edge.  The preimages are
    disjoint, so verify_minor_model on them as branch sets checks the first
    two in the same order: two connected preimages have a connected union
    iff a host edge joins them.
    """
    empty = [v for v in m.pattern.vertices if not m.models[v]]
    if empty:
        raise ValueError("phi is not surjective: no preimage for %r" % (empty[0],))
    ok = verify_minor_model(MinorModel(m.host, m.pattern, m.models))
    if ok.condition == "branch-set-disconnected":
        v = ok.witness
        return Verdict.reject("model-disconnected", witness=v,
                              detail="preimage of %r induces a disconnected graph" % (v,))
    if ok.condition == "unrealized-pattern-edge":
        v, u = ok.witness
        return Verdict.reject("edge-union-disconnected", witness=(v, u),
                              detail="joint preimage of pattern edge %r-%r is disconnected" % (v, u))
    for a, b in m.host.edges:
        fa, fb = m.phi[a], m.phi[b]
        if fa != fb and not m.pattern.has_edge(fa, fb):
            return Verdict.reject("host-edge-unmatched", witness=(a, b),
                                  detail="host edge %r-%r maps to non-edge %r-%r" % (a, b, fa, fb))
    return Verdict.accept()


class MinorModel:
    """Pairwise disjoint connected branch sets, one per pattern vertex."""

    __slots__ = ("host", "pattern", "branch_sets")

    def __init__(self, host: Graph, pattern: Graph, branch_sets: Mapping[int, Iterable[int]]):
        self.host = host
        self.pattern = pattern
        self.branch_sets = {v: frozenset(s) for v, s in branch_sets.items()}
        for v in self.branch_sets:
            if not pattern.has_vertex(v):
                raise ValueError("branch set for unknown pattern vertex %r" % (v,))
            for u in self.branch_sets[v]:
                if not host.has_vertex(u):
                    raise ValueError("branch set of %r contains unknown vertex %r" % (v, u))


def verify_minor_model(m: MinorModel) -> Verdict:
    """Check disjointness, connectivity, and edge realization of branch sets.

    One pass over the sets in ascending pattern id builds the owner map
    (host vertex -> the smallest id whose set holds it).  An overlap makes
    the first pair (v, u): v is the smallest owner of a shared vertex, u the
    next id whose set meets v's.  Once the sets are disjoint, an edge vu is
    realized iff some host neighbour of v's set is owned by u.
    """
    sets = m.branch_sets
    for v in m.pattern.vertices:
        if not sets.get(v):
            return Verdict.reject("empty-branch-set", witness=v)
    owner: Dict[int, int] = {}
    first = None
    for v in sorted(sets):
        for x in sets[v]:
            q = owner.setdefault(x, v)
            if q != v and (first is None or q < first):
                first = q
    if first is not None:
        sv = sets[first]
        u = next(u for u in sorted(sets) if u > first and not sv.isdisjoint(sets[u]))
        return Verdict.reject("overlapping-branch-sets", witness=(first, u))
    for v in m.pattern.vertices:
        s = sets[v]
        if len(s) > 1 and len(bfs(m.host, next(iter(s)), s)[0]) != len(s):
            return Verdict.reject("branch-set-disconnected", witness=v)
    touched: Dict[int, set] = {}
    for v, u in m.pattern.edges:
        if v not in touched:
            touched[v] = {owner.get(b) for a in sets[v] for b in m.host.neighbors(a)}
        if u not in touched[v]:
            return Verdict.reject("unrealized-pattern-edge", witness=(v, u))
    return Verdict.accept()


def _mask_neighborhood(adj: List[int], mask: int) -> int:
    acc = 0
    m = mask
    while m:
        low = m & -m
        acc |= adj[low.bit_length() - 1]
        m ^= low
    return acc & ~mask


def _falls_short(adj: List[int], seed: int, within: int, size: int, masks: List[int]) -> int:
    """The component of seed in G[within] (seed included) if it has fewer
    than size vertices or misses a mask, else 0.  The search grows breadth
    first from seed and stops as soon as the grown set is large enough and
    meets every mask."""
    comp = frontier = seed
    while True:
        if comp.bit_count() >= size:
            for m in masks:
                if not comp & m:
                    break
            else:
                return 0
        frontier = _mask_neighborhood(adj, frontier) & within & ~comp
        if not frontier:
            return comp
        comp |= frontier


def _grow_connected(adj: List[int], s: int, size: int, ok: int, max_size: int,
                    dead: Optional[Callable[[int, int], bool]]) -> Iterator[int]:
    # Binary-partition enumeration: branch on each frontier vertex in
    # ascending order, excluding it from all later branches at this level,
    # so every connected superset is produced exactly once.  s is inside ok,
    # and the subtree below s yields only connected sets between s and ok;
    # dead(s, ok) true skips all of them.
    if dead is not None and dead(s, ok):
        return
    yield s
    if size == max_size:
        return
    ext = _mask_neighborhood(adj, s) & ok
    shut = 0
    while ext:
        v = ext & -ext
        ext ^= v
        yield from _grow_connected(adj, s | v, size + 1, ok & ~shut, max_size, dead)
        shut |= v


def _connected_subsets(adj: List[int], allowed: int, anchors: int, max_size: int,
                       dead: Optional[Callable[[int, int], bool]] = None) -> Iterator[int]:
    """All connected subsets of allowed meeting anchors, in depth-first order.

    Canonical form: the smallest anchor contained in the subset; smaller
    anchors are banned from the extension, so each subset appears once.
    Sets with the same smallest anchor come out depth first: each set, then
    the sets that extend it by its lowest frontier vertex, then by its next
    one with the lowest excluded, and so on (on grid(2, 3): [0], [0, 1],
    [0, 1, 2], [0, 1, 2, 3], ...).  dead, when given, cuts a set together
    with every set that the enumeration would grow from it.
    """
    banned = 0
    seeds = anchors & allowed
    while seeds:
        low = seeds & -seeds
        seeds ^= low
        yield from _grow_connected(adj, low, 1, allowed & ~banned, max_size, dead)
        banned |= low


def _dead_test(adj: List[int], free: int, cap: List[Tuple[int, int]], reach: List[int],
               room: List[Tuple[int, List[int]]]) -> Optional[Callable[[int, int], bool]]:
    """The subtree cut of find_minor's rules (a) to (c) for one branch set.

    cap holds (free neighbours of a placed branch set, count needed), reach
    the free neighbourhoods the new set must meet, room (group size, free
    neighbourhoods the group's component must meet).  None when all three
    are empty, so the enumerator pays nothing.
    """
    if not (cap or reach or room):
        return None

    def dead(s: int, ok: int) -> bool:
        for m, c in cap:
            if (m & ~s).bit_count() < c:
                return True
        if reach and _falls_short(adj, s, ok, 0, reach):
            return True
        rest = free & ~s
        for size, masks in room:
            seeds = rest & masks[0]
            while seeds:
                comp = _falls_short(adj, seeds & -seeds, rest, size, masks)
                if not comp:
                    break
                seeds &= ~comp
            else:
                return True
        return False

    return dead


@lru_cache(maxsize=32)
def _pattern_tables(pattern: Graph) -> tuple:
    """find_minor's tables that depend on the pattern alone, kept for the
    last few patterns: (apex number, porder, own, needs, k4, room)."""
    a, _ = apex_number(pattern)
    porder = sorted(pattern.vertices, key=lambda v: (-pattern.degree(v), v))
    pos = {q: j for j, q in enumerate(porder)}
    padj = [sum(1 << pos[r] for r in pattern.neighbors(q)) for q in porder]
    # own[i]: the unplaced neighbour count of porder[i] once it is placed;
    # needs[i]: (q, count) for each earlier q with unplaced neighbours left,
    # newest first, since the newest sets are the likeliest to fail;
    # k4[i]: whether the pattern vertices after porder[i] hold a K4 minor;
    # room[i]: (size, placed neighbours but porder[i]) for each component of
    # the pattern vertices after porder[i] that has such neighbours
    own, needs, k4, room = [], [], [], []
    for i in range(len(porder)):
        later = (1 << len(porder)) - (2 << i)
        count = [(padj[j] & later).bit_count() for j in range(i + 1)]
        own.append(count[i])
        needs.append(tuple((porder[j], count[j]) for j in reversed(range(i)) if count[j]))
        k4.append(not treewidth_at_most(padj, later, 2))
        groups, rest = [], later
        while rest:
            # no group reaches len(porder) vertices, so this is a whole component
            group = _falls_short(padj, rest & -rest, rest, len(porder), [])
            rest &= ~group
            placed = _mask_neighborhood(padj, group) & ((1 << i) - 1)
            if placed:
                groups.append((group.bit_count(),
                               tuple(porder[j] for j in range(i) if placed >> j & 1)))
        room.append(tuple(groups))
    return a, tuple(porder), tuple(own), tuple(needs), tuple(k4), tuple(room)


def find_minor(host: Graph, pattern: Graph) -> Optional[MinorModel]:
    """Exhaustive branch-set search: a valid model, or None if none exists.

    Pattern vertices are placed in the fixed order (degree descending,
    then id); each branch set is a connected subset of the free host
    vertices, enumerated in _connected_subsets' depth-first order (by the
    smallest anchor it holds, then each set before the sets grown from
    it).  The search is depth-first and returns the first complete model
    in that order.  A pattern over MINOR_PATTERN_CAP vertices or a host
    over MINOR_HOST_CAP raises SizeCapExceeded.

    Capacity rule: after placing a branch set, every placed pattern vertex
    q with c unplaced pattern neighbours must still have at least c free
    host vertices adjacent to its branch set, since each of those
    neighbours needs its own disjoint branch set touching it.  A partial
    placement that breaks the rule has no completion, so cutting it skips
    only dead subtrees: the order in which complete models are reached is
    unchanged and the first model found is the same as without the rule.

    Subtree rules: while placing pattern vertex p, the enumerator grows
    each candidate set s inside an allowed set ok, and every set it would
    grow from s is a connected t with s <= t <= ok.  Before s is yielded,
    three rules are tried on it; each one that holds for s holds for every
    such t, so no such t has a completion and the whole subtree is cut.
    The sets that remain come out in the same order, so the first model
    is unchanged.  B(q) is the branch set of a placed q and N(B(q)) its
    neighbourhood outside it.
    (a) Earlier capacity: the capacity rule for each placed q other than
    p.  The free vertices of N(B(q)) outside t are among those outside s,
    so if s leaves fewer than c of them, every t does.  (For q = p,
    N(B(p)) grows with s, so that check waits for the yielded set.)
    (b) Reach: for each placed pattern neighbour q of p after the first,
    t must meet N(B(q)).  t is connected, holds s and lies in ok, so t
    lies in the component of s in G[ok]; if that component misses
    N(B(q)), every t misses it.
    (c) Room: let X be a component of the pattern vertices placed after
    p, with placed neighbours R other than p.  The branch sets of X are
    connected, pairwise joined along the edges of X and disjoint from the
    used vertices and t, so their union lies in one component of
    G[free - t], has at least |X| vertices and meets N(B(r)) for every r
    in R.  Each component of G[free - t] lies inside one of G[free - s],
    so if no component of G[free - s] is that large and meets every such
    N(B(r)), no component of G[free - t] is either.  p is left out of R
    because N(B(p)) changes with s.

    K4 rule: the pattern vertices still unplaced must form a minor of the
    free host vertices.  K4-minor-free graphs (treewidth at most 2) form a
    minor-closed class, so when the unplaced vertices hold a K4 minor and
    the free vertices do not, the placement has no completion and is cut,
    again without changing which model is found first.  Both sides are
    decided by treewidth_at_most(..., 2).  At k = 2 every vertex of degree
    at most 2 is almost simplicial, so that search never branches: it is
    the series-parallel reduction (delete a vertex of degree <= 1, replace
    one of degree 2 by an edge between its neighbours), and it is exact.

    Apex rule, checked before the search: the graphs G with a set A of at
    most a vertices such that G - A is planar form a minor-closed class.
    Deleting a vertex or an edge keeps G - A planar; contracting an edge
    outside A contracts G - A, which stays planar; contracting an edge
    that touches A merges its ends into one vertex of A.  So a host that
    turns planar after deleting fewer vertices than the pattern's apex
    number a has no pattern minor, and None is returned without a search.
    One size suffices: a superset of a planarizing set is planarizing, so
    a set smaller than a exists iff one of size a - 1 does, and a - 1 <
    pattern.n <= host.n, so the host has sets of that size.  The rule
    answers only calls whose search would end in None, so every model
    found is the one found without it.
    """
    if pattern.n > MINOR_PATTERN_CAP:
        raise SizeCapExceeded("pattern capped at %d vertices, got %d"
                              % (MINOR_PATTERN_CAP, pattern.n))
    if host.n > MINOR_HOST_CAP:
        raise SizeCapExceeded("host capped at %d vertices, got %d" % (MINOR_HOST_CAP, host.n))
    if pattern.n > host.n or pattern.m > host.m:
        return None
    if pattern.n == 0:
        return MinorModel(host, pattern, {})
    a, porder, own, needs, k4, room = _pattern_tables(pattern)
    if a and planarizing_set(host, a - 1) is not None:
        return None

    order, adj = adjacency_masks(host)
    full = (1 << host.n) - 1
    nbs: Dict[int, int] = {}  # placed pattern vertex -> N(branch set)

    def rec(i: int, used: int, sets: Dict[int, int]) -> Optional[Dict[int, int]]:
        if i == len(porder):
            return sets
        p = porder[i]
        free = full & ~used
        max_size = free.bit_count() - (len(porder) - i - 1)
        if max_size <= 0:
            return None
        req = [nbs[q] for q in pattern.neighbors(p) if q in sets]
        anchors = (req[0] & free) if req else free
        dead = _dead_test(adj, free, [(nbs[q] & free, c) for q, c in needs[i]],
                          [r & free for r in req[1:]],
                          [(size, [nbs[r] & free for r in rs]) for size, rs in room[i]])
        for s in _connected_subsets(adj, free, anchors, max_size, dead):
            if any(not r & s for r in req[1:]):
                continue
            nbs[p] = _mask_neighborhood(adj, s)
            left = free & ~s
            if (nbs[p] & left).bit_count() < own[i]:
                continue
            if k4[i] and treewidth_at_most(adj, left, 2):
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


def verify_topological_embedding(host: Graph, pattern: Graph, vertex_map: Mapping[int, int],
                                 paths: Mapping[Tuple[int, int], Sequence[int]]) -> Verdict:
    """vertex_map injective, and for each pattern edge a < b a host path paths[(a, b)]
    from vertex_map[a] to vertex_map[b]; the paths share no vertex but their ends."""
    vm = vertex_map
    if sorted(vm) != list(pattern.vertices):
        return Verdict.reject("bad-vertex-map", witness=sorted(set(vm) ^ set(pattern.vertices)))
    if len(set(vm.values())) != len(vm):
        return Verdict.reject("vertex-map-not-injective")
    for v in vm.values():
        if not host.has_vertex(v):
            return Verdict.reject("unknown-host-vertex", witness=v)
    want = {(min(e), max(e)) for e in pattern.edges}
    if set(paths) != want:
        return Verdict.reject("path-keys-mismatch", witness=sorted(set(paths) ^ want))
    interior_seen = set()
    branch = set(vm.values())
    for (a, b), p in sorted(paths.items()):
        if len(p) < 2 or p[0] != vm[a] or p[-1] != vm[b]:
            return Verdict.reject("path-endpoints", witness=(a, b))
        if len(set(p)) != len(p):
            return Verdict.reject("path-self-intersects", witness=(a, b))
        for x, y in zip(p, p[1:]):
            if not host.has_edge(x, y):
                return Verdict.reject("path-edge-missing", witness=(x, y))
        for x in p[1:-1]:
            if x in branch or x in interior_seen:
                return Verdict.reject("paths-overlap", witness=x)
        interior_seen.update(p[1:-1])
    return Verdict.accept()


def _iter_paths(host: Graph, start: int, goals, blocked: set,
                max_len: int) -> Iterator[Tuple[int, ...]]:
    """Simple paths from start into goals, shortest first, then lexicographic.

    Interior vertices avoid blocked and goals; goals is a predicate over
    candidate endpoints.
    """
    for length in range(1, max_len + 1):
        path = [start]
        on_path = {start}

        def dfs(remaining: int) -> Iterator[Tuple[int, ...]]:
            at = path[-1]
            for w in host.neighbors(at):
                if w in on_path or w in blocked:
                    continue
                if remaining == 1:
                    if goals(w):
                        yield tuple(path) + (w,)
                    continue
                if goals(w):
                    continue  # goal vertices only close a path
                path.append(w)
                on_path.add(w)
                yield from dfs(remaining - 1)
                path.pop()
                on_path.remove(w)

        yield from dfs(length)


def iter_topological_embeddings(host: Graph, pattern: Graph) -> Iterator[Tuple[dict, dict]]:
    """All subdivision embeddings of pattern in host as fresh (vertex map, paths)
    pairs, short paths first.  Uncapped: the search is exponential, so callers
    bound the input sizes."""
    if pattern.n > host.n or pattern.m > host.m:
        return
    if pattern.n == 0:
        yield {}, {}
        return

    # Per component: map its smallest vertex, then its edges in breadth-first
    # reach order, so every edge has a mapped endpoint when reached.
    plan = []  # (kind, payload): ("root", v) or ("edge", (a, b))
    unreached = set(pattern.vertices)
    for v in pattern.vertices:
        if v not in unreached:
            continue
        reach = bfs(pattern, v, unreached)[0]
        unreached.difference_update(reach)
        plan.append(("root", v))
        edges = dict.fromkeys((min(x, w), max(x, w)) for x in reach for w in pattern.neighbors(x))
        plan.extend(("edge", e) for e in edges)

    vm: Dict[int, int] = {}
    paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    used = set()  # branch images plus path interiors

    def degree_ok(hv: int, pv: int) -> bool:
        return host.degree(hv) >= pattern.degree(pv)

    def step(i: int) -> Iterator[Tuple[dict, dict]]:
        if i == len(plan):
            yield dict(vm), dict(paths)
            return
        kind, payload = plan[i]
        if kind == "root":
            v = payload
            for hv in host.vertices:
                if hv in used or not degree_ok(hv, v):
                    continue
                vm[v] = hv
                used.add(hv)
                yield from step(i + 1)
                used.remove(hv)
                del vm[v]
            return
        a, b = payload
        if a not in vm:
            a, b = b, a
        start = vm[a]
        room = host.n - len(used)
        if b in vm:
            goal = vm[b]
            blocked = used - {start, goal}
            for p in _iter_paths(host, start, lambda w: w == goal, blocked, room + 1):
                paths[(min(a, b), max(a, b))] = p if a < b else tuple(reversed(p))
                used.update(p[1:-1])
                yield from step(i + 1)
                used.difference_update(p[1:-1])
                del paths[(min(a, b), max(a, b))]
        else:
            blocked = used - {start}
            free_goal = lambda w: w not in used and degree_ok(w, b)
            for p in _iter_paths(host, start, free_goal, blocked, room):
                vm[b] = p[-1]
                paths[(min(a, b), max(a, b))] = p if a < b else tuple(reversed(p))
                used.update(p[1:])
                yield from step(i + 1)
                used.difference_update(p[1:])
                del paths[(min(a, b), max(a, b))]
                del vm[b]

    yield from step(0)


def delta_y(g: Graph, triangle: Iterable[int]) -> Tuple[Graph, int]:
    """Replace a triangle by a new degree-3 hub adjacent to its corners."""
    tri = sorted(set(triangle))
    if len(tri) != 3:
        raise ValueError("need three distinct vertices, got %r" % (tri,))
    x, y, z = tri
    for a, b in ((x, y), (y, z), (x, z)):
        if not g.has_edge(a, b):
            raise ValueError("%r does not induce a triangle: %r-%r missing" % (tri, a, b))
    w = g.fresh_id()
    out = delete(g, edges=[(x, y), (y, z), (x, z)])
    out = out.add_vertices([w]).add_edges([(x, w), (y, w), (z, w)])
    return out, w


def subdivide(g: Graph, e: Tuple[int, int]) -> Tuple[Graph, int]:
    """Replace edge e by a length-two path through a fresh vertex."""
    a, b = e
    if not g.has_edge(a, b):
        raise ValueError("cannot subdivide missing edge %r" % (e,))
    w = g.fresh_id()
    out = delete(g, edges=[(a, b)])
    return out.add_vertices([w]).add_edges([(a, w), (w, b)]), w


@dataclass(frozen=True)
class SmoothContractionWitness:
    """A contraction plus the closed disk that isolates one model.

    The disk is a union of faces of the embedded part of the host; every
    host vertex outside that union (including any vertex missing from the
    embedding entirely) must belong to the model of v.
    """

    model: ContractionModel
    embedding: RotationEmbedding
    v: int
    disk_faces: frozenset


def verify_smooth_contraction(w: SmoothContractionWitness) -> Verdict:
    ok = verify_contraction(w.model)
    if not ok:
        raise ValueError("invalid contraction model: %s" % ok.condition)
    emb_ok = validate_embedding(w.embedding)
    if not emb_ok:
        raise ValueError("invalid embedding: %s" % emb_ok.condition)
    host = w.model.host
    eg = w.embedding.graph
    if not (set(eg.vertices) <= set(host.vertices) and set(eg.edges) <= set(host.edges)):
        raise ValueError("embedded part is not a subgraph of the host")
    if not w.model.pattern.has_vertex(w.v):
        raise ValueError("unknown pattern vertex %r" % (w.v,))

    all_faces = trace_faces(eg, w.embedding.rotation)
    by_canon = {_canon_cycle(f): f for f in all_faces}
    chosen = []
    for f in w.disk_faces:
        cf = by_canon.get(_canon_cycle(tuple(f)))
        if cf is None:
            return Verdict.reject("unknown-disk-face", witness=tuple(f))
        chosen.append(cf)
    if not chosen:
        return Verdict.reject("disk-not-a-disk", detail="no faces chosen")

    # The chosen faces covering each undirected edge: interior edges are
    # covered twice, boundary edges once.
    edge_faces: Dict[Tuple[int, int], List[int]] = {}
    region_vertices = set()
    for i, f in enumerate(chosen):
        region_vertices.update(f)
        for j in range(len(f)):
            a, b = f[j], f[(j + 1) % len(f)]
            edge_faces.setdefault((a, b) if a < b else (b, a), []).append(i)
    if any(len(fs) > 2 for fs in edge_faces.values()):
        return Verdict.reject("disk-not-a-disk", detail="an edge lies on more than two chosen face sides")

    # Chosen faces must form one edge-connected patch.
    patch = Graph(range(len(chosen)),
                  [(i, j) for fs in edge_faces.values() for i in fs for j in fs if i < j])
    if not is_connected(patch):
        return Verdict.reject("disk-not-a-disk", detail="chosen faces are not edge-connected")

    if len(region_vertices) - len(edge_faces) + len(chosen) != 1:
        return Verdict.reject("disk-not-a-disk", detail="face union is not simply connected")

    boundary = [e for e, fs in edge_faces.items() if len(fs) == 1]
    ring = Graph({v for e in boundary for v in e}, boundary)
    if not boundary or any(ring.degree(v) != 2 for v in ring.vertices) or not is_connected(ring):
        return Verdict.reject("disk-not-a-disk", detail="boundary is not a single cycle")

    exterior = set(host.vertices) - region_vertices
    model_v = w.model.model_of(w.v)
    if exterior != model_v:
        return Verdict.reject("exterior-mismatch",
                              witness=sorted(exterior ^ model_v),
                              detail="vertices outside the disk differ from the model of %r" % (w.v,))

    # Every other model must avoid some face, so it fits in an open disk: phi
    # must not give its vertex on every face (all_faces holds the chosen ones).
    on_every_face = set.intersection(*({w.model.phi[x] for x in f} for f in all_faces))
    for u in w.model.pattern.vertices:
        if u != w.v and u in on_every_face:
            return Verdict.reject("model-not-in-open-disk", witness=u)
    return Verdict.accept()
