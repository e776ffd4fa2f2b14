"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: permutations, subset sweeps and
exhaustive path packing.  Keep inputs tiny.
"""

import itertools
import json
import random
from collections import Counter, deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from flatwall.graph import (Graph, adjacency_masks, bfs, delete, induced_subgraph, is_connected,
                            path_to)
from flatwall.common import SizeCapExceeded, Verdict
from flatwall.decomposition import TREEWIDTH_CAP, TreeDecomposition
from flatwall.minors import (ContractionModel, MinorModel, SmoothContractionWitness,
                             _connected_subsets, _mask_neighborhood)
from flatwall.paths import DisjointPathsResult
from flatwall.planarity import (RotationEmbedding, _canon_cycle, embeds_in_disk_with_boundary,
                                is_planar, planarizing_set, trace_faces, validate_embedding)
from flatwall.rural import RuralDivision, check_linkage
from flatwall.wall import Compass


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


def max_vertex_disjoint_paths_by_network(g: Graph, sources: Iterable[int],
                                         sinks: Iterable[int]) -> Tuple[int, List[List[int]]]:
    """Maximum set of pairwise vertex-disjoint paths from sources to sinks.

    Unit vertex capacities, so disjointness includes endpoints; a vertex in
    both sets contributes a zero-length path.  Returns (count, paths).

    Reference for flatwall.paths.max_vertex_disjoint_paths: augmenting paths
    by breadth-first search over a split-vertex unit-capacity network, with
    the flow walked back out of the capacities at the end.
    """
    src = sorted(set(sources))
    snk = sorted(set(sinks))
    for v in src + snk:
        if not g.has_vertex(v):
            raise ValueError("terminal %r is not in the graph" % (v,))
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = g.n
    # node 2i = v_in, 2i+1 = v_out, 2n = source, 2n+1 = sink
    S, T = 2 * n, 2 * n + 1
    cap = [dict() for _ in range(2 * n + 2)]

    def arc(u, w):
        cap[u][w] = 1
        cap[w].setdefault(u, 0)

    for v in g.vertices:
        arc(2 * idx[v], 2 * idx[v] + 1)
    for a, b in g.edges:
        arc(2 * idx[a] + 1, 2 * idx[b])
        arc(2 * idx[b] + 1, 2 * idx[a])
    for v in src:
        arc(S, 2 * idx[v])
    for v in snk:
        arc(2 * idx[v] + 1, T)

    # augmenting paths by BFS over the residual capacities (not a Graph)
    flow = 0
    while True:
        parent = {S: None}
        queue = deque([S])
        while queue and T not in parent:
            u = queue.popleft()
            for w in sorted(cap[u]):
                if w not in parent and cap[u][w] > 0:
                    parent[w] = u
                    queue.append(w)
        if T not in parent:
            break
        w = T
        while parent[w] is not None:
            u = parent[w]
            cap[u][w] -= 1
            cap[w][u] += 1
            w = u
        flow += 1

    # walk the unit flow out of S; vertex capacities keep the walks simple
    back = list(g.vertices)
    paths = []
    for v in src:
        if cap[S][2 * idx[v]] != 0:
            continue
        walk = [v]
        node = 2 * idx[v] + 1
        while T not in cap[node] or cap[node][T] != 0:
            nxt = next(w for w in sorted(cap[node])
                       if w % 2 == 0 and w < 2 * n and cap[node][w] == 0)
            cap[node][nxt] = 1  # consume the arc so parallel walks stay apart
            walk.append(back[nxt // 2])
            node = nxt + 1
        cap[node][T] = 1
        paths.append(walk)
    assert len(paths) == flow
    return flow, paths


def apex_number_by_loop(g: Graph) -> Tuple[int, Tuple[int, ...]]:
    """Apex number with the lexicographically least witness: one planarity
    test per vertex set, smallest sets first, no Euler shortcut."""
    for size in range(g.n + 1):
        for s in itertools.combinations(g.vertices, size):
            if is_planar(delete(g, s)):
                return size, s
    raise AssertionError("unreachable: the empty graph is planar")


def apex_rule_by_loop(host: Graph, pattern: Graph) -> bool:
    """True iff find_minor's apex rule answers None, decided by its former
    loop: one host size at a time, below the pattern's apex number."""
    for size in range(pattern.n):
        if planarizing_set(pattern, size) is not None:
            break
        if planarizing_set(host, size) is not None:
            return True
    return False


def embeds_in_disk_by_subdivided_rim(g: Graph, cycle) -> bool:
    """Disk test by a second gadget: subdivide every edge of the rim cycle
    and join a hub to every rim and subdivision vertex.  The gadget is
    planar iff some face of g is bounded by the whole cycle."""
    cyc = list(cycle)
    pairs = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
    rim = {tuple(sorted(p)) for p in pairs}
    first = g.fresh_id()
    hub = first + len(pairs)
    verts = list(g.vertices) + list(range(first, hub + 1))
    edges = [e for e in g.edges if e not in rim] + [(hub, v) for v in cyc]
    for s, (a, b) in enumerate(pairs, first):
        edges += [(a, s), (s, b), (hub, s)]
    return is_planar(Graph(verts, edges))


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


def _elim_neighborhood(adj: List[int], done: int, v: int) -> int:
    # Vertices outside done reachable from v via paths internal to done:
    # the neighborhood of v once done has been eliminated.
    vbit = 1 << v
    comp = vbit
    reach = adj[v]
    frontier = reach & done & ~comp
    while frontier:
        comp |= frontier
        acc = 0
        m = frontier
        while m:
            low = m & -m
            acc |= adj[low.bit_length() - 1]
            m ^= low
        reach |= acc
        frontier = reach & done & ~comp
    return reach & ~done & ~vbit


def exact_treewidth_dp(g: Graph, cap: int = TREEWIDTH_CAP) -> Tuple[int, TreeDecomposition]:
    """exact_treewidth by the full subset DP over all 2^n elimination
    prefixes, then a greedy walk taking from each prefix the smallest v with
    best[S|v] <= tw; it must give the same (tw, bags, tree)."""
    n = g.n
    if n > cap:
        raise SizeCapExceeded("treewidth DP capped at %d vertices, got %d" % (cap, n))
    if n == 0:
        return -1, TreeDecomposition(g, Graph([0]), {0: ()})

    order, adj = adjacency_masks(g)
    full = (1 << n) - 1
    best = bytearray(full + 1)  # best[S] = min over orders of eliminating V\S after S
    for s in range(full - 1, -1, -1):
        rem = full & ~s
        b = n  # any single elimination step touches at most n-1 neighbors
        m = rem
        while m:
            low = m & -m
            q = _elim_neighborhood(adj, s, low.bit_length() - 1).bit_count()
            sub = best[s | low]
            val = q if q > sub else sub
            if val < b:
                b = val
            m ^= low
        best[s] = b

    tw = best[0]

    # Lexicographically smallest elimination order achieving width tw:
    # from each prefix, the smallest next vertex that stays within tw.
    elim = []
    s = 0
    for _ in range(n):
        for v in range(n):
            bit = 1 << v
            if s & bit:
                continue
            q = _elim_neighborhood(adj, s, v).bit_count()
            if q <= tw and best[s | bit] <= tw:
                elim.append(v)
                s |= bit
                break

    # Bag of the i-th eliminated vertex: itself plus its elimination
    # neighborhood; its parent is the first-eliminated member of that
    # neighborhood.  Parent-less bags (one per component) are chained.
    pos = {v: i for i, v in enumerate(elim)}
    bags = {}
    parent: Dict[int, Optional[int]] = {}
    done = 0
    for i, v in enumerate(elim):
        nb = _elim_neighborhood(adj, done, v)
        members = [u for u in range(n) if nb >> u & 1]
        bags[i] = [order[v]] + [order[u] for u in members]
        parent[i] = min(pos[u] for u in members) if members else None
        done |= 1 << v
    tree_edges = [(i, p) for i, p in parent.items() if p is not None]
    roots = sorted(i for i, p in parent.items() if p is None)
    tree_edges.extend(zip(roots, roots[1:]))
    td = TreeDecomposition(g, Graph(range(n), tree_edges), bags)
    return tw, td


def validate_by_scan(td: TreeDecomposition) -> Verdict:
    """decomposition.validate as it was before the trace pass: a scan of
    every bag per host edge, and one breadth-first search per vertex over
    its trace.  Same verdicts on any decomposition built by the checked
    constructor."""
    covered = set()
    for bag in td.bags.values():
        covered |= bag
    for v in td.host.vertices:
        if v not in covered:
            return Verdict.reject("uncovered-vertex", witness=v,
                                  detail="vertex %r is in no bag" % (v,))
    for a, b in td.host.edges:
        if not any(a in bag and b in bag for bag in td.bags.values()):
            return Verdict.reject("uncovered-edge", witness=(a, b),
                                  detail="edge %r-%r is inside no bag" % (a, b))
    for v in td.host.vertices:
        trace = [i for i in td.tree.vertices if v in td.bags[i]]
        if len(bfs(td.tree, trace[0], set(trace))[0]) != len(trace):
            return Verdict.reject("disconnected-trace", witness=v,
                                  detail="trace of vertex %r spans a disconnected set of bags" % (v,))
    return Verdict.accept()


def verify_minor_model_pairwise(m: MinorModel) -> Verdict:
    """minors.verify_minor_model as it was before the owner map: every pair
    of branch sets intersected, one induced subgraph per set."""
    for v in m.pattern.vertices:
        if not m.branch_sets.get(v):
            return Verdict.reject("empty-branch-set", witness=v)
    ids = sorted(m.branch_sets)
    for i, v in enumerate(ids):
        for u in ids[i + 1:]:
            if m.branch_sets[v] & m.branch_sets[u]:
                return Verdict.reject("overlapping-branch-sets", witness=(v, u))
    for v in m.pattern.vertices:
        if not is_connected(induced_subgraph(m.host, m.branch_sets[v])):
            return Verdict.reject("branch-set-disconnected", witness=v)
    for v, u in m.pattern.edges:
        sv, su = m.branch_sets[v], m.branch_sets[u]
        if not any(b in su for a in sv for b in m.host.neighbors(a)):
            return Verdict.reject("unrealized-pattern-edge", witness=(v, u))
    return Verdict.accept()


def verify_contraction_by_induced_subgraphs(m: ContractionModel) -> Verdict:
    """minors.verify_contraction as it was before it ran verify_minor_model:
    one induced subgraph per preimage and one per pattern edge's joint
    preimage, each tested for connectivity."""
    models = {v: set() for v in m.pattern.vertices}
    for u, img in m.phi.items():
        models[img].add(u)
    empty = [v for v in m.pattern.vertices if not models[v]]
    if empty:
        raise ValueError("phi is not surjective: no preimage for %r" % (empty[0],))
    for v in m.pattern.vertices:
        if not is_connected(induced_subgraph(m.host, models[v])):
            return Verdict.reject("model-disconnected", witness=v,
                                  detail="preimage of %r induces a disconnected graph" % (v,))
    for v, u in m.pattern.edges:
        if not is_connected(induced_subgraph(m.host, models[v] | models[u])):
            return Verdict.reject("edge-union-disconnected", witness=(v, u),
                                  detail="joint preimage of pattern edge %r-%r is disconnected" % (v, u))
    for a, b in m.host.edges:
        fa, fb = m.phi[a], m.phi[b]
        if fa != fb and not m.pattern.has_edge(fa, fb):
            return Verdict.reject("host-edge-unmatched", witness=(a, b),
                                  detail="host edge %r-%r maps to non-edge %r-%r" % (a, b, fa, fb))
    return Verdict.accept()


def preimage_by_scan(m: ContractionModel, v: int) -> frozenset:
    """ContractionModel.model_of as it was before the preimage map: a scan
    of all of phi."""
    return frozenset(u for u, img in m.phi.items() if img == v)


def verify_smooth_contraction_by_scans(w: SmoothContractionWitness) -> Verdict:
    """minors.verify_smooth_contraction as it was before the preimage map,
    with its contraction check through the induced-subgraph oracle: one scan
    of phi per model, and each model tested against every face in turn."""
    ok = verify_contraction_by_induced_subgraphs(w.model)
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
    edge_faces: Dict[Tuple[int, int], List[int]] = {}
    region_vertices = set()
    for i, f in enumerate(chosen):
        region_vertices.update(f)
        for j in range(len(f)):
            a, b = f[j], f[(j + 1) % len(f)]
            edge_faces.setdefault((a, b) if a < b else (b, a), []).append(i)
    if any(len(fs) > 2 for fs in edge_faces.values()):
        return Verdict.reject("disk-not-a-disk", detail="an edge lies on more than two chosen face sides")
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
    model_v = preimage_by_scan(w.model, w.v)
    if exterior != model_v:
        return Verdict.reject("exterior-mismatch",
                              witness=sorted(exterior ^ model_v),
                              detail="vertices outside the disk differ from the model of %r" % (w.v,))
    for u in w.model.pattern.vertices:
        if u == w.v:
            continue
        mu = preimage_by_scan(w.model, u)
        if not any(not (mu & set(f)) for f in all_faces):
            return Verdict.reject("model-not-in-open-disk", witness=u)
    return Verdict.accept()


def jsonable(x):
    """The CLI's witness conversion before reports passed witnesses as they
    are: sets sorted, tuples as lists, dict keys as strings, any other
    object as its repr."""
    if x is None or isinstance(x, (str, int, float, bool)):
        return x
    if isinstance(x, (set, frozenset)):
        return sorted(jsonable(v) for v in x)
    if isinstance(x, (tuple, list)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in sorted(x.items())}
    return repr(x)


def dumps_like_jsonable(witness) -> bool:
    """Whether a report writes witness as it is, byte for byte as it wrote
    jsonable(witness)."""
    return json.dumps(witness, sort_keys=True) == json.dumps(jsonable(witness), sort_keys=True)


def minor_to_contraction(m: MinorModel) -> ContractionModel:
    """The contraction a minor model certifies, of a host subgraph.

    The subgraph keeps all edges inside branch sets but only one
    realizing edge per pattern edge, so that stray host edges between
    non-adjacent branch sets do not break condition 3.
    """
    owner = {u: v for v, s in m.branch_sets.items() for u in s}
    keep = []
    realized = set()
    for a, b in m.host.edges:
        if a not in owner or b not in owner:
            continue
        va, vb = owner[a], owner[b]
        if va == vb:
            keep.append((a, b))
        elif m.pattern.has_edge(va, vb) and (min(va, vb), max(va, vb)) not in realized:
            realized.add((min(va, vb), max(va, vb)))
            keep.append((a, b))
    return ContractionModel(Graph(sorted(owner), keep), m.pattern, owner)


def find_minor_unpruned(host: Graph, pattern: Graph) -> Optional[MinorModel]:
    """find_minor with no cut at all: same order, same first model.

    It keeps only the checks that define a model (disjoint connected branch
    sets touching their placed pattern neighbours) and none of find_minor's
    rules: no apex rule, no capacity rule, no subtree rules (a) to (c) and
    no K4 rule.
    """
    if pattern.n > host.n or pattern.m > host.m:
        return None
    if pattern.n == 0:
        return MinorModel(host, pattern, {})

    order, adj = adjacency_masks(host)
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


def two_disjoint_paths_bfs_each_node(g: Graph, first: Tuple[int, int],
                                     second: Tuple[int, int]) -> DisjointPathsResult:
    """two_disjoint_paths with a fresh second-pair search at every state,
    no route reuse: same states, paths and explored."""
    s1, t1 = first
    s2, t2 = second
    for v in (s1, t1, s2, t2):
        if not g.has_vertex(v):
            raise ValueError("vertex %r is not in the graph" % (v,))
    if len({s1, t1, s2, t2}) != 4:
        raise ValueError("need four distinct endpoints")
    explored = 0

    path = [s1]
    free = set(g.vertices) - {s1}  # vertices off the first path
    banned = {s2, t2}  # the first path may never touch the second pair
    goal = (t2,)
    todo = []  # one neighbour iterator per path vertex still being expanded

    def enter() -> Optional[Tuple[List[int], List[int]]]:
        nonlocal explored
        explored += 1
        u = path[-1]
        parent, hit = bfs(g, s2, free, goal)
        if u == t1:
            if hit is not None:
                return list(path), path_to(parent, hit)
        elif hit is not None:
            todo.append(iter(g.neighbors(u)))
        return None

    found = enter()
    while found is None and todo:
        for w in todo[-1]:
            if w in free and w not in banned:
                path.append(w)
                free.discard(w)
                found = enter()
                break
        else:
            todo.pop()
        if len(todo) < len(path):
            free.add(path.pop())
    if found is not None:
        return DisjointPathsResult("found", found, explored)
    return DisjointPathsResult("none", None, explored)


def _branch_multigraph(g: Graph):
    """Collapse maximal chains of degree-2 vertices.

    Returns (branch_vertices, chains, cycles) where chains is a list of
    (u, v, length) for paths between branch vertices (length = edge count) and
    cycles is a list of lengths of components that are bare cycles.
    """
    branch = [v for v in g.vertices if g.degree(v) != 2]
    bset = set(branch)
    chains: List[Tuple[int, int, int]] = []
    seen_dir = set()
    for u in branch:
        for w in g.neighbors(u):
            if (u, w) in seen_dir:
                continue
            # walk the chain starting with edge u-w until the next branch vertex
            path = [u, w]
            seen_dir.add((u, w))
            prev, cur = u, w
            while cur not in bset:
                nxt = [x for x in g.neighbors(cur) if x != prev][0]
                prev, cur = cur, nxt
                path.append(cur)
            seen_dir.add((path[-1], path[-2]))
            chains.append((min(u, path[-1]), max(u, path[-1]), len(path) - 1))
    # components with no branch vertex at all are bare cycles
    reach = set(branch)
    stack = list(branch)
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in reach:
                reach.add(w)
                stack.append(w)
    cycles: List[int] = []
    comp_seen = set()
    for v in g.vertices:
        if v in reach or v in comp_seen:
            continue
        comp = [v]
        comp_seen.add(v)
        stk = [v]
        while stk:
            u = stk.pop()
            for w in g.neighbors(u):
                if w not in comp_seen and w not in reach:
                    comp_seen.add(w)
                    comp.append(w)
                    stk.append(w)
        cycles.append(len(comp))
    chains.sort()
    return branch, chains, cycles


def is_isomorphic_to_subdivision(big: Graph, small: Graph) -> bool:
    """True iff big is isomorphic to some subdivision of small.

    Both graphs are collapsed to branch multigraphs (vertices of degree != 2
    joined by chains with recorded lengths, plus bare-cycle components); big
    matches iff there is a multigraph isomorphism under which every chain of
    small maps to a chain at least as long, and bare cycles pair up likewise.
    """
    b1, ch1, cy1 = _branch_multigraph(big)
    b2, ch2, cy2 = _branch_multigraph(small)
    if len(b1) != len(b2) or len(ch1) != len(ch2) or len(cy1) != len(cy2):
        return False
    # bare cycles: ascending pairing realizes a big >= small matching if any exists
    if any(big_len < small_len for big_len, small_len in zip(sorted(cy1), sorted(cy2))):
        return False
    # group chains by endpoints
    def grouped(chains):
        d: Dict[Tuple[int, int], List[int]] = {}
        for u, v, ln in chains:
            d.setdefault((u, v), []).append(ln)
        for lens in d.values():
            lens.sort()
        return d

    g1, g2 = grouped(ch1), grouped(ch2)
    # degree (in the multigraph) signature per branch vertex
    def mdeg(groups, verts):
        d = {v: 0 for v in verts}
        for (u, v), lens in groups.items():
            d[u] += len(lens)
            d[v] += len(lens)
        return d

    d1, d2 = mdeg(g1, b1), mdeg(g2, b2)
    if Counter(d1.values()) != Counter(d2.values()):
        return False

    order = sorted(b2, key=lambda v: (-d2[v], v))
    mapping: Dict[int, int] = {}
    used = set()

    def pair_ok(v_small: int, v_big: int) -> bool:
        # every already-mapped small neighbor group must match in multiplicity
        for u in mapping:
            key_s = (min(u, v_small), max(u, v_small))
            key_b = (min(mapping[u], v_big), max(mapping[u], v_big))
            lens_s = g2.get(key_s, [])
            lens_b = g1.get(key_b, [])
            if len(lens_s) != len(lens_b):
                return False
            if any(lb < ls for ls, lb in zip(lens_s, lens_b)):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in sorted(b1):
            if w in used or d1[w] != d2[v]:
                continue
            if pair_ok(v, w):
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    # pair_ok enforced multiplicities and lengths for every mapped pair, and the
    # total chain counts agree, so a completed extension is a full match
    return extend(0)


# ---------------------------------------------------------------------------
# rural boundaries flap by flap, the reference for the sweep that
# validate_rural reads every boundary off (rural._swept_boundaries)


def boundary(k: Compass, j) -> FrozenSet[int]:
    """Boundary of a subgraph j (a Graph or a flap record): corners of the
    compass lying in j, plus vertices of j incident to a compass edge
    outside j."""
    j = Graph(j.vertices, j.edges)
    kg = k.graph
    for v in j.vertices:
        if not kg.has_vertex(v):
            raise ValueError("subgraph vertex %r is not in the compass" % (v,))
    for a, b in j.edges:
        if not kg.has_edge(a, b):
            raise ValueError("subgraph edge %r-%r is not in the compass" % (a, b))
    corners = set(k.corners)
    out = set()
    jedges = set(j.edges)
    for v in j.vertices:
        if v in corners:
            out.add(v)
            continue
        for u in kg.neighbors(v):
            if (min(u, v), max(u, v)) not in jedges:
                out.add(v)
                break
    return frozenset(out)


def boundaries(rd: RuralDivision) -> Tuple[FrozenSet[int], ...]:
    return tuple(boundary(rd.compass, d) for d in rd.flaps)


def validate_rural_pairwise(rd: RuralDivision) -> Verdict:
    """validate_rural as it was before property 2 used vertex and boundary
    indexes: property 2 compares every pair of flaps.  Check properties 1-5
    in order; the verdict names the first failure.

    Raises if a flap is not a subgraph of the compass.  Each flap, a Graph
    or a record, is read as Graph(vertices, edges).
    """
    kg = rd.compass.graph
    flaps = [Graph(d.vertices, d.edges) for d in rd.flaps]
    for i, d in enumerate(flaps):
        for v in d.vertices:
            if not kg.has_vertex(v):
                raise ValueError("flap %d references vertex %r outside the compass" % (i, v))
        for a, b in d.edges:
            if not kg.has_edge(a, b):
                raise ValueError("flap %d references edge %r-%r outside the compass" % (i, a, b))

    # 1: non-empty edge sets partitioning the compass edges
    seen = {}
    for i, d in enumerate(flaps):
        if d.m == 0:
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

    # 2: distinct boundaries; shared vertices are exactly shared boundary
    bounds = boundaries(rd)
    for i in range(len(flaps)):
        for j in range(i + 1, len(flaps)):
            if bounds[i] == bounds[j]:
                return Verdict.reject("property-2", witness=(i, j),
                                      detail="flaps %d and %d have the same boundary" % (i, j))
            shared = set(flaps[i].vertices) & set(flaps[j].vertices)
            if shared != set(bounds[i] & bounds[j]):
                v = sorted(shared ^ (bounds[i] & bounds[j]))[0]
                return Verdict.reject("property-2", witness=(i, j, v),
                                      detail="flaps %d and %d share %r beyond their boundaries"
                                      % (i, j, v))

    # 3: boundary pairs joined inside the flap, internally off the boundary:
    # a search from one end that enters no other boundary vertex
    for i, d in enumerate(flaps):
        bs = sorted(bounds[i])
        for a in range(len(bs)):
            for b in range(a + 1, len(bs)):
                inside = (set(d.vertices) - set(bs)) | {bs[b]}
                if bfs(d, bs[a], inside, (bs[b],))[1] is None:
                    return Verdict.reject("property-3", witness=(i, bs[a], bs[b]),
                                          detail="boundary pair %r,%r not joined inside flap %d"
                                          % (bs[a], bs[b], i))

    # 4: boundaries have at most 3 vertices
    for i, bs in enumerate(bounds):
        if len(bs) > 3:
            return Verdict.reject("property-4", witness=(i, sorted(bs)),
                                  detail="flap %d has boundary of size %d" % (i, len(bs)))

    # 5: boundary hypergraph drawable in a disk, every boundary corner-linked
    verts = set(rd.compass.corners).union(*bounds)
    if not disk_embeddable_by_incidence_graph(verts, bounds, rd.compass.corners):
        return Verdict.reject("property-5", witness="disk",
                              detail="boundary hypergraph does not embed in a disk")
    for i, bs in enumerate(bounds):
        if not check_linkage(rd.compass, bs):
            return Verdict.reject("property-5", witness=("linkage", i),
                                  detail="boundary of flap %d is not linked to the corners" % i)
    return Verdict.accept()


# ---------------------------------------------------------------------------
# rural property 5 by intermediate graphs: the disk test on the incidence
# graph of the boundary hypergraph, and the linkage of boundaries of at most
# two vertices off a block-cut tree of Hopcroft-Tarjan blocks, walked into
# one separator set per vertex


def incidence_graph(vertices: Iterable[int], boundaries: Sequence[Iterable[int]]) -> Graph:
    """Bipartite incidence graph of the boundaries over the vertices;
    vertex ids kept, one fresh id per boundary, in order, consecutive after
    the largest vertex id."""
    vs = sorted(vertices)
    base = vs[-1] + 1 if vs else 0
    nodes = range(base, base + len(boundaries))
    edges = [(v, x) for x, bs in zip(nodes, boundaries) for v in bs]
    return Graph(vs + list(nodes), edges)


def disk_embeddable_by_incidence_graph(vertices: Iterable[int], boundaries: Sequence[Iterable[int]],
                                       corners) -> bool:
    """rural._boundaries_embed_in_disk on the incidence graph itself."""
    return embeds_in_disk_with_boundary(incidence_graph(vertices, boundaries), corners)


def biconnected_blocks(g: Graph) -> List[Tuple[Tuple[int, int], ...]]:
    """Edge sets of the biconnected components, iterative Hopcroft-Tarjan
    (a lowpoint DFS, hence its own stack of neighbour iterators)."""
    depth: Dict[int, int] = {}
    low: Dict[int, int] = {}
    parent: Dict[int, int] = {}
    blocks: List[Tuple[Tuple[int, int], ...]] = []
    estack: List[Tuple[int, int]] = []
    for root in g.vertices:
        if root in depth:
            continue
        depth[root] = low[root] = 0
        stack = [(root, iter(g.neighbors(root)))]
        while stack:
            v, it = stack[-1]
            pushed = False
            for w in it:
                if w not in depth:
                    parent[w] = v
                    depth[w] = low[w] = depth[v] + 1
                    estack.append((v, w))
                    stack.append((w, iter(g.neighbors(w))))
                    pushed = True
                    break
                if w != parent.get(v) and depth[w] < depth[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], depth[w])
            if pushed:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= depth[u]:
                    block = set()
                    while estack:
                        e = estack.pop()
                        block.add(tuple(sorted(e)))
                        if e == (u, v):
                            break
                    blocks.append(tuple(sorted(block)))
    return blocks


def separator_tree_by_blocks(g: Graph, corners: Sequence[int]) -> Dict[int, int]:
    """up[v] for each vertex v of g that reaches a corner: the next vertex
    that separates v from the corners, or a sink t joined to every corner
    (a fresh id, with up[t] = t) if none does.

    The map is read off one block-cut tree of g plus t, rooted at t: up[v]
    is the cut vertex (or t) at which the block holding v nearest to t
    hangs, so v, up[v], up[up[v]], ... before t are v and the vertices
    that separate it from the corners.
    """
    t = g.fresh_id()
    blocks = biconnected_blocks(Graph(g.vertices + (t,), g.edges + tuple((c, t) for c in corners)))
    block_vertices = [{v for e in block for v in e} for block in blocks]
    blocks_of: Dict[int, List[int]] = {}
    for i, vs in enumerate(block_vertices):
        for v in vs:
            blocks_of.setdefault(v, []).append(i)
    up = {t: t}
    order = [t]
    opened = set()
    for v in order:
        for i in blocks_of[v]:
            if i not in opened:
                opened.add(i)
                for w in block_vertices[i] - up.keys():
                    up[w] = v
                    order.append(w)
    return up


def _separators(up: Dict[int, int], v: int) -> set:
    out = set()
    while up[v] != v:
        out.add(v)
        v = up[v]
    return out


def linked_by_separators(up: Dict[int, int], e: Iterable[int]) -> bool:
    """check_linkage for a boundary of at most two vertices, from
    separator_tree_by_blocks.

    By Menger's theorem |e| disjoint paths run from e to the corners iff no
    set of fewer than |e| vertices separates e from them: each vertex of e
    reaches a corner, and no one vertex separates both of a pair.
    """
    vs = sorted(set(e))
    if any(v not in up for v in vs):
        return False
    return len(vs) < 2 or not _separators(up, vs[0]) & _separators(up, vs[1])


# ---------------------------------------------------------------------------
# face-splitting embedder (Demoucron-Malgrange-Pertuiset), the planarity
# engine before the left-right test: start from a cycle (two faces), then
# repeatedly embed one attachment-to-attachment path of a bridge with the
# fewest admissible faces into such a face, splitting it in two.  A bridge
# with no admissible face proves the block, hence the graph, not planar.
# Every bridge is recomputed after each path, so it is about quadratic.


def _find_cycle(g: Graph, start: int) -> List[int]:
    # DFS until a back edge closes a cycle; g is biconnected with >= 3 vertices.
    # Its own loop on purpose: the cycle it finds seeds, and so fixes, the embedding.
    parent = {start: None}
    stack = [start]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in g.neighbors(v):
            if w not in parent:
                parent[w] = v
                stack.append(w)
            elif parent[v] != w and parent.get(w) != v:
                # back edge v-w: build cycle from the tree paths
                pv, pw = [], []
                a = v
                while a is not None:
                    pv.append(a)
                    a = parent[a]
                a = w
                seen = set(pv)
                while a not in seen:
                    pw.append(a)
                    a = parent[a]
                meet = a
                cyc = pv[: pv.index(meet) + 1]
                cyc.reverse()  # [meet, ..., v]
                cyc.extend(pw)  # then v-w back edge, w's tree path down to meet
                if len(cyc) >= 3:
                    return cyc
    raise ValueError("no cycle found in supposed biconnected block")


def _bridges(g: Graph, emb_v: set, emb_e: set):
    """Bridges of g relative to the embedded subgraph.

    Returns a list of (attachments, path) where path runs between two
    attachments and its interior avoids embedded vertices.
    """
    out = []
    for e in g.edges:
        if e not in emb_e and e[0] in emb_v and e[1] in emb_v:
            out.append((frozenset(e), list(e)))
    outside = set(g.vertices) - emb_v
    for v in g.vertices:
        if v not in outside:
            continue
        comp = bfs(g, v, outside)[0]
        outside.difference_update(comp)
        attach = sorted({w for u in comp for w in g.neighbors(u) if w in emb_v})
        # biconnected block: every such component has >= 2 attachments; the
        # path runs a -> first component vertex next to b, in BFS order
        a, b = attach[0], attach[1]
        parent, hit = bfs(g, a, comp, comp.keys() & set(g.neighbors(b)))
        out.append((frozenset(attach), path_to(parent, hit) + [b]))
    return out


def _split_face(face: List[int], path: List[int]) -> Tuple[List[int], List[int]]:
    x, y = path[0], path[-1]
    i, j = face.index(x), face.index(y)
    if i <= j:
        seg_a = face[i : j + 1]
        seg_b = face[j:] + face[: i + 1]
    else:
        seg_a = face[i:] + face[: j + 1]
        seg_b = face[j : i + 1]
    interior = path[1:-1]
    face1 = seg_a[:-1] + [y] + list(reversed(interior))
    face2 = seg_b[:-1] + [x] + interior
    return face1, face2


def _embed_block(g: Graph) -> Optional[List[List[int]]]:
    """Faces of a planar embedding of a biconnected block, or None."""
    cyc = _find_cycle(g, g.vertices[0])
    faces: List[List[int]] = [list(cyc), list(reversed(cyc))]
    emb_v = set(cyc)
    emb_e = {tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)]))) for i in range(len(cyc))}
    total_edges = set(g.edges)
    while emb_e != total_edges:
        bridges = _bridges(g, emb_v, emb_e)
        face_sets = [set(f) for f in faces]
        best = None
        for attach, path in bridges:
            adm = [fi for fi, f in enumerate(face_sets) if attach <= f]
            if not adm:
                return None
            key = (len(adm), sorted(attach))
            if best is None or key < best[0]:
                best = (key, adm[0], path)
        _, face_idx, path = best
        f1, f2 = _split_face(faces[face_idx], path)
        faces[face_idx] = f1
        faces.insert(face_idx + 1, f2)
        emb_v.update(path)
        for i in range(len(path) - 1):
            emb_e.add(tuple(sorted((path[i], path[i + 1]))))
    return faces


def _rotation_from_faces(faces: List[List[int]]) -> Dict[int, Tuple[int, ...]]:
    nxt: Dict[int, Dict[int, int]] = {}
    for f in faces:
        m = len(f)
        for t in range(m):
            a, b, c = f[t - 1], f[t], f[(t + 1) % m]
            nxt.setdefault(b, {})[a] = c
    rot: Dict[int, Tuple[int, ...]] = {}
    for v, mapping in nxt.items():
        start = min(mapping)
        cycle = [start]
        cur = mapping[start]
        while cur != start:
            cycle.append(cur)
            cur = mapping[cur]
        if len(cycle) != len(mapping):
            raise ValueError("face set does not induce a single rotation cycle")
        rot[v] = tuple(cycle)
    return rot


def _block_faces(g: Graph) -> Optional[list]:
    """(block, faces) for each biconnected block in sorted order, faces None
    for a single edge; None as soon as a block is not planar."""
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return None
    out = []
    for block in sorted(biconnected_blocks(g)):
        faces = None
        if len(block) > 1:
            faces = _embed_block(Graph({v for e in block for v in e}, block))
            if faces is None:
                return None
        out.append((block, faces))
    return out


def embed_planar(g: Graph) -> Optional[RotationEmbedding]:
    """Planar embedding with rotation system, or None if not planar."""
    blocks = _block_faces(g)
    if blocks is None:
        return None
    rotation: Dict[int, List[int]] = {v: [] for v in g.vertices}
    for block, faces in blocks:
        if faces is None:
            a, b = block[0]
            rotation[a].append((b,))
            rotation[b].append((a,))
            continue
        for v, cyc in _rotation_from_faces(faces).items():
            rotation[v].append(cyc)
    merged = {v: tuple(x for cyc in cycles for x in cyc) for v, cycles in rotation.items()}
    faces = trace_faces(g, merged)
    if faces:
        outer = max(faces, key=lambda f: (len(f), _canon_cycle(f)))
    else:
        outer = ()
    return RotationEmbedding(g, merged, tuple(outer))
