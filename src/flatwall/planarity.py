"""Planarity testing that produces a combinatorial embedding (rotation system).

The embedder works per biconnected block with the classic incremental
face-splitting scheme: start from any cycle (two faces), then repeatedly pick a
bridge of the embedded subgraph, check which current faces contain all of its
attachment vertices, and embed one attachment-to-attachment path through the
bridge into such a face, splitting it in two. If some bridge has no admissible
face the block (hence the graph) is not planar; preferring bridges with exactly
one admissible face makes the procedure exact. Quadratic-ish in the block
size, and fine at desk scale.

The yes/no test `is_planar` first shrinks the graph to its degree-3 kernel:
it deletes vertices of degree at most one and smooths vertices of degree two
into an edge (or deletes them, when that edge is already there), which
preserves planarity both ways.  Only the kernel, often empty, is embedded,
and its rotation system is never assembled.

Faces are kept as directed vertex cycles so that every embedded edge occurs
exactly once in each direction; the rotation system is read off from the face
set and block rotations are concatenated at cut vertices.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .common import SizeCapExceeded, Verdict
from .graph import Graph, bfs, connected_components, path_to

APEX_CAP = 16


# ---------------------------------------------------------------------------
# biconnected blocks


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


# ---------------------------------------------------------------------------
# face-splitting embedder for one biconnected block


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


# ---------------------------------------------------------------------------
# public embedding type


@dataclass(frozen=True)
class RotationEmbedding:
    """Rotation system plus one designated outer facial walk."""

    graph: Graph
    rotation: Dict[int, Tuple[int, ...]]
    outer_face: Tuple[int, ...]


def trace_faces(graph: Graph, rotation: Dict[int, Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Facial walks: orbits of directed edges under the rotation successor rule."""
    faces = []
    seen = set()
    for a in graph.vertices:
        for b in rotation.get(a, ()):
            if (a, b) in seen:
                continue
            walk = []
            x, y = a, b
            while (x, y) not in seen:
                seen.add((x, y))
                walk.append(x)
                rot = rotation[y]
                z = rot[(rot.index(x) + 1) % len(rot)]
                x, y = y, z
            faces.append(tuple(walk))
    return faces


def _canon_cycle(walk: Sequence[int]) -> Tuple[int, ...]:
    w = tuple(walk)
    rots = [w[i:] + w[:i] for i in range(len(w))]
    return min(rots)


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
    kernel = Graph(adj, [(a, b) for a, ns in adj.items() for b in ns if a < b])
    return _block_faces(kernel) is not None


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


def apex_number(g: Graph, cap: int = APEX_CAP) -> Tuple[int, Tuple[int, ...]]:
    """Smallest number of vertices whose removal leaves g planar, with the
    lexicographically least witness set."""
    if g.n > cap:
        raise SizeCapExceeded("apex search capped at %d vertices, got %d" % (cap, g.n))
    for size in range(g.n + 1):
        s = planarizing_set(g, size)
        if s is not None:
            return size, s
    raise AssertionError("unreachable: the empty graph is planar")


def validate_embedding(emb: RotationEmbedding) -> Verdict:
    g = emb.graph
    if set(emb.rotation) != set(g.vertices):
        return Verdict.reject("rotation-domain", sorted(set(emb.rotation) ^ set(g.vertices)))
    for v in g.vertices:
        if tuple(sorted(emb.rotation[v])) != g.neighbors(v):
            return Verdict.reject("rotation-neighbors", v)
    faces = trace_faces(g, emb.rotation)
    if emb.outer_face and _canon_cycle(emb.outer_face) not in {_canon_cycle(f) for f in faces}:
        return Verdict.reject("outer-face", emb.outer_face)
    # Euler formula per connected component; an isolated vertex counts one face
    for comp in connected_components(g):
        cset = set(comp)
        ecount = sum(1 for e in g.edges if e[0] in cset)
        fcount = sum(1 for f in faces if set(f) <= cset) if ecount else 1
        if len(comp) - ecount + fcount != 2:
            return Verdict.reject("euler", comp)
    return Verdict.accept()


def faces_of(emb: RotationEmbedding) -> List[Tuple[int, ...]]:
    return trace_faces(emb.graph, emb.rotation)


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
    cyc = list(cycle)
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise ValueError("boundary must be a simple cycle")
    for v in cyc:
        if not g.has_vertex(v):
            raise ValueError(f"boundary vertex {v} is not in the graph")
    hub = g.fresh_id()
    added = [(a, cyc[i - 1]) for i, a in enumerate(cyc)] + [(v, hub) for v in cyc]
    return is_planar(Graph(g.vertices + (hub,), g.edges + tuple(added)))
