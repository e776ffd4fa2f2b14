"""Shared handmade fixtures: contraction witnesses, wired hosts and
mutated documents."""

import json

from flatwall.generators import wall
from flatwall.graph import Graph, delete
from flatwall.minors import ContractionModel, SmoothContractionWitness, subdivide
from flatwall.planarity import _canon_cycle, trace_faces

from oracles import embed_planar


def identity_witness(g: Graph, loaded: int) -> SmoothContractionWitness:
    """g contracts onto itself; the disk is everything minus the loaded corner."""
    model = ContractionModel(g, g, {v: v for v in g.vertices})
    part = delete(g, [loaded])
    emb = embed_planar(part)
    assert emb is not None
    outer = _canon_cycle(emb.outer_face)
    faces = [f for f in trace_faces(emb.graph, emb.rotation) if _canon_cycle(f) != outer]
    return SmoothContractionWitness(model, emb, loaded, faces)


def subdivided_witness(g: Graph, loaded: int) -> SmoothContractionWitness:
    """Every edge of g subdivided once; midpoints contract into an endpoint."""
    host = g
    phi = {v: v for v in g.vertices}
    for a, b in sorted(g.edges):
        host, mid = subdivide(host, (a, b))
        phi[mid] = loaded if loaded in (a, b) else min(a, b)
    model = ContractionModel(host, g, phi)
    hidden = sorted(v for v, p in phi.items() if p == loaded)
    part = delete(host, hidden)
    emb = embed_planar(part)
    assert emb is not None
    outer = _canon_cycle(emb.outer_face)
    faces = [f for f in trace_faces(emb.graph, emb.rotation) if _canon_cycle(f) != outer]
    return SmoothContractionWitness(model, emb, loaded, faces)


def wired_nonflat_host(k: int, wiring) -> Graph:
    """wall(k) plus two fresh vertices linking the anti-diametrical corner
    pairs, threaded into the compass interior so the cross paths count.

    wiring: pair of interior vertices the fresh vertices also attach to.
    """
    w = wall(k)
    g = w.graph
    c1, c2, c3, c4 = w.corners
    z1 = max(g.vertices) + 1
    z2 = z1 + 1
    i1, i2 = wiring
    return g.add_vertices([z1, z2]).add_edges(
        [(c1, z1), (z1, c3), (z1, i1), (c2, z2), (z2, c4), (z2, i2)])


def random_wired_compass(rng, k: int):
    """The compass of a wired wall(k) host after random edge loss and
    subdivision: the wall's own edges stay, each other edge stays with
    probability 0.6, then up to 12 random edges are subdivided and the
    wall is re-found.  Flat when the loss cut the wiring, else crossed."""
    from flatwall.wall import SubdividedWall, compass, identity_wall, refind_after_transform
    g = wired_nonflat_host(k, rng.sample(interior_vertices(k), 2))
    g = Graph(g.vertices, [e for e in g.edges
                           if wall(k).graph.has_edge(*e) or rng.random() < 0.6])
    w0 = identity_wall(k)
    h, ops = g, []
    for _ in range(rng.randint(0, 12)):
        e = rng.choice(h.edges)
        h, _ = subdivide(h, e)
        ops.append(("subdivide", e))
    w = refind_after_transform(compass(g, SubdividedWall(g, k, w0.original, w0.paths)), ops)
    return compass(w.host, w)


def k5_piece_host(k: int):
    """wall(k) plus a K5 on three vertices of its first inner brick and two
    fresh ones.  The wall stays flat (the piece sits behind a 3-separation
    whose three vertices share a face), but its corner wheel is no longer
    planar.  Returns the host and the identity wall(k)."""
    from flatwall.wall import bricks, identity_wall, perimeter
    wg = wall(k).graph
    w = identity_wall(k)
    ring = set(perimeter(w))
    brick = next(b for b in bricks(w)[0] if not ring & set(b))
    five = (brick[0], brick[2], brick[4], wg.fresh_id(), wg.fresh_id() + 1)
    g = wg.add_vertices(five[3:]).add_edges(
        [(x, y) for i, x in enumerate(five) for y in five[i + 1:]])
    return g, w


def wall_subgraph(w) -> Graph:
    """The host subgraph a wall's paths span."""
    return Graph(sorted(w.vertices()), [e for p in w.paths.values() for e in zip(p, p[1:])])


def interior_vertices(k: int):
    from flatwall.wall import identity_wall, perimeter
    w = identity_wall(k)
    return sorted(w.vertices() - set(perimeter(w)))


def apexed_wall_host(k: int, attachments):
    """wall(k) plus one fresh vertex per attachment list, wired as given.

    Returns (host, apex ids, identity wall anchored in the wall part).
    """
    from flatwall.wall import identity_wall
    wg = wall(k)
    base = max(wg.graph.vertices) + 1
    apexes = tuple(base + i for i in range(len(attachments)))
    g = wg.graph.add_vertices(apexes)
    edges = []
    for aj, targets in zip(apexes, attachments):
        edges.extend((aj, t) for t in targets)
    return g.add_edges(edges), apexes, identity_wall(k)


def apex_over(g: Graph) -> Graph:
    """g plus one new vertex joined to every vertex of g."""
    a = max(g.vertices) + 1
    return Graph(list(g.vertices) + [a], list(g.edges) + [(v, a) for v in g.vertices])


MUTATION_VALUES = (None, -1, 0, "x", [], {}, True)
DELETED = object()


def document_mutations(doc):
    """Every copy of a JSON document with one field replaced or deleted.

    Each dict value and list item, at any depth, is replaced by each of
    MUTATION_VALUES and deleted (the list shrinks); a "height" is also set
    to 10**6.  Yields (path, new value or DELETED, mutated document).
    """
    def fields(x, path):
        items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
        for key, value in items:
            yield path + (key,)
            yield from fields(value, path + (key,))

    for path in list(fields(doc, ())):
        extra = (10 ** 6,) if path[-1] == "height" else ()
        for value in MUTATION_VALUES + extra + (DELETED,):
            out = json.loads(json.dumps(doc))
            parent = out
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, value, out
