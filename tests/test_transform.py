import random

import pytest

from flatwall.generators import wall
from flatwall.graph import Graph
from flatwall.wall import SubdividedWall, compass, identity_wall, is_flat, \
    refind_after_transform, verify_wall

from fixtures import wall_subgraph
from oracles import is_isomorphic_to_subdivision


def anchored(g: Graph) -> SubdividedWall:
    w = identity_wall(2)
    return SubdividedWall(g, 2, w.original, w.paths)


def fixture_hosts():
    """wall(2) hosts with triangles threaded into the compass."""
    base = wall(2).graph
    z = max(base.vertices) + 1
    # triangle over a perimeter wall edge, tied to the interior
    a = base.add_vertices([z]).add_edges([(0, z), (1, z), (8, z)])
    # triangle over the interior wall edge
    b = base.add_vertices([z]).add_edges([(8, z), (9, z)])
    # pendant triangle on an interior vertex, no wall edge involved
    c = base.add_vertices([z, z + 1]).add_edges([(8, z), (8, z + 1), (z, z + 1)])
    # chord triangles over two wall edges: flat corner (s deg 2) + branch (s deg 3)
    d = base.add_edges([(0, 2)])
    e = base.add_edges([(1, 3)])
    return [base, a, b, c, d, e]


def _triangles(g: Graph, allowed) -> list:
    out = []
    es = list(g.edges)
    for u, v in es:
        for t in sorted(set(g.neighbors(u)) & set(g.neighbors(v))):
            if u < v < t and {u, v, t} <= allowed:
                out.append((u, v, t))
    return out


def test_fixture_hosts_start_flat():
    for g in fixture_hosts():
        c = compass(g, anchored(g))
        assert is_flat(c).flat is True


def test_single_subdivide_tracks_the_wall():
    g = wall(2).graph
    c = compass(g, anchored(g))
    w2 = refind_after_transform(c, [("subdivide", (0, 1))])
    assert verify_wall(w2)
    assert w2.vertices() - anchored(g).vertices()  # picked up the new vertex


def test_delta_y_on_flat_corner_and_branch_vertex():
    base = wall(2).graph
    for tri, host in (((0, 1, 2), base.add_edges([(0, 2)])),
                      ((1, 2, 3), base.add_edges([(1, 3)]))):
        c = compass(host, anchored(host))
        w2 = refind_after_transform(c, [("delta_y", tri)])
        assert verify_wall(w2)
        assert is_flat(compass(w2.host, w2)).flat is True


def test_delta_y_outside_compass_rejected():
    g = wall(2).graph.add_vertices([99, 98]).add_edges([(0, 99), (0, 98), (98, 99)])
    c = compass(g, anchored(g))
    with pytest.raises(ValueError):
        refind_after_transform(c, [("delta_y", (0, 98, 99))])


def test_unknown_op_rejected():
    g = wall(2).graph
    c = compass(g, anchored(g))
    with pytest.raises(ValueError):
        refind_after_transform(c, [("smooth", (0, 1))])


def test_random_sequences_preserve_flat_wall():
    rng = random.Random(9)
    hosts = fixture_hosts()
    pattern = wall(2).graph
    for run in range(100):
        g = hosts[run % len(hosts)]
        w = anchored(g)
        ops = []
        probe = g
        wcur = w
        for _ in range(rng.randint(1, 10)):
            cur = compass(probe, wcur)
            tris = _triangles(probe, set(cur.graph.vertices))
            if tris and rng.random() < 0.4:
                op = ("delta_y", rng.choice(tris))
            else:
                op = ("subdivide", rng.choice(list(probe.edges)))
            ops.append(op)
            wcur = refind_after_transform(cur, [op])
            probe = wcur.host
        out = refind_after_transform(compass(g, w), ops)
        assert verify_wall(out)
        assert is_flat(compass(out.host, out)).flat is True
        assert is_isomorphic_to_subdivision(wall_subgraph(out), pattern)
