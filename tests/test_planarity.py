import random
from dataclasses import replace
from itertools import combinations

import pytest

from flatwall import cli, planarity
from flatwall.generators import grid, wall
from flatwall.graph import Graph, complete_graph, cycle_graph, delete
from flatwall.minors import subdivide
from flatwall.planarity import embeds_in_disk_with_boundary, is_planar, trace_faces, validate_embedding

from oracles import (biconnected_blocks, embed_planar, embeds_in_disk_by_subdivided_rim,
                     find_minor_unpruned, random_graph)


def k33():
    return Graph(range(6), [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])


def test_known_planar_and_nonplanar():
    assert is_planar(complete_graph(4))
    assert not is_planar(complete_graph(5))
    assert not is_planar(k33())
    assert is_planar(grid(4, 4)[0])
    assert is_planar(wall(3).graph)
    petersen = Graph(range(10), [(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    assert not is_planar(petersen)


def test_subdivided_kuratowski_graphs_stay_nonplanar():
    g = complete_graph(5)
    for e in list(g.edges)[:4]:
        g, _ = subdivide(g, e)
    assert not is_planar(g)


def test_embedding_is_validated_and_euler_consistent():
    for g in (complete_graph(4), grid(3, 3)[0], cycle_graph(5), wall(2).graph):
        emb = embed_planar(g)
        assert emb is not None
        assert validate_embedding(emb)
        assert len(trace_faces(g, emb.rotation)) == 2 - g.n + g.m  # connected Euler formula


def test_embed_planar_refuses_nonplanar():
    assert embed_planar(complete_graph(5)) is None


def test_random_graphs_agree_with_kuratowski_minors():
    # the unpruned search: find_minor itself calls is_planar
    rng = random.Random(6)
    for _ in range(30):
        g = random_graph(rng, rng.randint(4, 7), 0.5)
        has_k5 = find_minor_unpruned(g, complete_graph(5)) is not None
        has_k33 = find_minor_unpruned(g, k33()) is not None
        assert is_planar(g) == (not has_k5 and not has_k33)


def test_is_planar_matches_networkx():
    nx = pytest.importorskip("networkx")

    def nx_planar(g):
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        return nx.check_planarity(h)[0]

    rng = random.Random(23)
    nonplanar = []
    for i in range(300):
        g = random_graph(rng, rng.randint(1, 14), rng.choice([0.15, 0.3, 0.45, 0.6]))
        if i % 3 == 0 and g.n <= 10:  # a second component on fresh ids
            extra = random_graph(rng, rng.randint(1, 14 - g.n), 0.5)
            g = Graph(list(g.vertices) + [v + g.n for v in extra.vertices],
                      list(g.edges) + [(a + g.n, b + g.n) for a, b in extra.edges])
        planar = is_planar(g)
        assert planar == nx_planar(g), g
        if not planar:
            nonplanar.append(g)
    assert 50 < len(nonplanar) < 250  # both answers occur
    # every g - v and g - {u, v}: the graphs find_minor's apex rule tests
    for g in nonplanar[:30]:
        for size in (1, 2):
            for s in combinations(g.vertices, size):
                h = delete(g, s)
                assert is_planar(h) == nx_planar(h), (g, s)


def subdivided(rng: random.Random, g: Graph, count: int) -> Graph:
    for _ in range(count):
        g, _ = subdivide(g, rng.choice(g.edges))
    return g


def theta_graph(rng: random.Random) -> Graph:
    """Two poles joined by three to five internally disjoint paths, one of
    them often a direct edge, so smoothing a path meets an existing edge."""
    edges, nxt = [], 2
    for i in range(rng.randint(3, 5)):
        length = 1 if i == 0 and rng.random() < 0.5 else rng.randint(2, 5)
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        route = [0] + inner + [1]
        edges += zip(route, route[1:])
    return Graph(range(nxt), edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    return Graph(range(n), [(v, rng.randrange(v)) for v in range(1, n)])


def kernel_families(rng: random.Random):
    """(family, graph): subdivided K5 and K3,3, theta graphs, trees and
    cycles (treewidth at most 2, so the kernel is empty), and sparse random
    graphs; some with a tree hung on or a second component added."""
    for _ in range(40):
        yield "kuratowski", subdivided(rng, rng.choice((complete_graph(5), k33())), rng.randint(0, 12))
        yield "reduces", theta_graph(rng)
        yield "reduces", random_tree(rng, rng.randint(1, 15))
        yield "reduces", cycle_graph(rng.randint(3, 12))
        g = random_graph(rng, rng.randint(5, 16), rng.choice((0.15, 0.2, 0.3)))
        if rng.random() < 0.5:
            t = random_tree(rng, rng.randint(2, 6))
            g = Graph(g.vertices + tuple(v + g.n for v in t.vertices),
                      g.edges + tuple((a + g.n, b + g.n) for a, b in t.edges)
                      + ((rng.randrange(g.n), g.n),))
        yield "sparse", g


def test_kernel_is_planar_matches_embed_planar(monkeypatch):
    graphs = list(kernel_families(random.Random(31)))
    answers = {}
    for family, g in graphs:
        planar = is_planar(g)
        assert planar == (embed_planar(g) is not None), (family, g.edges)
        answers.setdefault(family, set()).add(planar)
    assert answers == {"kuratowski": {False}, "reduces": {True}, "sparse": {True, False}}

    def no_test(adj):
        raise AssertionError("the kernel should be empty")

    # treewidth at most 2: deletions and smoothing leave nothing to test
    monkeypatch.setattr(planarity, "_lr_planar", no_test)
    assert all(is_planar(g) for family, g in graphs if family == "reduces")


def differential_corpus():
    """5,000 seeded random graphs on 5 to 16 vertices; every third one has a
    second random graph glued on at one vertex, so it has a cut vertex."""
    rng = random.Random(41)
    for i in range(5000):
        g = random_graph(rng, rng.randint(5, 16), rng.choice((0.15, 0.25, 0.35, 0.5)))
        if i % 3 == 0:
            extra = random_graph(rng, rng.randint(3, 8), rng.choice((0.3, 0.6)))
            at = rng.randrange(g.n)
            ids = {v: at if v == 0 else g.n + v - 1 for v in extra.vertices}
            g = Graph(range(g.n + extra.n - 1),
                      g.edges + tuple((ids[a], ids[b]) for a, b in extra.edges))
        yield g


def test_left_right_test_matches_the_face_splitting_embedder():
    counts = {True: 0, False: 0}
    for g in differential_corpus():
        planar = is_planar(g)
        assert planar == (embed_planar(g) is not None), g.edges
        counts[planar] += 1
    assert min(counts.values()) >= 1000, counts


def test_left_right_test_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in differential_corpus():
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        assert is_planar(g) == nx.check_planarity(h)[0], g.edges


def prism(r: int) -> Graph:
    """The closed 2 x r ladder: two r-cycles joined by r rungs, all of degree 3."""
    return Graph(range(2 * r), [(i, (i + 1) % r) for i in range(r)]
                 + [(r + i, r + (i + 1) % r) for i in range(r)]
                 + [(i, r + i) for i in range(r)])


def test_deep_search_raises_no_recursion_error():
    # 10,000 vertices, the CLI's host ceiling, and nothing for the kernel to
    # smooth away: the search tree is a path about 10^4 deep.  An open ladder
    # would not do: its degree-2 corners smooth away the whole ladder.
    g = prism(5000)
    assert g.n == cli.HOST_CAP and min(map(g.degree, g.vertices)) == 3
    assert is_planar(g)
    # a K5 glued onto one rung: three fresh vertices on both ends and each other
    a, b, (x, y, z) = 0, 5000, range(g.n, g.n + 3)
    k5 = [(u, v) for u, v in combinations((a, b, x, y, z), 2) if (u, v) != (a, b)]
    assert not is_planar(Graph(range(g.n + 3), g.edges + tuple(k5)))


def test_kernel_is_planar_matches_networkx_on_families():
    nx = pytest.importorskip("networkx")
    for family, g in kernel_families(random.Random(37)):
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        assert is_planar(g) == nx.check_planarity(h)[0], (family, g.edges)


def test_trace_faces_covers_each_edge_twice():
    g = grid(3, 3)[0]
    emb = embed_planar(g)
    sides = sum(len(f) for f in trace_faces(g, emb.rotation))
    assert sides == 2 * g.m


def test_biconnected_blocks_split_at_cut_vertices():
    # two triangles sharing vertex 2
    g = Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    blocks = biconnected_blocks(g)
    assert len(blocks) == 2
    assert all(len(b) == 3 for b in blocks)


def test_disk_embedding_respects_boundary_order():
    c = cycle_graph(6)
    assert embeds_in_disk_with_boundary(c, (0, 1, 2, 3, 4, 5))
    chords = c.add_edges([(0, 3)])
    assert embeds_in_disk_with_boundary(chords, (0, 1, 2, 3, 4, 5))
    crossing = c.add_edges([(0, 3), (1, 4)])
    assert not embeds_in_disk_with_boundary(crossing, (0, 1, 2, 3, 4, 5))


def test_disk_embedding_wheel_center():
    g = Graph(range(5), [(4, 0), (4, 1), (4, 2), (4, 3),
                         (0, 1), (1, 2), (2, 3), (3, 0)])
    assert embeds_in_disk_with_boundary(g, (0, 1, 2, 3))


def test_disk_embedding_rejects_bad_boundaries():
    c = cycle_graph(5)
    for bad in [(0, 1), (0, 1, 2, 1), (0, 1, 3, 7)]:
        with pytest.raises(ValueError):
            embeds_in_disk_with_boundary(c, bad)


def random_rimmed_graph(rng: random.Random):
    """A random graph on up to 9 vertices around a random rim cycle."""
    n = rng.randint(3, 9)
    rim = rng.sample(range(n), rng.randint(3, n))
    edges = {(min(a, b), max(a, b)) for a, b in zip(rim, rim[1:] + rim[:1])}
    p = rng.choice((0.15, 0.3, 0.45))
    edges |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}
    return Graph(range(n), edges), rim


def test_disk_embedding_matches_subdivided_rim_gadget():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(2000):
        g, rim = random_rimmed_graph(rng)
        want = embeds_in_disk_by_subdivided_rim(g, rim)
        assert embeds_in_disk_with_boundary(g, rim) == want, (g.edges, rim)
        # the test closes the rim itself, so rim edges may be missing from g
        pairs = [(min(a, b), max(a, b)) for a, b in zip(rim, rim[1:] + rim[:1])]
        open_rim = delete(g, edges=[e for e in pairs if rng.random() < 0.5])
        assert embeds_in_disk_with_boundary(open_rim, rim) == want, (open_rim.edges, rim)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_validate_embedding_names_each_broken_condition():
    emb = embed_planar(complete_graph(4))
    rot = emb.rotation
    missing = {v: r for v, r in rot.items() if v != 3}
    v = validate_embedding(replace(emb, rotation=missing))
    assert (v.condition, v.witness) == ("rotation-domain", [3])
    v = validate_embedding(replace(emb, rotation={**rot, 0: rot[0][:-1]}))
    assert (v.condition, v.witness) == ("rotation-neighbors", 0)
    v = validate_embedding(replace(emb, outer_face=(0, 1)))
    assert (v.condition, v.witness) == ("outer-face", (0, 1))
    # one vertex turned the other way round: the map stops being planar
    v = validate_embedding(replace(emb, rotation={**rot, 0: rot[0][::-1]}, outer_face=()))
    assert (v.condition, v.witness) == ("euler", (0, 1, 2, 3))
