import random

import pytest

import flatwall.paths as paths_module
from flatwall.generators import grid, wall
from flatwall.graph import Graph, complete_graph, cycle_graph, path_graph
from flatwall.minors import subdivide
from flatwall.paths import max_vertex_disjoint_paths, two_disjoint_paths
from flatwall.rural import trivial_division
from flatwall.wall import compass, identity_wall, refind_after_transform

from oracles import (boundaries, max_vertex_disjoint_paths_by_network, min_vertex_cut,
                     random_graph, two_disjoint_paths_bfs_each_node)


def test_two_disjoint_paths_on_cycle():
    c = cycle_graph(6)
    r = two_disjoint_paths(c, (0, 3), (1, 4))
    # the two chords of a plain cycle interleave: any linking paths collide
    assert r.verdict == "none"
    r = two_disjoint_paths(c, (0, 2), (3, 5))
    assert r.verdict == "found"
    p1, p2 = r.paths
    assert p1[0] == 0 and p1[-1] == 2 and p2[0] == 3 and p2[-1] == 5
    assert not (set(p1) & set(p2))


def test_two_disjoint_paths_in_grid():
    g, coords = grid(4, 4)
    a, b = coords.id(1, 1), coords.id(4, 4)
    c, d = coords.id(4, 1), coords.id(1, 4)
    # anti-diametrical pairs in a plane grid must cross: no disjoint linkage
    r = two_disjoint_paths(g, (a, b), (c, d))
    assert r.verdict == "none"
    # pairing along opposite sides routes through disjoint rows
    r = two_disjoint_paths(g, (a, c), (b, d))
    assert r.verdict == "found"


def test_two_disjoint_paths_budget_runs_out(monkeypatch):
    g, coords = grid(4, 4)
    a, b = coords.id(1, 1), coords.id(4, 4)
    c, d = coords.id(4, 1), coords.id(1, 4)
    monkeypatch.setattr(paths_module, "TWO_PATHS_BUDGET", 0)
    r = two_disjoint_paths(g, (a, b), (c, d))
    assert (r.verdict, r.explored) == ("unknown", 0)
    with pytest.raises(TypeError):
        two_disjoint_paths(g, (a, b), (c, d), budget=0)


def ladder(n: int, step: int) -> Graph:
    """Paths 0..n-1 and n..2n-1 with a rung i -- n+i at every step-th i."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(n + i, n + i + 1) for i in range(n - 1)]
    edges += [(i, n + i) for i in range(0, n, step)]
    return Graph(range(2 * n), edges)


def test_two_disjoint_paths_long_ladder():
    # the first path is 1,200 vertices long: deeper than Python's recursion limit
    g = ladder(1200, 50)
    r = two_disjoint_paths(g, (0, 1199), (1200, 2399))
    assert r.verdict == "found"
    p1, p2 = r.paths
    assert (p1[0], p1[-1], p2[0], p2[-1]) == (0, 1199, 1200, 2399)
    for p in (p1, p2):
        assert len(set(p)) == len(p)
        assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
    assert not set(p1) & set(p2)


def outcome(r):
    return r.verdict, r.paths, r.explored


def test_two_disjoint_paths_is_reproducible():
    c = cycle_graph(6)
    a = two_disjoint_paths(c, (0, 2), (3, 5))
    b = two_disjoint_paths(c, (0, 2), (3, 5))
    assert outcome(a) == outcome(b)


def subdivided_compass(k: int, times: int):
    rng = random.Random("compass %d %d" % (k, times))
    w = identity_wall(k)
    g, ops = w.host, []
    for _ in range(times):
        e = rng.choice(g.edges)
        g, _ = subdivide(g, e)
        ops.append(("subdivide", e))
    w = refind_after_transform(compass(w.host, w), ops)
    return compass(w.host, w)


def test_two_disjoint_paths_transcripts_pinned():
    # explored counts of the earlier searches (recursive, then iterative with
    # a BFS at every state): the exploration is unchanged
    g, coords = grid(4, 4)
    r = two_disjoint_paths(g, (coords.id(1, 1), coords.id(4, 4)),
                           (coords.id(4, 1), coords.id(1, 4)))
    assert (r.verdict, r.explored) == ("none", 123)
    r = two_disjoint_paths(ladder(150, 50), (0, 149), (150, 299))
    assert (r.verdict, r.explored) == ("found", 150)
    c = subdivided_compass(4, 0)
    c1, c2, c3, c4 = c.corners
    r = two_disjoint_paths(c.graph, (c1, c3), (c2, c4))
    assert (r.verdict, r.explored) == ("none", 8391)


def test_a_budget_counts_states(monkeypatch):
    # the pinned searches above: a budget of at least their count changes
    # nothing; a smaller one stops at exactly that many states, every run
    g, coords = grid(4, 4)
    c = subdivided_compass(4, 0)
    c1, c2, c3, c4 = c.corners
    cases = [(g, (coords.id(1, 1), coords.id(4, 4)), (coords.id(4, 1), coords.id(1, 4))),
             (ladder(150, 50), (0, 149), (150, 299)),
             (c.graph, (c1, c3), (c2, c4))]
    for graph, first, second in cases:
        monkeypatch.undo()
        full = two_disjoint_paths(graph, first, second)
        for budget in (full.explored, full.explored + 1):
            monkeypatch.setattr(paths_module, "TWO_PATHS_BUDGET", budget)
            assert outcome(two_disjoint_paths(graph, first, second)) == outcome(full)
        for budget in (0, 1, full.explored // 2, full.explored - 1):
            monkeypatch.setattr(paths_module, "TWO_PATHS_BUDGET", budget)
            for _ in range(2):
                r = two_disjoint_paths(graph, first, second)
                assert (r.verdict, r.paths, r.explored) == ("unknown", None, budget)


def test_route_reuse_matches_bfs_each_node_on_random_graphs():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(6, 14)
        g = random_graph(rng, n, rng.choice((0.2, 0.3, 0.4, 0.55, 0.7)))
        a, b, c, d = rng.sample(range(n), 4)
        want = two_disjoint_paths_bfs_each_node(g, (a, b), (c, d))
        assert outcome(two_disjoint_paths(g, (a, b), (c, d))) == outcome(want)
        verdicts.add(want.verdict)
    assert verdicts == {"found", "none"}


def test_route_reuse_matches_bfs_each_node_on_wall_compasses():
    for k in (3, 4):
        for times in (0, 10, 20):
            c = subdivided_compass(k, times)
            c1, c2, c3, c4 = c.corners
            # the crossing pairs are exhaustive "none" searches, the side pairs "found"
            for first, second in [((c1, c3), (c2, c4)), ((c1, c2), (c3, c4))]:
                want = two_disjoint_paths_bfs_each_node(c.graph, first, second)
                assert outcome(two_disjoint_paths(c.graph, first, second)) == outcome(want)


def test_max_disjoint_paths_known_counts():
    g = complete_graph(5)
    count, paths = max_vertex_disjoint_paths(g, [0, 1], [3, 4])
    assert count == 2
    count, _ = max_vertex_disjoint_paths(path_graph(5), [0], [4])
    assert count == 1
    # shared terminal yields a zero-length path
    count, paths = max_vertex_disjoint_paths(cycle_graph(5), [0, 1], [1, 3])
    assert count == 2
    assert any(len(p) == 1 for p in paths)


def test_max_disjoint_paths_unknown_terminal():
    with pytest.raises(ValueError):
        max_vertex_disjoint_paths(path_graph(3), [0], [9])


def test_paths_returned_are_really_disjoint_and_valid():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 9), 0.4)
        srcs = rng.sample(list(g.vertices), 2)
        snks = rng.sample([v for v in g.vertices if v not in srcs], 2)
        count, paths = max_vertex_disjoint_paths(g, srcs, snks)
        assert len(paths) == count
        used = set()
        for p in paths:
            assert p[0] in srcs and p[-1] in snks
            assert all(g.has_edge(p[i], p[i + 1]) for i in range(len(p) - 1))
            assert not (set(p) & used)
            used |= set(p)


def test_max_disjoint_paths_matches_menger_oracle():
    rng = random.Random(8)
    for _ in range(30):
        g = random_graph(rng, rng.randint(4, 8), 0.45)
        vs = list(g.vertices)
        srcs = rng.sample(vs, rng.randint(1, 3))
        snks = rng.sample(vs, rng.randint(1, 3))
        count, _ = max_vertex_disjoint_paths(g, srcs, snks)
        assert count == min_vertex_cut(g, srcs, snks)


def test_menger_on_wall_compass_scale():
    w = wall(2)
    g = w.graph
    corners = list(w.corners)
    for e in [(7, 8), (0, 1)]:
        hit = [v for v in e if g.has_vertex(v)]
        count, _ = max_vertex_disjoint_paths(g, hit, corners)
        assert count == min_vertex_cut(g, hit, corners)


def test_max_disjoint_paths_matches_networkx():
    nx = pytest.importorskip("networkx")

    def nx_count(g, srcs, snks):
        # a super-source and a super-sink turn the set problem into an s-t one;
        # a terminal in both sets becomes the path source-v-sink
        ng = nx.Graph(list(g.edges))
        ng.add_nodes_from(g.vertices)
        ng.add_edges_from(("source", v) for v in srcs)
        ng.add_edges_from((v, "sink") for v in snks)
        try:
            return sum(1 for _ in nx.node_disjoint_paths(ng, "source", "sink"))
        except nx.NetworkXNoPath:
            return 0

    def check(g, srcs, snks):
        count, paths = max_vertex_disjoint_paths(g, srcs, snks)
        assert count == len(paths) == nx_count(g, srcs, snks)

    rng = random.Random(12)
    shared = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 12), rng.choice((0.1, 0.2, 0.35, 0.5)))
        vs = list(g.vertices)
        srcs = rng.sample(vs, rng.randint(1, min(4, len(vs))))
        snks = rng.sample(vs, rng.randint(1, min(4, len(vs))))
        shared += bool(set(srcs) & set(snks))
        check(g, srcs, snks)
    assert shared >= 20
    w = wall(2)
    for e in [(7, 8), (0, 1)]:
        check(w.graph, [v for v in e if w.graph.has_vertex(v)], list(w.corners))
    for k in (3, 4):
        for times in (0, 10, 20):
            c = subdivided_compass(k, times)
            c1, c2, c3, c4 = c.corners
            check(c.graph, [c1, c2], [c3, c4])
            check(c.graph, [c1, c2, c3], [c3, c4, c1])


def test_max_disjoint_paths_same_paths_as_network_on_random_graphs():
    # same count and the same paths, not only the same count: the pointer
    # search takes the network search's moves in the network's node order
    rng = random.Random(13)
    outcomes = set()
    sizes = set()
    shared = isolated = 0
    for _ in range(2000):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice((0.1, 0.25, 0.4, 0.55, 0.7)))
        vs = list(g.vertices)
        srcs = rng.sample(vs, rng.randint(1, min(5, n)))
        snks = rng.sample(vs, rng.randint(1, min(5, n)))
        want = max_vertex_disjoint_paths_by_network(g, srcs, snks)
        assert max_vertex_disjoint_paths(g, srcs, snks) == want
        outcomes.add(want[0] == len(srcs))
        sizes.add(n)
        shared += bool(set(srcs) & set(snks))
        isolated += any(g.degree(v) == 0 for v in vs)
    assert outcomes == {True, False}
    assert 1 in sizes and shared >= 100 and isolated >= 100


def test_max_disjoint_paths_same_paths_as_network_on_compasses():
    # every flap boundary of the trivial division, plus random terminal sets:
    # on these a few searches tie between equal-length augmenting paths, and
    # only the network's node order (a step back into v at v's own id) breaks
    # the tie the same way
    for k in (3, 4):
        for times in (0, 10, 20):
            c = subdivided_compass(k, times)
            rng = random.Random("terminals %d %d" % (k, times))
            terminals = list(boundaries(trivial_division(c)))
            terminals += [rng.sample(c.graph.vertices, rng.randint(2, 4)) for _ in range(200)]
            for b in terminals:
                want = max_vertex_disjoint_paths_by_network(c.graph, b, c.corners)
                assert max_vertex_disjoint_paths(c.graph, b, c.corners) == want
