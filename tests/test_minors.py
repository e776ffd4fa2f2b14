import hashlib
import json
import random
import time
from collections import Counter
from typing import Optional

import pytest

import flatwall.minors as minors
from flatwall.common import SizeCapExceeded
from flatwall.decomposition import treewidth_at_most
from flatwall.generators import grid, pyramid, wall
from flatwall.graph import (Graph, adjacency_masks, complete_graph, cycle_graph, delete,
                            induced_subgraph, path_graph)
from flatwall.minors import (ContractionModel, MinorModel, SmoothContractionWitness,
                             delta_y, find_minor, iter_topological_embeddings, subdivide,
                             verify_contraction, verify_minor_model, verify_smooth_contraction)
from flatwall.planarity import (RotationEmbedding, _canon_cycle, planarizing_set, trace_faces,
                                validate_embedding)

from fixtures import apex_over, identity_witness
from oracles import (apex_rule_by_loop, dumps_like_jsonable, embed_planar, find_minor_unpruned,
                     has_minor_by_partition, minor_to_contraction, preimage_by_scan, random_graph,
                     verify_contraction_by_induced_subgraphs, verify_minor_model_pairwise,
                     verify_smooth_contraction_by_scans)

K33 = Graph(range(6), [(a, b) for a in range(3) for b in range(3, 6)])
C5_CHORD = Graph(range(5), list(cycle_graph(5).edges) + [(0, 2)])
W4 = Graph(range(5), list(cycle_graph(4).edges) + [(4, v) for v in range(4)])
OCTAHEDRON = Graph(range(6), [(a, b) for a in range(6) for b in range(a + 1, 6) if b - a != 3])


def test_find_minor_on_known_hosts():
    g3, _ = grid(3, 3)
    m = find_minor(g3, complete_graph(4))
    assert m is not None and verify_minor_model(m)
    assert find_minor(g3, complete_graph(5)) is None  # planar host
    assert find_minor(wall(2).graph, complete_graph(4)) is not None
    assert find_minor(cycle_graph(5), cycle_graph(3)) is not None
    assert find_minor(path_graph(6), cycle_graph(3)) is None


def test_find_minor_matches_partition_oracle():
    rng = random.Random(5)
    pats = [complete_graph(3), cycle_graph(4), path_graph(3), complete_graph(4)]
    for _ in range(30):
        host = random_graph(rng, rng.randint(3, 6), 0.45)
        pat = rng.choice(pats)
        got = find_minor(host, pat)
        want = has_minor_by_partition(host, pat)
        assert (got is not None) == want
        if got is not None:
            assert verify_minor_model(got)


def test_find_minor_same_first_model_as_unpruned_search():
    rng = random.Random(11)
    pats = [complete_graph(4), complete_graph(5), K33, cycle_graph(4), C5_CHORD]
    found = 0
    for i in range(200):
        host = random_graph(rng, rng.randint(5, 10), rng.choice([0.3, 0.45, 0.6]))
        pat = pats[i % len(pats)]
        got, want = find_minor(host, pat), find_minor_unpruned(host, pat)
        assert (got and got.branch_sets) == (want and want.branch_sets)
        found += got is not None
    assert 50 < found < 150  # the corpus holds both answers
    # planar and apex-over-planar hosts, where the apex rule answers None
    planar = [grid(3, 3)[0], grid(2, 5)[0], wall(1).graph]
    hosts = planar + [apex_over(g) for g in (grid(2, 3)[0], grid(2, 4)[0], grid(3, 3)[0],
                                            wall(1).graph)]
    found = 0
    for host in hosts:
        for pat in (complete_graph(5), K33, complete_graph(6)):
            got, want = find_minor(host, pat), find_minor_unpruned(host, pat)
            assert (got and got.branch_sets) == (want and want.branch_sets)
            found += got is not None
    assert found == 2  # K5 and K3,3 over the 3 x 3 grid
    # relabelled pyramid(3, 1), where the K4 rule cuts most of the K5 search
    for _ in range(6):
        perm = list(range(10))
        rng.shuffle(perm)
        host = Graph(range(10), [(perm[a], perm[b]) for a, b in pyramid(3, 1).edges])
        for pat in (complete_graph(5), K33):
            got, want = find_minor(host, pat), find_minor_unpruned(host, pat)
            assert got.branch_sets == want.branch_sets
    # sparse hosts of 10 to 12 vertices and relabelled grids, where the
    # subtree rules cut most of the search
    small = [complete_graph(4), cycle_graph(4), C5_CHORD, W4]
    found = 0
    for i in range(40):
        host = random_graph(rng, rng.randint(10, 12), rng.choice([0.25, 0.3, 0.35]))
        pat = small[i % len(small)]
        got, want = find_minor(host, pat), find_minor_unpruned(host, pat)
        assert (got and got.branch_sets) == (want and want.branch_sets)
        found += got is not None
    assert 10 < found < 40
    # two-row grids (treewidth 2), where the treewidth rule answers a planar
    # pattern with a K4 minor before the search
    for cols in (3, 4, 5):
        host = grid(2, cols)[0]
        for pat in (complete_graph(4), W4, C5_CHORD):
            got, want = find_minor(host, pat), find_minor_unpruned(host, pat)
            assert (got and got.branch_sets) == (want and want.branch_sets)
            assert (got is None) == (pat != C5_CHORD)
    for rows, cols in [(3, 3), (2, 5), (3, 4), (4, 4)]:
        g = grid(rows, cols)[0]
        perm = list(range(g.n))
        rng.shuffle(perm)
        host = Graph(range(g.n), [(perm[a], perm[b]) for a, b in g.edges])
        for pat in small:
            got, want = find_minor(host, pat), find_minor_unpruned(host, pat)
            assert (got and got.branch_sets) == (want and want.branch_sets)


def test_find_minor_subtree_rules_cut_the_enumeration(monkeypatch):
    # sets yielded by the branch-set enumerator over whole searches: rule (c)
    # cuts most of K4 in the grids, rule (a) most of K3,3 in pyramid(3, 1),
    # and each of the three rules cuts part of the octahedron in grid(3, 4),
    # which has none (with rule (a), (b) or (c) left out, 2,954, 1,833 or
    # 2,072 sets); K4 in grid(2, 4) is answered before the search, since the
    # grid has treewidth 2
    yielded = [0]
    enumerate_sets = minors._connected_subsets

    def counted(*args):
        for s in enumerate_sets(*args):
            yielded[0] += 1
            yield s
    monkeypatch.setattr(minors, "_connected_subsets", counted)
    cases = [(grid(3, 4)[0], complete_graph(4)), (grid(3, 5)[0], complete_graph(4)),
             (grid(3, 6)[0], complete_graph(4)), (grid(4, 4)[0], complete_graph(4)),
             (grid(2, 4)[0], complete_graph(4)), (pyramid(3, 1), K33), (grid(3, 4)[0], OCTAHEDRON)]
    counts = []
    for host, pat in cases:
        yielded[0] = 0
        find_minor(host, pat)
        counts.append(yielded[0])
    assert counts == [12, 12, 12, 12, 0, 10, 1788]


def test_find_minor_k4_in_long_grids():
    # the first models in the enumeration order; with the capacity and K4
    # rules alone the search takes about 15 s and 6 s of CPU to reach them
    # on a shared 2-vCPU machine.  grid(2, 9) has none: without the
    # treewidth rule before the search, about 3 s of CPU to say so
    want = {(5, 6): {0: [0, 1], 1: [2], 2: [3, 6, 9, 12, 13, 14, 15], 3: [7, 8]},
            (3, 10): {0: [0, 1], 1: [2], 2: [3, 10, 13, 20, 21, 22, 23], 3: [11, 12]},
            (2, 9): None}
    for (rows, cols), sets in want.items():
        start = time.process_time()
        m = find_minor(grid(rows, cols)[0], complete_graph(4))
        assert time.process_time() - start < (1.0 if sets else 0.1)
        if sets is None:
            assert m is None
            continue
        assert {p: sorted(s) for p, s in m.branch_sets.items()} == sets
        assert verify_minor_model(m)


def test_find_minor_pattern_tables_cached_across_calls():
    # the tables kept per pattern give the same first models, repeated and
    # interleaved over K4, K5, K6 and K3,3, as calls after a cleared cache
    rng = random.Random(23)
    hosts = [random_graph(rng, rng.randint(6, 10), rng.choice((0.35, 0.5, 0.7)))
             for _ in range(12)] + [grid(3, 4)[0], pyramid(3, 1), complete_graph(7)]
    patterns = [complete_graph(4), complete_graph(5), complete_graph(6), K33]

    def first(host, pat):
        m = find_minor(host, pat)
        return m and m.branch_sets
    fresh = {}
    for h, host in enumerate(hosts):
        for p, pat in enumerate(patterns):
            minors._pattern_tables.cache_clear()
            fresh[h, p] = first(host, pat)
    minors._pattern_tables.cache_clear()
    for h, host in enumerate(hosts):
        for p, pat in enumerate(patterns):
            assert first(host, pat) == fresh[h, p], (host.edges, pat.edges)
    for p in range(len(patterns)):
        pat = Graph(patterns[p].vertices, patterns[p].edges)  # equal, not the same object
        for h, host in enumerate(hosts):
            for _ in range(2):
                assert first(host, pat) == fresh[h, p], (host.edges, pat.edges)
    assert minors._pattern_tables.cache_info().misses == len(patterns)
    assert {m is None for m in fresh.values()} == {True, False}


class SearchStarted(Exception):
    pass


def test_apex_rule_matches_the_loop_over_sizes(monkeypatch):
    # the branch-set search starts with adjacency_masks; stopping it there
    # leaves exactly the calls that the apex rule answers
    def stop(_):
        raise SearchStarted
    monkeypatch.setattr(minors, "adjacency_masks", stop)
    rng = random.Random(17)
    k6 = complete_graph(6)
    outcomes, smaller = set(), 0
    for _ in range(300):
        host = random_graph(rng, rng.randint(5, 12), rng.choice([0.2, 0.35, 0.5, 0.7]))
        for pat in (complete_graph(5), k6, K33):
            if pat.n > host.n or pat.m > host.m:
                continue
            try:
                fired = find_minor(host, pat) is None
            except SearchStarted:
                fired = False
            assert fired == apex_rule_by_loop(host, pat), (host.edges, pat.edges)
            outcomes.add(fired)
            # K6 needs 2 apices: a planar host has a planarizing set below a - 1 = 1
            smaller += fired and pat == k6 and planarizing_set(host, 0) is not None
    assert outcomes == {True, False} and smaller > 0


def test_treewidth_at_most_2_matches_k4_search():
    rng = random.Random(13)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.45, 0.6]))
        keep = [v for v in g.vertices if rng.random() < 0.8]
        order, adj = adjacency_masks(g)
        mask = sum(1 << order.index(v) for v in keep)
        want = find_minor_unpruned(induced_subgraph(g, keep), complete_graph(4)) is None
        assert treewidth_at_most(adj, mask, 2) == want


def test_find_minor_heavy_negatives():
    assert find_minor(grid(4, 4)[0], complete_graph(5)) is None
    assert find_minor(grid(3, 4)[0], complete_graph(5)) is None
    assert find_minor(grid(3, 4)[0], K33) is None
    assert find_minor(wall(2).graph, complete_graph(5)) is None
    assert find_minor(pyramid(3, 1), complete_graph(6)) is None


def test_find_minor_pyramid_first_model(monkeypatch):
    # the model the unpruned search finds (in about 30 s) for test_criterion_07
    monkeypatch.setattr(minors, "MINOR_PATTERN_CAP", 10)
    m = find_minor(pyramid(4, 1), pyramid(3, 1))
    assert {p: sorted(s) for p, s in m.branch_sets.items()} == {
        0: [5], 1: [6], 2: [7], 3: [9], 4: [10], 5: [11], 6: [13], 7: [14], 8: [15],
        9: [0, 1, 2, 3, 4, 8, 12, 16]}


def test_find_minor_empty_pattern():
    m = find_minor(path_graph(3), Graph([], []))
    assert m is not None and m.branch_sets == {}
    assert verify_minor_model(m)


def test_find_minor_k4_rule_runs_as_each_level_starts(monkeypatch):
    # the rule's one call site tests the free vertices as a level starts:
    # first the whole host, for a planar pattern with a K4 minor only
    calls = []
    tw2 = minors.treewidth_at_most
    for pat in (complete_graph(4), complete_graph(5), W4):
        minors._pattern_tables(pat)  # the pattern's own tables are cached first

    def counted(adj, mask, k):
        calls.append(mask)
        return tw2(adj, mask, k)
    monkeypatch.setattr(minors, "treewidth_at_most", counted)
    assert find_minor(grid(2, 5)[0], complete_graph(4)) is None
    assert calls == [(1 << 10) - 1]
    calls.clear()
    # K5 is not planar: the apex rule answers, and no host is tested
    assert find_minor(grid(2, 5)[0], complete_graph(5)) is None
    assert calls == []
    # W4 = K1 + C4: after its hub no K4 minor is left, so only level 0 tests
    assert find_minor(grid(3, 3)[0], W4) is not None
    assert calls == [(1 << 9) - 1]


def test_find_minor_caps():
    with pytest.raises(SizeCapExceeded):
        find_minor(grid(7, 7)[0], complete_graph(4))
    with pytest.raises(SizeCapExceeded):
        find_minor(grid(3, 3)[0], complete_graph(7))


def test_minor_model_constructor_rejects_unknown_vertices():
    g = path_graph(3)
    with pytest.raises(ValueError):
        MinorModel(g, path_graph(2), {0: [0], 1: [9]})
    with pytest.raises(ValueError):
        MinorModel(g, path_graph(2), {0: [0], 7: [1]})


def test_verify_minor_model_conditions():
    g = path_graph(4)
    pat = path_graph(2)
    v = verify_minor_model(MinorModel(g, pat, {0: [0], 1: [2]}))
    assert not v and v.condition == "unrealized-pattern-edge"
    v = verify_minor_model(MinorModel(g, pat, {0: [0, 2], 1: [3]}))
    assert not v and v.condition == "branch-set-disconnected"
    v = verify_minor_model(MinorModel(g, pat, {0: [0, 1], 1: [1, 2]}))
    assert not v and v.condition == "overlapping-branch-sets"
    assert verify_minor_model(MinorModel(g, pat, {0: [0, 1], 1: [2]}))


def test_verify_minor_model_matches_pairwise_oracle():
    # Same verdict and witness as the pairwise check on random models:
    # disjoint nonempty sets from a random owner map, then overlaps and
    # missing sets.
    rng = random.Random(19)
    seen = set()
    for _ in range(2400):
        host = random_graph(rng, rng.randint(2, 10), rng.choice([0.3, 0.5, 0.8]))
        pattern = random_graph(rng, rng.randint(1, min(5, host.n)), rng.choice([0.3, 0.6, 1.0]))
        owner = {v: rng.choice(pattern.vertices + (None,)) for v in host.vertices}
        owner.update(zip(rng.sample(host.vertices, pattern.n), pattern.vertices))
        sets = {p: {v for v, q in owner.items() if q == p} for p in pattern.vertices}
        for _ in range(rng.choice([0, 0, 0, 1, 2])):
            sets[rng.choice(pattern.vertices)].add(rng.choice(host.vertices))
        if rng.random() < 0.1:
            del sets[rng.choice(pattern.vertices)]
        m = MinorModel(host, pattern, sets)
        got = verify_minor_model(m)
        assert got == verify_minor_model_pairwise(m)
        assert dumps_like_jsonable(got.witness)
        seen.add(got.condition)
    assert seen == {None, "empty-branch-set", "overlapping-branch-sets",
                    "branch-set-disconnected", "unrealized-pattern-edge"}


def test_verify_minor_model_is_linear_on_a_long_path():
    # the pairwise check took about 1.3 s of CPU on a shared 2-vCPU machine
    p = path_graph(3000)
    m = MinorModel(p, p, {v: (v,) for v in p.vertices})
    start = time.process_time()
    assert verify_minor_model(m)
    assert time.process_time() - start < 0.5


def test_contraction_model_roundtrip():
    g = cycle_graph(6)
    phi = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}
    m = ContractionModel(g, cycle_graph(3), phi)
    assert verify_contraction(m)
    assert m.model_of(1) == frozenset({2, 3})


def test_contraction_must_be_total_and_onto_known_vertices():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        ContractionModel(g, cycle_graph(3), {0: 0, 1: 1, 2: 2})
    with pytest.raises(ValueError):
        ContractionModel(g, cycle_graph(3), {0: 0, 1: 1, 2: 2, 3: 9})


def test_verify_contraction_names_each_broken_condition():
    # path 0-1-2-3-4 contracted onto path 0-1-2 by {0,1}, {2}, {3,4}
    host, pattern = path_graph(5), path_graph(3)
    phi = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}
    assert verify_contraction(ContractionModel(host, pattern, phi))
    v = verify_contraction(ContractionModel(host, pattern, {**phi, 0: 2}))
    assert (v.condition, v.witness) == ("model-disconnected", 2)
    v = verify_contraction(ContractionModel(host, pattern.add_edges([(0, 2)]), phi))
    assert (v.condition, v.witness) == ("edge-union-disconnected", (0, 2))
    v = verify_contraction(ContractionModel(host.add_edges([(0, 4)]), pattern, phi))
    assert (v.condition, v.witness) == ("host-edge-unmatched", (0, 4))
    with pytest.raises(ValueError, match="not surjective"):
        verify_contraction(ContractionModel(host, pattern.add_vertices([3]), phi))


def random_contraction(rng: random.Random):
    """A random host, a map phi grown from k seeds along host edges (a stray
    vertex sometimes moved, which can disconnect or empty a part) and the
    quotient pattern with a few edges dropped and a few added."""
    host = random_graph(rng, rng.randint(2, 10), rng.choice((0.2, 0.35, 0.5, 0.7)))
    k = rng.randint(1, host.n)
    phi = dict(zip(rng.sample(host.vertices, k), range(k)))
    frontier = [(v, u) for v in phi for u in host.neighbors(v)]
    while frontier:
        v, u = frontier.pop(rng.randrange(len(frontier)))
        if u not in phi:
            phi[u] = phi[v]
            frontier += [(u, x) for x in host.neighbors(u)]
    for v in host.vertices:
        phi.setdefault(v, rng.randrange(k))
    if rng.random() < 0.3:
        phi[rng.choice(host.vertices)] = rng.randrange(k)
    quotient = {(min(phi[a], phi[b]), max(phi[a], phi[b])) for a, b in host.edges
                if phi[a] != phi[b]}
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = [e for e in pairs if (e in quotient) == (rng.random() > 0.1)]
    return ContractionModel(host, Graph(range(k), edges), phi)


def test_verify_contraction_matches_induced_subgraph_oracle():
    # the owner-map route gives the same condition, witness and detail as one
    # induced subgraph per preimage and per pattern edge, and the same refusal
    rng = random.Random(23)
    seen = Counter()

    def outcome(check, m):
        try:
            v = check(m)
        except ValueError as e:
            return "raises", str(e)
        return v.ok, v.condition, v.witness, v.detail

    for _ in range(6000):
        m = random_contraction(rng)
        got = outcome(verify_contraction, m)
        assert got == outcome(verify_contraction_by_induced_subgraphs, m)
        seen["raises" if got[0] == "raises" else got[1]] += 1
    assert set(seen) == {None, "model-disconnected", "edge-union-disconnected",
                         "host-edge-unmatched", "raises"}
    assert sum(seen.values()) - seen["raises"] >= 5000


def test_minor_to_contraction():
    g, _ = grid(3, 3)
    m = find_minor(g, complete_graph(4))
    cm = minor_to_contraction(m)
    assert verify_contraction(cm)


def test_subdivide_and_dissolve_are_inverse():
    g = cycle_graph(4)
    g2, nv = subdivide(g, (0, 1))
    assert g2.n == 5 and g2.m == 5
    assert sorted(g2.neighbors(nv)) == [0, 1]
    assert delete(g2, [nv]).add_edges([(0, 1)]) == g
    with pytest.raises(ValueError):
        subdivide(g, (0, 2))


def test_delta_y_replaces_triangle_by_hub():
    g = complete_graph(3)
    g2, hub = delta_y(g, (0, 1, 2))
    assert g2.n == 4 and g2.m == 3
    assert sorted(g2.neighbors(hub)) == [0, 1, 2]
    with pytest.raises(ValueError):
        delta_y(path_graph(3), (0, 1, 2))


def test_find_topological_minor_subdivision():
    g = cycle_graph(8)
    emb = next(iter_topological_embeddings(g, cycle_graph(4)), None)
    assert emb is not None
    # K4 is 3-regular, so topological containment needs three edge-paths per vertex
    k4 = complete_graph(4)
    host, _ = subdivide(k4, (0, 1))
    host, _ = subdivide(host, (2, 3))
    assert next(iter_topological_embeddings(host, k4), None) is not None
    assert next(iter_topological_embeddings(cycle_graph(8), k4), None) is None


def test_smooth_contraction_identity_witness():
    from flatwall.generators import gamma
    tg = gamma(4)
    w = identity_witness(tg.graph, tg.loaded)
    assert verify_smooth_contraction(w)


def test_smooth_contraction_rejects_wrong_disk():
    from flatwall.generators import gamma
    tg = gamma(4)
    w = identity_witness(tg.graph, tg.loaded)
    # punch an interior face out of the disk: the union stops being a disk
    faces = sorted(w.disk_faces)
    bad = SmoothContractionWitness(w.model, w.embedding, w.v, faces[:2] + faces[3:])
    v = verify_smooth_contraction(bad)
    assert not v and v.condition == "disk-not-a-disk"


def test_smooth_contraction_names_each_broken_condition():
    from flatwall.generators import gamma
    tg = gamma(4)
    w = identity_witness(tg.graph, tg.loaded)
    faces = sorted(w.disk_faces)

    def check(disk_faces, v=w.v):
        return verify_smooth_contraction(SmoothContractionWitness(w.model, w.embedding, v,
                                                                  disk_faces))

    v = check(faces + [faces[0][:-1]])
    assert (v.condition, v.witness) == ("unknown-disk-face", faces[0][:-1])
    assert check([]).detail == "no faces chosen"
    # the triangle 5-6-10 shares each edge with another disk face: a second
    # copy covers those edges three times, and without it the disk has a hole
    inner = (5, 6, 10)
    assert inner in faces
    v = check(faces + [inner])
    assert v.detail == "an edge lies on more than two chosen face sides"
    v = check([f for f in faces if f != inner])
    assert v.detail == "face union is not simply connected"
    v = check([(1, 2, 6), (9, 14, 13)])
    assert v.detail == "chosen faces are not edge-connected"
    other = next(u for u in tg.graph.vertices if u != w.v)
    v = check(faces, v=other)
    assert (v.condition, v.witness) == ("exterior-mismatch", sorted({w.v, other}))


def test_smooth_contraction_rejects_a_model_on_every_face():
    # wheel: hub 4 on rim 0-1-2-3, and 5 hanging off 0 outside the
    # embedded part; the model {0, 2, 4} meets all four triangles and the rim
    host = Graph(range(6), [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4),
                            (0, 5)])
    model = ContractionModel(host, Graph(range(4), [(0, 1), (0, 2), (0, 3)]),
                             {0: 0, 2: 0, 4: 0, 1: 1, 3: 2, 5: 3})
    emb = embed_planar(delete(host, [5]))
    outer = _canon_cycle(emb.outer_face)
    disk = [f for f in trace_faces(emb.graph, emb.rotation) if _canon_cycle(f) != outer]
    assert len(disk) == 4 and set(outer) == {0, 1, 2, 3}
    v = verify_smooth_contraction(SmoothContractionWitness(model, emb, 3, disk))
    assert (v.condition, v.witness) == ("model-not-in-open-disk", 0)


# triangles 0-1-5 and 0-3-4 sharing vertex 0, whose outer face walk
# (0, 1, 5, 0, 3, 4) meets 0 twice
BOWTIE = Graph([0, 1, 3, 4, 5], [(0, 1), (1, 5), (0, 5), (0, 3), (3, 4), (0, 4)])
BOWTIE_EMBEDDING = RotationEmbedding(BOWTIE, {0: (1, 5, 3, 4), 1: (0, 5), 5: (0, 1), 3: (0, 4),
                                              4: (0, 3)}, (0, 1, 5, 0, 3, 4))


def test_smooth_contraction_rejects_a_face_listed_twice():
    # the bowtie's outer face listed under two rotations covers every edge
    # twice, is edge-connected and passes Euler (5 - 6 + 2 = 1), so only the
    # empty boundary tells it from a disk
    bowtie, emb = BOWTIE, BOWTIE_EMBEDDING
    assert validate_embedding(emb)
    assert _canon_cycle((0, 1, 5, 0, 3, 4)) in map(_canon_cycle, trace_faces(bowtie, emb.rotation))
    model = ContractionModel(bowtie, bowtie, {v: v for v in bowtie.vertices})
    assert verify_contraction(model)
    disk = [(0, 1, 5, 0, 3, 4), (0, 3, 4, 0, 1, 5)]
    v = verify_smooth_contraction(SmoothContractionWitness(model, emb, 0, disk))
    assert (v.condition, v.detail) == ("disk-not-a-disk", "boundary is not a single cycle")


def random_smooth_witness(rng: random.Random) -> Optional[SmoothContractionWitness]:
    """A small smooth-contraction witness, valid or not: the identity or a
    merged contraction of a random graph (now and then with one vertex moved,
    which can disconnect its old part), a random v, an embedding of the host
    minus v's model or minus a few random vertices, and a random choice of
    its faces; one in ten is the bowtie.  None when the part to embed is
    not planar."""
    if rng.random() < 0.1:
        host, emb = BOWTIE, BOWTIE_EMBEDDING
        model = ContractionModel(host, host, {v: v for v in host.vertices})
    else:
        host = random_graph(rng, rng.randint(3, 9), rng.choice((0.4, 0.55, 0.7)))
        phi = {v: v for v in host.vertices}
        if host.m and rng.random() < 0.5:
            for a, b in rng.sample(host.edges, min(host.m, rng.randint(1, 3))):
                lo, hi = sorted((phi[a], phi[b]))
                phi = {u: lo if r == hi else r for u, r in phi.items()}
        if rng.random() < 0.1:
            phi[rng.choice(host.vertices)] = rng.choice(sorted(set(phi.values())))
        pattern = Graph(set(phi.values()), {(min(phi[a], phi[b]), max(phi[a], phi[b]))
                                             for a, b in host.edges if phi[a] != phi[b]})
        model = ContractionModel(host, pattern, phi)
        emb = None
    v = rng.choice(model.pattern.vertices) if rng.random() < 0.97 else 99
    if emb is None:
        hidden = (model.model_of(v) if rng.random() < 0.7
                  else rng.sample(host.vertices, rng.randint(0, 2)))
        part = delete(host, hidden)
        if rng.random() < 0.03:
            part = part.add_vertices([99])  # not a host vertex
        emb = embed_planar(part)
        if emb is None:
            return None
    faces = trace_faces(emb.graph, emb.rotation)
    inner = [f for f in faces if _canon_cycle(f) != _canon_cycle(emb.outer_face)]
    pick = rng.random()
    if pick < 0.45 or not faces:
        disk = inner
    elif pick < 0.6:
        disk = rng.sample(faces, rng.randint(0, len(faces)))
    elif pick < 0.7:
        disk = faces
    elif pick < 0.8:
        disk = inner + [rng.choice(faces)]
    elif pick < 0.9:
        disk = [max(faces, key=len)] * 2  # on the bowtie, only its boundary is no cycle
    else:
        disk = inner + [rng.choice(faces)[:-1]]  # not a face
    return SmoothContractionWitness(model, emb, v, disk)


def test_verify_smooth_contraction_matches_the_scans_it_replaced():
    # one preimage map and one pass over the faces give the same outcome as
    # a scan of phi per model and a test of each model against every face
    rng = random.Random(29)
    seen = Counter()

    def outcome(check, w):
        try:
            v = check(w)
        except ValueError as e:
            return "raises", str(e)
        return v.ok, v.condition, v.witness, v.detail

    while sum(seen.values()) < 2400:
        w = random_smooth_witness(rng)
        if w is None:
            continue
        m = w.model
        assert all(m.model_of(u) == preimage_by_scan(m, u) for u in m.pattern.vertices)
        got = outcome(verify_smooth_contraction, w)
        assert got == outcome(verify_smooth_contraction_by_scans, w)
        seen["raises" if got[0] == "raises" else
             got[3] if got[1] == "disk-not-a-disk" else got[1]] += 1
    assert set(seen) == {None, "raises", "unknown-disk-face", "no faces chosen",
                         "an edge lies on more than two chosen face sides",
                         "chosen faces are not edge-connected",
                         "face union is not simply connected", "boundary is not a single cycle",
                         "exterior-mismatch", "model-not-in-open-disk"}, seen
    assert min(seen.values()) >= 20, seen


# (count, sha256 over the JSON of each embedding's sorted vertex map and
# paths, in yield order), recorded before the subdivision plan was built
# from graph.bfs
EMBEDDING_ORDER = {
    "connected": (380, "e3edfb00942bbd1ab42cc5a8dd20de9c73ab43a31f8f40a6443ea2f69e600fa0"),
    "scattered": (2580, "3a509352f474137ef54deef656032fae9c0f11cfc6959b932eb2a4ee9a257751"),
}


def test_topological_embeddings_keep_their_order():
    host = grid(3, 3)[0].add_edges([(0, 4), (4, 8), (2, 4)])
    patterns = {
        "connected": Graph([0, 1, 2, 3], [(0, 1), (1, 2), (0, 2), (2, 3)]),
        # isolated 1 and 6 around the component {4, 9, 10}
        "scattered": Graph([1, 4, 6, 9, 10], [(4, 10), (9, 10)]),
    }
    got = {}
    for name, pattern in patterns.items():
        h = hashlib.sha256()
        count = 0
        for vertex_map, paths in iter_topological_embeddings(host, pattern):
            h.update(json.dumps([sorted(vertex_map.items()), sorted(paths.items())]).encode())
            count += 1
        got[name] = (count, h.hexdigest())
    assert got == EMBEDDING_ORDER
