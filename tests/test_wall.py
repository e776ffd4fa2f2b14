import random
import time

import pytest

import flatwall.paths as paths_module
from flatwall.common import SizeCapExceeded
from flatwall.generators import gamma, wall
from flatwall.graph import connected_components, delete, strip_leaves
from flatwall.minors import subdivide
from flatwall.paths import two_disjoint_paths
from flatwall.rural import RuralDivision, internal_flaps
from flatwall.wall import (WHEEL_FIRST_ABOVE, Compass, SubdividedWall, bricks, compass,
                           disjoint_subwalls, extract_wall_from_gamma_contraction,
                           identity_wall, is_flat, layers, perimeter, subwall, verify_wall)

from fixtures import identity_witness, interior_vertices, k5_piece_host, random_wired_compass, \
    subdivided_witness, wired_nonflat_host
from oracles import embed_planar


def test_identity_wall_is_a_wall():
    for k in (1, 2, 3, 4):
        w = identity_wall(k)
        assert verify_wall(w)
        assert w.height == k
        assert w.vertices() == set(wall(k).graph.vertices)


def test_verify_wall_rejects_wrong_height_claim():
    w = identity_wall(2)
    v = verify_wall(SubdividedWall(w.host, 0, w.original, w.paths))
    assert not v and v.condition == "bad-height"
    # a height whose wall (2h(h+2) vertices) does not fit in the host
    for h in (3, 10 ** 6):
        v = verify_wall(SubdividedWall(w.host, h, w.original, w.paths))
        assert not v and v.condition == "bad-height" and v.witness == h
    # a wrong height that fits surfaces as a vertex map for the wrong pattern
    w = identity_wall(3)
    v = verify_wall(SubdividedWall(w.host, 2, w.original, w.paths))
    assert not v and v.condition == "bad-vertex-map"


def test_verify_wall_rejects_broken_path():
    w = identity_wall(2)
    paths = dict(w.paths)
    key = sorted(paths)[0]
    paths[key] = paths[key][:1]  # no longer joins its endpoints
    v = verify_wall(SubdividedWall(w.host, 2, w.original, paths))
    assert not v


def test_verify_wall_names_each_broken_path():
    w = identity_wall(2)
    key = sorted(w.paths)[0]
    a, b = key
    looped = dict(w.paths)
    looped[key] = (a, b, a, b)
    v = verify_wall(SubdividedWall(w.host, 2, w.original, looped))
    assert (v.condition, v.witness) == ("path-self-intersects", key)
    v = verify_wall(SubdividedWall(delete(w.host, edges=[key]), 2, w.original, w.paths))
    assert (v.condition, v.witness) == ("path-edge-missing", key)
    # the long way round a brick runs through other branch vertices
    brick = bricks(w)[0][0]
    around = dict(w.paths)
    around[(min(brick[:2]), max(brick[:2]))] = (brick[0],) + brick[:0:-1]
    v = verify_wall(SubdividedWall(w.host, 2, w.original, around))
    assert (v.condition, v.witness) == ("paths-overlap", brick[-1])
    # the constructor keeps a path as given, even written from its larger end
    flipped = dict(w.paths)
    flipped[key] = w.paths[key][::-1]
    fw = SubdividedWall(w.host, 2, w.original, flipped)
    assert fw.paths[key] == (b, a)
    v = verify_wall(fw)
    assert (v.condition, v.witness) == ("path-endpoints", key)


def test_subdivided_wall_still_verifies():
    w = identity_wall(2)
    key = sorted(w.paths)[0]
    p = w.paths[key]
    host, nv = subdivide(w.host, p[:2])
    paths = dict(w.paths)
    paths[key] = (p[0], nv) + p[1:]
    assert verify_wall(SubdividedWall(host, 2, w.original, paths))


def test_perimeter_lengths():
    assert len(perimeter(identity_wall(1))) == 6
    assert len(perimeter(identity_wall(2))) == 14
    assert len(perimeter(identity_wall(3))) == 22


def test_interior_splits_into_layers():
    assert [len(layers(identity_wall(k))) for k in (1, 2, 3, 4, 5)] == [1, 1, 1, 2, 2]
    w = identity_wall(2)
    assert set(perimeter(w)) | {8, 9} == w.vertices()


def _cycle_class(c):
    return min(min(d[i:] + d[:i] for i in range(len(d))) for d in (tuple(c), tuple(c)[::-1]))


def test_perimeter_and_layers_follow_the_grid_coordinates():
    # the cycles an embedder gives: the outer face of wall(k), then of what
    # is left after peeling each boundary cycle and the leaves it leaves
    for k in range(1, 13):
        wg = wall(k)
        outer = list(embed_planar(wg.graph).outer_face)
        at = outer.index(wg.corners[0])
        outer = outer[at:] + outer[:at]
        if outer[1] != wg.id(2, 1):
            outer = [outer[0]] + outer[:0:-1]
        assert wg.perimeter() == tuple(outer), k
        peeled, g = [outer], wg.graph
        while len(peeled) < max(1, k // 2):
            g = strip_leaves(delete(g, vertices=peeled[-1]))
            peeled.append(embed_planar(g).outer_face)
        w = identity_wall(k)
        got = layers(w)
        assert [_cycle_class(c) for c in got] == [_cycle_class(c) for c in peeled], k
        # layer i is the perimeter of the subwall at (2i + 1, i + 1), from its first corner
        assert got == [perimeter(subwall(w, 2 * i + 1, i + 1, k - 2 * i))
                       for i in range(len(got))], k


def test_bricks_count():
    cells, _ = bricks(identity_wall(2))
    assert len(cells) == 2 * 2  # k rows of k bricks
    cells, _ = bricks(identity_wall(3))
    assert len(cells) == 9


def test_wall_pattern_has_no_chord_and_a_connected_interior():
    # why compass needs one search: the interior of any subdivision of
    # wall(k) lies in one component of the host minus the perimeter
    for k in range(1, 13):
        wg = wall(k)
        ring = wg.perimeter()
        on_ring = set(ring)
        rim = {frozenset((ring[i - 1], ring[i])) for i in range(len(ring))}
        chords = [e for e in wg.graph.edges if on_ring.issuperset(e) and frozenset(e) not in rim]
        assert chords == [], k
        inside = delete(wg.graph, vertices=ring)
        assert inside.n == 0 if k == 1 else len(connected_components(inside)) == 1, k


def test_compass_of_bare_wall_is_the_wall():
    w = identity_wall(2)
    c = compass(w.host, w)
    assert set(c.graph.vertices) == w.vertices()


def test_compass_keeps_interior_component_only():
    w = identity_wall(2)
    g = w.host
    z_in = max(g.vertices) + 1   # hangs off the interior: kept
    z_out = z_in + 1             # hangs off the perimeter: dropped
    g = g.add_vertices([z_in, z_out]).add_edges([(8, z_in), (0, z_out)])
    c = compass(g, SubdividedWall(g, 2, w.original, w.paths))
    assert z_in in c.graph.vertices
    assert z_out not in c.graph.vertices


def test_compass_rejects_a_wall_with_a_broken_path():
    w = identity_wall(2)
    paths = dict(w.paths)
    key = sorted(paths)[0]
    paths[key] = paths[key][:1]  # no longer joins its endpoints
    broken = SubdividedWall(w.host, 2, w.original, paths)
    with pytest.raises(ValueError, match="invalid wall certificate"):
        compass(w.host, broken)
    # so do the other public readers of the rim, verified step or not
    with pytest.raises(ValueError, match="invalid wall certificate"):
        perimeter(broken)
    with pytest.raises(ValueError, match="invalid wall certificate"):
        internal_flaps(RuralDivision(Compass(broken, w.host), []))


def test_plane_walls_are_flat():
    for k in (1, 2, 3):
        w = identity_wall(k)
        r = is_flat(compass(w.host, w))
        assert r.flat is True


def test_wired_hosts_are_not_flat():
    i1, i2 = interior_vertices(2)[:2]
    g = wired_nonflat_host(2, (i1, i2))
    w = identity_wall(2)
    c = compass(g, SubdividedWall(g, 2, w.original, w.paths))
    r = is_flat(c)
    assert r.flat is False
    p1, p2 = r.witness
    c1, c2, c3, c4 = c.corners
    assert {p1[0], p1[-1]} == {c1, c3} and {p2[0], p2[-1]} == {c2, c4}
    assert not (set(p1) & set(p2))


def test_flatness_budget_gives_unknown(monkeypatch):
    i1, i2 = interior_vertices(3)[:2]
    g = wired_nonflat_host(3, (i1, i2))
    w = identity_wall(3)
    c = compass(g, SubdividedWall(g, 3, w.original, w.paths))
    monkeypatch.setattr(paths_module, "TWO_PATHS_BUDGET", 0)
    r = is_flat(c)
    assert (r.flat, r.explored) == (None, 0)
    with pytest.raises(TypeError):
        is_flat(c, budget=0)


def test_large_plane_wall_takes_the_corner_wheel(monkeypatch):
    w = identity_wall(8)
    c = compass(w.host, w)
    assert c.graph.n > WHEEL_FIRST_ABOVE
    monkeypatch.setattr(paths_module, "TWO_PATHS_BUDGET", 0)
    start = time.process_time()
    r = is_flat(c)  # the search would answer None at once
    assert time.process_time() - start < 1.0
    assert (r.flat, r.explored) == (True, 0)


def test_non_planar_corner_wheel_falls_back_to_the_search():
    g, w = k5_piece_host(4)
    c = compass(g, SubdividedWall(g, 4, w.original, w.paths))
    assert c.graph.n > WHEEL_FIRST_ABOVE
    r = is_flat(c)
    assert r.flat is True and r.explored > 0


def test_is_flat_matches_the_search_on_large_compasses():
    # over WHEEL_FIRST_ABOVE vertices a planar corner wheel answers; the
    # exhaustive search must give the same verdict on every compass
    rng = random.Random(1)
    seen = {True: 0, False: 0}
    for _ in range(300):
        c = random_wired_compass(rng, rng.choice((3, 4)))
        if c.graph.n <= WHEEL_FIRST_ABOVE:
            continue
        flat = is_flat(c).flat
        search = two_disjoint_paths(c.graph, c.corners[0::2], c.corners[1::2])
        assert flat is (search.verdict == "none")
        seen[flat] += 1
    assert sum(seen.values()) >= 150 and min(seen.values()) >= 30, seen


def test_subwall_windows():
    w = identity_wall(3)
    sw = subwall(w, 1, 1, 1)
    assert verify_wall(sw) and sw.height == 1
    sw = subwall(w, 1, 1, 2)
    assert verify_wall(sw) and sw.height == 2
    with pytest.raises(ValueError):
        subwall(w, 50, 1, 1)


def test_disjoint_subwalls_pack_and_avoid():
    w = identity_wall(3)
    subs = disjoint_subwalls(w, 2, 1)
    assert len(subs) == 2
    seen = set()
    for sw in subs:
        assert verify_wall(sw)
        assert not (sw.vertices() & seen)
        seen |= sw.vertices()
    with pytest.raises(ValueError):
        disjoint_subwalls(w, 50, 1)


def test_extract_wall_identity_contraction():
    tg = gamma(10)
    w = extract_wall_from_gamma_contraction(tg.graph, identity_witness(tg.graph, tg.loaded))
    assert verify_wall(w)
    assert w.height == 1
    r = is_flat(compass(w.host, w))
    assert r.flat is True


def test_extract_wall_subdivided_contraction():
    tg = gamma(10)
    witness = subdivided_witness(tg.graph, tg.loaded)
    w = extract_wall_from_gamma_contraction(witness.model.host, witness)
    assert verify_wall(w)
    assert w.height == 1


def test_extract_wall_needs_square_pattern():
    small = gamma(4)  # 16 pattern vertices: far below the smallest usable square
    with pytest.raises(ValueError):
        extract_wall_from_gamma_contraction(small.graph,
                                            identity_witness(small.graph, small.loaded))


def test_extract_wall_rejects_wrong_corner():
    tg = gamma(10)
    model = identity_witness(tg.graph, tg.loaded)
    bad = type(model)(model.model, model.embedding, 1, model.disk_faces)
    with pytest.raises(ValueError):
        extract_wall_from_gamma_contraction(tg.graph, bad)


def test_extract_wall_height_two_from_subdivided_gamma12():
    tg = gamma(12)
    witness = subdivided_witness(tg.graph, tg.loaded)
    w = extract_wall_from_gamma_contraction(witness.model.host, witness)
    assert verify_wall(w)
    assert w.height == 2


def test_extract_wall_undetermined_when_no_window_works():
    # every window of the identity gamma(12) witness has a compass that
    # does not embed in the disk its perimeter bounds
    tg = gamma(12)
    with pytest.raises(SizeCapExceeded, match="window search"):
        extract_wall_from_gamma_contraction(tg.graph, identity_witness(tg.graph, tg.loaded))
