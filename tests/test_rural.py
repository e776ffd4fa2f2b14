import itertools
import random

import pytest

from flatwall.generators import wall
from flatwall.graph import Graph
from flatwall.minors import subdivide
import flatwall.rural as rural
from flatwall.rural import (Flap, RuralDivision, _boundaries_embed_in_disk, _linked_by_top,
                            _separator_tree, _swept_boundaries, check_linkage,
                            division_from_edge_lists, internal_flaps, trivial_division,
                            validate_rural)
from flatwall.wall import (Compass, SubdividedWall, compass, identity_wall, is_flat,
                           perimeter, refind_after_transform)

from oracles import (boundaries, boundary, disk_embeddable_by_incidence_graph,
                     dumps_like_jsonable, embeds_in_disk_by_subdivided_rim, incidence_graph,
                     linked_by_separators, min_vertex_cut, random_graph, separator_tree_by_blocks,
                     validate_rural_pairwise)


def bare_compass(k: int) -> Compass:
    w = identity_wall(k)
    return compass(w.host, w)


def augmented_compass(extra_vertices, extra_edges) -> Compass:
    """wall(2) with extras riding in the interior component."""
    w = identity_wall(2)
    g = w.host.add_vertices(extra_vertices).add_edges(extra_edges)
    return compass(g, SubdividedWall(g, 2, w.original, w.paths))


def test_boundary_of_edge_flap():
    c = bare_compass(2)
    flap = Graph([0, 1], [(0, 1)])
    b = boundary(c, flap)
    assert 0 in b  # corner
    assert 1 in b  # meets the rest of the wall


def test_boundary_requires_subgraph():
    c = bare_compass(1)
    with pytest.raises(ValueError):
        boundary(c, Graph([99], []))
    with pytest.raises(ValueError):
        boundary(c, Graph([0, 2], [(0, 2)]))  # not a compass edge


def test_trivial_division_validates_heights_1_to_3():
    for k in (1, 2, 3):
        c = bare_compass(k)
        rd = trivial_division(c)
        assert len(rd.flaps) == c.graph.m
        assert validate_rural(rd)


def test_division_positions_match_edges():
    c = bare_compass(1)
    rd = division_from_edge_lists(c, [[e] for e in c.graph.edges])
    assert boundaries(rd)


def test_property1_missing_edge():
    c = bare_compass(1)
    groups = [[e] for e in list(c.graph.edges)[:-1]]
    v = validate_rural(division_from_edge_lists(c, groups))
    assert not v and v.condition == "property-1"


def test_property1_duplicated_edge():
    c = bare_compass(1)
    groups = [[e] for e in c.graph.edges] + [[list(c.graph.edges)[0]]]
    v = validate_rural(division_from_edge_lists(c, groups))
    assert not v and v.condition == "property-1"


def test_property2_equal_boundaries():
    # a path 8-z-9 beside the interior edge (8,9): same boundary {8, 9}
    c = augmented_compass([20], [(8, 20), (20, 9)])
    groups = [[(8, 20), (20, 9)]] + [[e] for e in wall(2).graph.edges]
    v = validate_rural(division_from_edge_lists(c, groups))
    assert not v and v.condition == "property-2"


def test_property2_names_the_smallest_first_flap():
    # boundaries A, B, B, A: the pair is (0, 3), the first flap's partner,
    # not the adjacent pair (1, 2)
    c = augmented_compass([20, 21], [(8, 20), (20, 9), (7, 21), (21, 8)])
    groups = [[(8, 20), (20, 9)], [(7, 21), (21, 8)], [(7, 8)], [(8, 9)]]
    groups += [[e] for e in wall(2).graph.edges if e not in ((7, 8), (8, 9))]
    rd = division_from_edge_lists(c, groups)
    assert boundaries(rd)[:4] == (frozenset({8, 9}), frozenset({7, 8}),
                                  frozenset({7, 8}), frozenset({8, 9}))
    v = validate_rural(rd)
    assert (v.condition, v.witness) == ("property-2", (0, 3))
    assert v.detail == "flaps 0 and 3 have the same boundary"


def test_property1_unspanned_flap():
    # a flap vertex on none of the flap's edges, as a Graph or a record, and
    # an edge end missing from a record's vertices: the smallest such vertex
    c = bare_compass(2)
    flaps = list(trivial_division(c).flaps)
    i = next(i for i, d in enumerate(flaps) if 9 not in d.vertices and 3 not in d.vertices)
    d = flaps[i]
    for kind in (Graph, Flap):
        for extra in ((9,), (3, 9)):
            rd = RuralDivision(c, flaps[:i] + [kind(d.vertices + extra, d.edges)] + flaps[i + 1:])
            v = validate_rural(rd)
            assert (v.condition, v.witness) == ("property-1", extra[0])
            assert v.detail == ("flap %d is not spanned by its edges at vertex %d"
                                % (i, extra[0]))
    a, b = d.edges[0]
    v = validate_rural(RuralDivision(c, flaps[:i] + [Flap((b,), d.edges)] + flaps[i + 1:]))
    assert (v.condition, v.witness) == ("property-1", a)
    assert v.detail == "flap %d is not spanned by its edges at vertex %d" % (i, a)
    # it is checked after "no edges", and a vertex outside the compass comes first
    v = validate_rural(RuralDivision(c, [Flap((9,), ())] + flaps))
    assert (v.condition, v.witness, v.detail) == ("property-1", 0, "flap 0 has no edges")
    v = validate_rural(RuralDivision(c, flaps[:i] + [Flap(d.vertices + (99,), d.edges)]
                                     + flaps[i + 1:]))
    assert (v.condition, v.witness) == ("property-1", 99)
    assert v.detail == "flap %d references vertex 99 outside the compass" % i


def test_property3_boundary_pair_not_joined():
    # two wall edges at a degree-3 vertex in one flap: its boundary has a
    # pair whose only inside-connection runs through the boundary itself
    c = bare_compass(2)
    es = list(c.graph.edges)
    at2 = [e for e in es if 2 in e]
    assert len(at2) == 3
    groups = [at2[:2]] + [[e] for e in es if e not in at2[:2]]
    v = validate_rural(division_from_edge_lists(c, groups))
    assert not v and v.condition == "property-3"


def test_property4_fat_boundary():
    # a star flap touching the wall at four places
    c = augmented_compass([20], [(8, 20), (9, 20), (2, 20), (3, 20)])
    star = [(8, 20), (9, 20), (2, 20), (3, 20)]
    groups = [star] + [[e] for e in wall(2).graph.edges]
    v = validate_rural(division_from_edge_lists(c, groups))
    assert not v and v.condition == "property-4"


def test_property5_unlinkable_boundary():
    # pendant triangle behind the cut vertex 8: boundary {t1, t2} cannot
    # reach two corners disjointly
    t1, t2, t3 = 20, 21, 22
    c = augmented_compass([t1, t2, t3],
                          [(8, t1), (8, t2), (t1, t2), (t2, t3), (t1, t3)])
    tri = [(t1, t2), (t2, t3), (t1, t3)]
    rest = [e for e in c.graph.edges if e not in tri]
    groups = [tri] + [[e] for e in rest]
    v = validate_rural(division_from_edge_lists(c, groups))
    assert not v and v.condition == "property-5"
    assert v.witness == ("linkage", 0)


def test_flap_with_empty_boundary_passes_property_5():
    # a hand-built compass with an edge apart from the wall: that flap has
    # an empty boundary, which needs no path and adds nothing to the disk
    w = identity_wall(2)
    c = compass(w.host, w)
    f = c.graph.fresh_id()
    apart = Compass(w, c.graph.add_vertices([f, f + 1]).add_edges([(f, f + 1)]))
    rd = division_from_edge_lists(apart, [[e] for e in apart.graph.edges])
    assert frozenset() in boundaries(rd)
    assert validate_rural(rd) and validate_rural_pairwise(rd)


def test_flap_outside_compass_fails_property_1():
    c = bare_compass(1)
    v = validate_rural(RuralDivision(c, [Graph([98, 99], [(98, 99)])]))
    assert (v.condition, v.witness) == ("property-1", 98)
    assert v.detail == "flap 0 references vertex 98 outside the compass"
    a, b = next((a, b) for a in c.graph.vertices for b in c.graph.vertices
                if a < b and not c.graph.has_edge(a, b))
    groups = [[e] for e in c.graph.edges] + [[(a, b)]]
    v = validate_rural(division_from_edge_lists(c, groups))
    assert (v.condition, v.witness) == ("property-1", (a, b))
    assert "outside the compass" in v.detail


def test_internal_flaps_avoid_the_perimeter():
    c = augmented_compass([20], [(8, 20), (9, 20)])
    groups = [[(8, 20)], [(9, 20)]] + [[e] for e in wall(2).graph.edges]
    rd = division_from_edge_lists(c, groups)
    ring = set(perimeter(rd.compass.wall))
    inner = internal_flaps(rd)
    assert all(not (set(d.vertices) & ring) for d in inner)
    assert len(inner) == 3  # the two new flaps plus the old interior edge


def test_check_disk_embeddable_corner_cases():
    # a square of pairs, with its corners in and out of order, and a corner
    # that only a boundary of at most one vertex names: such a boundary adds
    # nothing, so the corner just sits on the rim
    square = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for bounds, corners, want in ((square, (0, 1, 2, 3), True), (square, (0, 2, 1, 3), False),
                                  (square + [(9,), ()], (0, 1, 2, 9), True)):
        assert _boundaries_embed_in_disk(bounds, corners) == want, (bounds, corners)
        verts = {v for bs in bounds for v in bs}
        assert disk_embeddable_by_incidence_graph(verts, bounds, corners) == want


def test_check_disk_embeddable_matches_subdivided_rim_gadget():
    rng = random.Random(12)
    outcomes = set()
    for _ in range(2000):
        n = rng.randint(4, 9)
        hes = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(rng.randint(1, 9))]
        bounds = sorted({tuple(sorted(he)) for he in hes})  # distinct, as validate_rural's are
        c1, c2, c3, c4 = corners = rng.sample(range(n), 4)
        ring = incidence_graph(range(n), bounds).add_edges(
            [(c1, c2), (c2, c3), (c3, c4), (c4, c1)])
        want = embeds_in_disk_by_subdivided_rim(ring, corners)
        assert _boundaries_embed_in_disk(bounds, corners) == want, (bounds, corners)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_disk_gadget_matches_incidence_graph_route():
    # boundaries of 0-4 vertices, often several through one pair, corners
    # that may lie on no boundary, and ids that start anywhere
    rng = random.Random(29)
    seen = set()
    for _ in range(1500):
        n = rng.randint(4, 10)
        base = rng.choice((0, 7, -5))
        vs = list(range(base, base + n))
        bounds = set()
        for _ in range(rng.randint(0, 10)):
            held = sorted(sorted(b) for b in bounds if len(b) >= 2)
            if held and rng.random() < 0.3:
                # a pair that some boundary already holds, inside a new one
                pair = rng.sample(rng.choice(held), 2)
                bounds.add(frozenset(pair + rng.sample(vs, rng.randint(0, 2))))
            else:
                bounds.add(frozenset(rng.sample(vs, rng.choice((0, 1, 2, 2, 3, 3, 4)))))
        corners = rng.sample(vs, 4)
        bounds = sorted(bounds, key=sorted)
        # an empty boundary is an isolated node of the incidence graph
        want = disk_embeddable_by_incidence_graph(vs, bounds, corners)
        assert _boundaries_embed_in_disk(bounds, corners) == want, (bounds, corners)
        off_rim = set(corners) - {v for b in bounds for v in b}
        seen.add((want, bool(off_rim), any(len(b) == 4 for b in bounds)))
    assert seen == {(w, o, f) for w in (True, False) for o in (True, False)
                    for f in (True, False)}, seen


def test_check_linkage_matches_menger_oracle():
    for k in (1, 2):
        c = bare_compass(k)
        corners = list(c.corners)
        vs = sorted(c.graph.vertices)
        for size in (1, 2, 3):
            for e in list(itertools.combinations(vs, size))[:15]:
                want = min_vertex_cut(c.graph, list(e), corners) >= size
                assert check_linkage(c, frozenset(e)) == want


def graph_with_pendants(rng: random.Random) -> Graph:
    """A sparse random graph, then pieces that each hang off one vertex
    (a cut vertex), and sometimes a component apart from the rest."""
    g = random_graph(rng, rng.randint(5, 9), rng.choice((0.2, 0.3, 0.45)))
    for _ in range(rng.randint(1, 3)):
        piece = random_graph(rng, rng.randint(1, 4), 0.6)
        f = g.fresh_id()
        at = (rng.choice(g.vertices), f + rng.choice(piece.vertices))
        g = Graph(g.vertices + tuple(f + v for v in piece.vertices),
                  g.edges + tuple((f + a, f + b) for a, b in piece.edges) + (at,))
    if rng.random() < 0.4:
        f = g.fresh_id()
        g = Graph(g.vertices + (f, f + 1, f + 2), g.edges + ((f, f + 1), (f + 1, f + 2)))
    return g


def test_block_cut_linkage_matches_menger_oracle():
    rng = random.Random(17)
    seen = {}
    for _ in range(150):
        g = graph_with_pendants(rng)
        corners = rng.sample(g.vertices[:5], 4)
        _, top = _separator_tree(g, corners)
        assert _linked_by_top(top, ())
        for _ in range(12):
            e = rng.sample(g.vertices, rng.choice((1, 2, 2)))
            if rng.random() < 0.2:
                e[0] = rng.choice(corners)
            want = min_vertex_cut(g, set(e), corners) >= len(set(e))
            assert _linked_by_top(top, set(e)) == want, (g.edges, corners, e)
            apart = any(min_vertex_cut(g, [v], corners) == 0 for v in e)
            cases = [want, "corner" if set(e) & set(corners) else None,
                     "apart" if apart else None,
                     "one cut vertex" if len(set(e)) == 2 and not (want or apart) else None]
            for case in cases:
                seen[case] = seen.get(case, 0) + 1
    # both answers, boundaries with a corner, vertices reaching no corner,
    # and pairs that reach the corners only through one shared vertex
    assert seen[True] >= 300 and seen[False] >= 300 and seen["corner"] >= 300, seen
    assert seen["apart"] >= 50 and seen["one cut vertex"] >= 50, seen


def test_separator_tree_matches_block_cut_tree():
    # hosts with cut vertices, a pendant path, and sometimes a component
    # that reaches no corner: one DFS gives the block-cut tree's up map, and
    # the top rule links exactly the boundaries the separator sets link
    rng = random.Random(41)
    for _ in range(200):
        g = graph_with_pendants(rng)
        f, at = g.fresh_id(), rng.choice(g.vertices)
        tail = rng.randint(1, 4)
        g = Graph(g.vertices + tuple(range(f, f + tail)),
                  g.edges + ((at, f),) + tuple((f + i, f + i + 1) for i in range(tail - 1)))
        corners = rng.sample(g.vertices[:5], 4)
        up, top = _separator_tree(g, corners)
        old = separator_tree_by_blocks(g, corners)
        assert up == old, (g.edges, corners)
        for size in (0, 1, 2):
            for e in itertools.combinations(g.vertices, size):
                assert _linked_by_top(top, set(e)) == linked_by_separators(old, e), (g.edges, e)


def test_check_linkage_rejects_oversize_boundary():
    c = bare_compass(2)
    non_corners = [v for v in c.graph.vertices if v not in c.corners][:5]
    with pytest.raises(ValueError):
        check_linkage(c, frozenset(non_corners))


def subdivided_wall(rng: random.Random, k: int) -> SubdividedWall:
    w = identity_wall(k)
    g, ops = w.host, []
    for _ in range(rng.randint(0, 20)):
        e = rng.choice(g.edges)
        g, _ = subdivide(g, e)
        ops.append(("subdivide", e))
    return refind_after_transform(compass(w.host, w), ops)


def merged_divisions(rng: random.Random, c: Compass, groups):
    """The division by groups, then after each of a few random merges of
    two flaps that share a vertex, mostly one of compass degree 2 (such a
    merge keeps the division valid)."""
    groups = [list(f) for f in groups]
    yield division_from_edge_lists(c, groups)
    for _ in range(6):
        i = rng.randrange(len(groups))
        ends = {v for e in groups[i] for v in e}
        touching = [j for j, f in enumerate(groups)
                    if j != i and ends & {v for e in f for v in e}]
        if rng.random() < 0.7:
            touching = [j for j in touching if any(
                c.graph.degree(v) == 2 for e in groups[j] for v in e if v in ends)] or touching
        j = rng.choice(touching)
        groups[i] = groups[i] + groups[j]
        del groups[j]
        yield division_from_edge_lists(c, groups)


def test_valid_division_proves_flatness():
    # lemma behind verify_certificate's check order: a division that
    # validates leaves no room for disjoint c1-c3 and c2-c4 paths
    rng = random.Random(3)
    accepted = rejected = 0
    for _ in range(40):
        w = subdivided_wall(rng, rng.choice((2, 3)))
        c = compass(w.host, w)
        for rd in merged_divisions(rng, c, [[e] for e in c.graph.edges]):
            if validate_rural(rd):
                accepted += 1
                assert is_flat(c).flat is True
            else:
                rejected += 1
    assert accepted > 80 and rejected > 80  # 40 of the accepted are trivial divisions


def test_crossed_wall_has_no_valid_division():
    rng = random.Random(4)
    for _ in range(30):
        w = subdivided_wall(rng, rng.choice((2, 3)))
        c1, c2, c3, c4 = w.corners
        i1, i2 = rng.sample(sorted(w.vertices() - set(perimeter(w))), 2)
        z1 = w.host.fresh_id()
        z2 = z1 + 1
        wires = [[(c1, z1), (z1, c3), (z1, i1)], [(c2, z2), (z2, c4), (z2, i2)]]
        g = w.host.add_vertices([z1, z2]).add_edges(wires[0] + wires[1])
        c = compass(g, SubdividedWall(g, w.height, w.original, w.paths))
        assert is_flat(c).flat is False
        plain = [[e] for e in c.graph.edges if z1 not in e and z2 not in e]
        for groups in ([[e] for e in c.graph.edges], plain + wires):
            for rd in merged_divisions(rng, c, groups):
                assert not validate_rural(rd)


def merged_and_split(rng: random.Random, c: Compass):
    """Divisions after each of a few merges of any two flaps and splits of
    one flap's edges into two random parts, from one flap per edge."""
    groups = [[e] for e in c.graph.edges]
    for _ in range(10):
        big = [i for i, f in enumerate(groups) if len(f) > 1]
        if big and rng.random() < 0.4:
            i = rng.choice(big)
            f = groups[i][:]
            rng.shuffle(f)
            cut = rng.randrange(1, len(f))
            groups[i] = f[:cut]
            groups.insert(rng.randrange(len(groups) + 1), f[cut:])
        else:
            i, j = rng.sample(range(len(groups)), 2)
            groups[i] = groups[i] + groups[j]
            del groups[j]
        yield division_from_edge_lists(c, groups)


def equal_boundary_division(rng: random.Random, c: Compass) -> RuralDivision:
    """Two flaps with one boundary: the edges at each corner go to both
    halves, so each boundary is the set of shared vertices; then a few
    edges whose ends stay on both halves without them become flaps of
    their own, which leaves the two boundaries equal."""
    side = {}
    for corner in c.corners:
        at = [e for e in c.graph.edges if corner in e]
        rng.shuffle(at)
        side.update((e, i % 2) for i, e in enumerate(at))
    for e in c.graph.edges:
        side.setdefault(e, rng.randrange(2))
    halves = [[e for e in c.graph.edges if side[e] == s] for s in (0, 1)]
    alone = []
    for e in rng.sample(halves[0] + halves[1], rng.randrange(4)):
        rest = [[f for f in h if f != e and f not in alone] for h in halves]
        on = [{v for f in h for v in f} for h in rest]
        if set(e) <= on[0] & on[1]:
            alone.append(e)
    groups = [[e for e in h if e not in alone] for h in halves] + [[e] for e in alone]
    rng.shuffle(groups)
    return division_from_edge_lists(c, groups)


def overlapping_division(rng: random.Random, rd: RuralDivision) -> RuralDivision:
    """rd with up to three vertices, each off the boundary of its own flap,
    copied into another flap as isolated vertices."""
    flaps = list(rd.flaps)
    inner = [(v, j) for j, (d, b) in enumerate(zip(flaps, boundaries(rd)))
             for v in d.vertices if v not in b]
    for v, j in rng.sample(inner, min(len(inner), rng.randint(1, 3))):
        i = rng.choice([i for i in range(len(flaps)) if i != j])
        flaps[i] = Graph(flaps[i].vertices + (v,), flaps[i].edges)
    return RuralDivision(rd.compass, flaps)


def pendant_compass(rng: random.Random, w: SubdividedWall) -> Compass:
    """w's compass plus a triangle, a path or a K4 on fresh vertices,
    joined to one vertex off the perimeter."""
    at = rng.choice(sorted(w.vertices() - set(perimeter(w))))
    f = w.host.fresh_id()
    piece = rng.choice(([(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2)],
                        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    vs = sorted({v for e in piece for v in e})
    g = w.host.add_vertices(f + v for v in vs).add_edges(
        [(f + a, f + b) for a, b in piece] + [(at, f + rng.choice(vs))])
    return compass(g, SubdividedWall(g, w.height, w.original, w.paths))


def first_unspanned(rd: RuralDivision):
    """(i, v) for the first flap i that its edges do not span, with v its
    smallest vertex on none of its edges or edge end missing from its
    vertices; None when the edges span every flap."""
    for i, d in enumerate(rd.flaps):
        off = {v for e in d.edges for v in e} ^ set(d.vertices)
        if off:
            return i, min(off)
    return None


def test_validate_rural_matches_pairwise_oracle():
    # property 2 compares boundaries alone; on every division whose flaps
    # their edges span, the pairwise loop it replaced names the same first
    # failure, and a flap with a vertex on none of its edges fails property 1
    rng = random.Random(11)
    side = random.Random(13)  # the pendant compasses, which leave rng's draws as they were
    modes = {}
    for _ in range(40):
        w = subdivided_wall(rng, rng.choice((2, 3)))
        c = compass(w.host, w)
        divisions = list(merged_divisions(rng, c, [[e] for e in c.graph.edges]))
        divisions += [overlapping_division(rng, rd) for rd in divisions[1:4]]
        divisions += list(merged_and_split(rng, c))
        divisions += [equal_boundary_division(rng, c) for _ in range(3)]
        # two edges off the compass: as flaps they share no vertex, and
        # their boundaries are equal because both are empty
        f = c.graph.fresh_id()
        detached = Compass(w, c.graph.add_vertices(range(f, f + 4)).add_edges(
            [(f, f + 1), (f + 2, f + 3)]))
        groups = [[e] for e in detached.graph.edges]
        rng.shuffle(groups)
        divisions.append(division_from_edge_lists(detached, groups))
        # a planar piece hanging off an inner wall vertex, which is then a
        # cut vertex of the compass: the piece's boundaries are not linked
        pc = pendant_compass(side, w)
        divisions += list(merged_divisions(side, pc, [[e] for e in pc.graph.edges]))
        for rd in divisions:
            v = validate_rural(rd)
            assert dumps_like_jsonable(v.witness)
            off = first_unspanned(rd)
            if off is not None:
                i, x = off
                assert (v.condition, v.witness) == ("property-1", x)
                assert v.detail == "flap %d is not spanned by its edges at vertex %r" % (i, x)
                modes["unspanned"] = modes.get("unspanned", 0) + 1
                continue
            want = validate_rural_pairwise(rd)
            got = (bool(v), v.condition, v.witness, v.detail)
            assert got == (bool(want), want.condition, want.witness, want.detail)
            mode = v.detail.split(" ")[-1] if v.condition == "property-2" else v.condition
            if v.condition == "property-5":
                mode = "disk" if v.witness == "disk" else "linkage"
            modes[mode] = modes.get(mode, 0) + 1
    assert modes["boundary"] >= 100 and modes["unspanned"] >= 60, modes
    assert modes[None] >= 100 and modes["property-3"] >= 100, modes
    assert modes["linkage"] >= 60, modes


def test_swept_boundaries_match_boundary():
    # validate_rural reads every boundary off one owner index of the compass
    # edges; boundary() is the oracle, flap by flap, on every division whose
    # flaps their edges span (the others fail property 1 before the sweep)
    rng = random.Random(21)
    corner_only = unspanned = 0
    for _ in range(30):
        w = subdivided_wall(rng, rng.choice((2, 3)))
        c = compass(w.host, w)
        if rng.random() < 0.5:
            c = pendant_compass(rng, w)
        # a hand-built compass with one vertex that no compass edge meets
        x = c.graph.fresh_id()
        lonely = Compass(c.wall, c.graph.add_vertices([x]))
        divisions = list(merged_and_split(rng, c))
        # each corner's edges in one flap of their own, so the corner rule alone
        # puts the corner on that flap's boundary
        at_corner = [[e for e in c.graph.edges if v in e] for v in c.corners]
        divisions.append(division_from_edge_lists(c, at_corner + [
            [e] for e in c.graph.edges if not set(e) & set(c.corners)]))
        divisions += [overlapping_division(rng, rd) for rd in divisions]
        divisions += [RuralDivision(lonely, [Graph(d.vertices + (x,), d.edges) if i == 0 else d
                                             for i, d in enumerate(rd.flaps)])
                      for rd in divisions[:2]]
        for rd in divisions:
            if first_unspanned(rd) is not None:
                assert validate_rural(rd).condition == "property-1"
                unspanned += 1
                continue
            kg, corners = rd.compass.graph, set(rd.compass.corners)
            seen = {e: i for i, d in enumerate(rd.flaps) for e in d.edges}
            swept = _swept_boundaries(rd, seen)
            assert swept == boundaries(rd)
            corner_only += sum(v in corners and {seen[min(u, v), max(u, v)]
                                                 for u in kg.neighbors(v)} == {i}
                               for i, d in enumerate(rd.flaps) for v in d.vertices)
    assert corner_only >= 20 and unspanned >= 20, (corner_only, unspanned)


def test_flap_records_and_graphs_validate_alike():
    # validate_rural reads only a flap's vertices and edges: a division of
    # records and the same division of Graphs, flaps with a vertex on none
    # of their edges included, get the same verdict
    rng = random.Random(31)
    side = random.Random(37)  # the equal-boundary divisions, which leave rng's draws as they were
    modes = {}
    for _ in range(20):
        w = subdivided_wall(rng, rng.choice((2, 3)))
        c = compass(w.host, w)
        x = c.graph.fresh_id()
        lonely = Compass(c.wall, c.graph.add_vertices([x]))
        divisions = list(merged_and_split(rng, c))
        divisions += [overlapping_division(rng, rd) for rd in divisions]
        divisions += [RuralDivision(lonely, [Graph(d.vertices + (x,), d.edges) if i == 0 else d
                                             for i, d in enumerate(rd.flaps)])
                      for rd in divisions[:2]]
        divisions += [equal_boundary_division(side, c) for _ in range(2)]
        for rd in divisions:
            verdicts = set()
            for kind in (Flap, Graph):
                v = validate_rural(RuralDivision(rd.compass,
                                                 [kind(d.vertices, d.edges) for d in rd.flaps]))
                verdicts.add((bool(v), v.condition, v.witness, v.detail))
            assert len(verdicts) == 1, verdicts
            modes[v.condition] = modes.get(v.condition, 0) + 1
    assert min(modes.get(m, 0) for m in (None, "property-1", "property-2", "property-3")) >= 20, \
        modes


def test_flaps_outside_the_compass_fail_before_any_boundary(monkeypatch):
    # the sweep needs property 1; a flap off the compass never reaches it
    c = bare_compass(3)
    c1, _, c3, _ = c.corners
    flaps = list(trivial_division(c).flaps)
    monkeypatch.setattr(rural, "_swept_boundaries",
                        lambda *args: pytest.fail("boundaries swept"))
    for alien, witness in ((Graph([c1, c3], [(c1, c3)]), (c1, c3)),
                           (Graph([998, 999], [(998, 999)]), 998)):
        v = validate_rural(RuralDivision(c, flaps + [alien]))
        assert (v.condition, v.witness) == ("property-1", witness)
