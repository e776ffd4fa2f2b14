"""Acceptance gate: ten checks, one line of verdict each, with time budgets.

Every check states its scale and tolerance inline; a failure message names
what broke.  Budgets are wall-clock upper bounds, asserted, so a regression
that blows up the search space fails loudly rather than slowly.
"""

import random
import time

import pytest

import flatwall.minors as minors
from flatwall.decomposition import closure_bag, exact_treewidth, make_small, validate as validate_td
from flatwall.generators import lower_bound_graph, wall
from flatwall.graph import complete_graph, delete
from flatwall.minors import MinorModel, find_minor, verify_minor_model
from flatwall.rural import division_from_edge_lists, trivial_division, validate_rural
from flatwall.structure import (HMinorFound, WeakStructureCertificate, apex_number,
                                apex_reduce, pyramid_minor_model,
                                trichotomy_check, verify_certificate)
from flatwall.wall import SubdividedWall, compass, identity_wall, is_flat, verify_wall

from fixtures import apexed_wall_host, interior_vertices, wall_subgraph, wired_nonflat_host
from oracles import random_graph, random_elimination_td
from test_rural import augmented_compass, bare_compass
from test_transform import _triangles, anchored, fixture_hosts
from test_structure import TRICHOTOMY_CORPUS


def verdict(n: int, budget: float, started: float, detail: str):
    elapsed = time.time() - started
    assert elapsed < budget, "criterion %d blew its %.0fs budget: %.1fs" % (n, budget, elapsed)
    print("criterion %2d: PASS  %s  (%.1fs)" % (n, detail, elapsed))


def test_criterion_01_lower_bound_tightness():
    started = time.time()
    g = lower_bound_graph(3, 6)
    tw, td = exact_treewidth(g)
    assert tw == 4
    assert validate_td(td)
    assert find_minor(g, complete_graph(6)) is None
    assert apex_number(g) == (1, (0,))
    verdict(1, 60, started, "lower_bound(3,6): treewidth 4, no K6 minor, apex number 1")


def test_criterion_02_apex_deletion_bound():
    started = time.time()
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        x = [v for v in g.vertices if rng.random() < 0.3]
        assert exact_treewidth(delete(g, x))[0] >= exact_treewidth(g)[0] - len(x)
    verdict(2, 30, started, "200 samples: tw(G-X) >= tw(G)-|X|, zero violations")


def test_criterion_03_small_decompositions():
    started = time.time()
    rng = random.Random(12)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 9), 0.35)
        small = make_small(random_elimination_td(rng, g))
        assert validate_td(small)
        assert len(small.bags) <= g.n
        for i, j in small.tree.edges:
            assert not small.bags[i] <= small.bags[j]
            assert not small.bags[j] <= small.bags[i]
    verdict(3, 10, started, "200 decompositions: small and at most |V| nodes")


def test_criterion_04_closure_bag_carries_width():
    started = time.time()
    rng = random.Random(13)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 10), 0.4)
        td = random_elimination_td(rng, g)
        host_tw = exact_treewidth(g)[0]
        assert max(exact_treewidth(closure_bag(td, i))[0] for i in td.bags) >= host_tw
    verdict(4, 60, started, "50 decompositions: some closure bag at host treewidth")


def nonflat_wirings():
    pairs2 = [(8, 8), (8, 9), (9, 8), (9, 9)]
    inner3 = interior_vertices(3)
    pairs3 = [(inner3[0], inner3[1]), (inner3[2], inner3[3]),
              (inner3[0], inner3[-1]), (inner3[1], inner3[-2]),
              (inner3[4], inner3[5]), (inner3[-1], inner3[0])]
    return [(2, p) for p in pairs2] + [(3, p) for p in pairs3]


def revalidate_witness(c, corners, witness):
    c1, c2, c3, c4 = corners
    assert len(witness) == 2
    ends = []
    for path in witness:
        for a, b in zip(path, path[1:]):
            assert c.graph.has_edge(a, b), "witness path leaves the compass"
        ends.append({path[0], path[-1]})
    assert not set(witness[0]) & set(witness[1]), "witness paths intersect"
    assert {frozenset(e) for e in ends} == {frozenset((c1, c3)), frozenset((c2, c4))}


def test_criterion_05_flatness_suite():
    started = time.time()
    for k in (1, 2, 3):
        w = identity_wall(k)
        assert is_flat(compass(w.host, w)).flat is True
    wirings = nonflat_wirings()
    assert len(wirings) == 10
    for k, pair in wirings:
        g = wired_nonflat_host(k, pair)
        w = identity_wall(k)
        w = SubdividedWall(g, k, w.original, w.paths)
        c = compass(g, w)
        res = is_flat(c)
        assert res.flat is False
        revalidate_witness(c, w.corners, res.witness)
    verdict(5, 30, started, "plane walls 1-3 flat; 10 crossed hosts refuted with witnesses")


def test_criterion_06_transform_invariance():
    started = time.time()
    from oracles import is_isomorphic_to_subdivision
    from flatwall.wall import refind_after_transform
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
    verdict(6, 60, started, "100 op-sequences keep a flat wall, up to subdivision")


def test_criterion_07_pyramid_models(monkeypatch):
    started = time.time()
    for k, h in [(2, 1), (2, 2), (3, 1), (2, 4)]:
        assert verify_minor_model(pyramid_minor_model(k, h))
    monkeypatch.setattr(minors, "MINOR_PATTERN_CAP", 10)  # pyramid(3, 1) has 10 vertices
    for k, h in [(2, 1), (3, 1)]:
        m = pyramid_minor_model(k, h)
        found = find_minor(m.host, m.pattern)
        assert found is not None and verify_minor_model(found)
    verdict(7, 120, started, "pyramid models valid at 4 sizes, 2 cross-checked by search")


K6 = complete_graph(6)
WINDOW_SETS = ({0, 1, 2, 8, 9, 10}, {4, 5, 6, 12, 13, 14})


def test_criterion_08_apex_reduction():
    started = time.time()
    rng = random.Random(21)
    everything = list(wall(3).graph.vertices)
    pool = sorted(set(everything) - WINDOW_SETS[0] - WINDOW_SETS[1])
    for i in range(20):
        count = 2 + (i % 2)
        blind_slot = rng.randrange(count)
        attachments = []
        for slot in range(count):
            if slot == blind_slot:
                attachments.append(rng.sample(pool, rng.randint(0, 3)))
            else:
                attachments.append(everything)
        g, apexes, w = apexed_wall_host(3, attachments)
        reduced, sub = apex_reduce(g, K6, apexes, w, 1, window_count=2)
        expected = tuple(a for s, a in enumerate(apexes) if s != blind_slot)
        assert reduced == expected
        assert sub.height == 1
        c = compass(delete(g, reduced), sub)
        assert not set(c.graph.vertices) & set(apexes)
    g, apexes, w = apexed_wall_host(3, [everything, everything])
    with pytest.raises(HMinorFound, match="every apex sees every window compass"):
        apex_reduce(g, K6, apexes, w, 1, window_count=2)
    verdict(8, 30, started, "20 fixtures drop exactly the blind apex; all-ones raises the evidence")


def corrupted(cert, g):
    """One broken variant per clause, with the condition it must be called."""
    if cert.clause == 1:
        sets = {p: list(vs) for p, vs in cert.minor.branch_sets.items()}
        sets[0] = sets[0] + sets[1]
        return WeakStructureCertificate(1, minor=MinorModel(g, cert.minor.pattern, sets)), \
            "minor-invalid"
    if cert.clause == 2:
        return WeakStructureCertificate(2, decomposition=cert.decomposition,
                                        width_bound=-1), "width-exceeded"
    if cert.clause == 3:
        from flatwall.rural import RuralDivision
        torn = RuralDivision(cert.division.compass, cert.division.flaps[1:])
        return WeakStructureCertificate(3, apex_set=cert.apex_set, wall=cert.wall,
                                        division=torn,
                                        flap_width_bound=cert.flap_width_bound), \
            "division-invalid"
    return cert, "undetermined"


def test_criterion_09_trichotomy_round_trip():
    started = time.time()
    seen = set()
    for g, h, k, threshold, expected in TRICHOTOMY_CORPUS:
        cert = trichotomy_check(g, h, k, threshold)
        assert cert.clause == expected
        seen.add(expected)
        if expected != "undetermined":
            assert verify_certificate(g, h, k, cert)
        broken, condition = corrupted(cert, g)
        v = verify_certificate(g, h, k, broken)
        assert not v and v.condition == condition
    assert seen == {1, 2, 3, "undetermined"}
    verdict(9, 120, started, "12 instances certified and re-verified; corruptions named")


def test_criterion_10_rural_division_axioms():
    started = time.time()
    for k in (1, 2, 3):
        assert validate_rural(trivial_division(bare_compass(k)))

    def broken_divisions():
        c = bare_compass(1)
        yield division_from_edge_lists(c, [[e] for e in list(c.graph.edges)[:-1]]), "property-1"
        c = augmented_compass([20], [(8, 20), (20, 9)])
        yield division_from_edge_lists(
            c, [[(8, 20), (20, 9)]] + [[e] for e in wall(2).graph.edges]), "property-2"
        c = bare_compass(2)
        at2 = [e for e in c.graph.edges if 2 in e]
        yield division_from_edge_lists(
            c, [at2[:2]] + [[e] for e in c.graph.edges if e not in at2[:2]]), "property-3"
        star = [(8, 20), (9, 20), (2, 20), (3, 20)]
        c = augmented_compass([20], star)
        yield division_from_edge_lists(
            c, [star] + [[e] for e in wall(2).graph.edges]), "property-4"
        t1, t2, t3 = 20, 21, 22
        tri = [(t1, t2), (t2, t3), (t1, t3)]
        c = augmented_compass([t1, t2, t3], [(8, t1), (8, t2)] + tri)
        yield division_from_edge_lists(
            c, [tri] + [[e] for e in c.graph.edges if e not in tri]), "property-5"

    names = []
    for rd, condition in broken_divisions():
        v = validate_rural(rd)
        assert not v and v.condition == condition
        names.append(condition)
    assert names == ["property-%d" % i for i in range(1, 6)]
    verdict(10, 20, started, "trivial divisions hold; 5 broken ones named properties 1-5")
