"""Structure layer: constants, apex reduction, the trichotomy and its verifier."""

import json
import math
import random
from importlib import import_module

import pytest

import flatwall.decomposition as decomposition
import flatwall.paths as paths_module
import flatwall.structure as structure
from flatwall.cli import main as cli_main
from flatwall.common import SizeCapExceeded
from flatwall.decomposition import TreeDecomposition, exact_treewidth
from flatwall.generators import grid, lower_bound_graph, pyramid, wall
from flatwall.graph import Graph, complete_graph, cycle_graph, delete, path_graph
from flatwall.minors import MinorModel, find_minor, verify_minor_model
from flatwall.planarity import embeds_in_disk_with_boundary
from flatwall.rural import (RuralDivision, division_from_edge_lists, internal_flaps,
                            trivial_division)
from flatwall.serialize import (certificate_from_json, certificate_to_json, graph_from_json,
                                graph_to_json)
from flatwall.structure import (HMinorFound, WeakStructureCertificate, _f5, apex_number,
                                apex_reduce, pyramid_minor_model, trichotomy_check,
                                verify_certificate)
from flatwall.wall import SubdividedWall, compass, identity_wall, is_flat, perimeter, subwall

from fixtures import apex_over, apexed_wall_host, k5_piece_host, random_wired_compass
from oracles import apex_number_by_loop, random_graph

wall_module = import_module("flatwall.wall")  # the package's own "wall" is the generator

K4 = complete_graph(4)
K5 = complete_graph(5)
K6 = complete_graph(6)
K7 = complete_graph(7)
K8 = complete_graph(8)


def test_constants_arithmetic():
    # f5 = 14 (h - a_H) + ceil(sqrt(a_H)) - 24, with a_H = apex_number(H)
    for h_graph, an_h, f5 in [(K5, 1, 33), (K6, 2, 34), (K8, 4, 34), (cycle_graph(4), 0, 32)]:
        assert apex_number(h_graph)[0] == an_h
        assert _f5(h_graph, an_h) == f5
    # the default window count is f5^2: K6 asks for 34^2 windows of a height-3 wall
    g, apexes, w = apexed_wall_host(3, [[0], [1]])
    with pytest.raises(ValueError, match="cannot pack 1156 subwalls"):
        apex_reduce(g, K6, apexes, w, 1)
    # four apices for K8 (a_H = 4, ceil(sqrt(4)) = 2)
    g, apexes, w = apexed_wall_host(3, [[0], [1], [2], [3]])
    with pytest.raises(ValueError, match="cannot pack 1156 subwalls"):
        apex_reduce(g, K8, apexes, w, 1)


def test_constants_reject_bad_values(capsys):
    # the constants come from the excluded graph; the flags that restated them are gone
    base = ["reduce-apex", "--graph", "g.json", "--excluded", "h.json", "--wall", "w.json",
            "--apexes", "0", "--height", "1"]
    for flag in ("--an", "--a-size", "--f1", "--f2", "--h"):
        with pytest.raises(SystemExit) as exc:
            cli_main(base + [flag, "2"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_apex_number_known_graphs():
    assert apex_number(grid(3, 3)[0]) == (0, ())
    assert apex_number(wall(2).graph) == (0, ())
    assert apex_number(K5) == (1, (0,))
    assert apex_number(K6) == (2, (0, 1))
    assert apex_number(lower_bound_graph(3, 6)) == (1, (0,))
    with pytest.raises(SizeCapExceeded):
        apex_number(complete_graph(17))


def test_apex_number_matches_plain_loop():
    rng = random.Random(17)
    graphs = [pyramid(3, 1), apex_over(grid(3, 4)[0]), K6, lower_bound_graph(3, 6)]
    graphs += [random_graph(rng, rng.randint(3, 10), rng.choice([0.3, 0.5, 0.7, 0.9]))
               for _ in range(80)]
    sizes = set()
    for g in graphs:
        got = apex_number(g)
        assert got == apex_number_by_loop(g)
        sizes.add(got[0])
    assert sizes >= {0, 1, 2, 3}


def test_pyramid_models_validate():
    for k, h in [(2, 1), (2, 2), (3, 1), (2, 4)]:
        m = pyramid_minor_model(k, h)
        alpha = math.isqrt(h - 1) + 1
        assert m.pattern == pyramid(k, h)
        assert m.host == pyramid(k + alpha, h)
        assert verify_minor_model(m)
    with pytest.raises(ValueError):
        pyramid_minor_model(1, 1)
    with pytest.raises(ValueError):
        pyramid_minor_model(2, 0)


def test_pyramid_model_agrees_with_search():
    m = pyramid_minor_model(2, 1)
    found = find_minor(m.host, m.pattern)
    assert found is not None
    assert verify_minor_model(found)


def test_apex_reduce_drops_unseen_apex(monkeypatch):
    calls = []
    for module in (wall_module, structure):
        original = module.verify_wall
        monkeypatch.setattr(module, "verify_wall",
                            lambda w, original=original: calls.append(w) or original(w))
    g, (a1, a2), w = apexed_wall_host(3, [list(wall(3).graph.vertices), []])
    reduced, sub = apex_reduce(g, K6, (a1, a2), w, 1, window_count=2)
    assert reduced == (a1,)
    assert sub.height == 1
    # the wall, and again inside disjoint_subwalls; the windows of the
    # verified wall, and the one returned, are not verified again
    assert len(calls) == 2
    c = compass(delete(g, reduced), sub)
    assert not {a1, a2} & set(c.graph.vertices)


def test_apex_reduce_returns_missed_window():
    host_vertices = list(wall(3).graph.vertices)
    # second apex sees window 0 only, so window 1 comes back
    g, (a1, a2), w = apexed_wall_host(3, [host_vertices, [0]])
    reduced, sub = apex_reduce(g, K6, (a1, a2), w, 1, window_count=2)
    assert reduced == (a1,)
    assert sorted(sub.vertices()) == [4, 5, 6, 12, 13, 14]


def test_apex_reduce_takes_the_first_apex_at_its_first_missed_window():
    # every apex sees window 0 ({0, 1, 2, 8, 9, 10}); the first apex also sees
    # window 1 ({4, 5, 6, 12, 13, 14}) and misses window 2, the second misses
    # windows 1 and 2: the first apex goes, with window 2
    g, (a1, a2), w = apexed_wall_host(3, [[0, 4], [0]])
    reduced, sub = apex_reduce(g, K6, (a1, a2), w, 1, window_count=3)
    assert reduced == (a2,)
    assert sorted(sub.vertices()) == [16, 17, 18, 24, 25, 26]
    assert sub.height == 1


def test_apex_reduce_all_ones_raises_evidence():
    everything = list(wall(3).graph.vertices)
    g, apexes, w = apexed_wall_host(3, [everything, everything])
    with pytest.raises(HMinorFound, match=r"^every apex sees every window compass "
                       r"\(apices 2, windows 2\)$") as exc:
        apex_reduce(g, K6, apexes, w, 1, window_count=2)
    # the evidence is no model of K6, so none is attached: wall(2) plus two
    # apices on its first vertex has no K6 minor, yet both see its one window
    assert not hasattr(exc.value, "model")
    g, apexes, w = apexed_wall_host(2, [[0], [0]])
    assert g.n == 18 and find_minor(g, K6) is None
    with pytest.raises(HMinorFound, match="apices 2, windows 1"):
        apex_reduce(g, K6, apexes, w, 1, window_count=1)


def test_apex_reduce_guardrails():
    g, apexes, w = apexed_wall_host(3, [[0]])
    with pytest.raises(ValueError, match="below the apex parameter"):
        apex_reduce(g, K6, apexes, w, 1)
    g2, (a1, a2), w2 = apexed_wall_host(3, [[0], [1]])
    with pytest.raises(ValueError, match="not positive"):
        apex_reduce(g2, K6, (a1, a2), w2, 1, window_count=0)
    with pytest.raises(ValueError, match="not valid in the host minus the apex set"):
        apex_reduce(g2, K6, (0, a1), w2, 1, window_count=2)
    # an empty set has no apex to drop, even for a planar excluded graph (a_H = 0)
    for h_graph in (K4, cycle_graph(4), K6):
        with pytest.raises(ValueError, match="no apex to drop"):
            apex_reduce(g2, h_graph, (), w2, 1, window_count=2)
    # wheel over wall(1) already carries the excluded graph
    g3, apexes3, w3 = apexed_wall_host(1, [list(wall(1).graph.vertices)])
    with pytest.raises(ValueError, match="already a minor"):
        apex_reduce(g3, K4, apexes3, w3, 1, window_count=1)


STAR6 = Graph(range(6), [(0, i) for i in range(1, 6)])

TRICHOTOMY_CORPUS = [
    (grid(3, 3)[0], K4, 1, 2, 1),
    (K5, K4, 1, 1, 1),
    (cycle_graph(6), cycle_graph(3), 1, 1, 1),
    (path_graph(6), K4, 1, 3, 2),
    (cycle_graph(6), K4, 1, 2, 2),
    (STAR6, K4, 1, 1, 2),
    (lower_bound_graph(3, 6), K6, 1, 3, 3),
    (wall(1).graph, K5, 1, 1, 3),
    (grid(3, 3)[0], K6, 1, 2, 3),
    (K5, K6, 1, 1, "undetermined"),
    (cycle_graph(4), K6, 1, 1, "undetermined"),
    (K4, K5, 1, 1, "undetermined"),
]


def test_trichotomy_corpus():
    for g, h, k, threshold, expected in TRICHOTOMY_CORPUS:
        cert = trichotomy_check(g, h, k, threshold)
        assert cert.clause == expected
        if expected != "undetermined":
            assert verify_certificate(g, h, k, cert)


def test_trichotomy_clause_payloads():
    cert = trichotomy_check(path_graph(6), K4, 1, 3)
    assert cert.width_bound == 3
    assert cert.minor is None and cert.wall is None
    cert = trichotomy_check(lower_bound_graph(3, 6), K6, 1, 3)
    assert cert.apex_set == ()
    assert cert.wall.height == 1
    assert cert.flap_width_bound == 0


def test_trichotomy_deterministic():
    g, h = lower_bound_graph(3, 6), K6
    one = trichotomy_check(g, h, 1, 3)
    two = trichotomy_check(g, h, 1, 3)
    assert (json.dumps(certificate_to_json(one), sort_keys=True)
            == json.dumps(certificate_to_json(two), sort_keys=True))


def test_a_spent_budget_gives_the_same_certificate(monkeypatch):
    # with no state to spend, is_flat answers None and every candidate goes
    # on to validate_rural, whose pass proves flatness: the same first wall
    g, h = lower_bound_graph(3, 6), K6
    want = json.dumps(certificate_to_json(trichotomy_check(g, h, 1, 3)), sort_keys=True)
    monkeypatch.setattr(paths_module, "TWO_PATHS_BUDGET", 0)
    got = json.dumps(certificate_to_json(trichotomy_check(g, h, 1, 3)), sort_keys=True)
    assert got == want


def test_trichotomy_caps():
    with pytest.raises(SizeCapExceeded):
        trichotomy_check(complete_graph(17), K4, 1, 1)
    with pytest.raises(SizeCapExceeded, match="pattern capped at 6 vertices, got 7"):
        trichotomy_check(K4, K7, 1, 1)
    # no wall of height 3 (30 vertices) fits the host, and none is built
    assert trichotomy_check(K4, K5, 3, 1).clause == "undetermined"
    # a height below one is an input error, not a question of scale
    for k in (0, -1):
        with pytest.raises(ValueError, match="must be positive") as exc:
            trichotomy_check(K4, K5, k, 1)
        assert not isinstance(exc.value, SizeCapExceeded)


def spy_on_wall_search(monkeypatch):
    """Record what is_flat and validate_rural answer inside the wall search."""
    calls = []
    real_flat, real_rural = structure.is_flat, structure.validate_rural

    def is_flat(c):
        r = real_flat(c)
        calls.append(("flat", r.flat))
        return r

    def validate_rural(rd):
        r = real_rural(rd)
        calls.append(("rural", r.condition))
        return r

    monkeypatch.setattr(structure, "is_flat", is_flat)
    monkeypatch.setattr(structure, "validate_rural", validate_rural)
    return calls


def test_wall_search_skips_a_crossed_candidate(monkeypatch):
    # every 6-cycle of the K6 block is crossed; the plain 6-cycle after it is not
    g = Graph(range(12), list(K6.edges) + [(6 + i, 6 + (i + 1) % 6) for i in range(6)])
    calls = spy_on_wall_search(monkeypatch)
    cand, _, _ = structure._find_flat_wall_certificate(g, (), 1)
    assert cand.vertices() == set(range(6, 12))
    assert calls[0] == ("flat", False)
    assert calls[-2:] == [("flat", True), ("rural", None)]
    # a spent budget rules no candidate out: validate_rural rejects the crossed ones
    monkeypatch.setattr(paths_module, "TWO_PATHS_BUDGET", 0)
    calls.clear()
    cand, _, _ = structure._find_flat_wall_certificate(g, (), 1)
    assert cand.vertices() == set(range(6, 12))
    assert calls[:2] == [("flat", None), ("rural", "property-5")]
    assert calls[-2:] == [("flat", None), ("rural", None)]


def test_wall_search_skips_a_flat_candidate_whose_division_fails(monkeypatch):
    # a K5 piece on three vertices of a brick keeps the wall flat, but no
    # compass that holds it has a valid one-flap-per-edge division
    wg = wall(2).graph
    f = wg.fresh_id()
    five = (2, 4, 9, f, f + 1)
    g = wg.add_vertices(five[3:]).add_edges(
        [(x, y) for i, x in enumerate(five) for y in five[i + 1:]])
    calls = spy_on_wall_search(monkeypatch)
    assert structure._find_flat_wall_certificate(g, (), 2) is None
    assert calls[:2] == [("flat", True), ("rural", "property-5")]


def test_trichotomy_without_a_wall_candidate_is_undetermined(monkeypatch):
    # K5 plus a pendant vertex: treewidth 4 and no 6-cycle for a height-1 wall
    g = Graph(range(6), list(K5.edges) + [(4, 5)])
    calls = spy_on_wall_search(monkeypatch)
    assert trichotomy_check(g, K6, 1, 3).clause == "undetermined"
    assert calls == []


def test_certificate_payload_validation():
    with pytest.raises(ValueError):
        WeakStructureCertificate(4)
    with pytest.raises(ValueError):
        WeakStructureCertificate(1)  # clause 1 without a model
    m = find_minor(grid(3, 3)[0], K4)
    td = TreeDecomposition(path_graph(2), path_graph(1), {0: {0, 1}})
    with pytest.raises(ValueError):
        WeakStructureCertificate(1, minor=m, decomposition=td, width_bound=1)
    with pytest.raises(ValueError):
        WeakStructureCertificate("undetermined", minor=m)
    # a bound belongs to its clause
    with pytest.raises(ValueError, match="undetermined certificate carries a payload"):
        WeakStructureCertificate("undetermined", width_bound=3, flap_width_bound=7)
    with pytest.raises(ValueError, match="certificate populates clauses 1 and 2"):
        WeakStructureCertificate(1, minor=m, width_bound=3, flap_width_bound=2)
    with pytest.raises(ValueError, match="certificate populates clauses 1 and 3"):
        WeakStructureCertificate(1, minor=m, flap_width_bound=2)


def test_verify_rejects_undetermined():
    cert = trichotomy_check(K5, K6, 1, 1)
    v = verify_certificate(K5, K6, 1, cert)
    assert not v
    assert v.condition == "undetermined"


def test_verify_clause1_rejections():
    g = grid(3, 3)[0]
    cert = trichotomy_check(g, K4, 1, 2)
    assert verify_certificate(grid(3, 4)[0], K4, 1, cert).condition == "wrong-host"
    assert verify_certificate(g, K5, 1, cert).condition == "wrong-pattern"
    bs = {p: list(vs) for p, vs in cert.minor.branch_sets.items()}
    bs[0] = bs[0] + bs[1]
    overlap = WeakStructureCertificate(1, minor=MinorModel(g, K4, bs))
    assert verify_certificate(g, K4, 1, overlap).condition == "minor-invalid"


def test_verify_clause2_rejections():
    g = path_graph(6)
    cert = trichotomy_check(g, K4, 1, 3)
    bags = {n: set(b) - {5} for n, b in cert.decomposition.bags.items()}
    holed = WeakStructureCertificate(
        2, decomposition=TreeDecomposition(g, cert.decomposition.tree, bags),
        width_bound=3)
    v = verify_certificate(g, K4, 1, holed)
    assert v.condition == "decomposition-invalid"
    assert "vertex 5" in v.detail
    tight = WeakStructureCertificate(2, decomposition=cert.decomposition, width_bound=0)
    v = verify_certificate(g, K4, 1, tight)
    assert v.condition == "width-exceeded"
    assert v.witness == 1
    assert verify_certificate(path_graph(7), K4, 1, cert).condition == "wrong-host"


def test_verify_clause3_rejections():
    g = lower_bound_graph(3, 6)
    cert = trichotomy_check(g, K6, 1, 3)
    w, rd, bound = cert.wall, cert.division, cert.flap_width_bound

    fat = WeakStructureCertificate(3, apex_set=(0, 1), wall=w, division=rd,
                                   flap_width_bound=bound)
    assert verify_certificate(g, K6, 1, fat).condition == "apex-set-too-large"

    offside = WeakStructureCertificate(3, apex_set=(99,), wall=w, division=rd,
                                       flap_width_bound=bound)
    v = verify_certificate(g, K6, 1, offside)
    assert v.condition == "apex-outside-host"
    assert v.witness == 99

    shifted = SubdividedWall(g, w.height, {p: h + 1 for p, h in w.original.items()},
                             w.paths)
    crooked = WeakStructureCertificate(3, apex_set=(), wall=shifted, division=rd,
                                       flap_width_bound=bound)
    assert verify_certificate(g, K6, 1, crooked).condition == "wall-invalid"

    assert verify_certificate(g, K6, 2, cert).condition == "wall-height"

    dropped = WeakStructureCertificate(
        3, apex_set=(), wall=w, division=RuralDivision(rd.compass, rd.flaps[1:]),
        flap_width_bound=bound)
    v = verify_certificate(g, K6, 1, dropped)
    assert v.condition == "division-invalid"
    assert "property-1" in v.detail

    alien = RuralDivision(rd.compass,
                          list(rd.flaps) + [Graph([998, 999], [(998, 999)])])
    off_map = WeakStructureCertificate(3, apex_set=(), wall=w, division=alien,
                                       flap_width_bound=bound)
    v = verify_certificate(g, K6, 1, off_map)
    assert v.condition == "division-invalid"
    assert "outside the compass" in v.detail


def test_hand_built_flat_wall_certificate():
    g = wall(2).graph
    w = identity_wall(2)
    rd = trivial_division(compass(g, w))
    assert [sorted(d.vertices) for d in internal_flaps(rd)] == [[8, 9]]
    cert = WeakStructureCertificate(3, apex_set=(), wall=w, division=rd,
                                    flap_width_bound=1)
    assert verify_certificate(g, K6, 2, cert)
    squeezed = WeakStructureCertificate(3, apex_set=(), wall=w, division=rd,
                                        flap_width_bound=0)
    v = verify_certificate(g, K6, 2, squeezed)
    assert v.condition == "flap-width"
    assert "width 1 exceeds 0" in v.detail
    # a K4 hanging off inner vertex 8 is one internal flap of width 3: the
    # verifier decides "width <= 1" first, yet the detail names the width
    f = g.fresh_id()
    piece = [(f + a, f + b) for a in range(4) for b in range(a + 1, 4)] + [(8, f)]
    gk = g.add_vertices(range(f, f + 4)).add_edges(piece)
    ck = compass(gk, SubdividedWall(gk, 2, w.original, w.paths))
    flaps = [[e] for e in ck.graph.edges if e not in piece] + [piece]
    rdk = division_from_edge_lists(ck, flaps)
    assert [d.vertices for d in internal_flaps(rdk)] == [(8, 9), (8, f, f + 1, f + 2, f + 3)]
    for bound in (1, 2):
        v = verify_certificate(gk, K6, 2, WeakStructureCertificate(
            3, apex_set=(), wall=w, division=rdk, flap_width_bound=bound))
        assert (v.condition, v.witness, v.detail) == (
            "flap-width", (8, f, f + 1, f + 2, f + 3), "internal flap width 3 exceeds %d" % bound)
    assert verify_certificate(gk, K6, 2, WeakStructureCertificate(
        3, apex_set=(), wall=w, division=rdk, flap_width_bound=3))


def test_a_flap_of_at_most_bound_plus_one_vertices_is_not_measured(monkeypatch):
    # tw <= n - 1, so such a flap is within the bound whatever its edges:
    # neither width search runs, and past TREEWIDTH_CAP (18 vertices) the
    # verifier accepts where exact_treewidth would raise SizeCapExceeded
    g = wall(2).graph
    w = identity_wall(2)
    f = g.fresh_id()
    k4 = [(f + a, f + b) for a in range(4) for b in range(a + 1, 4)] + [(8, f)]
    tail = [(8, f)] + [(f + i, f + i + 1) for i in range(19)]  # 21 vertices
    cases = []
    for piece, size in ((k4, 5), (tail, 21)):
        gp = g.add_vertices(sorted({v for e in piece for v in e} - {8})).add_edges(piece)
        cp = compass(gp, SubdividedWall(gp, 2, w.original, w.paths))
        rd = division_from_edge_lists(cp, [[e] for e in cp.graph.edges if e not in piece]
                                      + [piece])
        cases.append((gp, rd, size))

    def certificate(rd, bound):
        return WeakStructureCertificate(3, apex_set=(), wall=w, division=rd,
                                        flap_width_bound=bound)

    with monkeypatch.context() as m:
        for name in ("has_treewidth_at_most", "exact_treewidth"):
            m.setattr(structure, name, lambda *args: pytest.fail("a flap width was measured"))
        for gp, rd, size in cases:
            assert verify_certificate(gp, K6, 2, certificate(rd, size - 1))
    # one vertex more and the width is measured as before (for the K4 piece
    # test_hand_built_flat_wall_certificate pins the flap-width verdicts)
    gt, rdt, _ = cases[1]
    with pytest.raises(SizeCapExceeded, match="capped at 18 vertices, got 21"):
        verify_certificate(gt, K6, 2, certificate(rdt, 19))
    # the verifier reads the cap only through decomposition: lifted there,
    # the path flap is decided against bound 1 and no width is measured
    monkeypatch.setattr(decomposition, "TREEWIDTH_CAP", 30)
    monkeypatch.setattr(structure, "exact_treewidth",
                        lambda *args: pytest.fail("a flap width was measured"))
    assert verify_certificate(gt, K6, 2, certificate(rdt, 1))


def test_reading_and_verifying_a_certificate_builds_few_graphs(monkeypatch):
    # flaps are read as records and only a flap that is searched or measured
    # becomes a Graph, so the builds do not grow with the flap count
    counts = []
    for k in (3, 4, 5):
        w = identity_wall(k)
        m = {v: i for i, v in enumerate(w.host.vertices)}
        apex = len(m)
        g = Graph(range(apex + 1), [(m[a], m[b]) for a, b in w.host.edges]
                  + [(apex, i) for i in range(0, apex, 7)])
        w = SubdividedWall(g, k, {p: m[v] for p, v in w.original.items()},
                           {e: tuple(m[v] for v in p) for e, p in w.paths.items()})
        rd = trivial_division(compass(delete(g, [apex]), w))
        docs = json.loads(json.dumps([graph_to_json(g), certificate_to_json(
            WeakStructureCertificate(3, apex_set=(apex,), wall=w, division=rd,
                                     flap_width_bound=1))]))
        builds = []
        fill = Graph._fill
        with monkeypatch.context() as mp:
            mp.setattr(Graph, "_fill", lambda *args: builds.append(1) or fill(*args))
            host = graph_from_json(docs[0])
            assert verify_certificate(host, K6, k, certificate_from_json(host, docs[1]))
        assert len(rd.flaps) > 35
        counts.append(len(builds))
    assert len(set(counts)) == 1 and counts[0] <= 4, counts


def apex_wall3_certificates():
    """(name, host, certificate) for clause 3 on one apex over wall(3)."""
    wg = wall(3).graph
    w = identity_wall(3)
    c1, c2, c3, c4 = w.corners
    inner = sorted(w.vertices() - set(perimeter(w)))
    z1, z2 = max(wg.vertices) + 1, max(wg.vertices) + 2
    apex = z2 + 1
    touch = [(apex, v) for v in (c1, c3, inner[0], inner[3], inner[6], inner[-1])]
    plain = wg.add_vertices([apex]).add_edges(touch)
    crossed = wg.add_vertices([z1, z2, apex]).add_edges(
        [(c1, z1), (z1, c3), (z1, inner[2]), (c2, z2), (z2, c4), (z2, inner[5])] + touch)
    cp = compass(wg, w)
    rd = trivial_division(cp)
    flaps = list(rd.flaps)
    bound = max(exact_treewidth(d)[0] for d in internal_flaps(rd))
    ends = set(flaps[0].vertices)
    j = next(j for j, d in enumerate(flaps) if not ends & set(d.vertices))
    merged = [Graph(sorted(ends | set(flaps[j].vertices)), flaps[0].edges + flaps[j].edges)]
    merged += [d for i, d in enumerate(flaps) if i not in (0, j)]
    alien = flaps + [Graph([c1, c3], [(c1, c3)])]  # not a compass edge
    covering = trivial_division(compass(crossed, SubdividedWall(crossed, 3, w.original, w.paths)))

    def cert(wl, fl):
        return WeakStructureCertificate(3, apex_set=(apex,), wall=wl,
                                        division=RuralDivision(cp, fl), flap_width_bound=bound)

    return [
        ("valid", plain, cert(w, flaps)),
        ("crossed", crossed, cert(w, flaps)),
        ("dropped", plain, cert(w, flaps[1:])),
        ("merged", plain, cert(w, merged)),
        ("height", plain, cert(subwall(w, 1, 1, 2), flaps)),
        ("alien", plain, cert(w, alien)),
        ("crossed-covered", crossed, cert(w, list(covering.flaps))),
    ]


CROSSING = ([0, 1, 2, 3, 4, 12, 11, 10, 9, 17, 18, 19, 20, 21, 13, 14, 15, 23, 22, 30],
            [6, 32, 24])

# (ok, condition, detail, witness) as the verifier gave them when it still
# ran the exhaustive flatness search before the division check
CLAUSE3_VERDICTS = {
    "valid": (True, None, "", None),
    "crossed": (False, "not-flat", "", CROSSING),
    "dropped": (False, "division-invalid", "property-1: edge 0-1 is in no flap", (0, 1)),
    "merged": (False, "division-invalid",
               "property-3: boundary pair 0,2 not joined inside flap 0", (0, 0, 2)),
    "height": (False, "wall-height", "wall height 2, expected 3", 2),
    # a flap outside the compass fails property 1 of the division
    "alien": (False, "division-invalid",
              "property-1: flap 38 references edge 0-30 outside the compass", (0, 30)),
    # the division covers the wires, so only the lemma makes it reject: the
    # crossing still outranks division-invalid
    "crossed-covered": (False, "not-flat", "", CROSSING),
}


def test_clause3_verdicts_pinned():
    for name, g, cert in apex_wall3_certificates():
        v = verify_certificate(g, K6, 3, cert)
        assert (bool(v), v.condition, v.detail, v.witness) == CLAUSE3_VERDICTS[name], name


def test_planar_corner_wheel_implies_flat():
    # the shortcut in is_flat: a planar corner wheel leaves no room for
    # disjoint c1-c3 and c2-c4 paths
    rng = random.Random(7)
    seen = {}
    for _ in range(240):
        c = random_wired_compass(rng, rng.choice((2, 3)))
        planar, flat = embeds_in_disk_with_boundary(c.graph, c.corners), is_flat(c).flat
        if planar:
            assert flat is True
        seen[planar, flat] = seen.get((planar, flat), 0) + 1
    assert seen.get((True, True), 0) >= 60 and seen.get((False, False), 0) >= 100, seen


def test_rejected_division_on_a_flat_wall_skips_the_search(monkeypatch):
    # plane wall(4)'s compass is over WHEEL_FIRST_ABOVE vertices, so is_flat's
    # corner wheel decides and the exhaustive search never runs
    g = wall(4).graph
    w = identity_wall(4)
    rd = trivial_division(compass(g, w))
    dropped = WeakStructureCertificate(3, apex_set=(), wall=w,
                                       division=RuralDivision(rd.compass, rd.flaps[1:]),
                                       flap_width_bound=1)
    monkeypatch.setattr(wall_module, "two_disjoint_paths",
                        lambda *args, **kwargs: pytest.fail("the search ran"))
    v = verify_certificate(g, K6, 4, dropped)
    assert v.condition == "division-invalid" and "property-1" in v.detail


def test_flat_wall_with_a_non_planar_piece_falls_back_to_the_search(monkeypatch):
    g, w = k5_piece_host(3)
    d = wall(3).graph.fresh_id()
    cp = compass(g, SubdividedWall(g, 3, w.original, w.paths))
    assert cp.graph.has_vertex(d)
    assert not embeds_in_disk_with_boundary(cp.graph, cp.corners)
    assert is_flat(cp).flat is True
    rd = trivial_division(cp)
    dropped = WeakStructureCertificate(3, apex_set=(), wall=w,
                                       division=RuralDivision(cp, rd.flaps[1:]),
                                       flap_width_bound=4)
    results = []
    monkeypatch.setattr(structure, "is_flat", lambda cp: results.append(is_flat(cp)) or results[-1])
    v = verify_certificate(g, K6, 3, dropped)
    assert v.condition == "division-invalid" and "property-1" in v.detail
    assert [r.flat for r in results] == [True] and results[0].explored > 0


def test_rejected_division_search_stops_at_its_budget(monkeypatch):
    # the K5 piece keeps the corner wheel non-planar, so the search runs,
    # and a spent budget leaves the division's own verdict; a crossing
    # found within the budget still outranks it
    monkeypatch.setattr(paths_module, "TWO_PATHS_BUDGET", 100)
    results = []
    monkeypatch.setattr(structure, "is_flat", lambda cp: results.append(is_flat(cp)) or results[-1])
    g, w = k5_piece_host(4)
    cp = compass(g, SubdividedWall(g, 4, w.original, w.paths))
    rd = trivial_division(cp)
    dropped = WeakStructureCertificate(3, apex_set=(), wall=w,
                                       division=RuralDivision(cp, rd.flaps[1:]),
                                       flap_width_bound=4)
    v = verify_certificate(g, K6, 4, dropped)
    assert v.condition == "division-invalid" and "property-1" in v.detail
    assert (results[-1].flat, results[-1].explored) == (None, 100)
    for name, host, cert in apex_wall3_certificates():
        if name.startswith("crossed"):
            v = verify_certificate(host, K6, 3, cert)
            assert (v.condition, v.witness) == ("not-flat", CROSSING), name
