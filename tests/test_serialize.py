"""JSON round trips: strict shape validation in, byte-stable documents out."""

import json
import time

import pytest

from flatwall.common import Verdict
from flatwall.decomposition import exact_treewidth
from flatwall.generators import grid, lower_bound_graph, wall
from flatwall.graph import Graph, complete_graph, delete, graph_hash, path_graph
from flatwall.minors import MinorModel, find_minor
from flatwall.rural import division_from_edge_lists, trivial_division
from flatwall.serialize import (certificate_from_json, certificate_to_json,
                                graph_from_json, graph_to_json, minor_from_json,
                                minor_to_json, rural_from_json, rural_to_json,
                                td_from_json, td_to_json, wall_from_json,
                                wall_to_json)
from flatwall.structure import WeakStructureCertificate, trichotomy_check, verify_certificate
from flatwall.wall import SubdividedWall, compass, identity_wall

from fixtures import apexed_wall_host, document_mutations
from oracles import boundaries, dumps_like_jsonable, random_elimination_td

K4 = complete_graph(4)
K6 = complete_graph(6)


def stable(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def test_graph_round_trip():
    g = grid(3, 3)[0]
    doc = graph_to_json(g)
    assert doc["n"] == 9
    assert graph_from_json(doc) == g
    assert stable(graph_to_json(graph_from_json(doc))) == stable(doc)
    # a labels key is ignored on reading and never written
    labeled = dict(graph_to_json(K4), labels={"0": "hub"})
    assert graph_from_json(labeled) == K4
    assert "labels" not in graph_to_json(graph_from_json(labeled))


def test_graph_requires_contiguous_ids():
    with pytest.raises(ValueError, match="0..n-1"):
        graph_to_json(wall(2).graph)  # grid ids with pruned holes
    with pytest.raises(ValueError, match="0..n-1"):
        graph_to_json(Graph([1, 2], [(1, 2)]))


def test_graph_malformed_documents():
    for bad in (None, [], {"n": "3"}, {"n": -1},
                {"n": 2, "edges": {}},
                {"n": 2, "edges": [[0]]},
                {"n": 2, "edges": [[0, 1.5]]},
                {"n": 2, "edges": [[0, 5]]}):
        with pytest.raises(ValueError, match="malformed document|out of range"):
            graph_from_json(bad)


def with_true(doc, *path):
    """A copy of doc with JSON true at path."""
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = True
    return out


def test_json_true_is_not_an_integer():
    # true == 1 in Python, but [[true, 2]] must not read as the graph [[1, 2]]
    for path in (("n",), ("edges", 0, 0)):
        with pytest.raises(ValueError, match="malformed document"):
            graph_from_json(with_true(graph_to_json(path_graph(3)), *path))
    g, path6 = lower_bound_graph(3, 6), path_graph(6)
    one = certificate_to_json(trichotomy_check(g, complete_graph(5), 1, 3))
    two = certificate_to_json(trichotomy_check(path6, K4, 1, 3))
    three = certificate_to_json(trichotomy_check(g, K6, 1, 3))
    assert [one["clause"], two["clause"], three["clause"]] == [1, 2, 3]
    cases = [(g, with_true(one, *path)) for path in (
        ("clause",), ("minor", "pattern", "n"), ("minor", "pattern", "edges", 0, 0),
        ("minor", "branch_sets", "0", 0))]
    cases += [(path6, with_true(two, *path)) for path in (
        ("width_bound",), ("decomposition", "bags", "0", 0),
        ("decomposition", "tree_edges", 0, 0))]
    cases += [(g, with_true(three, *path)) for path in (
        ("flap_width_bound",), ("wall", "height"), ("wall", "original", "0"),
        ("wall", "paths", 0, "edge", 0), ("wall", "paths", 0, "path", 0),
        ("division", "flaps", 0, 0, 0))]
    cases.append((g, dict(three, apex_set=[True])))
    for host, bad in cases:
        with pytest.raises(ValueError, match="malformed document"):
            certificate_from_json(host, bad)


def test_malformed_shapes_name_the_entry_exactly():
    # the readers format their message only once a check fails; the words,
    # and the repr of the offending entry, stay as they were
    host = wall(2).graph
    good = wall_to_json(identity_wall(2))

    def wall_with(field, value):
        doc = json.loads(json.dumps(good))
        doc["paths"][0] = value if field is None else dict(doc["paths"][0], **{field: value})
        return doc

    c = compass(host, identity_wall(2))
    cases = [
        (lambda: graph_from_json({"n": 3, "edges": [[True, 2]]}),
         "malformed document: edges entry [True, 2]"),
        (lambda: graph_from_json({"n": 3, "edges": [[0, 1, 2]]}),
         "malformed document: edges entry [0, 1, 2]"),
        (lambda: graph_from_json({"n": 3, "edges": [[0, 5]]}),
         "malformed document: edge (0,5) out of range"),
        # every range error outranks a loop, wherever the two sit
        (lambda: graph_from_json({"n": 3, "edges": [[0, 1], [1, 1], [0, 5], [-1, 2]]}),
         "malformed document: edge (0,5) out of range"),
        (lambda: graph_from_json({"n": 3, "edges": [[0, 1], [2, 2], [1, 1]]}),
         "loop edge (2, 2) not allowed"),
        (lambda: graph_from_json({"n": 3, "edges": [[1, 1], "x"]}),
         "malformed document: edges entry 'x'"),
        (lambda: graph_from_json({"n": 3, "edges": {"0": [0, 1]}}),
         "malformed document: edges is not a list"),
        (lambda: wall_from_json(host, wall_with(None, 5)),
         "malformed document: path entry 5"),
        (lambda: wall_from_json(host, wall_with(None, {"edge": [0, 1]})),
         "malformed document: path entry {'edge': [0, 1]}"),
        (lambda: wall_from_json(host, wall_with("edge", [0, 1, 2])),
         "malformed document: path edge entry [0, 1, 2]"),
        (lambda: wall_from_json(host, wall_with("path", [0, "x"])),
         "malformed document: host path for edge (0,1)"),
        (lambda: wall_from_json(host, dict(good, original={"3": True})),
         "malformed document: original image of '3'"),
        (lambda: rural_from_json(c, {"flaps": [[[0, 1]], [[0]]]}),
         "malformed document: flap 1 entry [0]"),
        (lambda: rural_from_json(c, {"flaps": [[[0, 1]], 7]}),
         "malformed document: flap 1 is not a list"),
        (lambda: rural_from_json(c, {"flaps": [[[0, 1], [3, 3]]]}),
         "loop edge (3, 3) not allowed"),
        (lambda: rural_from_json(c, {"flaps": [[[0, 1]], [[2, 2], [0, 99]]]}),
         "loop edge (2, 2) not allowed"),
        (lambda: rural_from_json(c, {"flaps": [[[3, 3]], [[0, 1], [1, 0, 2]]]}),
         "malformed document: flap 1 entry [1, 0, 2]"),
        (lambda: td_from_json(host, {"bags": {"0": [1, True]}}),
         "malformed document: bag '0'"),
        (lambda: certificate_from_json(host, {"clause": (3,)}),
         "malformed document: unknown clause (3,)"),
    ]
    for read, message in cases:
        with pytest.raises(ValueError) as exc:
            read()
        assert str(exc.value) == message


def test_flap_lists_are_normalised():
    # reversed and repeated edges read as one edge, ends sorted
    c = compass(wall(2).graph, identity_wall(2))
    rd = rural_from_json(c, {"flaps": [[[1, 0], [0, 1], [2, 1]]]})
    assert [(d.vertices, d.edges) for d in rd.flaps] == [((0, 1, 2), ((0, 1), (1, 2)))]


def test_td_round_trip():
    g = grid(3, 3)[0]
    _, td = exact_treewidth(g)
    doc = td_to_json(td)
    back = td_from_json(g, doc)
    assert back.bags == td.bags
    assert back.tree == td.tree
    assert stable(td_to_json(back)) == stable(doc)


def test_td_malformed_documents():
    g = path_graph(3)
    for bad in (None, {}, {"bags": {}},
                {"bags": {"x": [0]}},
                {"bags": {"0": "abc"}},
                {"bags": {"0": [0, 1, 2]}, "tree_edges": [[0]]}):
        with pytest.raises(ValueError, match="malformed document"):
            td_from_json(g, bad)


def test_minor_round_trip():
    g = grid(3, 3)[0]
    m = find_minor(g, K4)
    doc = minor_to_json(m)
    assert doc["host_ref"] == graph_hash(g)
    back = minor_from_json(g, doc)
    assert back.branch_sets == m.branch_sets
    assert back.pattern == K4
    assert stable(minor_to_json(back)) == stable(doc)


def test_minor_host_ref_pins_the_graph():
    m = find_minor(grid(3, 3)[0], K4)
    doc = minor_to_json(m)
    with pytest.raises(ValueError, match="host_ref"):
        minor_from_json(grid(3, 4)[0], doc)
    with pytest.raises(ValueError, match="malformed document"):
        minor_from_json(grid(3, 3)[0], {"host_ref": doc["host_ref"]})


def test_wall_round_trip():
    w = identity_wall(2)
    doc = wall_to_json(w)
    assert doc["height"] == 2
    assert set(doc) == {"height", "original", "paths"}
    assert all(set(entry) == {"edge", "path"} for entry in doc["paths"])
    back = wall_from_json(wall(2).graph, doc)
    assert back.original == w.original
    assert back.paths == w.paths
    assert stable(wall_to_json(back)) == stable(doc)


def test_wall_malformed_documents():
    host = wall(2).graph
    good = wall_to_json(identity_wall(2))
    for field in ("height", "original", "paths"):
        clipped = dict(good)
        del clipped[field]
        with pytest.raises(ValueError, match="malformed document"):
            wall_from_json(host, clipped)
    keyed = dict(good)
    keyed["original"] = {"zero": 0}
    with pytest.raises(ValueError, match="malformed document"):
        wall_from_json(host, keyed)


def test_integer_keys_have_one_spelling():
    # int() reads each of these keys, so two spellings of one id collided
    # and the last one won: bags {"0": <all>, "+0": [0]} read as the one bag {0}
    g = path_graph(3)
    for key in (" 0", "+0", "-0", "00", "0_0", "\u0660", "0 "):
        with pytest.raises(ValueError) as exc:
            td_from_json(g, {"bags": {"0": [0, 1, 2], key: [0]}})
        assert str(exc.value) == "malformed document: bag id %r" % (key,)
    # a bogus image under " 3" ahead of the real "3" verified as the wall
    host = wall(2).graph
    doc = wall_to_json(identity_wall(2))
    doc["original"] = {" 3": 999, **doc["original"]}
    with pytest.raises(ValueError, match="malformed document: pattern vertex ' 3'"):
        wall_from_json(host, doc)
    m = minor_to_json(find_minor(grid(3, 3)[0], K4))
    m["branch_sets"]["+1"] = m["branch_sets"].pop("1")
    with pytest.raises(ValueError, match="malformed document: pattern vertex '\\+1'"):
        minor_from_json(grid(3, 3)[0], m)


def test_a_pattern_edge_has_one_path():
    # the last of two entries for one edge won, in either orientation, so a
    # bogus path ahead of the real one verified
    host = wall(2).graph
    good = wall_to_json(identity_wall(2))
    (a, b) = good["paths"][0]["edge"]
    for edge in ([b, a], [a, b]):
        doc = dict(good, paths=[{"edge": edge, "path": [12345]}] + good["paths"])
        with pytest.raises(ValueError) as exc:
            wall_from_json(host, doc)
        assert str(exc.value) == "malformed document: pattern edge (%d,%d) given twice" % (a, b)


def test_rural_round_trip():
    g = wall(2).graph
    c = compass(g, identity_wall(2))
    rd = trivial_division(c)
    doc = rural_to_json(rd)
    assert len(doc["flaps"]) == len(rd.flaps)
    back = rural_from_json(c, doc)
    assert boundaries(back) == boundaries(rd)
    assert stable(rural_to_json(back)) == stable(doc)
    with pytest.raises(ValueError, match="malformed document"):
        rural_from_json(c, {"flaps": [[[0]]]})


def certificate_cases():
    yield grid(3, 3)[0], K4, 1, 2          # clause 1
    yield path_graph(6), K4, 1, 3          # clause 2
    yield lower_bound_graph(3, 6), K6, 1, 3  # clause 3
    yield complete_graph(5), K6, 1, 1      # undetermined


def test_certificate_round_trips_all_clauses():
    for g, h, k, threshold in certificate_cases():
        cert = trichotomy_check(g, h, k, threshold)
        doc = certificate_to_json(cert)
        back = certificate_from_json(g, doc)
        assert back.clause == cert.clause
        assert stable(certificate_to_json(back)) == stable(doc)
        if cert.clause != "undetermined":
            assert verify_certificate(g, h, k, back)


def test_certificate_malformed_documents():
    g = lower_bound_graph(3, 6)
    cert3 = certificate_to_json(trichotomy_check(g, K6, 1, 3))
    for bad in (None, {"clause": 7}, {"clause": "three"}):
        with pytest.raises(ValueError, match="malformed document"):
            certificate_from_json(g, bad)
    p6 = path_graph(6)
    doc2 = certificate_to_json(trichotomy_check(p6, K4, 1, 3))
    del doc2["width_bound"]
    with pytest.raises(ValueError, match="malformed document"):
        certificate_from_json(p6, doc2)
    for field in ("apex_set", "flap_width_bound", "wall"):
        clipped = dict(cert3)
        del clipped[field]
        with pytest.raises(ValueError, match="malformed document"):
            certificate_from_json(g, clipped)


def test_semantic_corruption_is_left_to_the_verifier():
    """Broken-but-well-shaped documents deserialize; rejection names the defect."""
    g = lower_bound_graph(3, 6)
    doc = certificate_to_json(trichotomy_check(g, K6, 1, 3))

    dropped = json.loads(stable(doc))
    dropped["division"]["flaps"] = dropped["division"]["flaps"][1:]
    v = verify_certificate(g, K6, 1, certificate_from_json(g, dropped))
    assert v.condition == "division-invalid"
    assert "property-1" in v.detail

    shifted = json.loads(stable(doc))
    shifted["wall"]["original"] = {p: h + 1 for p, h in shifted["wall"]["original"].items()}
    v = verify_certificate(g, K6, 1, certificate_from_json(g, shifted))
    assert v.condition == "wall-invalid"

    alien = json.loads(stable(doc))
    alien["division"]["flaps"].append([[998, 999]])
    v = verify_certificate(g, K6, 1, certificate_from_json(g, alien))
    assert v.condition == "division-invalid"
    assert "outside the compass" in v.detail

    fat = json.loads(stable(doc))
    fat["apex_set"] = [0, 1, 2]
    v = verify_certificate(g, K6, 1, certificate_from_json(g, fat))
    assert v.condition == "apex-set-too-large"


def test_an_apex_given_twice_is_malformed():
    # a repeated id would count twice against the apex bound
    g, (a,), w = apexed_wall_host(2, [[0, 4, 17, 13]])
    rd = trivial_division(compass(delete(g, (a,)), w))
    doc = certificate_to_json(WeakStructureCertificate(3, apex_set=(a,), wall=w, division=rd,
                                                       flap_width_bound=1))
    assert verify_certificate(g, K6, 2, certificate_from_json(g, doc))
    doc["apex_set"] = [a, a]
    with pytest.raises(ValueError) as exc:
        certificate_from_json(g, doc)
    assert str(exc.value) == "malformed document: apex_set [%d, %d] repeats a vertex" % (a, a)


def mutation_cases():
    """Valid certificates of clauses 3, 2 and 1 (the README host)."""
    g = lower_bound_graph(3, 6)
    yield g, K6, 1, 3
    yield g, K6, 1, 4
    yield g, complete_graph(5), 1, 3


def test_mutated_certificates_get_a_verdict_or_value_error():
    clauses, outcomes = set(), set()
    for g, h, k, threshold in mutation_cases():
        doc = certificate_to_json(trichotomy_check(g, h, k, threshold))
        clauses.add(doc["clause"])
        for path, value, bad in document_mutations(doc):
            try:
                v = verify_certificate(g, h, k, certificate_from_json(g, bad))
            except ValueError:
                outcomes.add("ValueError")
                continue
            except Exception as e:  # any other exception is a fault
                pytest.fail("%r set to %r: %r" % (path, value, e))
            assert isinstance(v, Verdict)
            assert dumps_like_jsonable(v.witness)
            outcomes.add(v.ok)
    assert clauses == {1, 2, 3}
    # some mutations leave a valid certificate (an unread field, a same value)
    assert outcomes == {"ValueError", False, True}


def test_huge_wall_height_is_rejected_before_the_wall_is_built():
    g = lower_bound_graph(3, 6)
    doc = certificate_to_json(trichotomy_check(g, K6, 1, 3))
    doc["wall"]["height"] = 10 ** 6
    t0 = time.process_time()
    v = verify_certificate(g, K6, 1, certificate_from_json(g, doc))
    assert time.process_time() - t0 < 0.5  # wall(10**6) would not fit in memory
    assert v.condition == "wall-invalid" and v.witness == 10 ** 6


def test_huge_minor_pattern_is_rejected_before_it_is_built():
    g = lower_bound_graph(3, 6)
    doc = certificate_to_json(trichotomy_check(g, complete_graph(5), 1, 3))
    assert doc["clause"] == 1
    doc["minor"]["pattern"]["n"] = 10 ** 6
    t0 = time.process_time()
    with pytest.raises(ValueError, match="more vertices than the host"):
        certificate_from_json(g, doc)
    assert time.process_time() - t0 < 0.5  # building the pattern took 2.1 s
    # one vertex more than the host is already too many; as many is read
    doc["minor"]["pattern"]["n"] = g.n + 1
    with pytest.raises(ValueError, match="more vertices than the host"):
        certificate_from_json(g, doc)
    doc["minor"]["pattern"]["n"] = g.n
    assert not verify_certificate(g, complete_graph(5), 1, certificate_from_json(g, doc))


def _state(x):
    """What a document carries, recursively: slot fields, Graphs by value.

    The certificate reader anchors a division on a placeholder compass that
    verify_certificate recomputes, so a division's compass is left out.
    """
    if isinstance(x, dict):
        return {k: _state(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return tuple(_state(v) for v in x)
    slots = getattr(type(x), "__slots__", ())
    if isinstance(x, Graph) or not slots:
        return x
    return (type(x).__name__,) + tuple(_state(getattr(x, s)) for s in slots
                                       if not s.startswith("_") and s != "compass")


def test_round_trips_are_exact():
    """*_to_json, then json.dumps/loads, then *_from_json gives an equal object."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def graphs(lo, hi):
        def build(n, bits):
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            return Graph(range(n), [e for e, keep in zip(pairs, bits) if keep])
        return st.integers(lo, hi).flatmap(
            lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2).map(lambda bits: build(n, bits)))

    def through_json(doc):
        return json.loads(json.dumps(doc))

    def same(a, b):
        assert _state(a) == _state(b)

    def relabelled_wall(data, apexes):
        """identity_wall(k) under a vertex permutation, with isolated apex vertices."""
        w = identity_wall(data.draw(st.integers(1, 3)))
        n = w.host.n
        perm = dict(zip(w.host.vertices, data.draw(st.permutations(range(n)))))
        host = Graph(range(n + apexes), [(perm[a], perm[b]) for a, b in w.host.edges])
        return SubdividedWall(host, w.height, {p: perm[v] for p, v in w.original.items()},
                              {e: [perm[v] for v in p] for e, p in w.paths.items()})

    def division(data, c):
        edges = list(c.graph.edges)
        owner = data.draw(st.lists(st.integers(0, len(edges) - 1),
                                   min_size=len(edges), max_size=len(edges)))
        groups = [[e for e, o in zip(edges, owner) if o == i] for i in sorted(set(owner))]
        return division_from_edge_lists(c, groups)

    def minor(data, host):
        # the reader rejects a pattern with more vertices than its host
        pattern = data.draw(graphs(0, min(5, host.n)))
        owner = data.draw(st.lists(st.integers(-1, pattern.n - 1),
                                   min_size=host.n, max_size=host.n))
        return MinorModel(host, pattern, {p: [v for v, o in zip(host.vertices, owner) if o == p]
                                          for p in pattern.vertices})

    settings = hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                                   database=None)

    @settings
    @hypothesis.given(graphs(0, 9))
    def graph_case(g):
        assert graph_from_json(through_json(graph_to_json(g))) == g

    @settings
    @hypothesis.given(graphs(1, 9), st.randoms(use_true_random=False))
    def td_case(g, rng):
        td = random_elimination_td(rng, g)
        same(td_from_json(g, through_json(td_to_json(td))), td)

    @settings
    @hypothesis.given(graphs(0, 8), st.data())
    def minor_case(host, data):
        m = minor(data, host)
        same(minor_from_json(host, through_json(minor_to_json(m))), m)
        big = dict(minor_to_json(m), pattern=graph_to_json(Graph(range(host.n + 1))))
        with pytest.raises(ValueError, match="more vertices than the host"):
            minor_from_json(host, through_json(big))

    @settings
    @hypothesis.given(st.data())
    def wall_case(data):
        w = relabelled_wall(data, 0)
        same(wall_from_json(w.host, through_json(wall_to_json(w))), w)

    @settings
    @hypothesis.given(st.data())
    def rural_case(data):
        w = relabelled_wall(data, 0)
        c = compass(w.host, w)
        rd = division(data, c)
        back = rural_from_json(c, through_json(rural_to_json(rd)))
        assert back.compass is c
        same(back, rd)

    @settings
    @hypothesis.given(st.sampled_from([1, 2, 3, "undetermined"]), st.data())
    def certificate_case(clause, data):
        apexes = data.draw(st.integers(0, 2))
        w = relabelled_wall(data, apexes)
        g = w.host
        if clause == 1:
            cert = WeakStructureCertificate(1, minor=minor(data, g))
        elif clause == 2:
            td = random_elimination_td(data.draw(st.randoms(use_true_random=False)), g)
            cert = WeakStructureCertificate(2, decomposition=td,
                                            width_bound=data.draw(st.integers(0, 30)))
        elif clause == 3:
            cert = WeakStructureCertificate(
                3, apex_set=tuple(range(g.n - apexes, g.n)), wall=w,
                division=division(data, compass(g, w)),
                flap_width_bound=data.draw(st.integers(0, 5)))
        else:
            cert = WeakStructureCertificate("undetermined")
        same(certificate_from_json(g, through_json(certificate_to_json(cert))), cert)

    for case in (graph_case, td_case, minor_case, wall_case, rural_case, certificate_case):
        case()
