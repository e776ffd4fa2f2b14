import hashlib
import json
import random
import types

import pytest

from flatwall.graph import (Graph, adjacency_masks, bfs, complete_graph, cycle_graph, delete,
                            graph_hash, induced_subgraph, is_connected, path_graph, path_to)

from oracles import incidence_graph


def test_basic_shape():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.m == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert sorted(g.neighbors(0)) == [1, 3]


def test_edges_are_normalized_and_deduplicated():
    g = Graph([2, 0, 1], [(2, 0), (0, 2), (1, 2)])
    assert g.vertices == (0, 1, 2)
    assert g.edges == ((0, 2), (1, 2))


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError):
        Graph([0, 1], [(0, 5)])


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph([0, 1], [(1, 1)])


def test_delete_vertices_and_edges():
    g = cycle_graph(5)
    assert delete(g, [0]).n == 4 and delete(g, [0]).m == 3
    h = delete(g, edges=[(0, 1)])
    assert h.n == 5 and h.m == 4
    with pytest.raises(ValueError, match=r"^unknown vertex ids \[7, 9\]$"):
        delete(g, [9, 0, 7])
    with pytest.raises(ValueError, match=r"^unknown edges \[\(0, 2\), \(1, 7\)\]$"):
        delete(g, edges=[(2, 0), (1, 2), (7, 1)])


def test_induced_subgraph():
    g = complete_graph(5)
    h = induced_subgraph(g, [0, 2, 4])
    assert h.vertices == (0, 2, 4) and h.m == 3
    two = Graph([0, 1, 2, 10, 11], [(0, 1), (1, 2), (10, 11)])
    assert not is_connected(two)
    assert all(is_connected(induced_subgraph(two, c)) for c in ([0, 1, 2], [10, 11]))


def test_graph_hash_is_content_addressed():
    g1 = Graph(range(3), [(0, 1), (1, 2)])
    g2 = Graph([2, 1, 0], [(1, 2), (1, 0)])
    assert graph_hash(g1) == graph_hash(g2)
    assert graph_hash(g1) != graph_hash(path_graph(4))
    # stable across processes: a plain sha256 of the sorted JSON form
    assert len(graph_hash(g1)) == 64 and int(graph_hash(g1), 16)


def test_equality_and_hashability():
    g1 = cycle_graph(4)
    g2 = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g1 == g2
    assert len({g1, g2}) == 1


def test_bfs_allowed_and_targets():
    g = cycle_graph(6)
    parent, hit = bfs(g, 0, {1, 2, 3, 4})
    assert hit is None and list(parent) == [0, 1, 2, 3, 4]
    assert path_to(parent, 4) == [0, 1, 2, 3, 4]
    # start is entered even when outside allowed; the nearest target wins
    parent, hit = bfs(g, 0, {1, 5, 4}, targets=(4, 1))
    assert hit == 1 and path_to(parent, hit) == [0, 1]
    parent, hit = bfs(g, 0, {5, 4, 3}, targets={3})
    assert path_to(parent, hit) == [0, 5, 4, 3]
    assert bfs(g, 0, set(), targets={3}) == ({0: None}, None)


def test_bfs_matches_networkx_on_induced_subgraphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 14)
        g = Graph(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)
                             if rng.random() < rng.choice([0.15, 0.3, 0.5])])
        start = rng.randrange(n)
        allowed = {v for v in g.vertices if rng.random() < 0.7}
        h = nx.Graph()
        h.add_nodes_from(allowed | {start})
        h.add_edges_from(e for e in g.edges if e[0] in h and e[1] in h)
        parent, hit = bfs(g, start, allowed)
        assert hit is None
        assert set(parent) == nx.node_connected_component(h, start)
        assert is_connected(induced_subgraph(g, h.nodes)) == nx.is_connected(h)
        for v in parent:
            path = path_to(parent, v)
            assert path[0] == start and path[-1] == v
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
            assert len(path) - 1 == nx.shortest_path_length(h, start, v)
        targets = set(rng.sample(range(n), rng.randint(1, n)))
        _, hit = bfs(g, start, allowed, targets)
        reachable = targets & set(parent)
        if not reachable:
            assert hit is None
        else:
            assert hit in reachable
            assert nx.shortest_path_length(h, start, hit) == min(
                nx.shortest_path_length(h, start, t) for t in reachable)


def test_all_names_exactly_the_public_package_names():
    # a deleted name left as a string in __all__ fails only at "import *";
    # the submodules are bound in the package too, but they are not its API
    import flatwall
    public = {name for name, value in vars(flatwall).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(flatwall.__all__) == sorted(public)
    namespace = {}
    exec("from flatwall import *", namespace)
    assert namespace.keys() - {"__builtins__"} == public


def test_adjacency_masks_by_position():
    order, adj = adjacency_masks(Graph([3, 5, 9], [(3, 9), (5, 9)]))
    assert order == [3, 5, 9]
    assert adj == [0b100, 0b100, 0b011]


def test_incidence_graph_is_bipartite_by_degrees():
    inc = incidence_graph([0, 1, 2], [(0, 1), (1, 2), (0, 1, 2)])
    assert inc.n == 3 + 3
    assert inc.m == 2 + 2 + 3
    # boundary nodes are fresh ids beyond the vertex ids
    assert all(v in (0, 1, 2) or v > 2 for v in inc.vertices)


# -- golden CLI reports --------------------------------------------------------

# sha256 of each report's stdout, captured before the traversals were merged
# into graph.bfs (trichotomy: again when wall documents dropped "corners");
# a change here is a change in what the CLI prints.
GOLDEN_DIGESTS = {
    "check-flat wall(2)":
        "6102e1faa3aacf8ac86c0bcc0f8fd504e3b9bef17d29dae6540f4c98d0206ce7",
    "check-flat wall(3)":
        "d71cc4ccdd40a7da1cf1d7d37d6f32aabfdadf4015193e6e024ae5ed6200126f",
    "check-flat crossed":
        "4b48634e54f18d98b63345f5254e055de001879d68f0e24ea65a5f9be461cc31",
    "check-rural wall(1) trivial":
        "f06d7d10124513908466c79947684bb81917b4e78f6e251a0d6a773174a46b4e",
    "check-rural wall(1) short":
        "696b57f11f6f1f1bfea89bee98c00f9c0aec541d44b97adb4ab1116f7b11077c",
    "check-rural wall(1) whole":
        "5a12df5577439cc6309c33e7ba90f33e117f0d16f2d7ff80644bd4a59e7950af",
    "check-rural wall(2) trivial":
        "df96f52e897ab02c866ef8c596d25f9845a3377d08d8d4ec7815fcc258a4b025",
    "check-rural wall(2) short":
        "696b57f11f6f1f1bfea89bee98c00f9c0aec541d44b97adb4ab1116f7b11077c",
    "check-rural wall(2) whole":
        "a4cf89728d218c8196f216280250bf11949bd9d9b9616c879b80fef134d0238d",
    "treewidth wall(2)":
        "1a72241419a43473274968635f0b6d18b70f12d321bda38b7a6cf142e43903ac",
    "treewidth lower-bound":
        "c88ce211b3da956701a3c5970eeefabd707cac61337d95e749fe1e7cdcbfae6f",
    "trichotomy":
        "fc643c866fe5ca448cb111eda8164e284ec698746aae7d1f7a1d9bbe565c45b7",
    "verify-cert":
        "e9705b4f74eeffbe78313a14c0cc9a4e134e2170f36f70ed8daf71c4b62f371b",
}


def _cli_outputs(capsys, tmp_path):
    """stdout of the README verbs on small fixed inputs, one entry per run."""
    from flatwall.cli import main

    def run(*argv):
        main(list(argv))
        return capsys.readouterr().out

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    out = {}
    files = {}
    for k in (1, 2, 3):
        doc = json.loads(run("generate", "--family", "wall", "--params", "k=%d" % k))
        files[k] = (doc["graph"], write("g%d.json" % k, doc["graph"]),
                    write("w%d.json" % k, doc["meta"]["wall"]))
    for k in (2, 3):
        out["check-flat wall(%d)" % k] = run("check-flat", "--graph", files[k][1],
                                             "--wall", files[k][2])
    g2 = files[2][0]
    crossed = write("crossed.json", {
        "n": g2["n"] + 2,
        "edges": g2["edges"] + [[0, 16], [15, 16], [7, 16], [4, 17], [11, 17], [8, 17]]})
    out["check-flat crossed"] = run("check-flat", "--graph", crossed, "--wall", files[2][2])
    for k in (1, 2):
        flaps = [[e] for e in files[k][0]["edges"]]
        for name, division in (("trivial", flaps), ("short", flaps[1:]),
                               ("whole", [files[k][0]["edges"]])):
            out["check-rural wall(%d) %s" % (k, name)] = run(
                "check-rural", "--graph", files[k][1], "--wall", files[k][2],
                "--division", write("d-%d-%s.json" % (k, name), {"flaps": division}))
    out["treewidth wall(2)"] = run("treewidth", "--graph", files[2][1])
    lb = json.loads(run("generate", "--family", "lower-bound", "--params", "k=3,h=6"))
    lbg = write("lbg.json", lb["graph"])
    k6 = write("k6.json", {"n": 6, "edges": [[a, b] for a in range(6) for b in range(a + 1, 6)]})
    common = ["--graph", lbg, "--excluded", k6, "--height", "1"]
    out["treewidth lower-bound"] = run("treewidth", "--graph", lbg)
    out["trichotomy"] = run("trichotomy", *common, "--width-threshold", "3")
    out["verify-cert"] = run("verify-cert", *common,
                             "--certificate", write("cert.json", json.loads(out["trichotomy"])))
    return out


def test_cli_reports_golden(capsys, tmp_path):
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in _cli_outputs(capsys, tmp_path).items()}
    assert digests == GOLDEN_DIGESTS
