import hashlib
import json
import random
import time

import pytest

import flatwall.decomposition as decomposition
from flatwall.common import SizeCapExceeded
from flatwall.decomposition import (TreeDecomposition, closure_bag, exact_treewidth, make_small,
                                    treewidth_at_most, validate, width)
from flatwall.generators import grid, lower_bound_graph, pyramid, wall
from flatwall.graph import (Graph, adjacency_masks, complete_graph, cycle_graph, delete,
                            induced_subgraph, path_graph)
from flatwall.serialize import td_to_json

from oracles import (dumps_like_jsonable, exact_treewidth_dp, random_elimination_td,
                     random_graph, treewidth_by_elimination, validate_by_scan)


def tw(g):
    return exact_treewidth(g)[0]


def test_treewidth_known_values():
    assert tw(complete_graph(4)) == 3
    assert tw(complete_graph(5)) == 4
    assert tw(cycle_graph(6)) == 2
    assert tw(path_graph(7)) == 1
    assert tw(grid(3, 3)[0]) == 3
    assert tw(grid(4, 4)[0]) == 4
    assert tw(pyramid(2, 1)) == 3
    assert tw(pyramid(3, 1)) == 4
    assert tw(wall(2).graph) == 3
    assert tw(Graph([0], [])) == 0


def test_treewidth_decomposition_is_valid_and_tight():
    for g in (complete_graph(5), grid(3, 3)[0], cycle_graph(7)):
        k, td = exact_treewidth(g)
        assert validate(td)
        assert width(td) == k


def test_treewidth_matches_elimination_oracle():
    rng = random.Random(1)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6), rng.choice([0.2, 0.4, 0.7]))
        assert tw(g) == treewidth_by_elimination(g)


def test_treewidth_past_the_default_cap(monkeypatch):
    for g, k in ((grid(5, 5)[0], 5), (wall(3).graph, 4)):
        monkeypatch.setattr(decomposition, "TREEWIDTH_CAP", g.n)
        tw, td = exact_treewidth(g)
        assert tw == k and validate(td) and width(td) == k


def test_treewidth_cap(monkeypatch):
    monkeypatch.setattr(decomposition, "TREEWIDTH_CAP", 20)
    with pytest.raises(SizeCapExceeded, match="capped at 20 vertices, got 25"):
        exact_treewidth(grid(5, 5)[0])


def _result(res):
    k, td = res
    return k, sorted(td.tree.edges), {i: sorted(b) for i, b in td.bags.items()}


def test_treewidth_matches_subset_dp():
    # Same width, same bags and same tree as the full subset DP.
    rng = random.Random(5)
    graphs = [Graph(range(n)) for n in range(5)] + [complete_graph(n) for n in range(1, 10)]
    graphs += [Graph(range(9), cycle_graph(4).edges + ((4, 5), (5, 6), (6, 4), (7, 8))),
               Graph(range(10), complete_graph(4).edges)]
    for _ in range(300):
        extra = rng.randint(1, 4) if rng.random() < 0.2 else 0  # a second component
        g = random_graph(rng, rng.randint(1, 12 - extra), rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
        h = random_graph(rng, extra, 0.6)
        graphs.append(Graph(range(g.n + h.n),
                            g.edges + tuple((g.n + a, g.n + b) for a, b in h.edges)))
    for g in graphs:
        assert _result(exact_treewidth(g)) == _result(exact_treewidth_dp(g))


def test_treewidth_at_most_matches_subset_dp():
    # The decision on the subgraph a mask induces, against the DP's width.
    rng = random.Random(8)
    answers = {k: set() for k in range(5)}
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 11), rng.choice([0.2, 0.35, 0.5, 0.7]))
        order, adj = adjacency_masks(g)
        keep = [v for v in order if rng.random() < 0.8]
        mask = sum(1 << order.index(v) for v in keep)
        tw = exact_treewidth_dp(induced_subgraph(g, keep))[0]
        for k in range(5):
            got = treewidth_at_most(adj, mask, k)
            assert got == (tw <= k)
            answers[k].add(got)
    assert all(a == {True, False} for a in answers.values())


# sha256 of the sorted-key JSON of {"treewidth", "decomposition"} from the
# subset DP (oracles.exact_treewidth_dp) at the 18-vertex cap, where the DP
# takes 4-6 s per graph.
CAP_DIGESTS = {
    "grid 3x6": "634c7a6fafc0856d868e9ea7ddcbffb752f75162a7b94371e6345a4eb28e22fd",
    "G(18, 0.3)": "050ee8c6a4f9cbce3f8973e719a661d2d805d4a4a6e11fcfb35e51011e7a4435",
}


def test_treewidth_at_cap_matches_pinned_dp_output():
    graphs = {"grid 3x6": grid(3, 6)[0], "G(18, 0.3)": random_graph(random.Random(1), 18, 0.3)}
    digests = {}
    for name, g in graphs.items():
        k, td = exact_treewidth(g)
        doc = json.dumps({"treewidth": k, "decomposition": td_to_json(td)}, sort_keys=True)
        digests[name] = hashlib.sha256(doc.encode()).hexdigest()
    assert digests == CAP_DIGESTS


def _bound(g):
    return decomposition._contraction_bound(adjacency_masks(g)[1])


def test_contraction_bound_is_a_lower_bound():
    rng = random.Random(12)
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.15, 0.3, 0.5, 0.8]))
        assert _bound(g) <= exact_treewidth_dp(g)[0]


def test_contraction_bound_meets_the_treewidth_on_known_graphs():
    graphs = [grid(3, 3)[0], grid(3, 6)[0], grid(4, 4)[0], wall(2).graph, pyramid(3, 1),
              lower_bound_graph(3, 6), complete_graph(6), path_graph(10), cycle_graph(10)]
    bounds = [_bound(g) for g in graphs]
    assert bounds == [3, 3, 4, 3, 4, 4, 5, 1, 2]
    assert bounds == [tw(g) for g in graphs]


def test_threshold_loop_starts_at_the_contraction_bound(monkeypatch):
    # one call per threshold from the bound up to the treewidth; starting
    # at the minimum degree would take more
    calls = [0]
    first_feasible = decomposition._first_feasible_order

    def counted(adj, k):
        calls[0] += 1
        return first_feasible(adj, k)
    monkeypatch.setattr(decomposition, "_first_feasible_order", counted)
    rng = random.Random(14)
    total = from_min_degree = 0
    for _ in range(19):
        g = random_graph(rng, 14, 0.3)
        calls[0] = 0
        k = tw(g)
        assert calls[0] == k - _bound(g) + 1
        total += calls[0]
        from_min_degree += k - min(g.degree(v) for v in g.vertices) + 1
    assert total < from_min_degree


def test_treewidth_long_path_under_large_cap(monkeypatch):
    # 1,200 vertices: no 2^n table, and the search keeps its own stack.
    monkeypatch.setattr(decomposition, "TREEWIDTH_CAP", 2000)
    assert exact_treewidth(path_graph(1200))[0] == 1


def test_treewidth_between_lower_and_upper_bounds():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.approximation import treewidth_min_degree, treewidth_min_fill_in
    rng = random.Random(6)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 16), rng.choice([0.15, 0.3, 0.5, 0.7]))
        ng = nx.Graph()
        ng.add_nodes_from(g.vertices)
        ng.add_edges_from(g.edges)
        k = tw(g)
        assert min(g.degree(v) for v in g.vertices) <= k
        assert k <= treewidth_min_fill_in(ng)[0]
        assert k <= treewidth_min_degree(ng)[0]


def test_treewidth_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def build(n, bits):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        return Graph(range(n), [e for e, keep in zip(pairs, bits) if keep])

    graphs = st.integers(0, 9).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2).map(lambda bits: build(n, bits)))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(graphs)
    def check(g):
        k, td = exact_treewidth(g)
        assert validate(td)
        assert width(td) == k
        assert _result((k, td)) == _result(exact_treewidth_dp(g))
        for e in g.edges:
            assert tw(Graph(g.vertices, [f for f in g.edges if f != e])) <= k

    check()


def test_validate_rejects_broken_decompositions():
    g = cycle_graph(4)
    _, td = exact_treewidth(g)

    missing = {i: sorted(b - {0}) for i, b in td.bags.items()}
    bad = TreeDecomposition(g, td.tree, missing)
    v = validate(bad)
    assert not v and v.condition in ("uncovered-vertex", "uncovered-edge")

    # break connectivity: vertex 0 in two far-apart bags only
    tree = path_graph(3)
    bad = TreeDecomposition(g, tree, {0: [0, 1, 2], 1: [1, 2], 2: [0, 2, 3]})
    v = validate(bad)
    assert not v and v.condition == "disconnected-trace"


def test_non_tree_rejected_at_construction():
    g = path_graph(2)
    with pytest.raises(ValueError):
        TreeDecomposition(g, cycle_graph(3), {0: [0], 1: [0, 1], 2: [1]})


def _random_tree(rng, nodes):
    nodes = list(nodes)
    rng.shuffle(nodes)
    return Graph(nodes, [(v, rng.choice(nodes[:i])) for i, v in enumerate(nodes) if i])


def test_validate_matches_scan_oracle_on_mutated_decompositions():
    # Same verdict, condition, witness and detail as the bag scan, on valid
    # decompositions and on ones with bags, tree or host mutated.
    rng = random.Random(19)
    seen = set()
    for _ in range(2400):
        host = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6]))
        td = random_elimination_td(rng, host)
        tree, bags = td.tree, {i: set(b) for i, b in td.bags.items()}
        for _ in range(rng.randint(0, 3)):
            kind, i = rng.randrange(5), rng.choice(tree.vertices)
            if kind == 0 and bags[i]:
                bags[i].discard(rng.choice(sorted(bags[i])))
            elif kind == 1:
                bags[i].add(rng.choice(host.vertices))
            elif kind == 2:
                tree = _random_tree(rng, tree.vertices)
            elif kind == 3:
                host = host.add_vertices([host.fresh_id()])
            else:
                a, b = rng.sample(host.vertices, 2) if host.n > 1 else (0, 0)
                if a != b and not host.has_edge(a, b):
                    host = host.add_edges([(a, b)])
        mutated = TreeDecomposition(host, tree, bags)
        got = validate(mutated)
        assert got == validate_by_scan(mutated)
        assert dumps_like_jsonable(got.witness)
        seen.add(got.condition)
    assert seen == {None, "uncovered-vertex", "uncovered-edge", "disconnected-trace"}


def test_validate_checks_the_tree_of_a_trusted_decomposition():
    # a triangle plus an isolated node has n - 1 edges and is no tree; the
    # edge count alone would accept every trace here
    g = path_graph(2)
    bad = TreeDecomposition._trusted(g, Graph(range(4), [(0, 1), (0, 2), (1, 2)]),
                                     {0: [0, 1], 1: [0, 1], 2: [0, 1], 3: [0]})
    with pytest.raises(ValueError, match="not a tree"):
        validate(bad)
    with pytest.raises(ValueError, match="not a tree"):
        width(bad)


def test_validate_is_linear_on_a_long_path_decomposition():
    # the bag scan took about 6 s of CPU on a shared 2-vCPU machine
    n = 9000
    td = TreeDecomposition(path_graph(n), path_graph(n - 1), {i: (i, i + 1) for i in range(n - 1)})
    start = time.process_time()
    assert validate(td)
    assert time.process_time() - start < 0.5


def test_exact_treewidth_output_passes_the_checked_constructor():
    # the tree and decomposition are built unchecked; the checked
    # constructors build equal ones, and validate accepts them
    rng = random.Random(6)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 10), rng.choice([0.1, 0.3, 0.6]))
        k, td = exact_treewidth(g)
        tree = Graph(td.tree.vertices, td.tree.edges)
        assert tree == td.tree and tree.edges == td.tree.edges
        assert TreeDecomposition(g, tree, td.bags).bags == td.bags
        assert validate(td) and width(td) == k


def test_apex_deletion_lowers_treewidth_boundedly():
    # removing X costs at most |X| in width
    rng = random.Random(2)
    for _ in range(60):
        g = random_graph(rng, rng.randint(3, 9), 0.4)
        k = tw(g)
        xs = rng.sample(list(g.vertices), rng.randint(1, min(3, g.n - 1)))
        assert tw(delete(g, xs)) >= k - len(xs)


def test_make_small_is_small_and_bounded():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), 0.35)
        td = random_elimination_td(rng, g)
        assert validate(td)
        small = make_small(td)
        assert validate(small)
        assert width(small) <= width(td)
        assert len(small.bags) <= g.n
        for i, j in small.tree.edges:
            assert not small.bags[i] <= small.bags[j]
            assert not small.bags[j] <= small.bags[i]


def test_make_small_contracts_a_first_bag_inside_its_neighbour():
    # tree edge (0, 1) with bags[0] <= bags[1]: node 0 goes, node 1 stays
    td = TreeDecomposition(path_graph(3), path_graph(3), {0: [0], 1: [0, 1], 2: [1, 2]})
    small = make_small(td)
    assert small.tree.vertices == (1, 2) and small.tree.edges == ((1, 2),)
    assert small.bags == {1: frozenset({0, 1}), 2: frozenset({1, 2})}


def test_decomposition_constructor_pairs_bags_with_tree_nodes():
    g = path_graph(2)
    with pytest.raises(ValueError, match="tree node 1 has no bag"):
        TreeDecomposition(g, path_graph(2), {0: [0, 1]})
    with pytest.raises(ValueError, match="bag id 5 is not a tree node"):
        TreeDecomposition(g, path_graph(1), {0: [0, 1], 5: [1]})


def test_width_of_an_invalid_decomposition_raises():
    td = TreeDecomposition(path_graph(3), path_graph(1), {0: [0, 1]})
    with pytest.raises(ValueError, match="invalid decomposition: uncovered-vertex"):
        width(td)


def test_closure_bag_adds_neighbor_cliques():
    g = path_graph(4)
    tree = path_graph(2)
    td = TreeDecomposition(g, tree, {0: [0, 1, 2], 1: [1, 2, 3]})
    cb = closure_bag(td, 0)
    assert cb.has_edge(1, 2)
    with pytest.raises(ValueError):
        closure_bag(td, 9)


def test_some_closure_bag_carries_the_width():
    rng = random.Random(4)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 8), 0.4)
        k = tw(g)
        td = random_elimination_td(rng, g)
        assert any(tw(closure_bag(td, i)) >= k for i in td.bags)
