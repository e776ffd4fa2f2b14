import pytest

from flatwall.generators import gamma, gamma_star, grid, lower_bound_graph, pyramid, wall
from flatwall.minors import find_minor
from flatwall.planarity import is_planar


def test_grid_shape_and_coords():
    g, coords = grid(3, 4)
    assert g.n == 12 and g.m == 4 * 2 + 3 * 3  # rows*(cols-1) + cols*(rows-1)
    assert coords.id(1, 1) == 0
    assert coords.coord(coords.id(2, 3)) == (2, 3)
    assert g.has_edge(coords.id(1, 1), coords.id(2, 1))
    assert not g.has_edge(coords.id(1, 1), coords.id(2, 2))


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        grid(0, 3)


# height -> (vertices, edges); |V| = 2(k+1)^2 - 2 and |E| = 3k^2 + 4k - 1
WALL_SIZES = {1: (6, 6), 2: (16, 19), 3: (30, 38), 4: (48, 63), 5: (70, 94)}


def test_wall_size_table():
    for k, (n, m) in WALL_SIZES.items():
        w = wall(k)
        assert (w.graph.n, w.graph.m) == (n, m)
        assert n == 2 * (k + 1) ** 2 - 2
        assert m == 3 * k * k + 4 * k - 1


def test_wall_degree_bound_and_planarity():
    for k in (1, 2, 3):
        g = wall(k).graph
        assert max(len(g.neighbors(v)) for v in g.vertices) <= 3
        assert is_planar(g)


def test_wall_two_corner_vertices_are_pruned():
    w = wall(2)
    # grid ids that lose all their vertical edges sit at two corners
    assert w.coords.id(6, 1) not in w.graph.vertices
    assert w.coords.id(1, 3) not in w.graph.vertices
    assert w.corners == (w.coords.id(1, 1), w.coords.id(5, 1),
                         w.coords.id(6, 3), w.coords.id(2, 3))


def test_wall_corners_odd_height():
    w = wall(3)
    assert w.corners == (w.coords.id(1, 1), w.coords.id(7, 1),
                         w.coords.id(7, 4), w.coords.id(1, 4))


def test_pyramid_is_grid_joined_to_clique():
    g = pyramid(2, 2)
    assert g.n == 6 and g.m == 4 + 1 + 2 * 4
    apex1, apex2 = 4, 5
    assert g.has_edge(apex1, apex2)
    assert all(g.has_edge(apex1, v) for v in range(4))
    assert pyramid(3, 0).m == grid(3, 3)[0].m


def test_pyramid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        pyramid(1, 1)
    with pytest.raises(ValueError):
        pyramid(3, -1)


def test_lower_bound_graph_is_pyramid():
    g = lower_bound_graph(3, 6)
    assert g == pyramid(3, 1)
    with pytest.raises(ValueError):
        lower_bound_graph(2, 6)
    with pytest.raises(ValueError):
        lower_bound_graph(3, 5)


def test_gamma_is_loaded_triangulation():
    tg = gamma(4)
    g = tg.graph
    assert g.n == 16
    # diagonals: one per cell; loading: loaded corner sees the whole ring
    assert g.has_edge(tg.coords.id(1, 1), tg.coords.id(2, 2))
    ring = tg.external
    assert tg.loaded == tg.coords.id(1, 1)
    assert all(g.has_edge(tg.loaded, u) for u in ring if u != tg.loaded)
    assert len(ring) == 12
    with pytest.raises(ValueError):
        gamma(2)


def test_gamma_star_unloads_the_corner():
    tg = gamma(4)
    gs = gamma_star(4)
    assert gs.n == tg.graph.n
    keep = {tg.coords.id(2, 1), tg.coords.id(1, 2)}
    assert sorted(gs.neighbors(tg.loaded)) == sorted(keep)
    assert is_planar(gs)


def test_gamma_is_planar_despite_loading():
    # the loading edges fan out from a corner on the outer face
    from flatwall.graph import complete_graph
    assert is_planar(gamma(4).graph)
    assert find_minor(gamma(4).graph, complete_graph(4)) is not None
