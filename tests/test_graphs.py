import pytest

from splitmw import (
    LimitExceededError,
    Multigraph,
    count_acyclic_orientations,
    count_spanning_trees,
    count_totally_cyclic_orientations,
    graphic,
    multigraph_from_dict,
)
from splitmw.corpus import bridgeless_graphs, random_multigraphs
from splitmw.errors import SIZE_LIMITS


def test_triangle_counts(triangle):
    assert count_spanning_trees(triangle) == 3
    assert count_acyclic_orientations(triangle) == 6
    assert count_totally_cyclic_orientations(triangle) == 2


def test_single_edge_is_a_bridge():
    g = Multigraph(2, [(0, 1)])
    assert count_spanning_trees(g) == 1
    assert count_acyclic_orientations(g) == 2
    assert count_totally_cyclic_orientations(g) == 0


def test_double_edge():
    g = Multigraph(2, [(0, 1), (0, 1)])
    assert count_spanning_trees(g) == 2
    assert count_acyclic_orientations(g) == 2
    assert count_totally_cyclic_orientations(g) == 2


def test_self_loop_kills_acyclic_and_doubles_totally_cyclic():
    g = Multigraph(1, [(0, 0)])
    assert count_spanning_trees(g) == 1
    assert count_acyclic_orientations(g) == 0
    assert count_totally_cyclic_orientations(g) == 2
    gg = Multigraph(2, [(0, 1), (0, 1), (1, 1)])
    assert count_acyclic_orientations(gg) == 0
    assert count_totally_cyclic_orientations(gg) == 4  # doubled by the loop


def test_k4_counts():
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert count_spanning_trees(g) == 16
    assert count_acyclic_orientations(g) == 24
    assert count_totally_cyclic_orientations(g) == 24


def test_spanning_tree_count_matches_graphic_basis_count():
    for g in random_multigraphs(15, 8, seed=4242):
        assert count_spanning_trees(g) == len(graphic(g).bases)


def test_disconnected_graph_counts_max_forests():
    g = Multigraph(4, [(0, 1), (0, 1), (2, 3)])
    assert count_spanning_trees(g) == 2  # one choice in each component


def test_bridges():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert g.bridges() == [3]
    assert not Multigraph(3, [(0, 1), (1, 2), (2, 0)]).bridges()


def test_bridgeless_corpus_properties():
    graphs = bridgeless_graphs(min_count=30, max_edges=12)
    assert len(graphs) >= 30
    for g in graphs:
        assert g.is_connected()
        assert not g.bridges()
        assert len(g.edges) <= 12


def test_orientation_limit():
    g = Multigraph(2, [(0, 1)] * (SIZE_LIMITS["orientations"] + 1))
    with pytest.raises(LimitExceededError):
        count_acyclic_orientations(g)
    with pytest.raises(LimitExceededError):
        count_totally_cyclic_orientations(g)


def test_spanning_tree_limit():
    g = Multigraph(2, [(0, 1)] * (SIZE_LIMITS["spanning-forests"] + 1))
    with pytest.raises(LimitExceededError):
        count_spanning_trees(g)


def test_endpoint_validation():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 2)])


def test_round_trip():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
    assert multigraph_from_dict(g.to_dict()).edges == g.edges


def test_rejects_wrong_format():
    with pytest.raises(ValueError):
        multigraph_from_dict({"format": "graph", "vertices": 1, "edges": []})
