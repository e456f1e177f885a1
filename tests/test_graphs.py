import pytest

from splitmw import (
    LimitExceededError,
    Multigraph,
    count_acyclic_orientations,
    count_spanning_trees,
    count_totally_cyclic_orientations,
    graphic,
    multigraph_from_dict,
    tutte_subset_sum,
)
from splitmw.corpus import bridgeless_graphs, random_multigraphs
from splitmw.errors import SIZE_LIMITS
from splitmw.graphs import _orientation_counts

from conftest import matrix_tree_oracle


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


def test_spanning_tree_count_matches_matrix_tree_theorem():
    # random multigraphs have self-loops, parallel edges and, often, more
    # than one component
    graphs = random_multigraphs(60, 12, seed=2718) + bridgeless_graphs()
    assert any(not g.is_connected() for g in graphs)
    assert any(u == v for g in graphs for u, v in g.edges)
    for g in graphs:
        assert count_spanning_trees(g) == matrix_tree_oracle(g)


def test_orientation_counts_are_tutte_evaluations_on_any_multigraph():
    # alpha = T(2,0) and alpha* = T(0,2) need no bridgelessness, no
    # connectivity and no loop-freeness: a self-loop forces alpha = 0 and a
    # bridge alpha* = 0, as the y and x factors of T do
    graphs = random_multigraphs(60, 10, seed=1618) + [Multigraph(3, [])]
    assert any(g.bridges() for g in graphs)
    assert any(u == v for g in graphs for u, v in g.edges)
    assert any(g.component_count() > 1 for g in graphs)
    for g in graphs:
        t = tutte_subset_sum(graphic(g))
        assert _orientation_counts(g) == (t.evaluate(2, 0), t.evaluate(0, 2))


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
