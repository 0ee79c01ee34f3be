"""Relative-index comparison tests on small deterministic graphs."""

from __future__ import annotations

import numpy as np
import pytest

from csvnet.clustering import louvain
from csvnet.compare import (
    compare_all,
    compare_pair,
    filter_small_communities,
    matrix_tsv,
    relative_ucsv,
)
from csvnet.graph import Graph, Partition


def clique_pair_graph(k: int, prefix: str = "n") -> Graph:
    """Two disjoint k-cliques; a crisp two-community graph."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    return Graph(tuple(f"{prefix}{i}" for i in range(2 * k)), np.array(edges))


def shuffled_copy(graph: Graph, seed: int = 0) -> Graph:
    """Same labeled edges, different node storage order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(graph.n_nodes)
    labels = tuple(graph.node_labels[i] for i in perm)
    inv = np.empty(graph.n_nodes, dtype=np.int64)
    inv[perm] = np.arange(graph.n_nodes)
    return Graph(labels, inv[graph.edges], directed=graph.directed)


def test_filter_keeps_only_large_communities():
    sizes = [10, 3, 8]
    asg = np.repeat([0, 1, 2], sizes)
    keep, filtered = filter_small_communities(Partition(asg, 3), 5)
    assert filtered.q == 2
    assert np.array_equal(keep, np.concatenate([np.arange(10), np.arange(13, 21)]))
    assert np.array_equal(filtered.assignment, np.repeat([0, 1], [10, 8]))


def test_filter_boundary_is_strict():
    asg = np.repeat([0, 1], [6, 6])
    keep, filtered = filter_small_communities(Partition(asg, 2), 5)
    assert filtered.q == 2 and keep.size == 12
    with pytest.raises(ValueError, match="no communities survive"):
        filter_small_communities(Partition(np.repeat([0, 1], [6, 6]), 2), 6)


def test_filter_rejects_bad_min_size():
    with pytest.raises(ValueError):
        filter_small_communities(Partition(np.zeros(4, dtype=np.int64), 1), 0)


def test_relative_ucsv_identical_graphs():
    graph = clique_pair_graph(5)
    part = Partition(np.repeat([0, 1], 5), 2)
    assert relative_ucsv(part, graph, graph) == 1.0


def test_relative_ucsv_handles_permuted_node_order():
    graph = clique_pair_graph(5)
    part = Partition(np.repeat([0, 1], 5), 2)
    assert relative_ucsv(part, graph, shuffled_copy(graph, seed=3)) == 1.0


def test_relative_ucsv_edgeless_other_graph():
    graph = clique_pair_graph(5)
    part = Partition(np.repeat([0, 1], 5), 2)
    empty = Graph(graph.node_labels, np.empty((0, 2), dtype=np.int64))
    assert relative_ucsv(part, graph, empty) == 0.0


def test_relative_ucsv_zero_denominator_warns():
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    complete = Graph(tuple(f"n{i}" for i in range(10)), np.array(edges))
    part = Partition(np.repeat([0, 1], 5), 2)
    with pytest.warns(UserWarning, match="undefined"):
        assert relative_ucsv(part, complete, complete) == 0.0


def test_compare_pair_zero_own_index_warns():
    # One community covering a complete graph rejects nothing, so its own
    # index is 0 and both relative indices are undefined.
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    complete = Graph(tuple(f"n{i}" for i in range(10)), np.array(edges))
    with pytest.warns(UserWarning, match="relative index undefined"):
        assert compare_pair(complete, complete) == (0.0, 0.0)


def test_relative_ucsv_rejects_disjoint_node_sets():
    with pytest.raises(ValueError):
        relative_ucsv(Partition(np.repeat([0, 1], 5), 2),
                      clique_pair_graph(5, "a"), clique_pair_graph(5, "b"))


def test_compare_pair_self_is_unity():
    graph = clique_pair_graph(7)
    assert compare_pair(graph, graph) == (1.0, 1.0)


def test_compare_pair_disjoint_labels_fails():
    with pytest.raises(ValueError, match="no node labels"):
        compare_pair(clique_pair_graph(7, "a"), clique_pair_graph(7, "b"))


def test_compare_pair_all_communities_filtered():
    tiny = Graph(("a", "b"), np.array([[0, 1]]))
    with pytest.raises(ValueError, match="no communities survive"):
        compare_pair(tiny, tiny)


def test_compare_all_identical_graphs_zero_distance():
    graph = clique_pair_graph(7)
    result = compare_all([("A", graph), ("B", graph)])
    assert np.array_equal(result.r_matrix, np.ones((2, 2)))
    assert np.array_equal(result.d_matrix.values, np.zeros((2, 2)))
    assert result.defined.all()
    dend = result.dendrogram()
    assert dend.merges == ((0, 1, 0.0),)


def test_compare_all_matrix_identities():
    graphs = [("A", clique_pair_graph(7)),
              ("B", shuffled_copy(clique_pair_graph(7), seed=1)),
              ("C", clique_pair_graph(8))]
    result = compare_all(graphs, seed=5)
    r = result.r_matrix
    assert np.array_equal(np.diag(r), np.ones(3))
    assert np.array_equal(result.s_matrix, (r + r.T) / 2.0)
    expected_d = np.clip(1.0 - result.s_matrix, 0.0, 1.0)
    np.fill_diagonal(expected_d, 0.0)
    assert np.array_equal(result.d_matrix.values, expected_d)
    assert len(result.per_pair) == 3


def test_compare_all_reorder_invariance():
    graphs = {"A": clique_pair_graph(6),
              "B": clique_pair_graph(7),
              "C": clique_pair_graph(8)}
    first = compare_all([(k, graphs[k]) for k in ("A", "B", "C")], seed=9)
    second = compare_all([(k, graphs[k]) for k in ("C", "A", "B")], seed=9)
    perm = [second.names.index(name) for name in first.names]
    assert np.array_equal(first.r_matrix, second.r_matrix[np.ix_(perm, perm)])
    assert np.array_equal(first.d_matrix.values,
                          second.d_matrix.values[np.ix_(perm, perm)])


def test_compare_all_deterministic():
    graphs = [("A", clique_pair_graph(6)), ("B", clique_pair_graph(7))]
    first = compare_all(graphs, seed=2)
    second = compare_all(graphs, seed=2)
    assert np.array_equal(first.r_matrix, second.r_matrix)


def test_compare_all_records_pair_failures():
    graphs = [("A", clique_pair_graph(7, "a")),
              ("B", clique_pair_graph(7, "a")),
              ("X", clique_pair_graph(7, "x"))]
    result = compare_all(graphs)
    failures = [p for p in result.per_pair if p.error is not None]
    assert len(failures) == 2
    assert all("no node labels" in p.error for p in failures)
    assert result.defined[0, 1] and not result.defined[0, 2]
    assert result.r_matrix[0, 2] == 0.0
    assert result.d_matrix.values[0, 2] == 1.0


def test_compare_all_input_validation():
    graph = clique_pair_graph(6)
    with pytest.raises(ValueError, match="at least two"):
        compare_all([("A", graph)])
    with pytest.raises(ValueError, match="unique"):
        compare_all([("A", graph), ("A", graph)])
    # Bad levels are rejected once, up front, not recorded on every pair.
    for alpha in (0.0, 1.0, 2.0, float("nan")):
        with pytest.raises(ValueError, match="alpha out of range"):
            compare_all([("A", graph), ("B", graph)], alpha=alpha)
    with pytest.raises(ValueError, match="min_size must be at least 1"):
        compare_all([("A", graph), ("B", graph)], min_size=0)


@pytest.mark.parametrize("kwargs, match", [
    ({"alpha": 2.0}, "alpha out of range"),
    ({"min_size": 0}, "min_size must be at least 1"),
], ids=["alpha", "min_size"])
def test_compare_pair_rejects_bad_levels_before_detection(monkeypatch, kwargs, match):
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return louvain(*args, **kw)

    monkeypatch.setattr("csvnet.compare.louvain", counted)
    graph = clique_pair_graph(6)
    with pytest.raises(ValueError, match=match):
        compare_pair(graph, graph, **kwargs)
    assert calls == []


def test_per_pair_details_populated():
    graph = clique_pair_graph(7)
    result = compare_all([("A", graph), ("B", graph)])
    pair = result.per_pair[0]
    assert (pair.name_i, pair.name_j) == ("A", "B")
    assert pair.n_common == 14
    assert pair.q_i == pair.q_j == 2
    assert pair.own_index_i == pair.own_index_j == 1.0
    assert pair.error is None


def test_matrix_tsv_layout():
    text = matrix_tsv(("A", "B"), np.array([[1.0, 0.25], [0.5, 1.0]]))
    lines = text.splitlines()
    assert lines[0] == "name\tA\tB"
    assert lines[1] == "A\t1.0\t0.25"
    assert lines[2] == "B\t0.5\t1.0"
    assert text.endswith("\n")


def test_compare_all_same_at_any_worker_count():
    # "far" shares no node with the others, so two of its pairs fail.
    graphs = [("a", clique_pair_graph(6)), ("b", shuffled_copy(clique_pair_graph(7))),
              ("far", clique_pair_graph(6, prefix="x"))]
    serial = compare_all(graphs, seed=3)
    forked = compare_all(graphs, seed=3, workers=2)
    assert [p.error for p in serial.per_pair] == [
        None, "graphs share no node labels", "graphs share no node labels"]
    assert [vars(p) for p in forked.per_pair] == [vars(p) for p in serial.per_pair]
    for matrix in ("r_matrix", "s_matrix"):
        assert matrix_tsv(forked.names, getattr(forked, matrix)) \
            == matrix_tsv(serial.names, getattr(serial, matrix))
    assert np.array_equal(forked.defined, serial.defined)
    assert np.array_equal(forked.d_matrix.values, serial.d_matrix.values)
