"""Relative-index comparison tests on small deterministic graphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import definitional_pair

from csvnet import compare as compare_module
from csvnet.clustering import louvain
from csvnet.compare import compare_all, filter_small_communities, matrix_tsv
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
    # B is A with its nodes stored in another order.
    assert r[0, 1] == r[1, 0] == 1.0
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
    tiny = Graph(("a", "b"), np.array([[0, 1]]))
    (pair,) = compare_all([("A", tiny), ("B", tiny)]).per_pair
    assert "no communities survive" in pair.error


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
def test_compare_all_rejects_bad_levels_before_detection(monkeypatch, kwargs, match):
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return louvain(*args, **kw)

    monkeypatch.setattr("csvnet.compare.louvain", counted)
    graph = clique_pair_graph(6)
    with pytest.raises(ValueError, match=match):
        compare_all([("A", graph), ("B", graph)], **kwargs)
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
    # One community covering a complete graph rejects nothing, so its own
    # index is 0 and both relative indices are undefined, recorded as 0.
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    complete = Graph(tuple(f"n{i}" for i in range(10)), np.array(edges))
    result = compare_all([("A", complete), ("B", complete)])
    pair = result.per_pair[0]
    assert (pair.own_index_i, pair.own_index_j, pair.q_i) == (0.0, 0.0, 1)
    assert (pair.r_ij, pair.r_ji, pair.error) == (0.0, 0.0, None)
    assert not (pair.defined_ij or pair.defined_ji or result.defined[0, 1])


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


@st.composite
def comparison_cases(draw):
    """Two or three undirected graphs, each over more than half of up to 24
    labels and stored in its own node order, and a label -> community map
    (up to 3). Pairs inside a community are likelier edges, so tests reject."""
    pool = [f"n{i}" for i in range(draw(st.integers(2, 24)))]
    community = {lab: draw(st.integers(0, 2)) for lab in pool}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graphs = []
    for name in ("a", "b", "c")[:draw(st.integers(2, 3))]:
        labels = draw(st.permutations(pool))[:draw(st.integers(len(pool) // 2 + 1, len(pool)))]
        iu, ju = np.triu_indices(len(labels), k=1)
        same = np.array([community[labels[i]] == community[labels[j]]
                         for i, j in zip(iu.tolist(), ju.tolist())], dtype=bool)
        hit = rng.random(iu.size) < np.where(same, draw(st.sampled_from([0.3, 0.8])), 0.1)
        graphs.append((name, Graph(tuple(labels), np.stack([iu[hit], ju[hit]], axis=1))))
    return graphs, community


@settings(max_examples=150, deadline=None)
@given(comparison_cases(), st.integers(1, 3), st.sampled_from([0.05, 0.3]), st.booleans())
def test_compare_all_matches_definitional_oracle(case, min_size, alpha, use_wcsv):
    # Each cut graph's partition is injected in place of Louvain: a node
    # takes its label's community, or community 3 when it has no edge there.
    graphs, community = case

    def partition_of(edges, labels):
        touched = set().union(*edges)
        return {lab: community[lab] if lab in touched else 3 for lab in labels}

    def injected(graph, seed):
        edges = {frozenset((graph.node_labels[u], graph.node_labels[v]))
                 for u, v in graph.edges.tolist()}
        labels = partition_of(edges, graph.node_labels)
        return Partition(np.array([labels[lab] for lab in graph.node_labels]), 4)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compare_module, "louvain", injected)
        result = compare_all(graphs, alpha=alpha, min_size=min_size, use_wcsv=use_wcsv)
    by_name = dict(graphs)
    for pair in result.per_pair:
        try:
            r_ij, r_ji, def_ij, def_ji = definitional_pair(
                by_name[pair.name_i], by_name[pair.name_j], partition_of,
                alpha, min_size, use_wcsv)
        except ValueError as exc:
            assert pair.error == str(exc)
            continue
        assert pair.error is None
        assert (pair.defined_ij, pair.defined_ji) == (def_ij, def_ji)
        assert pair.r_ij == pytest.approx(r_ij, abs=1e-12, rel=0)
        assert pair.r_ji == pytest.approx(r_ji, abs=1e-12, rel=0)
