"""Tests for graph/partition construction, degree accounting, and file I/O."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import block_link_counts

from csvnet.graph import (
    Graph,
    GraphFormatError,
    Partition,
    induced_subgraph,
    load_graph,
    load_partition,
    partition_from_mapping,
    save_graph,
    save_partition,
)


def triangle() -> Graph:
    return Graph(("a", "b", "c"), [(0, 1), (1, 2), (0, 2)])


def path3() -> Graph:
    return Graph(("a", "b", "c"), [(0, 1), (1, 2)])


def random_graph(rng: np.random.Generator, n: int, m_target: int) -> Graph:
    pairs = set()
    m_target = min(m_target, n * (n - 1) // 2)
    while len(pairs) < m_target:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    labels = tuple(f"n{i}" for i in range(n))
    return Graph(labels, sorted(pairs))


# --- construction ------------------------------------------------------------


def test_graph_canonicalizes_undirected_edges():
    g = Graph(("a", "b", "c"), [(2, 0), (1, 0)])
    assert g.edges.tolist() == [[0, 1], [0, 2]]


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(("a", "a"), [])
    with pytest.raises(ValueError):
        Graph(("a", "b"), [(0, 2)])
    with pytest.raises(ValueError):
        Graph(("a", "b"), [(0, 0)])
    with pytest.raises(ValueError):
        Graph(("a", "b"), [(0, 1), (1, 0)])


def test_directed_keeps_both_orientations():
    g = Graph(("a", "b"), [(0, 1), (1, 0)], directed=True)
    assert g.n_edges == 2
    assert g.out_degrees.tolist() == [1, 1]
    assert g.in_degrees.tolist() == [1, 1]


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0, 2]), 2)
    with pytest.raises(ValueError):
        Partition(np.array([[0], [1]]), 2)


def test_partition_from_mapping_first_appearance_order():
    g = path3()
    p = partition_from_mapping(g, {"a": "Y", "b": "X", "c": "Y"})
    assert p.q == 2
    assert p.assignment.tolist() == [0, 1, 0]


def test_partition_from_mapping_errors():
    g = path3()
    with pytest.raises(ValueError, match="uncovered"):
        partition_from_mapping(g, {"a": 0, "b": 0})
    with pytest.raises(ValueError, match="unknown"):
        partition_from_mapping(g, {"a": 0, "b": 0, "c": 0, "z": 1})


# --- file I/O ----------------------------------------------------------------


def test_load_graph_basic(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("a b\nb c\n")
    g = load_graph(f)
    assert g.n_nodes == 3 and g.n_edges == 2


def test_load_graph_dedups_reversed_edge(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("a b\nb a\n")
    with pytest.warns(UserWarning, match="deduplicated 1"):
        g = load_graph(f)
    assert g.n_nodes == 2 and g.n_edges == 1


def test_load_graph_drops_self_loop(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("a a\n")
    with pytest.warns(UserWarning, match="self-loop"):
        g = load_graph(f)
    assert g.n_nodes == 1 and g.n_edges == 0


def test_load_graph_comments_and_errors(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("# header\na b\n\nx y z\n")
    with pytest.raises(GraphFormatError, match=r"g\.tsv:4"):
        load_graph(f)


def test_load_graph_strips_utf8_bom(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_bytes("a\tb\nb\tc\n".encode("utf-8-sig"))
    assert load_graph(f).node_labels == ("a", "b", "c")


def test_graph_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    g = random_graph(rng, 12, 20)
    f = tmp_path / "g.tsv"
    save_graph(g, f)
    h = load_graph(f)

    def label_edges(graph):
        return {frozenset((graph.node_labels[u], graph.node_labels[v]))
                for u, v in graph.edges}

    assert label_edges(h) == label_edges(g)


def test_load_partition(tmp_path):
    g = path3()
    f = tmp_path / "p.tsv"
    f.write_text("a X\nb X\nc Y\n")
    p = load_partition(f, g)
    assert p.q == 2
    assert p.assignment.tolist() == [0, 0, 1]


def test_load_partition_errors(tmp_path):
    g = path3()
    for text, pattern in [
        ("a X\nb X\n", "uncovered node 'c'"),
        ("a X\nb X\nc Y\na Z\n", "duplicate line"),
        ("a X\nb X\nc Y\nz W\n", "unknown node label"),
    ]:
        f = tmp_path / "p.tsv"
        f.write_text(text)
        with pytest.raises(GraphFormatError, match=pattern):
            load_partition(f, g)


def test_load_partition_strips_utf8_bom(tmp_path):
    f = tmp_path / "p.tsv"
    f.write_bytes("a X\nb X\nc Y\n".encode("utf-8-sig"))
    assert load_partition(f, path3()).assignment.tolist() == [0, 0, 1]


# Byte inputs: arbitrary bytes, plus text over the format's own alphabet so
# that some draws parse.
_FILE_BYTES = (st.binary(max_size=60)
               | st.text(alphabet="abc xy\t\n#\ufeff", max_size=40).map(str.encode))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FILE_BYTES)
def test_load_graph_fuzz_parses_or_rejects(tmp_path, data):
    f = tmp_path / "g.tsv"
    f.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            result = load_graph(f)
        except ValueError:
            return
    assert isinstance(result, Graph)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FILE_BYTES)
def test_load_partition_fuzz_parses_or_rejects(tmp_path, data):
    f = tmp_path / "p.tsv"
    f.write_bytes(data)
    try:
        result = load_partition(f, path3())
    except ValueError:
        return
    assert isinstance(result, Partition)


def test_partition_round_trip(tmp_path):
    g = triangle()
    p = Partition(np.array([0, 0, 1]), 2)
    f = tmp_path / "p.tsv"
    save_partition(p, g.node_labels, f)
    assert load_partition(f, g).assignment.tolist() == [0, 0, 1]


# --- degree accounting -------------------------------------------------------


def test_stub_conservation_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        g = random_graph(rng, n, int(rng.integers(n, 3 * n)))
        q = int(rng.integers(1, 5))
        asg = rng.integers(0, q, size=n)
        links, degrees, _ = block_link_counts(g, asg, q)
        for r in range(q):
            # within stubs plus links to every other community = degree sum
            assert sum(links[r]) == degrees[r] == int(g.degrees[asg == r].sum())
        assert sum(degrees) == int(g.degrees.sum()) == 2 * g.n_edges


# --- induced subgraphs -------------------------------------------------------


def test_induced_subgraph():
    g = triangle()
    h = induced_subgraph(g, {"a", "b"})
    assert h.node_labels == ("a", "b") and h.n_edges == 1
    full = induced_subgraph(g, set(g.node_labels))
    assert full.node_labels == g.node_labels
    assert np.array_equal(full.edges, g.edges)
    with pytest.raises(ValueError):
        induced_subgraph(g, {"x"})


def test_induced_subgraph_idempotent():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 15, 30)
    keep = {f"n{i}" for i in range(0, 15, 2)}
    once = induced_subgraph(g, keep)
    twice = induced_subgraph(once, keep)
    assert once.node_labels == twice.node_labels
    assert np.array_equal(once.edges, twice.edges)
