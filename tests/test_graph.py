"""Tests for graph/partition construction, degree accounting, and file I/O."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import block_link_counts, line_loop_load_graph, random_graph

from csvnet import graph as graph_module
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


def path3_of(a: str, b: str, c: str) -> Graph:
    return Graph((a, b, c), [(0, 1), (1, 2)])


def path3() -> Graph:
    return path3_of("a", "b", "c")


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


def test_graph_same_from_any_edge_order():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 40, 150)
    shuffled = g.edges[rng.permutation(g.n_edges)]
    flip = rng.random(g.n_edges) < 0.5
    shuffled[flip] = shuffled[flip, ::-1]
    h = Graph(g.node_labels, shuffled)
    assert h.node_labels == g.node_labels and np.array_equal(h.edges, g.edges)
    arrows = Graph(g.node_labels, shuffled, directed=True)
    ordered = shuffled[np.lexsort((shuffled[:, 1], shuffled[:, 0]))]
    assert np.array_equal(arrows.edges, ordered)
    assert np.array_equal(Graph(g.node_labels, ordered, directed=True).edges, ordered)
    with pytest.raises(ValueError, match="duplicate edges"):
        Graph(("a", "b", "c"), [(0, 1), (2, 0), (1, 0)])
    with pytest.raises(ValueError, match="self-loops"):
        Graph(("a", "b"), [(0, 1), (1, 1)], directed=True)


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


# Every separator of str.split() that is not a line end in a text-mode file:
# the ASCII ones, the information separators, NEL and the Unicode spaces.
_SEPARATORS = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
               "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u3000")

# Byte inputs: arbitrary bytes, plus text over the format's own alphabet so
# that some draws parse.
_FILE_BYTES = (st.binary(max_size=60)
               | st.text(alphabet="abcxy\n\r#\ufeff" + "".join(_SEPARATORS),
                         max_size=40).map(str.encode))


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


_LABELS = st.sampled_from(["a", "b", "c", "d", "n10", "x#", "#y", "\u00e9"])


@st.composite
def edge_list_texts(draw) -> str:
    """Edge lists with repeated, reversed, self-loop, comment, blank and
    (rarely) malformed lines, every str.split() separator, and LF, CRLF or
    lone CR line ends."""
    lines: list[str] = []
    pairs: list[tuple[str, str]] = []
    kinds = ["edge"] * 4 + ["repeat"] * 3 + ["loop", "comment", "blank", "bad"]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat" and pairs:
            u, v = draw(st.sampled_from(pairs))
            if draw(st.booleans()):
                u, v = v, u
        elif kind in ("edge", "repeat"):
            u, v = draw(_LABELS), draw(_LABELS)
        elif kind == "loop":
            u = v = draw(_LABELS)
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# header", "#a b", " # x y z"])))
            continue
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\x0c", "\u3000 "])))
            continue
        else:
            lines.append(" ".join(draw(st.lists(_LABELS, min_size=1, max_size=3)
                                       .filter(lambda t: len(t) != 2))))
            continue
        pairs.append((u, v))
        sep = "".join(draw(st.lists(st.sampled_from(_SEPARATORS), min_size=1, max_size=3)))
        pad = "".join(draw(st.lists(st.sampled_from(_SEPARATORS), max_size=2)))
        lines.append(f"{pad}{u}{sep}{v}{pad}")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + draw(st.sampled_from(["", newline]))


def _load_outcome(load, path, directed):
    """Labels, edges and warning texts of a load, or the error text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = load(path, directed=directed)
        except GraphFormatError as exc:
            return str(exc)
    return g.node_labels, g.edges.tolist(), [str(w.message) for w in caught]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_list_texts(), st.booleans())
def test_load_graph_matches_line_loop_oracle(tmp_path, text, directed):
    f = tmp_path / "g.tsv"
    f.write_bytes(text.encode("utf-8"))
    assert (_load_outcome(load_graph, f, directed)
            == _load_outcome(line_loop_load_graph, f, directed))


# Records, comments, blank lines, CRLF and lone CR line ends, a BOM, Unicode
# separators and a line longer than the small chunks below.
_CHUNKY = ("\ufeff# header line\r\nalpha beta\r\n\r\n  # c d e\nbeta\u3000gamma\r"
           "gamma alpha\n\x0c\n" + "x" * 40 + "\t\u2028" + "y" * 30
           + "\nbeta alpha\ndelta\x85alpha")


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13])
def test_records_straddling_chunk_edges_load_as_before(tmp_path, monkeypatch, chunk):
    f = tmp_path / "g.tsv"
    f.write_bytes(_CHUNKY.encode("utf-8"))
    expect = _load_outcome(line_loop_load_graph, f, False)
    assert expect[0] == ("alpha", "beta", "gamma", "x" * 40, "y" * 30, "delta")
    monkeypatch.setattr(graph_module, "_READ_CHUNK", chunk)
    assert _load_outcome(load_graph, f, False) == expect
    p = tmp_path / "p.tsv"
    p.write_bytes("\ufeffalpha A\r\n# note\rbeta B\n\ngamma\u3000A\n".encode("utf-8"))
    partition = load_partition(p, path3_of("alpha", "beta", "gamma"))
    assert partition.assignment.tolist() == [0, 1, 0]


@pytest.mark.parametrize("chunk", [4, 9, 1 << 18])
def test_first_bad_line_named_across_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(graph_module, "_READ_CHUNK", chunk)
    f = tmp_path / "g.tsv"
    f.write_text("a b\n# x y z\nb c\na b c\n" + "c d\n" * 6 + "d\n")
    with pytest.raises(GraphFormatError,
                       match=r"g\.tsv:4: expected two node labels, got 3 tokens"):
        load_graph(f)
    # A record error before a malformed line in the same chunk comes first.
    p = tmp_path / "p.tsv"
    p.write_text("a X\nb Y\na Z\nc\n")
    with pytest.raises(GraphFormatError, match=r"p\.tsv:3: duplicate line for node 'a'"):
        load_partition(p, path3())
    p.write_text("a X\nb Y\nc Y Z\nz W\n")
    with pytest.raises(GraphFormatError, match=r"p\.tsv:3: expected 'node community', got 3"):
        load_partition(p, path3())


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


def test_induced_subgraph_keeping_every_node_is_the_graph():
    g = triangle()
    assert induced_subgraph(g, set(g.node_labels)) is g
    assert induced_subgraph(g, {"a", "b", "c", "z"}) is g
    assert induced_subgraph(g, {"a", "c"}) is not g


def test_induced_subgraph_idempotent():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 15, 30)
    keep = {f"n{i}" for i in range(0, 15, 2)}
    once = induced_subgraph(g, keep)
    twice = induced_subgraph(once, keep)
    assert once.node_labels == twice.node_labels
    assert np.array_equal(once.edges, twice.edges)
