"""Tests for graph/partition construction, degree accounting, and file I/O."""

from __future__ import annotations

import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import (
    argsort_graph_edges,
    block_link_counts,
    line_loop_load_graph,
    line_loop_load_partition,
    random_graph,
)

from csvnet import graph as graph_module
from csvnet.graph import (
    Graph,
    GraphFormatError,
    Partition,
    first_appearance_ids,
    induced_subgraph,
    load_graph,
    load_partition,
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


@st.composite
def edge_arrays(draw) -> tuple[int, np.ndarray]:
    """A node count up to 8 and distinct ordered pairs on its nodes, in a
    random order, with at most one fault: a repeated pair (either
    orientation), a self-loop, a negative id or an id of n or more."""
    n = draw(st.integers(0, 8))
    ids = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]),
                          unique=True, max_size=30)) if n > 1 else []
    fault = draw(st.sampled_from(["none", "repeat", "loop", "negative", "high"]))
    a, b = draw(ids), draw(st.integers(0, 3))
    if fault == "repeat" and pairs:
        u, v = draw(st.sampled_from(pairs))
        pairs.append((v, u) if draw(st.booleans()) else (u, v))
    elif fault == "loop":
        pairs.append((a, a))
    elif fault == "negative":
        pairs.append((a, -1 - b))
    elif fault == "high":
        pairs.append((n + b, a))
    pairs = draw(st.permutations(pairs))
    return n, np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _canonical_outcome(build, n, edges, directed):
    try:
        return build(n, edges, directed).tobytes()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(edge_arrays(), st.booleans())
@example((0, np.empty((0, 2), dtype=np.int64)), False)
def test_edge_canonicalisation_matches_argsort_oracle(case, directed):
    # The constructor's in-place key sort against the stable argsort and
    # gathers it replaced, on each orientation of the same pairs.
    n, edges = case
    labels = tuple(f"n{i}" for i in range(n))

    def build(n, edges, directed):
        return Graph(labels, edges, directed=directed).edges

    for pairs in (edges, edges[:, ::-1]):
        assert (_canonical_outcome(build, n, pairs, directed)
                == _canonical_outcome(argsort_graph_edges, n, pairs, directed))


def test_graph_refuses_more_nodes_than_its_edge_keys_hold(monkeypatch):
    # Keys hold the first endpoint above _KEY_SHIFT bits: with 3 bits, a
    # Graph takes up to 4 nodes, as load_graph takes up to 4 labels.
    monkeypatch.setattr(graph_module, "_KEY_SHIFT", 3)
    assert Graph(tuple("abcd"), [(3, 0), (1, 2)]).edges.tolist() == [[0, 3], [1, 2]]
    with pytest.raises(ValueError, match=r"more than 2\*\*2 nodes"):
        Graph(tuple("abcde"), [(0, 1)])


@given(st.lists(st.integers(-3, 6), max_size=40))
@example([])
def test_first_appearance_ids_matches_dict_definition(values):
    ids: dict[int, int] = {}
    expect = [ids.setdefault(x, len(ids)) for x in values]
    got, count = first_appearance_ids(values)
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.tolist() == expect and count == len(ids)


def test_directed_keeps_both_orientations():
    g = Graph(("a", "b"), [(0, 1), (1, 0)], directed=True)
    assert g.n_edges == 2
    assert np.bincount(g.edges[:, 0], minlength=g.n_nodes).tolist() == [1, 1]
    assert np.bincount(g.edges[:, 1], minlength=g.n_nodes).tolist() == [1, 1]


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0, 2]), 2)
    with pytest.raises(ValueError):
        Partition(np.array([[0], [1]]), 2)


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


# Arbitrary bytes, most of them not UTF-8: the line-loop oracle's result or
# error text, codec reason included, at any chunk size.
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FILE_BYTES, st.sampled_from([3, 8, 1 << 16]), st.booleans())
@example(b"a b\nb c\r\xe0\xa0\r\nc a", 3, False)
@example(b"\xef\xbbx y\n", 8, False)
def test_load_graph_fuzz_parses_or_rejects(tmp_path, monkeypatch, data, chunk, directed):
    f = tmp_path / "g.tsv"
    f.write_bytes(data)
    monkeypatch.setattr(graph_module, "_READ_CHUNK", chunk)
    assert (_load_outcome(load_graph, f, directed)
            == _load_outcome(line_loop_load_graph, f, directed))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FILE_BYTES, st.sampled_from([3, 8, 1 << 16]))
@example(b"\xef", 3)
def test_load_partition_fuzz_parses_or_rejects(tmp_path, monkeypatch, data, chunk):
    f = tmp_path / "p.tsv"
    f.write_bytes(data)
    monkeypatch.setattr(graph_module, "_READ_CHUNK", chunk)
    assert (_partition_outcome(load_partition, f, path3())
            == _partition_outcome(line_loop_load_partition, f, path3()))


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


# Line 6 names "e" first, and lines 5 and 8 repeat lines 1 and 3 reversed;
# at these chunk sizes the first time and the repeat fall in different chunks.
_LATE = "a b\nb c\n# note\nc d\nb a\ne a\n\nd c\nd d\n"


@pytest.mark.parametrize("chunk", [1, 4, 9, 16, 1 << 16])
@pytest.mark.parametrize("directed", [False, True])
def test_late_labels_and_reversed_repeats_across_chunks(tmp_path, monkeypatch, chunk,
                                                        directed):
    f = tmp_path / "g.tsv"
    f.write_text(_LATE)
    expect = _load_outcome(line_loop_load_graph, f, directed)
    assert expect[0] == ("a", "b", "c", "d", "e")
    assert len(expect[2]) == (1 if directed else 2)
    monkeypatch.setattr(graph_module, "_READ_CHUNK", chunk)
    assert _load_outcome(load_graph, f, directed) == expect


def test_edge_key_guard(tmp_path, monkeypatch):
    # Keys hold the first endpoint above _KEY_SHIFT bits: with 3 bits, up to
    # 4 labels pack exactly and a fifth is refused, not packed wrongly.
    monkeypatch.setattr(graph_module, "_KEY_SHIFT", 3)
    f = tmp_path / "g.tsv"
    f.write_text("a b\nc d\nd a\nb c\nc a\n")
    assert _load_outcome(load_graph, f, False) == _load_outcome(line_loop_load_graph, f, False)
    f.write_text("a b\nc d\nd e\n")
    with pytest.raises(GraphFormatError, match=r"g\.tsv: more than 2\*\*2 node labels"):
        load_graph(f)


def test_load_graph_memory(tmp_path):
    # 50,000 seeded lines over 5,000 labels: 1.1 MiB of graph once loaded.
    # The reader holds one 2^16-character chunk's tokens and ids at a time
    # and one int64 key per line; measured peak 2.5 MiB (6.2 MiB when each
    # chunk was 2^18 characters and labels were ranked through three
    # whole-length id arrays).
    rng = np.random.default_rng(28)
    u, v = rng.integers(0, 5000, size=(2, 50_000))
    f = tmp_path / "g.tsv"
    f.write_text("".join(f"node{a}\tnode{b}\n" for a, b in zip(u.tolist(), v.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        tracemalloc.start()
        try:
            g = load_graph(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert g.n_edges > 49_000
    assert peak < 3.5 * 2**20, peak / 2**20


def _partition_outcome(load, path, graph):
    try:
        p = load(path, graph)
    except GraphFormatError as exc:
        return str(exc)
    return p.assignment.tolist(), p.q


@st.composite
def partition_texts(draw) -> str:
    """Partition files over the labels a-e, with unknown labels, repeated
    nodes, comments, blank and malformed lines, and LF, CRLF or CR ends."""
    nodes = st.sampled_from(["a", "b", "c", "d", "e", "e", "z", "#y"])
    comms = st.sampled_from(["X", "Y", "Z", "x#"])
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record"] * 6 + ["comment", "blank", "bad"]))
        if kind == "record":
            lines.append(f"{draw(nodes)}{draw(st.sampled_from([' ', chr(9), chr(0x3000)]))}"
                         f"{draw(comms)}")
        elif kind == "comment":
            lines.append("# node community")
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " "])))
        else:
            lines.append(draw(st.sampled_from(["a", "a X Y"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines) + newline


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(partition_texts(), st.sampled_from([1, 5, 12, 1 << 16]))
@example("a X\nb Y\nc X\nd Z\ne Y\n", 1)
@example("a X\nb Y\nc X\nd Z\ne Y\nb X\nz Y\n", 5)
@example("a X\nb Y\nz X\nb Y\n", 1 << 16)
def test_load_partition_matches_line_loop_oracle(tmp_path, monkeypatch, text, chunk):
    graph = Graph(("e", "d", "c", "b", "a"), [(0, 1), (1, 2), (2, 3), (3, 4)])
    f = tmp_path / "p.tsv"
    f.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(graph_module, "_READ_CHUNK", chunk)
    assert (_partition_outcome(load_partition, f, graph)
            == _partition_outcome(line_loop_load_partition, f, graph))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("chunk", [4, 1 << 16])
def test_non_utf8_input_names_its_file_and_line(tmp_path, monkeypatch, newline, chunk):
    monkeypatch.setattr(graph_module, "_READ_CHUNK", chunk)
    f = tmp_path / "g.tsv"
    lines = [b"a b", "# \u00e9".encode("utf-8"), b"b \xff", b"c d", b""]
    f.write_bytes(newline.encode("ascii").join(lines))
    with pytest.raises(GraphFormatError,
                       match=r"g\.tsv:3: not UTF-8 text \(invalid start byte\)"):
        load_graph(f)
    with pytest.raises(GraphFormatError, match=r"g\.tsv:3: not UTF-8 text"):
        load_partition(f, path3())


# (file, load_graph's error, load_partition's error on path3): the first bad
# line wins whatever its kind, also when a byte that is not UTF-8 comes only
# a few bytes after a malformed line; such a byte fails a comment too, and so
# does a file that is only the start of a byte-order mark.
_FIRST_BAD = [
    (b"a b\na b c\nb c\nc a\nc \xff\n",
     "2: expected two node labels, got 3 tokens", "2: expected 'node community', got 3 tokens"),
    (b"a b\na b c\nb c\n# caf\xe9\nc a\n",
     "2: expected two node labels, got 3 tokens", "2: expected 'node community', got 3 tokens"),
    (b"a b\n# caf\xe9\nb c\na b c\n",
     "2: not UTF-8 text (invalid continuation byte)",
     "2: not UTF-8 text (invalid continuation byte)"),
    (b"a X\nb Y\na Z\nc \xff\n",
     "4: not UTF-8 text (invalid start byte)", "3: duplicate line for node 'a'"),
    (b"\xef\xbb", "1: not UTF-8 text (unexpected end of data)",
     "1: not UTF-8 text (unexpected end of data)"),
]


@pytest.mark.parametrize("chunk", [4, 8, 16, 1 << 16])
@pytest.mark.parametrize("case", range(len(_FIRST_BAD)))
def test_first_bad_line_wins_whatever_its_kind(tmp_path, monkeypatch, case, chunk):
    data, graph_error, partition_error = _FIRST_BAD[case]
    f = tmp_path / "g.tsv"
    f.write_bytes(data)
    monkeypatch.setattr(graph_module, "_READ_CHUNK", chunk)
    assert (_load_outcome(load_graph, f, False) == _load_outcome(line_loop_load_graph, f, False)
            == f"{f}:{graph_error}")
    assert (_partition_outcome(load_partition, f, path3())
            == _partition_outcome(line_loop_load_partition, f, path3())
            == f"{f}:{partition_error}")


def test_each_reader_opens_its_input_once(tmp_path, monkeypatch):
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(graph_module, "open", counting_open, raising=False)
    f = tmp_path / "g.tsv"
    f.write_bytes(b"a b\nb c\nc \xff\n")
    with pytest.raises(GraphFormatError, match=r"g\.tsv:3: not UTF-8 text"):
        load_graph(f)
    with pytest.raises(GraphFormatError, match=r"g\.tsv:3: not UTF-8 text"):
        load_partition(f, path3())
    assert opened == ["g.tsv", "g.tsv"]


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
