"""Community detection and hierarchical clustering tests.

Small-graph optima are checked against exhaustive enumeration of set
partitions, and complete linkage against a direct max-over-members oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csvnet.clustering import (
    Dendrogram,
    DistanceMatrix,
    complete_linkage,
    cut_dendrogram,
    fast_greedy,
    from_newick,
    louvain,
    louvain_with_history,
    modularity,
    to_newick,
)
from csvnet.graph import Graph, Partition
from oracles import linkage_reference, random_graph, recursive_from_newick


def make_graph(n: int, edges: list[tuple[int, int]]) -> Graph:
    return Graph(tuple(f"n{i}" for i in range(n)), np.array(edges, dtype=np.int64))


def two_cliques(k: int) -> Graph:
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    return make_graph(2 * k, edges)


def bridged_triangles() -> Graph:
    return make_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def all_partitions(n: int):
    """Every set partition of range(n), as restricted-growth assignments."""
    asg = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield list(asg)
            return
        for c in range(used + 1):
            asg[i] = c
            yield from rec(i + 1, used + 1 if c == used else used)

    yield from rec(1, 1) if n > 1 else iter([[0]])


def max_modularity(graph: Graph) -> float:
    best = -np.inf
    for asg in all_partitions(graph.n_nodes):
        q = modularity(graph, Partition(np.array(asg), max(asg) + 1))
        best = max(best, q)
    return best


def communities(partition: Partition) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for node, c in enumerate(partition.assignment):
        groups.setdefault(int(c), set()).add(node)
    return {frozenset(g) for g in groups.values()}


def test_modularity_two_cliques_exact():
    graph = two_cliques(5)
    part = Partition(np.repeat([0, 1], 5), 2)
    assert abs(modularity(graph, part) - 0.5) < 1e-12


def test_modularity_single_community_zero():
    graph = bridged_triangles()
    assert modularity(graph, Partition(np.zeros(6, dtype=np.int64), 1)) == 0.0


def test_modularity_bridged_triangles_exact():
    graph = bridged_triangles()
    part = Partition(np.repeat([0, 1], 3), 2)
    assert abs(modularity(graph, part) - 5.0 / 14.0) < 1e-12


@pytest.mark.parametrize("func", [
    lambda graph: modularity(graph, Partition(np.zeros(2, dtype=np.int64), 1)),
    lambda graph: louvain(graph, 0),
    lambda graph: louvain_with_history(graph, 0),
    fast_greedy,
], ids=["modularity", "louvain", "louvain_with_history", "fast_greedy"])
def test_modularity_rejects_edgeless_and_directed(func):
    empty = Graph(("a", "b"), np.empty((0, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="at least one edge"):
        func(empty)
    arrows = Graph(("a", "b"), np.array([[0, 1]]), directed=True)
    with pytest.raises(ValueError, match="undirected"):
        func(arrows)


def test_modularity_relabel_invariance():
    rng = np.random.default_rng(7)
    graph = random_graph(rng, 12, 24)
    asg = rng.integers(0, 4, size=12)
    base = modularity(graph, Partition(asg, 4))
    perm = rng.permutation(4)
    assert modularity(graph, Partition(perm[asg], 4)) == pytest.approx(base, abs=1e-14)


def test_louvain_recovers_planted_cliques():
    graph = two_cliques(5)
    part = louvain(graph, seed=3)
    assert communities(part) == {frozenset(range(5)), frozenset(range(5, 10))}


def test_louvain_bridged_triangles_reaches_optimum():
    graph = bridged_triangles()
    part = louvain(graph, seed=0)
    assert communities(part) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    assert modularity(graph, part) == pytest.approx(max_modularity(graph), abs=1e-12)


def test_louvain_never_beats_exhaustive_optimum():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(4, 8))
        graph = random_graph(rng, n, int(rng.integers(n - 1, 2 * n)))
        part = louvain(graph, seed=int(rng.integers(0, 100)))
        assert modularity(graph, part) <= max_modularity(graph) + 1e-12


def test_louvain_complete_graph_single_community():
    graph = make_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert louvain(graph, seed=1).q == 1


def test_louvain_deterministic_per_seed():
    rng = np.random.default_rng(5)
    graph = random_graph(rng, 30, 80)
    first = louvain(graph, seed=42)
    second = louvain(graph, seed=42)
    assert np.array_equal(first.assignment, second.assignment)


def test_louvain_history_is_nondecreasing():
    rng = np.random.default_rng(19)
    for trial in range(5):
        graph = random_graph(rng, 25, 60)
        part, history = louvain_with_history(graph, seed=trial)
        assert len(history) >= 1
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
        assert modularity(graph, part) == pytest.approx(history[-1], abs=1e-9)


def test_fast_greedy_recovers_planted_structure():
    assert communities(fast_greedy(two_cliques(5))) == {
        frozenset(range(5)),
        frozenset(range(5, 10)),
    }
    assert communities(fast_greedy(bridged_triangles())) == {
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
    }


def test_fast_greedy_star_single_community():
    star = make_graph(5, [(0, i) for i in range(1, 5)])
    assert fast_greedy(star).q == 1


def test_fast_greedy_bounded_by_exhaustive_optimum():
    rng = np.random.default_rng(23)
    for _ in range(6):
        n = int(rng.integers(4, 8))
        graph = random_graph(rng, n, int(rng.integers(n - 1, 2 * n)))
        q = modularity(graph, fast_greedy(graph))
        assert q <= max_modularity(graph) + 1e-12


def test_fast_greedy_deterministic():
    rng = np.random.default_rng(31)
    graph = random_graph(rng, 40, 100)
    assert np.array_equal(fast_greedy(graph).assignment, fast_greedy(graph).assignment)


def test_fast_greedy_rejects_edgeless():
    empty = Graph(("a",), np.empty((0, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        fast_greedy(empty)


def three_leaf_matrix() -> DistanceMatrix:
    values = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
    return DistanceMatrix(("a", "b", "c"), values)


def test_complete_linkage_hand_case():
    dend = complete_linkage(three_leaf_matrix())
    assert dend.merges == ((0, 1, 1.0), (2, 3, 5.0))
    assert dend.leaf_labels == ("a", "b", "c")


def test_complete_linkage_two_labels():
    dend = complete_linkage(DistanceMatrix(("x", "y"), np.array([[0.0, 2.5], [2.5, 0.0]])))
    assert dend.merges == ((0, 1, 2.5),)


def test_complete_linkage_matches_brute_force():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        raw = rng.integers(1, 6, size=(n, n)).astype(np.float64)
        values = np.triu(raw, 1)
        values = values + values.T
        dist = DistanceMatrix(tuple(f"v{i}" for i in range(n)), values)
        assert complete_linkage(dist).merges == linkage_reference(dist.values)


def test_complete_linkage_heights_nondecreasing():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        raw = rng.random((n, n))
        values = np.triu(raw, 1)
        values = values + values.T
        dist = DistanceMatrix(tuple(f"v{i}" for i in range(n)), values)
        heights = [h for _, _, h in complete_linkage(dist).merges]
        assert all(b >= a for a, b in zip(heights, heights[1:]))


def test_cut_dendrogram_levels():
    dend = complete_linkage(three_leaf_matrix())
    assert cut_dendrogram(dend, 1) == {"a": 0, "b": 0, "c": 0}
    assert cut_dendrogram(dend, 2) == {"a": 0, "b": 0, "c": 1}
    assert cut_dendrogram(dend, 3) == {"a": 0, "b": 1, "c": 2}
    with pytest.raises(ValueError):
        cut_dendrogram(dend, 0)
    with pytest.raises(ValueError):
        cut_dendrogram(dend, 4)


def test_newick_output_examples():
    two = complete_linkage(DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert to_newick(two) == "(a:1,b:1);"
    assert to_newick(complete_linkage(three_leaf_matrix())) == "((a:1,b:1):4,c:5);"


def test_to_newick_deep_caterpillar():
    # One leaf joins per merge, so the tree is as deep as it is wide.
    n = 1500
    merges = [(0, 1, 1.0)] + [(n + t - 1, t + 1, float(t + 1)) for t in range(1, n - 1)]
    dend = Dendrogram(tuple(merges), tuple(f"l{i}" for i in range(n)))
    expect = "(l0:1,l1:1)"
    for t in range(2, n):
        expect = f"({expect}:1,l{t}:{t})"
    assert to_newick(dend) == expect + ";"


def test_dendrogram_needs_two_leaves():
    # from_newick reads no one-leaf tree, so none may be built to write.
    with pytest.raises(ValueError, match="at least two leaves"):
        Dendrogram((), ("a",))
    with pytest.raises(ValueError, match="at least two leaves"):
        from_newick("a:0;")


def test_newick_rejects_delimiter_labels():
    dend = Dendrogram(((0, 1, 1.0),), ("a(", "b"))
    with pytest.raises(ValueError):
        to_newick(dend)


def test_newick_round_trip():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        raw = np.round(rng.random((n, n)) * 3, 3)
        values = np.triu(raw, 1)
        values = values + values.T
        labels = tuple(f"v{i}" for i in range(n))
        dend = complete_linkage(DistanceMatrix(labels, values))
        parsed = from_newick(to_newick(dend))
        assert set(parsed.leaf_labels) == set(labels)

        def merge_sets(d: Dendrogram) -> set[tuple[frozenset[str], float]]:
            sets: list[frozenset[str]] = [frozenset({lab}) for lab in d.leaf_labels]
            out = set()
            for a, b, h in d.merges:
                sets.append(sets[a] | sets[b])
                out.add((sets[-1], round(h, 9)))
            return out

        assert merge_sets(parsed) == merge_sets(dend)


def test_from_newick_rejects_garbage():
    with pytest.raises(ValueError):
        from_newick("(a:1,b:1)")
    with pytest.raises(ValueError):
        from_newick("(a:1,b:1);extra;")
    with pytest.raises(ValueError):
        from_newick("a:1;")


@pytest.mark.parametrize("text", ["(;", "((a:1,b:1):1;", "(  e ;", "(a,;",
                                  "(a:1,b:1;"])
def test_from_newick_truncated_raises_value_error(text):
    with pytest.raises(ValueError):
        from_newick(text)


def test_from_newick_deep_nesting_raises_value_error():
    # Nothing closes, so the scan runs out of text however deep it goes.
    with pytest.raises(ValueError, match="expected ','"):
        from_newick("(" * 3000 + ";")


@pytest.mark.parametrize("n", [1500, 5000])
def test_from_newick_reads_deep_caterpillar(n):
    merges = [(0, 1, 1.0)] + [(n + t - 1, t + 1, float(t + 1)) for t in range(1, n - 1)]
    dend = Dendrogram(tuple(merges), tuple(f"l{i}" for i in range(n)))
    parsed = from_newick(to_newick(dend))
    assert parsed.merges == dend.merges
    assert parsed.leaf_labels == dend.leaf_labels


def _newick_outcome(parse, text: str) -> str:
    try:
        dend = parse(text)
    except ValueError:
        return "ValueError"
    return repr((dend.merges, dend.leaf_labels))  # repr: a NaN height equals itself


_NEWICK_LABELS = ["", "a.b", "1e", "a", "b", "ab", "1", "e", "-", "1.e", "a-b", ".", "e-1"]


@st.composite
def _edited_newick(draw) -> str:
    """``to_newick`` of a random complete-linkage tree, then up to 3 edits."""
    labels = draw(st.lists(st.sampled_from(_NEWICK_LABELS), min_size=2,
                           max_size=12, unique=True))
    n = len(labels)
    scale = draw(st.sampled_from([1, 3, 8]))
    raw = np.array(draw(st.lists(st.integers(0, 20), min_size=n * n,
                                 max_size=n * n))).reshape(n, n) / scale
    values = np.triu(raw, 1)
    dend = complete_linkage(DistanceMatrix(tuple(labels), values + values.T))
    text = list(to_newick(dend))
    chars = st.sampled_from("(),:;ab1.e- ")
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        i = draw(st.integers(0, len(text) - (op != "insert")))
        if op == "insert":
            text.insert(i, draw(chars))
        elif op == "delete":
            del text[i]
        else:
            text[i] = draw(chars)
    return "".join(text)


@settings(max_examples=500, deadline=None)
@given(_edited_newick())
def test_from_newick_matches_recursive_oracle(text):
    assert (_newick_outcome(from_newick, text)
            == _newick_outcome(recursive_from_newick, text))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="(),:;ab1.e- ", max_size=40))
def test_from_newick_fuzz_parses_or_rejects(text):
    try:
        result = from_newick(text)
    except ValueError:
        return
    assert isinstance(result, Dendrogram)


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "b"), np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "b"), np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        complete_linkage(DistanceMatrix(("a",), np.zeros((1, 1))))
