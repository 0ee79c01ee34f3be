"""Tests for the enrichment test family against exact-arithmetic oracles."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    bh_reference,
    block_link_counts,
    exact_lower_mid_p,
    exact_pmf,
    exact_upper_mid_p,
    random_graph,
)

import csvnet.enrichment as enr
from csvnet.enrichment import (
    BETWEEN_UNDER,
    WITHIN_OVER,
    EnrichmentMatrix,
    EnrichmentResult,
    enrichment_matrix,
)
from csvnet.graph import Graph, Partition


def two_triangles() -> tuple[Graph, Partition]:
    g = Graph(tuple("abcdef"),
              [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    return g, Partition(np.array([0, 0, 0, 1, 1, 1]), 2)


def orient_randomly(rng: np.random.Generator, g: Graph) -> Graph:
    """Directed copy of ``g`` with each edge pointing either way."""
    flip = rng.random(g.n_edges) < 0.5
    return Graph(g.node_labels, np.where(flip[:, None], g.edges[:, ::-1], g.edges),
                 directed=True)


# --- single tests, read from the family --------------------------------------


def test_within_two_triangles():
    g, p = two_triangles()
    res = enrichment_matrix(g, p).result(0, 0)
    assert res.direction == WITHIN_OVER
    assert res.n_obs == 6
    assert res.mu0 == pytest.approx(6 * 6 / 12)
    expect = float(exact_upper_mid_p(6, 12, 6, 6))
    assert expect == float(Fraction(1, 1848))
    assert res.raw_p == pytest.approx(expect, abs=1e-14)
    assert res.raw_p < 0.01
    assert not res.degenerate


def test_between_two_triangles():
    g, p = two_triangles()
    m = enrichment_matrix(g, p)
    res = m.result(0, 1)
    assert res.direction == BETWEEN_UNDER
    assert res.n_obs == 0
    expect = float(Fraction(1, 2) * exact_pmf(0, 12, 6, 6))
    assert res.raw_p == pytest.approx(expect, abs=1e-14)
    assert m.result(1, 1).direction == WITHIN_OVER


def test_within_complete_graph_single_community():
    n = 5
    g = Graph(tuple(f"n{i}" for i in range(n)),
              [(i, j) for i in range(n) for j in range(i + 1, n)])
    p = Partition(np.zeros(n, dtype=int), 1)
    res = enrichment_matrix(g, p).result(0, 0)
    # observed count sits at the support maximum, so only half its mass is above
    assert res.n_obs == 2 * g.n_edges
    assert res.raw_p == pytest.approx(0.5, abs=1e-14)


def test_within_isolated_community_degenerate():
    g = Graph(("a", "b", "c"), [(0, 1)])
    p = Partition(np.array([0, 0, 1]), 2)
    res = enrichment_matrix(g, p).result(1, 1)
    assert res.degenerate and res.raw_p == 0.5


def test_between_k33_sides_near_one():
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    g = Graph(tuple("abcdef"), edges)
    p = Partition(np.array([0, 0, 0, 1, 1, 1]), 2)
    res = enrichment_matrix(g, p).result(0, 1)
    assert res.n_obs == 9
    expect = float(exact_lower_mid_p(9, 18, 9, 9))
    assert res.raw_p == pytest.approx(expect, abs=1e-14)
    assert res.raw_p > 0.9999


def test_single_edge_singletons():
    g = Graph(("a", "b"), [(0, 1)])
    p = Partition(np.array([0, 1]), 2)
    m = enrichment_matrix(g, p)
    within, between = m.result(0, 0), m.result(0, 1)
    assert within.raw_p == pytest.approx(0.75, abs=1e-14)
    assert between.raw_p == pytest.approx(0.75, abs=1e-14)
    assert between.raw_p >= 0.5


def test_directed_tests():
    g = Graph(("a", "b", "c"), [(0, 1), (1, 2)], directed=True)
    p = Partition(np.array([0, 1, 2]), 3)
    m = enrichment_matrix(g, p)
    res_a = m.result(0, 0)  # indegree of {a} is 0
    assert res_a.degenerate and res_a.raw_p == 0.5
    res_ab = m.result(0, 1)
    assert res_ab.n_obs == 1
    assert res_ab.raw_p == pytest.approx(float(exact_lower_mid_p(1, 2, 1, 1)), abs=1e-14)
    assert res_ab.raw_p == pytest.approx(0.75, abs=1e-14)
    assert m.result(1, 0).n_obs == 0


# --- oracle counts -----------------------------------------------------------


def test_oracle_counts_small_graphs():
    triangle = Graph(("a", "b", "c"), [(0, 1), (1, 2), (0, 2)])
    links, outs, ins = block_link_counts(triangle, [0, 0, 0], 1)
    assert links == [[6]] and outs == ins == [6]
    path3 = Graph(("a", "b", "c"), [(0, 1), (1, 2)])
    links, outs, _ = block_link_counts(path3, [0, 1, 0], 2)
    assert links == [[0, 2], [2, 0]] and outs == [2, 2]
    links, outs, _ = block_link_counts(path3, [0, 1, 2], 3)
    assert links[0][2] == 0 and outs == [1, 2, 1]
    arrows = Graph(("a", "b", "c"), [(0, 1), (1, 2), (0, 2)], directed=True)
    links, outs, ins = block_link_counts(arrows, [0, 1, 1], 2)
    assert links == [[0, 2], [0, 1]]
    assert outs == [2, 1] and ins == [0, 3]


@pytest.mark.parametrize("directed", [False, True])
def test_block_counts_and_stub_sums_match_oracle(directed):
    rng = np.random.default_rng(16 + directed)
    for trial in range(25):
        n = int(rng.integers(2, 25))
        g = random_graph(rng, n, int(rng.integers(1, 3 * n)))
        if directed:
            g = orient_randomly(rng, g)
        q = 1 if trial == 0 else int(rng.integers(1, 6))
        asg = rng.integers(0, q, size=n)
        if trial == 1:
            q += 1  # the last community is empty
        p = Partition(asg, q)
        links, outs, ins = block_link_counts(g, asg, q)
        counts = enr._block_counts(g, p)
        assert counts.tolist() == links
        # enrichment_matrix reads draws, successes and the population from it.
        assert counts.sum(axis=1).tolist() == outs
        assert counts.sum(axis=0).tolist() == ins
        assert int(counts.sum()) == (g.n_edges if directed else 2 * g.n_edges)
        if directed:
            assert np.bincount(asg, weights=g.out_degrees, minlength=q).tolist() == outs
            assert np.bincount(asg, weights=g.in_degrees, minlength=q).tolist() == ins
        else:
            assert np.bincount(asg, weights=g.degrees, minlength=q).tolist() == outs == ins


# --- matrix assembly ---------------------------------------------------------


def test_matrix_sizes_and_order():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 12, 24)
    p = Partition(rng.integers(0, 3, size=12), 3)
    m = enrichment_matrix(g, p)
    assert len(m.results) == 6
    keys = [(res.r, res.s) for res in m.results]
    assert keys == [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]

    gd = Graph(g.node_labels, np.concatenate([g.edges, g.edges[:, ::-1]]), directed=True)
    md = enrichment_matrix(gd, p)
    assert len(md.results) == 9
    keys = [(res.r, res.s) for res in md.results]
    assert keys == [(0, 0), (1, 1), (2, 2),
                    (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]


def test_matrix_matches_single_tests_and_bh():
    """Each test of the family against the per-edge oracle counts and the
    exact rational mid-p, directed and undirected; BH against its definition."""
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(8, 20))
        g = random_graph(rng, n, int(rng.integers(n, 3 * n)))
        if trial % 2:
            g = orient_randomly(rng, g)
        q = int(rng.integers(2, 5))
        asg = rng.integers(0, q, size=n)
        p = Partition(asg, q)
        links, outs, ins = block_link_counts(g, asg, q)
        n_total = g.n_edges if g.directed else 2 * g.n_edges
        m = enrichment_matrix(g, p)
        for res in m.results:
            n_draw, n_succ = outs[res.r], ins[res.s]
            assert res.n_obs == links[res.r][res.s]
            assert res.mu0 == n_draw * n_succ / n_total
            assert res.degenerate == (n_draw == 0 or n_succ == 0)
            exact = exact_upper_mid_p if res.r == res.s else exact_lower_mid_p
            expect = (0.5 if res.degenerate
                      else float(exact(res.n_obs, n_total, n_succ, n_draw)))
            assert res.raw_p == pytest.approx(expect, rel=1e-12, abs=1e-15)
        raws = [res.raw_p for res in m.results]
        np.testing.assert_allclose([res.adj_p for res in m.results],
                                   bh_reference(raws), rtol=0, atol=0)


def test_matrix_two_triangles_all_small():
    g, p = two_triangles()
    m = enrichment_matrix(g, p)
    assert len(m.results) == 3
    expect = float(Fraction(1, 1848))
    for res in m.results:
        assert res.raw_p == pytest.approx(expect, abs=1e-14)
        assert res.adj_p == pytest.approx(expect, abs=1e-14)
        assert res.rejected(0.05)


def test_matrix_single_community():
    g, _ = two_triangles()
    p = Partition(np.zeros(6, dtype=int), 1)
    m = enrichment_matrix(g, p)
    assert len(m.results) == 1
    assert m.results[0].direction == WITHIN_OVER


def test_relabeling_leaves_test_multiset_unchanged():
    rng = np.random.default_rng(14)
    g = random_graph(rng, 15, 30)
    asg = rng.integers(0, 3, size=15)
    p = Partition(asg, 3)
    perm = np.array([2, 0, 1])
    p2 = Partition(perm[asg], 3)
    m1 = enrichment_matrix(g, p)
    m2 = enrichment_matrix(g, p2)
    key = lambda m: sorted((res.n_obs, res.raw_p) for res in m.results)
    assert key(m1) == key(m2)


def test_empty_community_is_degenerate():
    g, _ = two_triangles()
    p = Partition(np.array([0, 0, 0, 1, 1, 1]), 3)  # community 2 empty
    m = enrichment_matrix(g, p)
    assert len(m.results) == 6
    flagged = {(res.r, res.s) for res in m.results if res.degenerate}
    assert flagged == {(2, 2), (0, 2), (1, 2)}
    for res in m.results:
        if res.degenerate:
            assert res.raw_p == 0.5
            assert not res.rejected(0.05)


def test_result_lookup_and_validation():
    g, p = two_triangles()
    m = enrichment_matrix(g, p)
    assert m.result(1, 0) == m.result(0, 1)
    with pytest.raises(ValueError, match="graph size"):
        enrichment_matrix(g, Partition(np.zeros(5, dtype=int), 1))
    with pytest.raises(ValueError):
        EnrichmentResult(0, 0, BETWEEN_UNDER, 0, 0.0, 0.5)
    with pytest.raises(ValueError):
        EnrichmentResult(0, 1, BETWEEN_UNDER, 0, 0.0, 0.5, adj_p=0.1)


def test_result_rejects_out_of_range_community():
    g, p = two_triangles()
    m = enrichment_matrix(g, p)
    for r, s, bad in [(5, 0, 5), (0, 2, 2), (-1, 0, -1), (1, -1, -1)]:
        with pytest.raises(ValueError, match=f"community id {bad} out of range"):
            m.result(r, s)


def test_matrix_columns_and_lookup():
    rng = np.random.default_rng(15)
    g = random_graph(rng, 30, 70)
    p = Partition(np.arange(30) % 5, 5)
    for graph in (g, Graph(g.node_labels, g.edges, directed=True)):
        m = enrichment_matrix(graph, p)
        assert m.results is m.results  # built once, on first access
        for col in (m.r, m.s, m.n_obs, m.mu0, m.raw_p, m.adj_p, m.degenerate):
            assert col.shape == (len(m.results),) and not col.flags.writeable
        for r in range(5):
            for s in range(5):
                res = m.result(r, s)
                expect = (r, s) if graph.directed or r <= s else (s, r)
                assert (res.r, res.s) == expect
        with pytest.raises(ValueError, match="community id 5 out of range"):
            m.result(0, 5)
        assert np.array_equal(m.rejected(0.05),
                              [res.rejected(0.05) for res in m.results])
    with pytest.raises(ValueError, match="expected 3 results"):
        EnrichmentMatrix(2, False, r=[0, 1], s=[0, 1], n_obs=[0, 0], mu0=[0.0, 0.0],
                         raw_p=[0.5, 0.5], adj_p=[0.5, 0.5], degenerate=[False, False])
    columns = dict(r=[0, 1, 0], s=[0, 1, 1], n_obs=[0, 0, 0], mu0=[0.0, 0.0, 0.0],
                   raw_p=[0.5, 0.5, 0.5], adj_p=[0.5, 0.5, 0.5],
                   degenerate=[False, False, False])
    assert EnrichmentMatrix(2, False, **columns).q == 2
    for name in ("mu0", "raw_p", "adj_p"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"non-finite value in {name}"):
                EnrichmentMatrix(2, False, **(columns | {name: [0.5, bad, 0.5]}))
    empty = dict.fromkeys(columns, [])
    with pytest.raises(ValueError, match="at least one community"):
        EnrichmentMatrix(0, False, **empty)


def planted_families(q: int, seed: int) -> list[EnrichmentMatrix]:
    """The undirected and a directed family of a random graph on 10q nodes in
    q communities of 10, community q - 1 without an edge (degenerate)."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 10 * q, 30 * q)
    keep = ~np.isin(g.edges // 10, q - 1).any(axis=1)
    g = Graph(g.node_labels, g.edges[keep])
    p = Partition(np.arange(10 * q) // 10, q)
    return [enrichment_matrix(g, p), enrichment_matrix(orient_randomly(rng, g), p)]


def test_result_equals_the_per_test_view():
    for m in planted_families(6, 16):
        assert m.degenerate.any()
        for res in m.results:
            for r, s in [(res.r, res.s)] + ([] if m.directed else [(res.s, res.r)]):
                got = m.result(r, s)
                assert got == res, (r, s)
                assert list(map(type, vars(got).values())) == list(map(type, vars(res).values()))


def test_result_lookups_leave_the_per_test_view_unbuilt():
    for m in planted_families(5, 17):
        for r in range(5):
            for s in range(5):
                m.result(r, s)
        assert "results" not in vars(m)


def test_one_lookup_costs_one_test():
    # 45,150 tests undirected and 90,000 directed. Building every test's
    # object to read one peaked at 10.1 and 20.1 MiB.
    for m in planted_families(300, 18):
        tracemalloc.start()
        try:
            res = m.result(298, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak / 2**20
        assert (res.r, res.s) == ((298, 7) if m.directed else (7, 298))


def test_lookup_checks_only_the_test_it_reads():
    # Test (1, 1) has an adjusted p below its raw p: reading it raises, and
    # reading the others does not.
    m = EnrichmentMatrix(2, False, r=[0, 1, 0], s=[0, 1, 1], n_obs=[0, 0, 0],
                         mu0=[0.0, 0.0, 0.0], raw_p=[0.5, 0.5, 0.5], adj_p=[0.5, 0.1, 0.5],
                         degenerate=[False, False, False])
    assert m.result(1, 0).adj_p == m.result(0, 0).adj_p == 0.5
    with pytest.raises(ValueError, match="adjusted p-value below raw p-value"):
        m.result(1, 1)
