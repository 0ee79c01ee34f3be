"""Timing of the validation test family: ``csv_report`` at q = 8, 50 and 200,
the ``mid_p_family`` engine alone on the q = 200 family and on a family of
20 wide communities, and acceptance criterion 1's read of both tails at
every support point of small triples.

Run from the repository root (outside the default ``testpaths``, so the test
suite never collects it):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_family.py

Each case builds one seeded planted graph with 100 nodes and about 1,000
edges per community, 70 % of them inside a community, so q = 200 is the
benchmark's validate input size: 20,100 tests on about 200k edges.
"""

from __future__ import annotations

import numpy as np
import pytest

from csvnet.graph import Graph, Partition
from csvnet.indices import csv_report
from csvnet.stats import mid_p_family


def planted(q: int, seed: int = 5) -> tuple[Graph, Partition]:
    v, m = 100 * q, 1_000 * q
    rng = np.random.default_rng([seed, q])
    block = np.arange(v) // 100
    u = rng.integers(0, v, size=m)
    inside = block[u] * 100 + rng.integers(0, 100, size=m)
    w = np.where(rng.random(m) < 0.7, inside, rng.integers(0, v, size=m))
    keep = u != w
    pairs = np.unique(np.sort(np.stack([u[keep], w[keep]], axis=1), axis=1), axis=0)
    return Graph(tuple(f"n{i}" for i in range(v)), pairs), Partition(block, q)


@pytest.mark.parametrize("q", [8, 50, 200])
def test_csv_report(benchmark, q):
    graph, partition = planted(q)
    report = benchmark.pedantic(csv_report, args=(graph, partition), rounds=5,
                                warmup_rounds=1)
    assert report.matrix.r.size == q * (q + 1) // 2


def test_mid_p_family(benchmark):
    # csv_report's 20,100 tests at q = 200, without the link count, BH and
    # the report: (x, N, K, n, upper) as enrichment_matrix passes them.
    graph, partition = planted(200)
    q = partition.q
    ends = partition.assignment[graph.edges]
    links = np.bincount(ends[:, 0] * q + ends[:, 1], minlength=q * q).reshape(q, q)
    links = links + links.T
    stubs = links.sum(axis=1)
    r, s = np.triu_indices(q)
    args = (links[r, s], int(stubs.sum()), stubs[s], stubs[r], r == s)
    p = benchmark.pedantic(mid_p_family, args=args, rounds=5, warmup_rounds=1)
    assert p.size == 20_100


def test_mid_p_family_wide(benchmark):
    # 20 communities of 60,000-100,000 stubs, about 1.6 million in all: 210
    # tests whose first windows are 2,600-9,300 entries wide, against a few
    # dozen to a few hundred at q = 200 (tests/test_stats.py's wide_family).
    q = 20
    rng = np.random.default_rng([24, q])
    stubs = rng.integers(60_000, 100_001, size=q)
    n_total = int(stubs.sum())
    r, s = np.triu_indices(q)
    mean = stubs[r] * stubs[s] / n_total
    x = np.rint(mean + 3.0 * np.sqrt(mean) * rng.standard_normal(r.size)).astype(np.int64)
    args = (x, n_total, stubs[s], stubs[r], r == s)
    p = benchmark.pedantic(mid_p_family, args=args, rounds=5, warmup_rounds=1)
    assert p.size == 210


def scalar_tails(triples) -> int:
    """Both tails at every support point of each triple, one
    ``mid_p_family`` call per triple and side, as criterion 1 reads them."""
    points = 0
    for N, K, n in triples:
        xs = np.arange(max(0, n + K - N), min(n, K) + 1)
        mid_p_family(xs, N, K, n, True)
        mid_p_family(xs, N, K, n, False)
        points += xs.size
    return points


def test_scalar_mid_p(benchmark):
    # Criterion 1's 200 triples: N in [1, 60], then K and n in [0, N].
    rng = np.random.default_rng(1)
    triples = []
    for _ in range(200):
        n_pop = int(rng.integers(1, 61))
        triples.append((n_pop, int(rng.integers(0, n_pop + 1)),
                        int(rng.integers(0, n_pop + 1))))
    points = benchmark.pedantic(scalar_tails, args=(triples,), rounds=5,
                                warmup_rounds=1)
    assert points == 1_058
