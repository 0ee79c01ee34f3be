"""Timing of the validation test family: ``csv_report`` at q = 8, 50 and 200,
the ``mid_p_family`` engine alone on the q = 200 family, and the scalar
``upper_mid_p``/``lower_mid_p`` API in acceptance criterion 1's shape.

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
from csvnet.stats import HypergeomParams, lower_mid_p, mid_p_family, upper_mid_p


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
    assert len(report.matrix.results) == q * (q + 1) // 2


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


def scalar_tails(triples) -> int:
    """Both tails at every support point of each triple, one fresh
    HypergeomParams per triple, as criterion 1 reads them."""
    points = 0
    for triple in triples:
        params = HypergeomParams(*triple)
        lo, hi = params.support
        for x in range(lo, hi + 1):
            upper_mid_p(x, params)
            lower_mid_p(x, params)
        points += hi - lo + 1
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
