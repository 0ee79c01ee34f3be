"""Timing of the validation test family: ``csv_report`` at q = 8, 50 and 200.

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
