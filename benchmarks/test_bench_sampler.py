"""Timing of the blockmodel sampler ``sample_graph``.

Run from the repository root (outside the default ``testpaths``, so the test
suite never collects it):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sampler.py

Two cases: the size of the ``generate`` benchmark workload (v = 20,000 in
200 blocks, about 2e8 node pairs and 200k edges), and two 1,500-node blocks,
whose 2.25e6-pair off-diagonal block pair spans many draw buffers.
"""

from __future__ import annotations

import numpy as np
import pytest

from csvnet.dcsbm import equal_block_sizes, planted_partition, sample_graph, theta_matrix

CASES = {
    "generate": (equal_block_sizes(20_000, 200), 0.14, 0.0003),
    "two large blocks": ((1_500, 1_500), 0.01, 0.01),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sample_graph(benchmark, case):
    sizes, within, between = CASES[case]
    assignment = planted_partition(sizes).assignment
    theta = theta_matrix(within, between, len(sizes))
    weights = np.ones(assignment.size)
    graph = benchmark.pedantic(sample_graph, args=(assignment, theta, weights, 7),
                               rounds=3, warmup_rounds=1)
    assert graph.n_edges > 0
