"""Timing of the blockmodel sampler ``sample_graph``.

Run from the repository root (outside the default ``testpaths``, so the test
suite never collects it):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sampler.py

Four cases:

- the size of the ``generate`` benchmark workload (v = 20,000 in 200
  blocks, about 2e8 node pairs and 200k edges);
- two 1,500-node blocks, whose 2.25e6-pair off-diagonal block pair needs
  more gaps than one round holds;
- 1,000 singleton blocks (5e5 block pairs of one node pair each), where a
  per-block-pair cost would dominate;
- v = 100,000 in 1,000 blocks at a mean degree of about 20 (1e6 edges,
  5e5 block pairs, 5e9 node pairs).
"""

from __future__ import annotations

import numpy as np
import pytest

from csvnet.dcsbm import equal_block_sizes, planted_partition, sample_graph, theta_matrix

CASES = {
    "generate": (equal_block_sizes(20_000, 200), 0.14, 0.0003),
    "two large blocks": ((1_500, 1_500), 0.01, 0.01),
    "1,000 singleton blocks": ((1,) * 1_000, 0.5, 0.005),
    "v=100k, 1,000 blocks": (equal_block_sizes(100_000, 1_000), 0.1, 0.0001),
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
