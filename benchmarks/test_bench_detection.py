"""Timing of the two community detectors, ``fast_greedy`` and ``louvain``.

Run from the repository root (outside the default ``testpaths``, so the test
suite never collects it):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_detection.py

Four graphs: two sim3 cells (v = 300 in 8 blocks, θ_w = 0.3, θ_b 0.2 and
0.3), the larger v = 500, θ_b = 0.3 cell of acceptance criterion 6, and a
sparse 3,000-node graph (30 blocks, mean degree about 6).

Each detector builds its neighbour dicts from the edge pairs inside the
timed call. Earlier versions built a cached CSR adjacency before the timed
region, so their numbers do not compare with these.
"""

from __future__ import annotations

import numpy as np
import pytest

from csvnet.clustering import fast_greedy, louvain
from csvnet.dcsbm import equal_block_sizes, planted_partition, sample_graph, theta_matrix

CASES = {
    "sim3 v300 b0.2": (300, 8, 0.3, 0.2),
    "sim3 v300 b0.3": (300, 8, 0.3, 0.3),
    "v500 b0.3": (500, 8, 0.3, 0.3),
    "sparse v3000": (3_000, 30, 0.05, 0.0004),
}

DETECTORS = {"fast_greedy": fast_greedy, "louvain": lambda graph: louvain(graph, 0)}


def _graph(case: str):
    v, blocks, within, between = CASES[case]
    assignment = planted_partition(equal_block_sizes(v, blocks)).assignment
    return sample_graph(assignment, theta_matrix(within, between, blocks),
                        np.ones(v), 7)


@pytest.mark.parametrize("detector", sorted(DETECTORS))
@pytest.mark.parametrize("case", list(CASES))
def test_detect(benchmark, case, detector):
    graph = _graph(case)
    partition = benchmark.pedantic(DETECTORS[detector], args=(graph,),
                                   rounds=5, warmup_rounds=1)
    assert partition.n_nodes == graph.n_nodes
