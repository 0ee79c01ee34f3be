"""Timing of ``run_sim3`` serial and on two forked worker processes.

Run from the repository root (outside the default ``testpaths``, so the test
suite never collects it):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_pool.py

One case, the shape of the benchmark's sim3 workload: v = 300 in 8 blocks,
between rates 0.2 and 0.3, 8 replicates, Louvain and CNM, so 16 cells and
32 detections. ``workers=2`` forks its pool inside the timed call; its gain
over ``workers=1`` depends on the host really running two processes at once.
"""

from __future__ import annotations

import pytest

from csvnet.simharness import run_sim3


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sim3(benchmark, workers):
    rows = benchmark.pedantic(run_sim3, kwargs=dict(
        theta_between_levels=(0.2, 0.3), replicates=8, seed=31, v=300,
        workers=workers), rounds=3, warmup_rounds=1)
    assert len(rows) == 32
