"""Timing of the edge-list and partition readers ``load_graph`` and
``load_partition``.

Run from the repository root (outside the default ``testpaths``, so the test
suite never collects it):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_load.py

The input has the shape of the validate benchmark's: 20,000 nodes in 200
blocks, about 189k distinct edges written as about 190k lines in random
order and orientation, with about 1 % repeated lines, five self-loops, and
comment and blank lines; the partition file has one line per node.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from csvnet.graph import load_graph, load_partition

V, Q = 20_000, 200


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    rng = np.random.default_rng(7)
    size = V // Q
    b = rng.integers(0, Q, 7 * V)
    u = np.concatenate([b * size + rng.integers(0, size, b.size), rng.integers(0, V, 3 * V)])
    w = np.concatenate([b * size + rng.integers(0, size, b.size), rng.integers(0, V, 3 * V)])
    keep = u != w
    edges = np.unique(np.sort(np.stack([u[keep], w[keep]], axis=1), axis=1), axis=0)
    edges = edges[rng.permutation(len(edges))]
    edges = np.concatenate([edges, edges[rng.choice(len(edges), len(edges) // 100)]])
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    lines = [f"u{a}\tu{c}" for a, c in edges.tolist()]
    lines += [f"u{i} u{i}" for i in rng.choice(V, 5, replace=False).tolist()]
    lines = [lines[i] for i in rng.permutation(len(lines))]
    for k, at in enumerate(sorted(rng.choice(len(lines), 3, replace=False))[::-1]):
        lines[at:at] = [f"# section {k}", ""]
    root = tmp_path_factory.mktemp("load")
    graph_path, part_path = root / "graph.tsv", root / "partition.tsv"
    graph_path.write_text("# edge list\n" + "\n".join(lines) + "\n", encoding="utf-8")
    nodes = np.unique(edges)
    part_path.write_text("".join(f"u{i}\tc{i // size}\n" for i in rng.permutation(nodes)),
                         encoding="utf-8")
    return graph_path, part_path


def _load_graph(path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return load_graph(path)


def test_load_graph(benchmark, files):
    graph = benchmark.pedantic(_load_graph, args=(files[0],), rounds=5, warmup_rounds=1)
    assert graph.n_nodes == V and graph.n_edges > 180_000


def test_load_partition(benchmark, files):
    graph = _load_graph(files[0])
    partition = benchmark.pedantic(load_partition, args=(files[1], graph), rounds=5,
                                   warmup_rounds=1)
    assert partition.q == Q
