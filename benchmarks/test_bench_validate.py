"""Timing and peak memory of the whole ``validate`` command at ten times the
validate benchmark's size.

Run from the repository root (outside the default ``testpaths``, so the test
suite never collects it):

    PYTHONPATH=src python -m pytest benchmarks/test_bench_validate.py

The input is built from a seed when the module runs, in the validate
benchmark's shape: v = 200,000 nodes in q = 1,000 blocks of 200, about 1.94M
distinct edges (70 % of the draws inside a block) written in random order
and orientation, about 1 % repeated lines, five self-loops, comment and
blank lines, and a partition that moves 10 % of the nodes to a random
block, so the family has 500,500 tests. Each case runs
``perfbench/peak.py PEAK validate ...`` in a fresh process, once per round,
and stores that process's peak RSS in the benchmark's ``extra_info``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
V, Q = 200_000, 1_000


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    rng = np.random.default_rng([43, V])
    size = V // Q
    b = rng.integers(0, Q, 7 * V)
    u = np.concatenate([b * size + rng.integers(0, size, b.size), rng.integers(0, V, 3 * V)])
    w = np.concatenate([b * size + rng.integers(0, size, b.size), rng.integers(0, V, 3 * V)])
    keep = u != w
    edges = np.unique(np.sort(np.stack([u[keep], w[keep]], axis=1), axis=1), axis=0)
    loops = rng.choice(V, 5, replace=False)
    rows = np.concatenate([edges, edges[rng.choice(len(edges), len(edges) // 100)],
                           np.stack([loops, loops], axis=1)])
    flip = rng.random(len(rows)) < 0.5
    rows[flip] = rows[flip, ::-1]
    rows = rows[rng.permutation(len(rows))]
    root = tmp_path_factory.mktemp("validate")
    graph_path, part_path = root / "graph.tsv", root / "partition.tsv"
    # Lines are formatted a block at a time; a comment and a blank line
    # come before each of three random rows.
    cuts = [0, *np.sort(rng.choice(len(rows), 3, replace=False)).tolist(), len(rows)]
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write("# edge list\n")
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            if k:
                fh.write(f"# section {k - 1}\n\n")
            for at in range(lo, hi, 1 << 16):
                block = rows[at:min(at + (1 << 16), hi)].tolist()
                fh.write("".join([f"u{a}\tu{c}\n" for a, c in block]))
    nodes = np.unique(edges)
    comm = nodes // size
    moved = rng.random(nodes.size) < 0.1
    comm[moved] = rng.integers(0, Q, int(moved.sum()))
    order = rng.permutation(nodes.size)
    part_path.write_text("".join([f"u{i}\tc{c}\n" for i, c in
                                  zip(nodes[order].tolist(), comm[order].tolist())]),
                         encoding="utf-8")
    return graph_path, part_path, root


def _validate(files, fmt: str) -> tuple[Path, int]:
    """Run validate through perfbench/peak.py; (report path, peak KiB)."""
    graph_path, part_path, root = files
    out, peak = root / f"report.{fmt}", root / f"peak.{fmt}"
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = os.environ | {"PYTHONPATH": src + os.pathsep + path if path else src}
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "peak.py"), str(peak),
                    "validate", str(graph_path), str(part_path), "--format", fmt,
                    "--out", str(out)], cwd=ROOT, env=env, check=True,
                   stderr=subprocess.DEVNULL)
    return out, int(peak.read_text(encoding="ascii"))


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_validate_10x(benchmark, files, fmt):
    out, kib = benchmark.pedantic(_validate, args=(files, fmt), rounds=3)
    benchmark.extra_info["peak_rss_mib"] = kib / 1024
    row = '      "degenerate": ' if fmt == "json" else "test\t"
    with open(out, encoding="utf-8") as fh:
        assert sum(line.startswith(row) for line in fh) == Q * (Q + 1) // 2
