"""Golden outputs of the simulate, compare and validate commands.

Each case runs the CLI in-process at toy size and pins the sha256 of every
file it writes. The compare digests were recorded while that command still
ran on a thread pool, the validate digests with report schema version 2
(``indices.SCHEMA_VERSION``: every mid-p normalizer and tail a running sum),
and the simulate digests with DC-SBM sampler version 2
(``dcsbm.SAMPLER_VERSION``); any later refactor must reproduce
them byte for byte, and a change that means to alter output must version it
and re-record. The compare and validate inputs come from this file's own
numpy sampler, so a change to csvnet's generator moves only the simulate
digests.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from csvnet.cli import main

SIMULATE = {
    "sim1": (["--v", "60", "--grid", "0.0", "0.1"],
             "b31b928e621753c66c9de5feefda0200d4fe7e98c52d4cb911d2d053d8641bf7"),
    "sim2": (["--v", "60", "--levels", "0.01", "0.2",
              "--degradation-grid", "0.0", "0.5"],
             "c966e6371f4be1040da979b2431db1547a8c5d34c690e7aef192f1646c58cfdf"),
    "sim3": (["--v", "60", "--levels", "0.01", "0.2",
              "--algorithms", "louvain", "fast_greedy"],
             "f9fb6020d6e60200ec4a5e32b0706ecf288f1568b553ead63bbf4329d0d6e83a"),
    # One node per planted block, so every draw at rate 0.0 is edgeless.
    "sim3-edgeless": (["--v", "8", "--levels", "0.0", "0.3"],
                      "e4f79cdb1a1ec9b3cb40d9b7a9aede3c6a82c43a9771a8f3bee1648b138ddee0"),
}

COMPARE = {
    "R.tsv": "9958d06e11b2c16909a69be1e1fc5db77ca8dba529a0e9a7e912342f05da0008",
    "S.tsv": "026d7673d0688bddfa5feba8575d6b5429260caf402c5c89faef69139cb3b588",
    "D.tsv": "be27108f64d87bb0799eab5dfbaf7ca405ce057e197024aa23855e9b1a72dd9a",
    "dendrogram.nwk": "13cdb2839f39f6cd6d8734940dcdd9282ea9b46f6332fd33678efee569927edc",
    "summary.json": "92f148e01e663c47beb2e7669df52267ce580a53e4f2efc34a1ebee14c55776c",
}

# (directed, {format: sha256}); the graphs have v=3000 nodes in q=30 blocks
# and about 10 edges per node, so each test's support runs to a few
# thousand while its mass sits within a few hundred of the mode.
VALIDATE = {
    "undirected": (False, {
        "json": "ffe375de92d4469ebc49f3536511e92c0c4b10ff9bfc05c174e07b2c26924ca7",
        "tsv": "06e5105971583663ee4173150697cb625725af734ef4a618f7e3367932fc303b",
    }),
    "directed": (True, {
        "json": "f136ee4b515ab981547801e3ce0dc547d79637e63ba09e2b3e5d81009521ceab",
        "tsv": "db84d2c94db4a043dfbd5b23b26c3c39cab5375bb840fc5e22576db2970dd433",
    }),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def planted_edge_list(path: Path, v: int, theta_b: float, seed: int,
                      drop: int) -> str:
    """Four-block planted graph over n0..n{v-1}; the first ``drop`` nodes of
    a seeded permutation keep no edges, so the graphs overlap partially."""
    rng = np.random.default_rng([seed, v])
    block = np.arange(v) * 4 // v
    iu, ju = np.triu_indices(v, k=1)
    prob = np.where(block[iu] == block[ju], 0.4, theta_b)
    alive = np.ones(v, dtype=bool)
    alive[rng.permutation(v)[:drop]] = False
    hit = (rng.random(iu.size) < prob) & alive[iu] & alive[ju]
    path.write_text("".join(f"n{a}\tn{b}\n" for a, b in zip(iu[hit], ju[hit])),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", sorted(SIMULATE))
def test_simulate_golden(case, tmp_path):
    flags, digest = SIMULATE[case]
    out = tmp_path / f"{case}.tsv"
    assert main(["simulate", case.partition("-")[0], *flags, "--replicates", "2", "--seed", "17",
                 "--out", str(out)]) == 0
    assert sha256(out) == digest


def test_compare_golden(tmp_path):
    paths = [planted_edge_list(tmp_path / f"net{i}.tsv", 60, theta_b, 30 + i, drop)
             for i, (theta_b, drop) in enumerate(((0.05, 0), (0.1, 4), (0.15, 8)))]
    out_dir = tmp_path / "out"
    assert main(["compare", *paths, "--seed", "3", "--out-dir", str(out_dir)]) == 0
    assert {name: sha256(out_dir / name) for name in COMPARE} == COMPARE


def planted_validate_inputs(tmp_path: Path, directed: bool) -> tuple[str, str]:
    """Seeded planted graph (v=3000, q=30 blocks of uneven size, ~10 edges
    per node, 70 % of them inside a block) and its block partition."""
    v, q, m = 3000, 30, 30_000
    rng = np.random.default_rng([29, int(directed)])
    bounds = np.concatenate(([0], np.sort(rng.choice(np.arange(1, v), q - 1,
                                                     replace=False)), [v]))
    block = np.repeat(np.arange(q), np.diff(bounds))
    u = rng.integers(0, v, size=m)
    start, size = bounds[block[u]], np.diff(bounds)[block[u]]
    inside = start + (rng.random(m) * size).astype(np.int64)
    w = np.where(rng.random(m) < 0.7, inside, rng.integers(0, v, size=m))
    keep = u != w
    pairs = np.stack([u[keep], w[keep]], axis=1)
    if not directed:
        pairs = np.sort(pairs, axis=1)
    pairs = np.unique(pairs, axis=0)
    graph = tmp_path / "graph.tsv"
    graph.write_text("".join(f"n{a}\tn{b}\n" for a, b in pairs.tolist()),
                     encoding="utf-8")
    part = tmp_path / "part.tsv"
    part.write_text("".join(f"n{i}\tc{block[i]}\n" for i in range(v)),
                    encoding="utf-8")
    return str(graph), str(part)


@pytest.mark.parametrize("case", sorted(VALIDATE))
def test_validate_golden(case, tmp_path):
    directed, digests = VALIDATE[case]
    graph, part = planted_validate_inputs(tmp_path, directed)
    flags = ["--directed"] if directed else []
    got = {}
    for fmt in digests:
        out = tmp_path / f"report.{fmt}"
        assert main(["validate", graph, part, *flags, "--format", fmt,
                     "--out", str(out)]) == 0
        got[fmt] = sha256(out)
    assert got == digests
