"""The benchmark's workloads: seeded inputs, csvnet CLI commands, units of
work, and independent checks of every output.

Each workload's ``prepare`` writes its inputs (if any) from the workload seed
with the benchmark's own numpy code, never with csvnet's sampler, and returns
a :class:`Plan`. A check returns ``None`` when an output is correct and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ALPHA = 0.05  # csvnet's default --alpha, which every command uses


@dataclass
class Command:
    """One CLI invocation: arguments after ``python -m csvnet``."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[[], str | None]
    threaded: bool = False  # accepts --threads


@dataclass
class Plan:
    commands: list[Command]
    units: Callable[[], float]  # work units per round, read after a round
    unit_name: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[Path, Path, int, bool], Plan]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _data_lines(path: Path) -> list[list[str]]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line.split())
    return out


def _canonical_edges(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unique undirected edges (lo, hi) without self-loops."""
    keep = u != v
    pairs = np.stack([np.minimum(u[keep], v[keep]),
                      np.maximum(u[keep], v[keep])], axis=1)
    return np.unique(pairs, axis=0)


def _edge_lines(labels: list[str], edges: np.ndarray,
                rng: np.random.Generator) -> list[str]:
    """Edge lines in random order, each in a random orientation."""
    flip = rng.random(len(edges)) < 0.5
    return [f"{labels[b]}\t{labels[a]}" if f else f"{labels[a]}\t{labels[b]}"
            for (a, b), f in zip(edges.tolist(), flip.tolist())]


# --- validate -------------------------------------------------------------------


def _midp_family(edges: np.ndarray, comm: np.ndarray, q: int):
    """Raw mid-p-values and degenerate flags of the whole test family,
    recomputed with scipy.stats.hypergeom: within tests first, then
    between tests r < s."""
    from scipy.stats import hypergeom

    m = len(edges)
    cu, cv = comm[edges[:, 0]], comm[edges[:, 1]]
    stubs = np.bincount(np.concatenate([cu, cv]), minlength=q)
    links = np.zeros((q, q), dtype=np.int64)
    np.add.at(links, (np.minimum(cu, cv), np.maximum(cu, cv)), 1)
    total = 2 * m

    x_in = 2 * np.diag(links)
    p_in = (hypergeom.sf(x_in, total, stubs, stubs)
            + 0.5 * hypergeom.pmf(x_in, total, stubs, stubs))
    r, s = np.triu_indices(q, k=1)
    x_bt = links[r, s]
    p_bt = (hypergeom.cdf(x_bt - 1, total, stubs[s], stubs[r])
            + 0.5 * hypergeom.pmf(x_bt, total, stubs[s], stubs[r]))
    raw = np.minimum(np.concatenate([p_in, p_bt]), 1.0)
    degenerate = np.concatenate([stubs == 0, (stubs[r] == 0) | (stubs[s] == 0)])
    raw[degenerate] = 0.5
    return raw, degenerate


def _bh(p: np.ndarray) -> np.ndarray:
    order = np.argsort(p, kind="stable")
    ranked = p[order] * p.size / np.arange(1, p.size + 1)
    adj = np.minimum(np.minimum.accumulate(ranked[::-1])[::-1], 1.0)
    out = np.empty_like(adj)
    out[order] = adj
    return out


def expected_indices(edges: np.ndarray, comm: np.ndarray, q: int) -> tuple[float, float, int]:
    """(UCSV, WCSV, number of tests) from an independent recomputation."""
    raw, degenerate = _midp_family(edges, comm, q)
    adj = _bh(raw)
    hit = (adj <= ALPHA) & ~degenerate
    n = raw.size
    return int(hit.sum()) / n, float(np.sum((ALPHA - adj[hit]) / ALPHA)) / n, n


def _compare_indices(ucsv: float, wcsv: float, n_tests: int, expect) -> str | None:
    e_ucsv, e_wcsv, e_tests = expect
    if n_tests != e_tests:
        return f"{n_tests} tests, expected {e_tests}"
    if ucsv != e_ucsv:
        return f"UCSV {ucsv!r} differs from recomputed {e_ucsv!r}"
    if not abs(wcsv - e_wcsv) <= 1e-9:
        return f"WCSV {wcsv!r} differs from recomputed {e_wcsv!r}"
    return None


def check_validate_json(path: Path, expect) -> str | None:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return _compare_indices(payload["ucsv"], payload["wcsv"],
                                len(payload["tests"]), expect)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable JSON report: {exc}"


def check_validate_tsv(path: Path, expect) -> str | None:
    try:
        rows = [line.split("\t") for line in
                path.read_text(encoding="utf-8").splitlines()]
        if not rows or not rows[0][0].startswith("# csvnet report"):
            return "missing TSV schema line"
        index = {r[1]: float(r[2]) for r in rows if r[0] == "index"}
        n_tests = sum(1 for r in rows if r[0] == "test")
        return _compare_indices(index["ucsv"], index["wcsv"], n_tests, expect)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable TSV report: {exc}"


def prepare_validate(inputs: Path, outputs: Path, seed: int, toy: bool) -> Plan:
    """Planted graph with ~10 edges per node (70 % inside blocks), noisy
    block labels as the partition, and an edge list with comments,
    ~1 % duplicate lines and a few self-loops."""
    v, q = (600, 12) if toy else (20_000, 200)
    rng = _rng(seed, 1)
    size = v // q
    block = np.arange(v) // size
    n_in, n_out = 7 * v, 3 * v
    b = rng.integers(0, q, n_in)
    u_in = b * size + rng.integers(0, size, n_in)
    w_in = b * size + rng.integers(0, size, n_in)
    u_out, w_out = rng.integers(0, v, n_out), rng.integers(0, v, n_out)
    cross = block[u_out] != block[w_out]
    edges = _canonical_edges(np.concatenate([u_in, u_out[cross]]),
                             np.concatenate([w_in, w_out[cross]]))
    edges = edges[rng.permutation(len(edges))]

    comm = block.copy()
    moved = rng.random(v) < 0.1
    comm[moved] = rng.integers(0, q, int(moved.sum()))
    labels = [f"u{i}" for i in range(v)]

    seen = np.zeros(v, dtype=bool)
    seen[edges.ravel()] = True
    nodes = np.flatnonzero(seen)
    lines = _edge_lines(labels, edges, rng)
    dup = rng.choice(len(edges), size=len(edges) // 100, replace=False)
    lines += _edge_lines(labels, edges[dup], rng)
    lines += [f"{labels[i]} {labels[i]}" for i in rng.choice(nodes, 5, replace=False)]
    lines = [lines[i] for i in rng.permutation(len(lines))]
    for k, at in enumerate(sorted(rng.choice(len(lines), 3, replace=False))[::-1]):
        lines[at:at] = [f"# section {k}", ""]
    inputs.mkdir(parents=True, exist_ok=True)
    graph_path, part_path = inputs / "graph.tsv", inputs / "partition.tsv"
    graph_path.write_text(f"# benchmark edge list seed={seed}\n" + "\n".join(lines) + "\n",
                          encoding="utf-8")
    part_lines = [f"{labels[i]}\tc{comm[i]}" for i in rng.permutation(nodes)]
    part_path.write_text("# node community\n" + "\n".join(part_lines) + "\n",
                         encoding="utf-8")

    # The family is scored on the seen nodes; community ids are densified
    # over those, since relabelling communities changes no index.
    present, dense = np.unique(comm[nodes], return_inverse=True)
    dense_comm = np.full(v, -1, dtype=np.int64)
    dense_comm[nodes] = dense
    cache: list = []

    def expect():
        if not cache:
            cache.append(expected_indices(edges, dense_comm, present.size))
        return cache[0]

    json_out, tsv_out = outputs / "report.json", outputs / "report.tsv"
    common = ["validate", str(graph_path), str(part_path)]
    commands = [
        Command(common + ["--format", "json", "--out", str(json_out)], [json_out],
                lambda: check_validate_json(json_out, expect())),
        Command(common + ["--format", "tsv", "--out", str(tsv_out)], [tsv_out],
                lambda: check_validate_tsv(tsv_out, expect())),
    ]
    n_tests = present.size * (present.size + 1) // 2
    return Plan(commands, lambda: 2.0 * n_tests, "tests")


# --- compare --------------------------------------------------------------------


def _read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    names = rows[0][1:]
    if [r[0] for r in rows[1:]] != names:
        raise ValueError(f"{path.name}: row names differ from the header")
    return names, np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def check_compare(out_dir: Path, names: list[str]) -> str | None:
    import csvnet.clustering as clustering

    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        n_pairs = len(names) * (len(names) - 1) // 2
        if summary["failed_pairs"] != 0 or len(summary["pairs"]) != n_pairs:
            return (f"{summary['failed_pairs']} failed pairs of "
                    f"{len(summary['pairs'])}, expected 0 of {n_pairs}")
        for matrix in ("R.tsv", "S.tsv", "D.tsv"):
            got, d = _read_matrix(out_dir / matrix)
            if got != names or d.shape != (len(names), len(names)):
                return f"{matrix} labels {got}, expected {names}"
        # d now holds D.
        if not np.array_equal(d, d.T):
            return "D is not symmetric"
        if np.any(np.diag(d) != 0.0):
            return "D has a non-zero diagonal"
        if d.min() < 0.0 or d.max() > 1.0:
            return "D leaves [0, 1]"
        text = (out_dir / "dendrogram.nwk").read_text(encoding="utf-8").strip()
        tree = clustering.from_newick(text)
        if sorted(tree.leaf_labels) != sorted(names):
            return f"dendrogram leaves {sorted(tree.leaf_labels)}, expected {sorted(names)}"
        if clustering.to_newick(tree) != text:
            return "dendrogram does not round-trip through from_newick"
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable comparison output: {exc}"
    return None


def prepare_compare(inputs: Path, outputs: Path, seed: int, toy: bool) -> Plan:
    """Six planted 8-block graphs over one 400-node universe; each drops a
    different 5 % of the nodes and has its own between-block rate."""
    v, blocks, theta_w = (60, 4, 0.5) if toy else (400, 8, 0.15)
    rates = (0.01, 0.03, 0.06) * 2
    rng = _rng(seed, 2)
    block = np.arange(v) * blocks // v
    labels = [f"v{i}" for i in range(v)]
    drop = v // 20
    dropped = rng.permutation(v)[:drop * len(rates)].reshape(len(rates), drop)
    names, paths = [], []
    iu, ju = np.triu_indices(v, k=1)
    inputs.mkdir(parents=True, exist_ok=True)
    for k, rate in enumerate(rates):
        alive = np.ones(v, dtype=bool)
        alive[dropped[k]] = False
        prob = np.where(block[iu] == block[ju], theta_w, rate)
        hit = (rng.random(iu.size) < prob) & alive[iu] & alive[ju]
        edges = np.stack([iu[hit], ju[hit]], axis=1)
        edges = edges[rng.permutation(len(edges))]
        name = f"net{k}"
        path = inputs / f"{name}.tsv"
        path.write_text("\n".join(_edge_lines(labels, edges, rng)) + "\n",
                        encoding="utf-8")
        names.append(name)
        paths.append(str(path))
    out_dir = outputs / "compare"
    files = [out_dir / f for f in ("R.tsv", "S.tsv", "D.tsv", "dendrogram.nwk",
                                   "summary.json")]
    command = Command(["compare", *paths, "--seed", str(seed), "--out-dir", str(out_dir)],
                      files, lambda: check_compare(out_dir, names), threaded=True)
    n_pairs = len(names) * (len(names) - 1) // 2
    return Plan([command], lambda: float(n_pairs), "pairs")


# --- sim3 -----------------------------------------------------------------------

SIM3_COLUMNS = ["sim_id", "replicate", "v", "theta_between", "degradation_q",
                "algorithm", "modularity", "ucsv", "wcsv", "seed"]
ALGORITHMS = ("louvain", "fast_greedy")


def check_sim3(path: Path, v: int, levels, replicates: int) -> str | None:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != "# csvnet simulation schema_version=1":
            return "missing sim3 schema line"
        if lines[1].split("\t") != SIM3_COLUMNS:
            return "unexpected sim3 columns"
        rows = [dict(zip(SIM3_COLUMNS, line.split("\t"))) for line in lines[2:]]
        expect = {(lv, rep, alg) for lv in levels for rep in range(replicates)
                  for alg in ALGORITHMS}
        got = {(float(r["theta_between"]), int(r["replicate"]), r["algorithm"])
               for r in rows}
        if len(rows) != len(expect) or got != expect:
            return f"{len(rows)} sim3 rows, expected {len(expect)} distinct cells"
        for r in rows:
            if r["sim_id"] != "sim3" or int(r["v"]) != v:
                return f"bad row header fields: {r}"
            if not all(0.0 <= float(r[k]) <= 1.0 for k in ("ucsv", "wcsv")):
                return f"index outside [0, 1]: {r}"
            if not -0.5 <= float(r["modularity"]) <= 1.0:
                return f"modularity out of range: {r}"
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable sim3 table: {exc}"
    return None


def prepare_sim3(inputs: Path, outputs: Path, seed: int, toy: bool) -> Plan:
    v, levels, replicates = (60, (0.2,), 1) if toy else (300, (0.2, 0.3), 8)
    out = outputs / "sim3.tsv"
    argv = ["simulate", "sim3", "--v", str(v), "--levels", *map(str, levels),
            "--replicates", str(replicates), "--algorithms", *ALGORITHMS,
            "--seed", str(seed), "--out", str(out)]
    detections = len(levels) * replicates * len(ALGORITHMS)
    return Plan([Command(argv, [out], lambda: check_sim3(out, v, levels, replicates),
                         threaded=True)],
                lambda: float(detections), "detections")


# --- generate -------------------------------------------------------------------


def _block_sizes(v: int, blocks: int) -> list[int]:
    base, extra = divmod(v, blocks)
    return [base + 1 if r < extra else base for r in range(blocks)]


def check_generate(graph_path: Path, part_path: Path, v: int, blocks: int,
                   theta_w: float, theta_b: float) -> str | None:
    try:
        sizes = _block_sizes(v, blocks)
        block = np.repeat(np.arange(blocks), sizes)
        edges = np.array([[int(a[1:]), int(b[1:])] for a, b in _data_lines(graph_path)],
                         dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= v):
            return "edge endpoint outside n0..n{v-1}"
        if len(_canonical_edges(edges[:, 0], edges[:, 1])) != len(edges):
            return "duplicate edges or self-loops in the sampled graph"
        within = int(np.count_nonzero(block[edges[:, 0]] == block[edges[:, 1]]))
        pairs_w = sum(s * (s - 1) // 2 for s in sizes)
        pairs_b = v * (v - 1) // 2 - pairs_w
        for what, got, pairs, p in (("within", within, pairs_w, theta_w),
                                    ("between", len(edges) - within, pairs_b, theta_b)):
            mean, sd = pairs * p, math.sqrt(pairs * p * (1.0 - p))
            if abs(got - mean) > 4.0 * sd:
                return f"{what}-block edges {got}, expected {mean:.1f} +- 4 x {sd:.1f}"
        part = _data_lines(part_path)
        nodes = {f"n{i}" for i in np.unique(edges)}
        if len(part) != len(nodes) or {n for n, _ in part} != nodes:
            return "partition does not cover exactly the graph's nodes"
        if any(int(c) != block[int(n[1:])] for n, c in part):
            return "partition disagrees with the planted blocks"
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable generated files: {exc}"
    return None


def prepare_generate(inputs: Path, outputs: Path, seed: int, toy: bool) -> Plan:
    v, blocks, theta_w, theta_b = ((400, 4, 0.3, 0.02) if toy
                                   else (20_000, 200, 0.14, 0.0003))
    graph, part = outputs / "graph.tsv", outputs / "partition.tsv"
    argv = ["generate", "--v", str(v), "--blocks", str(blocks),
            "--theta-within", str(theta_w), "--theta-between", str(theta_b),
            "--seed", str(seed), "--out-graph", str(graph), "--out-partition", str(part)]
    command = Command(argv, [graph, part],
                      lambda: check_generate(graph, part, v, blocks, theta_w, theta_b))

    def edges_written() -> float:
        with open(graph, "rb") as fh:
            return float(sum(1 for _ in fh))

    return Plan([command], edges_written, "edges")


WORKLOADS = {w.name: w for w in (
    Workload("sim3", "detection-bound: Louvain and CNM on 16 dense planted graphs; "
             "no file parsing, little test-family work", prepare_sim3),
    Workload("validate", "test family and edge-list parsing: 20,100 tests on a "
             "200k-edge file, no detection or sampling", prepare_validate),
    Workload("compare", "paper's comparison use: 15 graph pairs, 30 Louvain runs on "
             "small sparse graphs, induced subgraphs, linkage, Newick", prepare_compare),
    Workload("generate", "DC-SBM sampler over 2e8 node pairs and edge-list writing; "
             "no detection or test family", prepare_generate),
)}
