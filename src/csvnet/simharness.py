"""Simulation harness: planted-partition studies at desk scale.

Three studies share one tidy row schema. Study 1 scores the planted
partition across a between-block rate grid, study 2 scores a fixed
reference partition on graphs regenerated from degraded block labels, and
study 3 scores detection algorithms. One loop runs and scores every study;
each cell draws from its own seed, ``derive_seed(seed, sim_no, *indices,
rep)``, and rows are sorted by cell key, so neither the loop order nor the
number of forked ``workers`` that run the cells (default 1, in-process) shows.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from functools import partial
from itertools import product

import numpy as np

from ._pool import pool_map
from ._rng import derive_rng, derive_seed
from .clustering import fast_greedy, louvain, modularity
from .dcsbm import (
    degrade_partition,
    equal_block_sizes,
    planted_partition,
    sample_graph,
    sample_theta_within,
    sampled_node_labels,
    theta_matrix,
)
from .graph import Graph, Partition, fmt_float, load_partition
from .indices import _check_alpha, csv_report

SCHEMA_VERSION = 1
DEFAULT_V = 500
DEFAULT_REPLICATES = 20
BLOCKS = 8  # planted blocks in every study
DEFAULT_THETA_GRID = tuple(round(0.03 * i, 10) for i in range(11))
DEFAULT_DEGRADATION_GRID = tuple(round(0.05 * i, 10) for i in range(21))
DEFAULT_SIM2_LEVELS = (0.01, 0.03, 0.06, 0.1, 0.2, 0.3)
PLANTED = "planted"


@dataclass(frozen=True)
class SimResultRow:
    """One scored (cell, replicate) observation."""

    sim_id: str
    replicate: int
    v: int
    theta_between: float
    degradation_q: float
    algorithm: str
    modularity: float
    ucsv: float
    wcsv: float
    seed: int

    def sort_key(self):
        return (self.sim_id, self.v, self.theta_between, self.degradation_q,
                self.algorithm, self.replicate)


def _study(sim_no: int, seed, axes, replicates: int, alpha, cell,
           workers: int) -> list[SimResultRow]:
    """Sorted rows over the grid of axis lengths ``axes`` and the replicates.

    ``cell(cell_seed, *indices, rep)`` gives ``(v, theta_between,
    degradation_q, graph, reference, partitions)``; ``partitions`` maps each
    algorithm to a function giving the partition to score, and modularity is
    the reference's. On an edgeless graph every test is degenerate, so all
    three scores are 0.0 and no partition is computed."""
    alpha = _check_alpha(alpha)
    if replicates < 1:
        raise ValueError("replicates must be at least 1")

    def cell_rows(key: tuple[int, ...]) -> list[SimResultRow]:
        cell_seed = derive_seed(seed, sim_no, *key)
        v, theta_rs, q_frac, graph, reference, partitions = cell(cell_seed, *key)
        q = modularity(graph, reference) if graph.n_edges else 0.0
        rows = []
        for algorithm, partition in partitions.items():
            report = csv_report(graph, partition(), alpha=alpha) if graph.n_edges else None
            scores = (report.ucsv, report.wcsv) if report else (0.0, 0.0)
            rows.append(SimResultRow(f"sim{sim_no}", key[-1], v, theta_rs, q_frac,
                                     algorithm, q, *scores, cell_seed))
        return rows

    keys = product(*map(range, axes), range(replicates))
    return sorted((row for rows in pool_map(cell_rows, keys, workers) for row in rows),
                  key=SimResultRow.sort_key)


def _check_distinct(values: list, what: str) -> list:
    """``values`` unchanged; a repeated entry would give rows that share
    every key column."""
    if len(set(values)) != len(values):
        raise ValueError(f"{what} has repeated entries")
    return values


def _check_rates(values, what: str) -> list[float]:
    out = [float(x) for x in values]
    if not out:
        raise ValueError(f"{what} must not be empty")
    if not all(0.0 <= x <= 1.0 for x in out):
        raise ValueError(f"{what} entries must lie in [0, 1]")
    return _check_distinct(out, what)


def run_sim1(v_list=(DEFAULT_V,), theta_between_grid=DEFAULT_THETA_GRID,
             replicates: int = DEFAULT_REPLICATES, seed=0, *,
             alpha: float = 0.05, workers: int = 1) -> list[SimResultRow]:
    """Score the planted partition across network sizes and between rates.

    Within rates are drawn uniformly around 0.3 (halfwidth 0.05) per block;
    weights are uniform.
    """
    v_list = _check_distinct([int(v) for v in v_list], "v_list")
    grid = _check_rates(theta_between_grid, "theta_between_grid")
    parts = [planted_partition(equal_block_sizes(v, BLOCKS)) for v in v_list]

    def cell(cell_seed: int, vi: int, ti: int, rep: int):
        v, theta_rs, part = v_list[vi], grid[ti], parts[vi]
        diag = sample_theta_within(0.3, 0.05, BLOCKS, derive_rng(cell_seed, 1))
        graph = sample_graph(part.assignment, theta_matrix(diag, theta_rs),
                             np.ones(v), derive_rng(cell_seed, 2))
        return v, theta_rs, 0.0, graph, part, {PLANTED: lambda: part}

    return _study(1, seed, (len(v_list), len(grid)), replicates, alpha, cell, workers)


def run_sim2(theta_between_levels=DEFAULT_SIM2_LEVELS,
             degradation_grid=DEFAULT_DEGRADATION_GRID,
             replicates: int = DEFAULT_REPLICATES, seed=0, *,
             v: int = DEFAULT_V, alpha: float = 0.05,
             workers: int = 1) -> list[SimResultRow]:
    """Score the reference partition on graphs built from degraded labels.

    Within rates are fixed at 0.3. For each degradation fraction the graph
    is regenerated with the degraded assignment as its block structure, and
    the undegraded reference partition is scored on it.
    """
    levels = _check_rates(theta_between_levels, "theta_between_levels")
    grid = _check_rates(degradation_grid, "degradation_grid")
    v = int(v)
    reference = planted_partition(equal_block_sizes(v, BLOCKS))

    def cell(cell_seed: int, li: int, qi: int, rep: int):
        theta_rs, q_frac = levels[li], grid[qi]
        degraded = degrade_partition(reference, q_frac, derive_rng(cell_seed, 1))
        graph = sample_graph(degraded.assignment, theta_matrix(0.3, theta_rs, BLOCKS),
                             np.ones(v), derive_rng(cell_seed, 2))
        return v, theta_rs, q_frac, graph, reference, {PLANTED: lambda: reference}

    return _study(2, seed, (len(levels), len(grid)), replicates, alpha, cell, workers)


def run_sim3(theta_between_levels=(0.01, 0.1, 0.2, 0.3),
             replicates: int = DEFAULT_REPLICATES,
             algorithms=("louvain", "fast_greedy"), seed=0, *,
             v: int = DEFAULT_V, alpha: float = 0.05,
             workers: int = 1) -> list[SimResultRow]:
    """Score detection algorithms on shared graphs per replicate.

    Algorithms are "louvain", "fast_greedy", or "external:<path>" pointing
    at a partition file over the generated node labels n0..n{v-1}; each file
    is read once, before the first graph is drawn. The modularity column is
    the planted partition's, and an edgeless draw scores as ``_study`` says.
    """
    levels = _check_rates(theta_between_levels, "theta_between_levels")
    algorithms = _check_distinct([str(a) for a in algorithms], "algorithms")
    if not algorithms:
        raise ValueError("algorithms must not be empty")
    for algorithm in algorithms:
        if algorithm not in ("louvain", "fast_greedy") \
                and not algorithm.startswith("external:"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
    v = int(v)
    planted = planted_partition(equal_block_sizes(v, BLOCKS))
    edgeless = Graph(sampled_node_labels(v), np.empty((0, 2), dtype=np.int64))
    external = {a: load_partition(a[len("external:"):], edgeless)
                for a in algorithms if a.startswith("external:")}

    def detect(graph: Graph, cell_seed: int, ai: int, algorithm: str) -> Partition:
        if algorithm == "louvain":
            return louvain(graph, derive_rng(cell_seed, 2, ai))
        return fast_greedy(graph) if algorithm == "fast_greedy" else external[algorithm]

    def cell(cell_seed: int, li: int, rep: int):
        graph = sample_graph(planted.assignment, theta_matrix(0.3, levels[li], BLOCKS),
                             np.ones(v), derive_rng(cell_seed, 1))
        return v, levels[li], 0.0, graph, planted, {
            a: partial(detect, graph, cell_seed, ai, a) for ai, a in enumerate(algorithms)}

    return _study(3, seed, (len(levels),), replicates, alpha, cell, workers)


def rows_to_tsv(rows) -> str:
    """Tidy TSV with a schema comment and one line per row."""
    lines = [f"# csvnet simulation schema_version={SCHEMA_VERSION}",
             "\t".join(field.name for field in fields(SimResultRow))]
    for row in rows:
        lines.append("\t".join(fmt_float(x) if isinstance(x, float) else str(x)
                               for x in astuple(row)))
    return "\n".join(lines) + "\n"
