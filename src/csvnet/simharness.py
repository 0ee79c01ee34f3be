"""Simulation harness: planted-partition studies at desk scale.

Three studies share one tidy row schema. Study 1 scores the planted
partition across a between-block rate grid, study 2 scores a fixed
reference partition on graphs regenerated from degraded block labels, and
study 3 scores detection algorithms. Every cell draws from its own derived
seed, and rows are sorted by cell key, so the loop order never shows in a
table.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng, derive_seed
from .clustering import fast_greedy, louvain, modularity
from .dcsbm import (
    degrade_partition,
    equal_block_sizes,
    planted_partition,
    sample_graph,
    sample_theta_within,
    theta_matrix,
)
from .graph import Graph, Partition, fmt_float, load_partition
from .indices import csv_report

SCHEMA_VERSION = 1
DEFAULT_V = 500
DEFAULT_REPLICATES = 20
BLOCKS = 8  # planted blocks in every study
DEFAULT_THETA_GRID = tuple(round(0.03 * i, 10) for i in range(11))
DEFAULT_DEGRADATION_GRID = tuple(round(0.05 * i, 10) for i in range(21))
DEFAULT_SIM2_LEVELS = (0.01, 0.03, 0.06, 0.1, 0.2, 0.3)
PLANTED = "planted"

_COLUMNS = ("sim_id", "replicate", "v", "theta_between", "degradation_q",
            "algorithm", "modularity", "ucsv", "wcsv", "seed")


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


__all__ = [
    "SimResultRow", "rows_to_tsv",
    "run_sim1", "run_sim2", "run_sim3",
]


def _quiet_run(cell, keys) -> list[SimResultRow]:
    """Run ``cell(*key)`` for every key with expected Monte-Carlo warnings
    (degenerate tests) muted; rows come back sorted, not in key order."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rows = [row for key in keys for row in cell(*key)]
    return sorted(rows, key=SimResultRow.sort_key)


def _safe_modularity(graph: Graph, partition: Partition) -> float:
    return modularity(graph, partition) if graph.n_edges else 0.0


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
             alpha: float = 0.05) -> list[SimResultRow]:
    """Score the planted partition across network sizes and between rates.

    Within rates are drawn uniformly around 0.3 (halfwidth 0.05) per block;
    weights are uniform. Edgeless draws record modularity 0.
    """
    v_list = _check_distinct([int(v) for v in v_list], "v_list")
    grid = _check_rates(theta_between_grid, "theta_between_grid")
    if replicates < 1:
        raise ValueError("replicates must be at least 1")

    def cell(vi: int, ti: int, rep: int):
        v, theta_rs = v_list[vi], grid[ti]
        cell_seed = derive_seed(seed, 1, vi, ti, rep)
        sizes = equal_block_sizes(v, BLOCKS)
        part = planted_partition(sizes)
        diag = sample_theta_within(0.3, 0.05, BLOCKS, derive_rng(cell_seed, 1))
        theta = theta_matrix(diag, theta_rs)
        graph = sample_graph(part.assignment, theta, np.ones(v),
                             derive_rng(cell_seed, 2))
        report = csv_report(graph, part, alpha=alpha)
        return [SimResultRow("sim1", rep, v, theta_rs, 0.0, PLANTED,
                             _safe_modularity(graph, part),
                             report.ucsv, report.wcsv, cell_seed)]

    return _quiet_run(cell, itertools.product(
        range(len(v_list)), range(len(grid)), range(replicates)))


def run_sim2(theta_between_levels=DEFAULT_SIM2_LEVELS,
             degradation_grid=DEFAULT_DEGRADATION_GRID,
             replicates: int = DEFAULT_REPLICATES, seed=0, *,
             v: int = DEFAULT_V, alpha: float = 0.05) -> list[SimResultRow]:
    """Score the reference partition on graphs built from degraded labels.

    Within rates are fixed at 0.3. For each degradation fraction the graph
    is regenerated with the degraded assignment as its block structure, and
    the undegraded reference partition is scored on it.
    """
    levels = _check_rates(theta_between_levels, "theta_between_levels")
    grid = _check_rates(degradation_grid, "degradation_grid")
    if replicates < 1:
        raise ValueError("replicates must be at least 1")

    def cell(li: int, qi: int, rep: int):
        theta_rs, q_frac = levels[li], grid[qi]
        cell_seed = derive_seed(seed, 2, li, qi, rep)
        sizes = equal_block_sizes(int(v), BLOCKS)
        reference = planted_partition(sizes)
        degraded = degrade_partition(reference, q_frac, derive_rng(cell_seed, 1))
        theta = theta_matrix(0.3, theta_rs, BLOCKS)
        graph = sample_graph(degraded.assignment, theta, np.ones(int(v)),
                             derive_rng(cell_seed, 2))
        report = csv_report(graph, reference, alpha=alpha)
        return [SimResultRow("sim2", rep, int(v), theta_rs, q_frac, PLANTED,
                             _safe_modularity(graph, reference),
                             report.ucsv, report.wcsv, cell_seed)]

    return _quiet_run(cell, itertools.product(
        range(len(levels)), range(len(grid)), range(replicates)))


def _detect(graph: Graph, algorithm: str, stream) -> Partition:
    if algorithm == "louvain":
        return louvain(graph, stream)
    if algorithm == "fast_greedy":
        return fast_greedy(graph)
    if algorithm.startswith("external:"):
        return load_partition(algorithm[len("external:"):], graph)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_sim3(theta_between_levels=(0.01, 0.1, 0.2, 0.3),
             replicates: int = DEFAULT_REPLICATES,
             algorithms=("louvain", "fast_greedy"), seed=0, *,
             v: int = DEFAULT_V, alpha: float = 0.05) -> list[SimResultRow]:
    """Score detection algorithms on shared graphs per replicate.

    Algorithms are "louvain", "fast_greedy", or "external:<path>" pointing
    at a partition file over the generated node labels n0..n{v-1}.
    """
    levels = _check_rates(theta_between_levels, "theta_between_levels")
    algorithms = _check_distinct([str(a) for a in algorithms], "algorithms")
    if not algorithms:
        raise ValueError("algorithms must not be empty")
    for algorithm in algorithms:
        if algorithm not in ("louvain", "fast_greedy") \
                and not algorithm.startswith("external:"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
    if replicates < 1:
        raise ValueError("replicates must be at least 1")

    def cell(li: int, rep: int):
        theta_rs = levels[li]
        cell_seed = derive_seed(seed, 3, li, rep)
        sizes = equal_block_sizes(int(v), BLOCKS)
        planted = planted_partition(sizes)
        theta = theta_matrix(0.3, theta_rs, BLOCKS)
        graph = sample_graph(planted.assignment, theta, np.ones(int(v)),
                             derive_rng(cell_seed, 1))
        planted_q = _safe_modularity(graph, planted)
        out = []
        for ai, algorithm in enumerate(algorithms):
            part = _detect(graph, algorithm, derive_rng(cell_seed, 2, ai))
            report = csv_report(graph, part, alpha=alpha)
            out.append(SimResultRow("sim3", rep, int(v), theta_rs, 0.0,
                                    algorithm, planted_q,
                                    report.ucsv, report.wcsv, cell_seed))
        return out

    return _quiet_run(cell, itertools.product(range(len(levels)),
                                              range(replicates)))


def rows_to_tsv(rows) -> str:
    """Tidy TSV with a schema comment and one line per row."""
    lines = [f"# csvnet simulation schema_version={SCHEMA_VERSION}",
             "\t".join(_COLUMNS)]
    for row in rows:
        lines.append("\t".join(fmt_float(x) if isinstance(x, float) else str(x)
                               for x in (getattr(row, col) for col in _COLUMNS)))
    return "\n".join(lines) + "\n"
