"""Two-network and N-network comparison via relative CSV indices.

Each graph pair is reduced to its common nodes, partitioned with Louvain,
filtered to communities above a minimum size, and cross-scored: R holds the
relative indices, S = (R + Rᵀ)/2, and D = 1 − S feeds complete linkage.
Per-pair random streams are derived from the graph names, so results depend
neither on input order nor on the number of forked ``workers`` (default 1,
in-process) that run the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pool import pool_map
from ._rng import derive_rng
from .clustering import Dendrogram, DistanceMatrix, complete_linkage, louvain
from .graph import Graph, Partition, fmt_float, induced_subgraph
from .indices import _check_alpha, csv_report

SCHEMA_VERSION = 1  # of the summary.json that ``csvnet compare`` writes


def _check_min_size(min_size: int) -> None:
    if min_size < 1:
        raise ValueError("min_size must be at least 1")


def filter_small_communities(partition: Partition,
                             min_size: int) -> tuple[np.ndarray, Partition]:
    """Drop communities of size <= min_size.

    Returns the indices of surviving nodes (ascending) and the re-indexed
    partition over them; community ids densify in ascending old-id order.
    """
    _check_min_size(min_size)
    survivors = np.flatnonzero(partition.sizes() > min_size)
    if survivors.size == 0:
        raise ValueError("no communities survive the size filter")
    new_id = np.full(partition.q, -1, dtype=np.int64)
    new_id[survivors] = np.arange(survivors.size)
    keep = np.flatnonzero(new_id[partition.assignment] >= 0)
    filtered = Partition(new_id[partition.assignment[keep]], int(survivors.size))
    return keep, filtered


def _cross_score(p: Partition, keep: np.ndarray, g_own: Graph, g_other: Graph,
                 alpha: float, use_wcsv: bool) -> tuple[float, float, bool]:
    """(own-graph index, relative index, defined) for p over g_own's nodes
    ``keep`` (ascending). Both graphs are cut to those nodes and p is realigned
    by label onto g_other; a zero own index leaves the relative index
    undefined, recorded as 0, and g_other unscored."""
    labels = [g_own.node_labels[i] for i in keep]
    g_own = induced_subgraph(g_own, labels)
    index = "wcsv" if use_wcsv else "ucsv"
    own = getattr(csv_report(g_own, p, alpha=alpha), index)
    if own == 0.0:
        return 0.0, 0.0, False
    g_other = induced_subgraph(g_other, labels)
    by_label = {lab: int(c) for lab, c in zip(g_own.node_labels, p.assignment)}
    p_other = Partition(np.array([by_label[lab] for lab in g_other.node_labels]), p.q)
    other = getattr(csv_report(g_other, p_other, alpha=alpha), index)
    return own, other / own, True


@dataclass(eq=False)
class PairComparison:
    """Cross-scores for one unordered graph pair."""

    name_i: str
    name_j: str
    n_common: int
    r_ij: float
    r_ji: float
    defined_ij: bool
    defined_ji: bool
    own_index_i: float
    own_index_j: float
    q_i: int
    q_j: int
    error: str | None = None


@dataclass(eq=False)
class ComparisonResult:
    names: tuple[str, ...]
    r_matrix: np.ndarray
    defined: np.ndarray
    s_matrix: np.ndarray
    d_matrix: DistanceMatrix
    per_pair: tuple[PairComparison, ...]

    def dendrogram(self) -> Dendrogram:
        return complete_linkage(self.d_matrix)


def _name_key(name: str) -> int:
    # Imported here: hashlib loads OpenSSL's libcrypto (about 3.5 MiB), which
    # no other command needs.
    import hashlib
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _pair_detail(g1: Graph, g2: Graph, alpha: float, min_size: int, seed,
                 use_wcsv: bool, names: tuple[str, str]) -> PairComparison:
    common = set(g1.node_labels) & set(g2.node_labels)
    if not common:
        raise ValueError("graphs share no node labels")
    g1c = induced_subgraph(g1, common)
    g2c = induced_subgraph(g2, common)
    h1, h2 = _name_key(names[0]), _name_key(names[1])
    lo, hi = min(h1, h2), max(h1, h2)
    p1 = louvain(g1c, derive_rng(seed, lo, hi, h1))
    p2 = louvain(g2c, derive_rng(seed, lo, hi, h2))
    keep1, p1f = filter_small_communities(p1, min_size)
    keep2, p2f = filter_small_communities(p2, min_size)
    own1, r12, def12 = _cross_score(p1f, keep1, g1c, g2c, alpha, use_wcsv)
    own2, r21, def21 = _cross_score(p2f, keep2, g2c, g1c, alpha, use_wcsv)
    return PairComparison(names[0], names[1], len(common), r12, r21,
                          def12, def21, own1, own2, p1f.q, p2f.q)


def compare_all(graphs, alpha: float = 0.05, min_size: int = 5, seed=0,
                use_wcsv: bool = False, *, workers: int = 1) -> ComparisonResult:
    """Pairwise relative indices for named graphs, plus S and D matrices.

    Pair failures (no common nodes, no surviving communities, edgeless
    overlap) are recorded on the pair and leave zero, undefined entries; bad
    arguments raise before any pair runs.
    """
    items = [(str(name), g) for name, g in graphs]
    names = tuple(name for name, _ in items)
    if len(items) < 2:
        raise ValueError("need at least two graphs to compare")
    if len(set(names)) != len(names):
        raise ValueError("graph names must be unique")
    _check_alpha(alpha)
    _check_min_size(min_size)
    n = len(items)

    def one_pair(pair: tuple[int, int]) -> PairComparison:
        i, j = pair
        name_i, g_i = items[i]
        name_j, g_j = items[j]
        try:
            return _pair_detail(g_i, g_j, alpha, min_size, seed,
                                use_wcsv, (name_i, name_j))
        except ValueError as exc:
            return PairComparison(name_i, name_j, 0, 0.0, 0.0, False,
                                  False, 0.0, 0.0, 0, 0, error=str(exc))

    index_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    details = pool_map(one_pair, index_pairs, workers)
    r = np.eye(n)
    defined = np.eye(n, dtype=bool)
    for (i, j), detail in zip(index_pairs, details):
        r[i, j], r[j, i] = detail.r_ij, detail.r_ji
        defined[i, j], defined[j, i] = detail.defined_ij, detail.defined_ji
    s = (r + r.T) / 2.0
    d = np.clip(1.0 - s, 0.0, 1.0)
    np.fill_diagonal(d, 0.0)
    result = ComparisonResult(names, r, defined, s,
                              DistanceMatrix(names, d), tuple(details))
    result.r_matrix.setflags(write=False)
    result.defined.setflags(write=False)
    result.s_matrix.setflags(write=False)
    return result


def matrix_tsv(labels, values: np.ndarray) -> str:
    """Square labeled matrix as TSV with a header row and row names."""
    labels = [str(x) for x in labels]
    lines = ["name\t" + "\t".join(labels)]
    for label, row in zip(labels, np.asarray(values)):
        lines.append(label + "\t" + "\t".join(map(fmt_float, row)))
    return "\n".join(lines) + "\n"
