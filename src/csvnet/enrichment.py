"""One-tailed enrichment tests of a partition against its host graph.

Each community is tested for overenrichment of internal links and each
community pair for underenrichment of cross links, under a hypergeometric
null parameterized by total degrees. Raw mid-p-values are adjusted with
Benjamini-Hochberg across the whole family of tests at once.

The family is only ever built whole, by :func:`enrichment_matrix`, from one
bincount of links per community pair and one :func:`mid_p_family` call;
single tests are read back through :meth:`EnrichmentMatrix.result`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import Graph, Partition
# lower_mid_p and upper_mid_p are not called here, but perfbench/traced.py
# wraps this module's bindings of them (and of bh_adjust).
from .stats import bh_adjust, lower_mid_p, mid_p_family, upper_mid_p

WITHIN_OVER = "within-over"
BETWEEN_UNDER = "between-under"


# Kept beside the columns for lookups, and because perfbench/traced.py reads it.
@dataclass(frozen=True)
class EnrichmentResult:
    """Outcome of one enrichment test between communities ``r`` and ``s``."""

    r: int
    s: int
    direction: str
    n_obs: int
    mu0: float
    raw_p: float
    adj_p: float | None = None
    degenerate: bool = False

    def __post_init__(self) -> None:
        if (self.r == self.s) != (self.direction == WITHIN_OVER):
            raise ValueError("direction inconsistent with community pair")
        if self.adj_p is not None and self.adj_p < self.raw_p - 1e-15:
            raise ValueError("adjusted p-value below raw p-value")

    def rejected(self, alpha: float) -> bool:
        """Whether this test rejects its null at level ``alpha``.

        Degenerate tests never reject regardless of their p-value.
        """
        if self.adj_p is None:
            raise ValueError("family adjustment has not been applied")
        return not self.degenerate and self.adj_p <= alpha


# Column name -> dtype, in the field order of EnrichmentResult minus direction.
_COLUMNS = {"r": np.int64, "s": np.int64, "n_obs": np.int64, "mu0": np.float64,
            "raw_p": np.float64, "adj_p": np.float64, "degenerate": np.bool_}
_RECORD_BLOCK = 1 << 10  # tests per block of records(), and per write of a report


@dataclass(eq=False)
class EnrichmentMatrix:
    """All within and between tests for one (graph, partition) pair.

    Each field is a read-only numpy column in family order: within tests by
    community id, then between tests lexicographically (undirected keeps
    r < s; directed keeps both orientations).
    """

    q: int
    directed: bool
    r: np.ndarray
    s: np.ndarray
    n_obs: np.ndarray
    mu0: np.ndarray
    raw_p: np.ndarray
    adj_p: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("the test family needs at least one community")
        expect = self.q * self.q if self.directed else self.q * (self.q + 1) // 2
        for name, dtype in _COLUMNS.items():
            col = np.array(getattr(self, name), dtype=dtype)
            if col.shape != (expect,):
                raise ValueError(f"expected {expect} results, got {col.size} in {name}")
            if dtype is np.float64 and not np.isfinite(col).all():
                raise ValueError(f"non-finite value in {name}")
            col.setflags(write=False)
            setattr(self, name, col)

    def rejected(self, alpha: float) -> np.ndarray:
        """Mask of the tests rejecting at level ``alpha``; degenerate tests never do."""
        return ~self.degenerate & (self.adj_p <= alpha)

    def _rows(self, lo: int, hi: int) -> Iterator[tuple]:
        """Tuples of tests ``lo`` to ``hi - 1`` in the field order of EnrichmentResult."""
        cols = [getattr(self, name)[lo:hi].tolist() for name in _COLUMNS]
        direction = [WITHIN_OVER if r == s else BETWEEN_UNDER for r, s in zip(cols[0], cols[1])]
        return zip(cols[0], cols[1], direction, *cols[2:])

    def records(self) -> Iterator[Iterator[tuple]]:
        """Per-test tuples in family order and in blocks of ``_RECORD_BLOCK``
        tests: only the block being read is held as Python objects."""
        for lo in range(0, self.r.size, _RECORD_BLOCK):
            yield self._rows(lo, lo + _RECORD_BLOCK)

    # Built only on request: perfbench/traced.py counts tests through it.
    @cached_property
    def results(self) -> tuple[EnrichmentResult, ...]:
        """Read-only per-test view, built on first access."""
        return tuple(EnrichmentResult(*rec) for block in self.records() for rec in block)

    def check_community(self, r: int) -> None:
        """Raise ValueError unless ``r`` is a community id of this family."""
        if not 0 <= r < self.q:
            raise ValueError(f"community id {r} out of range")

    def result(self, r: int, s: int) -> EnrichmentResult:
        """Lookup by community pair; undirected between pairs accept either order."""
        self.check_community(r)
        self.check_community(s)
        if not self.directed and r > s:
            r, s = s, r
        (test,) = np.flatnonzero((self.r == r) & (self.s == s))
        (row,) = self._rows(test, test + 1)
        return EnrichmentResult(*row)


def _block_counts(graph: Graph, partition: Partition) -> np.ndarray:
    """q x q observed-link counts: stubs on the diagonal (undirected), arrows
    per orientation (directed)."""
    q = partition.q
    asg = partition.assignment
    flat = asg[graph.edges[:, 0]]
    flat *= q
    flat += asg[graph.edges[:, 1]]
    links = np.bincount(flat, minlength=q * q).reshape(q, q)
    # Undirected: each edge counts once per orientation, and counts are
    # integers, so the transpose adds the other orientation exactly.
    return links if graph.directed else links + links.T


def enrichment_matrix(graph: Graph, partition: Partition) -> EnrichmentMatrix:
    """Run the full test family and attach BH-adjusted p-values.

    Ordering is deterministic: within tests by community id, then between
    tests lexicographically (undirected keeps r < s; directed keeps both
    orientations). A test of a zero-degree community has a point-mass null
    and so the engine's mid-p 0.5; the ``degenerate`` column flags it, and it
    never rejects.
    """
    if partition.n_nodes != graph.n_nodes:
        raise ValueError("partition does not match graph size")
    q = partition.q
    links = _block_counts(graph, partition)
    if graph.directed:
        r, s = np.nonzero(~np.eye(q, dtype=bool))
    else:
        r, s = np.triu_indices(q, k=1)
    r = np.concatenate([np.arange(q), r])
    s = np.concatenate([np.arange(q), s])
    # Draws are r's outgoing stubs, successes s's incoming ones.
    n_draw, n_succ = links.sum(axis=1)[r], links.sum(axis=0)[s]
    n_total = int(links.sum())  # a Python int: each mean is one rounded division
    n_obs = links[r, s]
    raw = mid_p_family(n_obs, n_total, n_succ, n_draw, r == s)
    mu0 = [a * b / n_total if n_total else 0.0
           for a, b in zip(n_draw.tolist(), n_succ.tolist())]
    return EnrichmentMatrix(q, graph.directed, r, s, n_obs, mu0, raw,
                            bh_adjust(raw), (n_draw == 0) | (n_succ == 0))
