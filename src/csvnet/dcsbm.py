"""Degree-corrected stochastic blockmodel sampling and partition degradation.

Every unordered node pair (i, j) carries an independent Bernoulli edge with
probability min(w_i w_j theta[C_i, C_j], 1). Per-block weight normalization
keeps the average nodal weight at 1, so theta entries read as plain block
densities when weights are uniform.

The sampler's cost follows the edges, not the node pairs. Weights are
positive and a rounded float product is monotone in each factor, so no pair
of block pair (r, s) is likelier than p_max = min(max(w_r) * max(w_s) *
theta[r, s], 1). Geometric gaps between Bernoulli(p_max) successes (Batagelj
& Brandes 2005, Phys. Rev. E 71:036113) pick candidates; a uniform u keeps
one when u * p_max < p_ij. Where p_max is 1, every pair is a candidate, so
the clamped-pair count stays exact, and u * 1 < 1 keeps them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng
from .graph import Graph, Partition

# Version 1 drew one uniform per node pair: one seed, different graphs.
SAMPLER_VERSION = 2
_BATCH = 1 << 14  # gaps per round of consecutive block pairs; bounds memory
_MARGIN = 5.0  # a round draws ceil(mu + _MARGIN * (sigma + 2)) gaps per block pair


def _check_theta(theta) -> np.ndarray:
    """``theta`` as floats: square, symmetric, with entries in [0, 1]."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[0] != theta.shape[1]:
        raise ValueError("theta must be a square matrix")
    if not np.all((theta >= 0.0) & (theta <= 1.0)):
        raise ValueError("theta entries must lie in [0, 1]")
    # The range check has rejected NaN and inf, so no np.allclose is needed.
    if not (np.abs(theta - theta.T) <= 1e-12).all():
        raise ValueError("theta must be symmetric")
    return theta


def _check_weights(weights, n: int) -> np.ndarray:
    """``weights`` as floats: one per node, each positive and finite."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"expected {n} node weights")
    if not np.all((w > 0.0) & (w < np.inf)):
        raise ValueError("weights must be positive and finite")
    return w


@dataclass(eq=False)
class DcsbmConfig:
    """Planted-partition generator configuration."""

    block_sizes: tuple[int, ...]
    theta: np.ndarray
    weights: np.ndarray
    seed: int = 0

    def __post_init__(self) -> None:
        self.block_sizes = tuple(int(s) for s in self.block_sizes)
        if not self.block_sizes or min(self.block_sizes) < 1:
            raise ValueError("block sizes must be positive")
        q = len(self.block_sizes)
        self.theta = _check_theta(self.theta)
        if len(self.theta) != q:
            raise ValueError(f"theta must be {q}x{q}")
        w = _check_weights(self.weights, sum(self.block_sizes))
        sums = np.bincount(planted_partition(self.block_sizes).assignment,
                           weights=w, minlength=q)
        if not np.allclose(sums, self.block_sizes, atol=1e-9, rtol=0.0):
            raise ValueError("weights must sum to the block size within each block")
        self.weights = w


def equal_block_sizes(v: int, p: int) -> tuple[int, ...]:
    """Split v nodes into p near-equal blocks (remainder spread one per block)."""
    if p < 1 or v < p:
        raise ValueError("need at least one node per block")
    base, extra = divmod(v, p)
    return tuple(base + 1 if r < extra else base for r in range(p))


def planted_partition(block_sizes) -> Partition:
    sizes = [int(s) for s in block_sizes]
    return Partition(np.repeat(np.arange(len(sizes)), sizes), len(sizes))


def theta_matrix(within, between: float, q: int | None = None) -> np.ndarray:
    """Symmetric block-rate matrix: ``within`` on the diagonal (scalar or
    per-block vector), ``between`` everywhere else; every rate in [0, 1]."""
    within = np.atleast_1d(np.asarray(within, dtype=np.float64))
    if q is None:
        q = within.size
    if within.size == 1:
        within = np.full(q, within[0])
    if within.size != q:
        raise ValueError("within diagonal length does not match q")
    theta = np.full((q, q), float(between))
    np.fill_diagonal(theta, within)
    return _check_theta(theta)


def normalize_weights(raw, partition: Partition) -> np.ndarray:
    """Scale raw weights so each block sums to its size."""
    w = _check_weights(raw, partition.n_nodes)
    sizes = partition.sizes()
    sums = np.bincount(partition.assignment, weights=w, minlength=partition.q)
    scale = np.divide(sizes, sums, out=np.zeros(partition.q), where=sizes > 0)
    return w * scale[partition.assignment]


def powerlaw_weights(partition: Partition, shape: float = 3.0, seed=0) -> np.ndarray:
    """Pareto-tailed nodal weights, normalized per block."""
    rng = derive_rng(seed)
    raw = 1.0 + rng.pareto(shape, size=partition.n_nodes)
    return normalize_weights(raw, partition)


def sample_theta_within(mean: float, halfwidth: float, q: int, seed) -> np.ndarray:
    """q independent uniform draws on [mean - halfwidth, mean + halfwidth]."""
    if halfwidth < 0:
        raise ValueError("halfwidth must be nonnegative")
    lo, hi = mean - halfwidth, mean + halfwidth
    if lo < 0.0 or hi > 1.0:
        raise ValueError("theta interval must lie inside [0, 1]")
    rng = derive_rng(seed)
    return rng.uniform(lo, hi, size=q)


def sampled_node_labels(v: int) -> tuple[str, ...]:
    """The labels n0..n{v-1} that :func:`sample_graph` gives its ``v`` nodes."""
    return tuple(f"n{i}" for i in range(v))


def _slots(left: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gaps per block pair and round: at most ``left``, which always reach the end."""
    n = np.ceil(left * p + _MARGIN * (np.sqrt(left * p * (1.0 - p)) + 2.0))
    return np.minimum(np.minimum(n, left), _BATCH).astype(np.int64)


def _triangle(flat: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of ``flat`` in the strict upper triangle of an n x n block."""
    c = 2 * n - 1  # row a starts at a * (c - a) / 2; the float guess is off by <= 1
    a = ((c - np.sqrt(c * c - 8 * flat)) // 2).astype(np.int64)
    a -= a * (c - a) // 2 > flat
    a += (a + 1) * (c - a - 1) // 2 <= flat
    return a, flat - a * (c - a) // 2 + a + 1


def _skip_edges(asg, theta, w, rng) -> tuple[np.ndarray, int]:
    """Edges and clamped-pair count of one draw; returning frees its temporaries."""
    q = len(theta)
    order = np.argsort(asg, kind="stable")  # nodes by block, ascending within
    sizes = np.bincount(asg, minlength=q)
    first = np.cumsum(sizes) - sizes
    wmax = np.zeros(q)
    np.maximum.at(wmax, asg, w)
    r, s = np.triu_indices(q)
    total = np.where(r == s, sizes[r] * (sizes[r] - 1) // 2, sizes[r] * sizes[s])
    p_max = np.minimum(wmax[r] * wmax[s] * theta[r, s], 1.0)
    live = (total > 0) & (p_max > 0.0)
    r, s, total, p_max = r[live], s[live], total[live], p_max[live]
    batch = np.cumsum(_slots(total, p_max)) // _BATCH
    edges, n_clamped = [np.empty((0, 2), dtype=np.int64)], 0
    for j in np.split(np.arange(r.size), np.flatnonzero(np.diff(batch)) + 1):
        done = np.zeros(j.size, dtype=np.int64)  # node pairs decided so far
        while j.size:
            left = total[j] - done
            n = _slots(left, p_max[j])
            ends, lim = np.cumsum(n), np.repeat(left, n)
            # Any gap past the end ends the pair; clipping stops INT64_MAX wrapping.
            gaps = np.clip(rng.geometric(np.repeat(p_max[j], n)), 1, lim + 1)
            pos = np.cumsum(gaps)
            pos -= np.repeat(pos[ends - n] - gaps[ends - n], n)  # per pair
            hit = (pos <= lim).nonzero()[0]
            pair = np.searchsorted(ends, hit, side="right")
            k, flat = j[pair], done[pair] + pos[hit] - 1
            a, b = np.divmod(flat, sizes[s[k]])
            diag = (r[k] == s[k]).nonzero()[0]
            a[diag], b[diag] = _triangle(flat[diag], sizes[r[k[diag]]])
            pairs = np.stack([order[first[r[k]] + a], order[first[s[k]] + b]], axis=1)
            probs = w[pairs[:, 0]] * w[pairs[:, 1]] * theta[r[k], s[k]]
            n_clamped += int(np.count_nonzero(probs > 1.0))
            edges.append(pairs[rng.random(k.size) * p_max[k] < probs])
            short = pos[ends - 1] < left
            j, done = j[short], (done + pos[ends - 1])[short]
    return np.concatenate(edges), n_clamped


def sample_graph(assignment, theta, weights, seed) -> Graph:
    """Draw one undirected graph from block rates over a fixed assignment.

    Blocks referenced by ``assignment`` may be empty (theta rows for absent
    blocks are simply unused). Block pairs r <= s with a nonzero bound go in
    lexicographic order, in rounds: each draws its gaps, then its candidates'
    uniforms; pairs short of their end go on. Bit-reproducible per seed.
    """
    asg = np.asarray(assignment, dtype=np.int64)
    theta = _check_theta(theta)
    w = _check_weights(weights, asg.size)
    if asg.size and (asg.min() < 0 or asg.max() >= len(theta)):
        raise ValueError("assignment references a block outside theta")
    edges, n_clamped = _skip_edges(asg, theta, w, derive_rng(seed))
    if n_clamped:
        warnings.warn(f"clamped {n_clamped} pair probabilities to 1; "
                      "weights or rates may be misconfigured", stacklevel=2)
    return Graph(sampled_node_labels(asg.size), edges)


def sample_dcsbm(config: DcsbmConfig) -> tuple[Graph, Partition]:
    """Sample one graph plus its planted partition from a validated config."""
    partition = planted_partition(config.block_sizes)
    graph = sample_graph(partition.assignment, config.theta, config.weights, config.seed)
    return graph, partition


def degrade_partition(partition: Partition, q_frac: float, seed) -> Partition:
    """Reassign round(q_frac * n) distinct nodes to uniformly chosen other
    communities. Community count is preserved; communities may end up empty."""
    if not 0.0 <= q_frac <= 1.0:
        raise ValueError("q_frac must lie in [0, 1]")
    n = partition.n_nodes
    k = round(q_frac * n)
    if k == 0:
        return Partition(partition.assignment.copy(), partition.q)
    if partition.q < 2:
        raise ValueError("degradation requires at least two communities")
    rng = derive_rng(seed)
    chosen = rng.choice(n, size=k, replace=False)
    old = partition.assignment[chosen]
    draw = rng.integers(0, partition.q - 1, size=k)
    new = np.where(draw >= old, draw + 1, draw)
    assignment = partition.assignment.copy()
    assignment[chosen] = new
    return Partition(assignment, partition.q)
