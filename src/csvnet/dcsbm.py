"""Degree-corrected stochastic blockmodel sampling and partition degradation.

Every unordered node pair (i, j) carries an independent Bernoulli edge with
probability min(w_i w_j theta[C_i, C_j], 1). Per-block weight normalization
keeps the average nodal weight at 1, so theta entries read as plain block
densities when weights are uniform.

The sampler draws one uniform per node pair, block pair by block pair, and
compares it with the pair's probability. It draws each block pair's uniforms
into one reused buffer, which bounds its memory; the stream is the same as
one draw per block pair, because consecutive draws from a Generator continue
one sequence. It then builds probabilities for candidates only. The filter
is exact: weights are positive and a rounded float product is monotone in
each factor, so every pair's probability is at most the block pair's bound
max(w_r) * max(w_s) * theta[r, s], and a uniform at or above the bound
rejects the pair whatever its own probability. Where the bound exceeds 1,
some pairs may be clamped to 1; there every pair of the buffer is
evaluated, so the clamped count in the warning stays exact. Time is still
linear in the number of node pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng
from .graph import Graph, Partition

# Uniforms drawn per call to the generator: bounds the sampler's working
# memory whatever the block sizes.
_BUFFER = 1 << 16


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
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.shape != (q, q):
            raise ValueError(f"theta must be {q}x{q}")
        if not np.all((theta >= 0.0) & (theta <= 1.0)):
            raise ValueError("theta entries must lie in [0, 1]")
        if not np.allclose(theta, theta.T, atol=1e-12, rtol=0.0):
            raise ValueError("theta must be symmetric")
        self.theta = theta
        v = sum(self.block_sizes)
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (v,):
            raise ValueError(f"expected {v} node weights")
        if w.min() <= 0.0:
            raise ValueError("weights must be positive")
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
    per-block vector), ``between`` everywhere else."""
    within = np.atleast_1d(np.asarray(within, dtype=np.float64))
    if q is None:
        q = within.size
    if within.size == 1:
        within = np.full(q, within[0])
    if within.size != q:
        raise ValueError("within diagonal length does not match q")
    theta = np.full((q, q), float(between))
    np.fill_diagonal(theta, within)
    return theta


def normalize_weights(raw, partition: Partition) -> np.ndarray:
    """Scale raw weights so each block sums to its size."""
    w = np.asarray(raw, dtype=np.float64).copy()
    if w.shape != (partition.n_nodes,):
        raise ValueError("one raw weight per node required")
    if w.min() <= 0.0:
        raise ValueError("raw weights must be positive")
    sizes = partition.sizes()
    sums = np.bincount(partition.assignment, weights=w, minlength=partition.q)
    for r in range(partition.q):
        if sizes[r]:
            w[partition.assignment == r] *= sizes[r] / sums[r]
    return w


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


def sample_graph(assignment, theta, weights, seed,
                 labels: tuple[str, ...] | None = None) -> Graph:
    """Draw one undirected graph from block rates over a fixed assignment.

    Blocks referenced by ``assignment`` may be empty (theta rows for absent
    blocks are simply unused). Uniform variates are consumed blockwise over
    pairs r <= s in lexicographic order, skipping zero-rate blocks, which
    makes the draw bit-reproducible for a given seed.
    """
    asg = np.asarray(assignment, dtype=np.int64)
    theta = np.asarray(theta, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    v = asg.size
    q = theta.shape[0]
    if w.shape != (v,):
        raise ValueError("one weight per node required")
    if not np.all(w > 0.0):
        raise ValueError("weights must be positive")
    if asg.size and (asg.min() < 0 or asg.max() >= q):
        raise ValueError("assignment references a block outside theta")
    rng = derive_rng(seed)
    members = [np.flatnonzero(asg == r) for r in range(q)]
    wmax = [float(w[m].max()) if m.size else 0.0 for m in members]
    largest = max((m.size for m in members), default=0)
    buf = np.empty(min(_BUFFER, largest * largest))
    heads: list[np.ndarray] = []
    tails: list[np.ndarray] = []
    n_clamped = 0
    for r in range(q):
        rows = members[r]
        nr = rows.size
        # Flat index of pair (row, row + 1) in the block's row-major upper
        # triangle, for each row that has pairs.
        row = np.arange(max(nr - 1, 0))
        starts = row * (2 * nr - row - 1) // 2
        row_heads: list[np.ndarray] = []
        row_tails: list[np.ndarray] = []
        for s in range(r, q):
            rate = theta[r, s]
            cols = members[s]
            ns = cols.size
            if rate == 0.0 or not nr or not ns:
                continue
            n_pairs = nr * (nr - 1) // 2 if r == s else nr * ns
            # Every pair's probability is at most this bound (see the
            # module docstring); above 1 some pairs may clamp.
            bound = wmax[r] * wmax[s] * rate
            full = bound > 1.0
            for lo in range(0, n_pairs, buf.size):
                draws = rng.random(out=buf[:min(buf.size, n_pairs - lo)])
                hit = (np.arange(draws.size) if full
                       else (draws < bound).nonzero()[0])
                if not hit.size:
                    continue
                flat = hit + lo
                if r == s:
                    a = np.searchsorted(starts, flat, side="right") - 1
                    b = flat - starts[a] + a + 1
                else:
                    a, b = np.divmod(flat, ns)
                u, vv = rows[a], cols[b]
                probs = w[u] * w[vv] * rate
                if full:
                    n_clamped += int(np.count_nonzero(probs > 1.0))
                    np.minimum(probs, 1.0, out=probs)
                mask = draws[hit] < probs
                row_heads.append(u[mask])
                row_tails.append(vv[mask])
        if row_heads:  # one array per block row keeps the lists short
            heads.append(np.concatenate(row_heads))
            tails.append(np.concatenate(row_tails))
    if n_clamped:
        warnings.warn(f"clamped {n_clamped} pair probabilities to 1; "
                      "weights or rates may be misconfigured", stacklevel=2)
    edges = (np.stack([np.concatenate(heads), np.concatenate(tails)], axis=1)
             if heads else np.empty((0, 2), dtype=np.int64))
    if labels is None:
        labels = tuple(f"n{i}" for i in range(v))
    return Graph(labels, edges)


def sample_dcsbm(config: DcsbmConfig, seed=None) -> tuple[Graph, Partition]:
    """Sample one graph plus its planted partition from a validated config."""
    partition = planted_partition(config.block_sizes)
    graph = sample_graph(partition.assignment, config.theta, config.weights,
                         config.seed if seed is None else seed)
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
