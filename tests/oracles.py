"""Independent oracles shared across test modules.

The exact ones are computed with Fractions and math.comb, never with the
package's own floating-point code paths. ``full_support_pmf`` and
``full_support_mid_p`` are the float64 reference for bit-identity: the
whole-support pmf construction the package used before its pmfs stopped at
float64 underflow. ``pairwise_sample_graph`` is the blockmodel sampler that
builds every node pair's probability; the package's sampler must match its
edges, warning and random stream bit for bit.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import comb

import numpy as np

from csvnet._rng import derive_rng
from csvnet.graph import Graph
from csvnet.stats import HypergeomParams


def exact_pmf(x: int, N: int, K: int, n: int) -> Fraction:
    if x < 0 or x > n or x > K or n - x > N - K:
        return Fraction(0)
    return Fraction(comb(K, x) * comb(N - K, n - x), comb(N, n))


def exact_upper_mid_p(x: int, N: int, K: int, n: int) -> Fraction:
    hi = min(n, K)
    tail = sum((exact_pmf(t, N, K, n) for t in range(x + 1, hi + 1)), Fraction(0))
    if x < max(0, n + K - N):
        tail = Fraction(1)
    return Fraction(1, 2) * exact_pmf(x, N, K, n) + tail


def exact_lower_mid_p(x: int, N: int, K: int, n: int) -> Fraction:
    lo = max(0, n + K - N)
    tail = sum((exact_pmf(t, N, K, n) for t in range(lo, x)), Fraction(0))
    if x > min(n, K):
        tail = Fraction(1)
    return Fraction(1, 2) * exact_pmf(x, N, K, n) + tail


def full_support_pmf(N: int, K: int, n: int) -> np.ndarray:
    """Unit-normalized pmf over the whole support, indexed from its lower end."""
    lo, hi = max(0, n + K - N), min(n, K)
    if hi == lo:
        return np.ones(1)
    xs = np.arange(lo, hi, dtype=np.float64)
    ratios = (np.log((K - xs) * (n - xs))
              - np.log((xs + 1.0) * (N - K - n + xs + 1.0)))
    logw = np.concatenate(([0.0], np.cumsum(ratios)))
    logw -= logw.max()
    out = np.exp(logw)
    out /= out.sum()
    return out


def full_support_mid_p(xs: list[int], N: int, K: int, n: int, upper: bool) -> list[float]:
    """Upper or lower mid-p tail at each of ``xs``, summed from
    :func:`full_support_pmf`."""
    lo, hi = max(0, n + K - N), min(n, K)
    pmf = full_support_pmf(N, K, n)
    out = []
    for x in xs:
        if x < lo or x > hi:
            out.append(float(upper == (x < lo)))
            continue
        i = x - lo
        tail = pmf[i + 1:] if upper else pmf[:i]
        out.append(min(0.5 * float(pmf[i]) + float(tail.sum()), 1.0))
    return out


def bh_reference(pvalues: list[float]) -> list[float]:
    """O(m^2) definitional step-up: p_adj(i) = min_{j>=i} min(1, m p_(j) / j)."""
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    out = [0.0] * m
    for rank, i in enumerate(order, start=1):
        candidates = [min(1.0, m * pvalues[order[j - 1]] / j) for j in range(rank, m + 1)]
        out[i] = min(candidates)
    return out


def block_link_counts(graph: Graph, assignment, q: int
                      ) -> tuple[list[list[int]], list[int], list[int]]:
    """Per-edge Python count of the test family's inputs for ``q`` communities.

    Returns ``(links, outs, ins)``: ``links[r][s]`` counts links from
    community r to s (undirected: each edge both ways, so the diagonal holds
    stubs, twice the internal edges), and ``outs[r]``/``ins[r]`` sum the
    out/in stubs of r's nodes (undirected: both are the degree sums).
    """
    asg = [int(c) for c in assignment]
    links = [[0] * q for _ in range(q)]
    outs, ins = [0] * q, [0] * q
    arrows = graph.edges.tolist()
    if not graph.directed:
        arrows += [[v, u] for u, v in arrows]
    for u, v in arrows:
        links[asg[u]][asg[v]] += 1
        outs[asg[u]] += 1
        ins[asg[v]] += 1
    return links, outs, ins


def random_params(rng: np.random.Generator, n_max: int = 60) -> HypergeomParams:
    N = int(rng.integers(0, n_max + 1))
    K = int(rng.integers(0, N + 1))
    n = int(rng.integers(0, N + 1))
    return HypergeomParams(N, K, n)


def linkage_reference(values) -> tuple[tuple[int, int, float], ...]:
    """Complete linkage by recomputing max-over-members distances each step.

    Ids follow the same scheme as the library: leaves 0..n-1, the t-th merge
    creates id n+t; the merged pair minimizes (distance, id, id).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    members: dict[int, frozenset[int]] = {i: frozenset({i}) for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        for i in sorted(members):
            for j in sorted(members):
                if i >= j:
                    continue
                d = max(values[a, b] for a in members[i] for b in members[j])
                if best is None or (d, i, j) < best:
                    best = (d, i, j)
        d, i, j = best
        merges.append((i, j, float(d)))
        members[n + step] = members.pop(i) | members.pop(j)
    return tuple(merges)


def pairwise_sample_graph(assignment, theta, weights, seed,
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
    if asg.size and (asg.min() < 0 or asg.max() >= q):
        raise ValueError("assignment references a block outside theta")
    rng = derive_rng(seed)
    members = [np.flatnonzero(asg == r) for r in range(q)]
    chunks: list[np.ndarray] = []
    n_clamped = 0
    for r in range(q):
        for s in range(r, q):
            rate = theta[r, s]
            if rate == 0.0 or not members[r].size or not members[s].size:
                continue
            if r == s:
                i_loc, j_loc = np.triu_indices(members[r].size, k=1)
                u, vv = members[r][i_loc], members[r][j_loc]
            else:
                u = np.repeat(members[r], members[s].size)
                vv = np.tile(members[s], members[r].size)
            if not u.size:
                continue
            probs = w[u] * w[vv] * rate
            n_clamped += int(np.count_nonzero(probs > 1.0))
            np.minimum(probs, 1.0, out=probs)
            mask = rng.random(probs.size) < probs
            if mask.any():
                chunks.append(np.stack([u[mask], vv[mask]], axis=1))
    if n_clamped:
        warnings.warn(f"clamped {n_clamped} pair probabilities to 1; "
                      "weights or rates may be misconfigured", stacklevel=2)
    edges = (np.concatenate(chunks) if chunks
             else np.empty((0, 2), dtype=np.int64))
    if labels is None:
        labels = tuple(f"n{i}" for i in range(v))
    return Graph(labels, edges)
