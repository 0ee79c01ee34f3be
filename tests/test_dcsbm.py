"""Tests for the blockmodel generator and partition degradation."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import block_link_counts, pairwise_sample_graph

from csvnet import dcsbm
from csvnet.dcsbm import (
    DcsbmConfig,
    degrade_partition,
    equal_block_sizes,
    normalize_weights,
    planted_partition,
    powerlaw_weights,
    sample_dcsbm,
    sample_graph,
    sample_theta_within,
    theta_matrix,
)
from csvnet._rng import derive_rng
from csvnet.graph import Partition


def uniform_config(v: int, p: int, within: float, between: float,
                   seed: int = 0) -> DcsbmConfig:
    sizes = equal_block_sizes(v, p)
    return DcsbmConfig(sizes, theta_matrix(within, between, p),
                       np.ones(v), seed=seed)


# --- configuration helpers -----------------------------------------------------


def test_equal_block_sizes():
    assert equal_block_sizes(500, 8) == (63, 63, 63, 63, 62, 62, 62, 62)
    assert equal_block_sizes(10, 8) == (2, 2, 1, 1, 1, 1, 1, 1)
    assert equal_block_sizes(8, 8) == (1,) * 8
    with pytest.raises(ValueError):
        equal_block_sizes(5, 8)


def test_planted_partition_layout():
    p = planted_partition((2, 3))
    assert p.q == 2
    assert p.assignment.tolist() == [0, 0, 1, 1, 1]


def test_theta_matrix():
    t = theta_matrix([0.3, 0.4], 0.01)
    assert t.shape == (2, 2)
    assert t[0, 0] == 0.3 and t[1, 1] == 0.4 and t[0, 1] == t[1, 0] == 0.01
    scalar = theta_matrix(0.25, 0.0, 3)
    assert np.allclose(np.diag(scalar), 0.25)


def test_config_validation():
    with pytest.raises(ValueError, match="symmetric"):
        DcsbmConfig((2, 2), np.array([[0.3, 0.1], [0.2, 0.3]]), np.ones(4))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        DcsbmConfig((2, 2), np.full((2, 2), 1.5), np.ones(4))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        DcsbmConfig((2, 2), theta_matrix(np.nan, 0.1, 2), np.ones(4))
    with pytest.raises(ValueError, match="positive"):
        DcsbmConfig((0, 2), np.full((2, 2), 0.3), np.ones(2))
    with pytest.raises(ValueError, match="sum"):
        DcsbmConfig((2, 2), np.full((2, 2), 0.3), np.array([2.0, 1.0, 1.0, 1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            DcsbmConfig((2, 2), np.full((2, 2), 0.3), np.array([1.0, bad, 1.0, 1.0]))


def test_normalize_weights():
    p = Partition(np.zeros(3, dtype=int), 1)
    w = normalize_weights([2.0, 1.0, 1.0], p)
    assert np.allclose(w, [1.5, 0.75, 0.75])
    assert np.allclose(normalize_weights([5.0, 5.0, 5.0], p), 1.0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            normalize_weights([1.0, bad, 1.0], p)
    gappy = Partition(np.array([2, 0, 2, 0]), 4)  # blocks 1 and 3 empty
    assert normalize_weights([1.0, 3.0, 2.0, 1.0], gappy).tolist() == [
        2.0 / 3.0, 1.5, 4.0 / 3.0, 0.5]


def test_powerlaw_weights_block_sums():
    p = planted_partition((10, 15))
    w = powerlaw_weights(p, seed=42)
    assert w.min() > 0
    assert np.bincount(p.assignment, weights=w) == pytest.approx([10.0, 15.0])


def test_sample_theta_within():
    draws = sample_theta_within(0.3, 0.05, 8, seed=1)
    assert draws.shape == (8,)
    assert np.all(draws >= 0.25) and np.all(draws <= 0.35)
    assert np.all(sample_theta_within(0.3, 0.0, 4, seed=2) == 0.3)
    big = sample_theta_within(0.3, 0.05, 10_000, seed=3)
    assert abs(big.mean() - 0.3) < 0.005
    with pytest.raises(ValueError):
        sample_theta_within(0.02, 0.05, 4, seed=0)


# --- sampling -------------------------------------------------------------------


def test_theta_one_gives_complete_graph():
    g, p = sample_dcsbm(uniform_config(10, 2, 1.0, 1.0))
    assert g.n_edges == 45
    assert p.q == 2


def test_theta_zero_gives_empty_graph():
    g, _ = sample_dcsbm(uniform_config(10, 2, 0.0, 0.0))
    assert g.n_edges == 0


def test_clamping_counts_and_warns():
    sizes = (4,)
    w = normalize_weights([8.0, 1.0, 1.0, 1.0], planted_partition(sizes))
    cfg = DcsbmConfig(sizes, np.array([[1.0]]), w, seed=5)
    # only the three pairs touching the heavy node exceed probability 1
    with pytest.warns(UserWarning, match="clamped 3 pair"):
        g, _ = sample_dcsbm(cfg)
    present = {tuple(e) for e in g.edges.tolist()}
    assert {(0, 1), (0, 2), (0, 3)} <= present


def test_seed_determinism_and_variation():
    cfg = uniform_config(60, 3, 0.3, 0.02, seed=9)
    g1, _ = sample_dcsbm(cfg)
    g2, _ = sample_dcsbm(cfg)
    assert np.array_equal(g1.edges, g2.edges)
    counts = {sample_dcsbm(uniform_config(60, 3, 0.3, 0.02, seed=s))[0].n_edges
              for s in range(10)}
    assert len(counts) > 1


def test_within_block_density_tracks_theta():
    theta_rr = 0.3
    sizes = (60, 60)
    n_pairs = 60 * 59 // 2
    densities = []
    for rep in range(10):
        cfg = DcsbmConfig(sizes, theta_matrix(theta_rr, 0.0, 2), np.ones(120),
                          seed=100 + rep)
        g, p = sample_dcsbm(cfg)
        links, _, _ = block_link_counts(g, p.assignment, p.q)
        for r in range(p.q):
            densities.append(links[r][r] / 2 / n_pairs)
    mean = float(np.mean(densities))
    se = float(np.std(densities, ddof=1) / np.sqrt(len(densities)))
    assert abs(mean - theta_rr) < 4 * se + 1e-9


def test_sample_graph_accepts_empty_blocks():
    asg = np.array([0, 0, 2, 2])  # block 1 empty
    theta = theta_matrix(1.0, 0.0, 3)
    g = sample_graph(asg, theta, np.ones(4), seed=0)
    assert g.n_edges == 2


def test_sample_graph_rejects_bad_assignment():
    with pytest.raises(ValueError):
        sample_graph(np.array([0, 3]), theta_matrix(0.5, 0.0, 2), np.ones(2), seed=0)


@pytest.mark.parametrize("theta, match", [
    (theta_matrix(np.nan, 0.1, 2), r"\[0, 1\]"),
    (theta_matrix(0.5, -0.1, 2), r"\[0, 1\]"),
    (np.array([[0.5, 0.1], [0.2, 0.5]]), "symmetric"),
    (np.full((2, 3), 0.5), "square"),
    (np.full(2, 0.5), "square"),
], ids=["nan", "negative", "asymmetric", "2x3", "1-d"])
def test_sample_graph_rejects_bad_theta(theta, match):
    with pytest.raises(ValueError, match=match):
        sample_graph(np.array([0, 0, 1]), theta, np.ones(3), seed=0)


def test_theta_symmetry_tolerance_is_1e_12():
    # 2**-40 < 1e-12 < 2**-39; both differences are exact at 0.25.
    def theta(gap: float) -> np.ndarray:
        return np.array([[0.5, 0.25], [0.25 + gap, 0.5]])
    sample_graph(np.array([0, 0, 1]), theta(2.0**-40), np.ones(3), seed=0)
    DcsbmConfig((2, 1), theta(2.0**-40), np.ones(3))
    with pytest.raises(ValueError, match="symmetric"):
        sample_graph(np.array([0, 0, 1]), theta(2.0**-39), np.ones(3), seed=0)
    with pytest.raises(ValueError, match="symmetric"):
        DcsbmConfig((2, 1), theta(2.0**-39), np.ones(3))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_sample_graph_rejects_nonpositive_weights(bad):
    with pytest.raises(ValueError, match="positive"):
        sample_graph(np.array([0, 0, 1]), theta_matrix(0.5, 0.1, 2),
                     np.array([1.0, bad, 1.0]), seed=0)


# --- equivalence with the pairwise oracle ----------------------------------------


def _shuffled(sizes, seed: int) -> np.ndarray:
    """Planted assignment in a random node order, so blocks interleave."""
    return planted_partition(sizes).assignment[derive_rng(seed).permutation(sum(sizes))]


def _powerlaw(assignment: np.ndarray, shape: float, seed: int) -> np.ndarray:
    return powerlaw_weights(Partition(assignment, int(assignment.max()) + 1),
                            shape=shape, seed=seed)


def _oracle_cases():
    mixed = np.array([0] * 5 + [2] + [3] * 6 + [4] * 4)  # block 1 empty, 2 single
    mixed_theta = theta_matrix([0.5, 0.3, 0.7, 0.0, 0.4], 0.2)
    mixed_theta[0, 3] = mixed_theta[3, 0] = 0.0
    small = _shuffled((60, 50, 40), 1)
    heavy = _shuffled((30, 20), 2)
    large = planted_partition((400, 300, 300)).assignment
    near = _shuffled((40, 30), 3)
    near_weights = np.where(np.arange(near.size) % 2, 1.1, 0.9)
    return {
        "uniform": (small, theta_matrix(0.3, 0.05, 3), np.ones(small.size)),
        "powerlaw": (small, theta_matrix(0.1, 0.02, 3), _powerlaw(small, 3.0, 3)),
        "clamped": (heavy, theta_matrix(0.9, 0.5, 2), _powerlaw(heavy, 1.2, 4)),
        "clamped just above 1": (near, theta_matrix(0.85, 0.3, 2), near_weights),
        "empty, zero-rate and single-node blocks": (mixed, mixed_theta,
                                                    np.ones(mixed.size)),
        "beyond one buffer": (large, theta_matrix(0.02, 0.005, 3),
                              _powerlaw(large, 3.0, 5)),
        "clamped beyond one buffer": (large, theta_matrix(0.6, 0.3, 3),
                                      _powerlaw(large, 1.2, 6)),
    }


ORACLE_CASES = _oracle_cases()


# Bounds fixed before any result was seen: each pair's count of edges over
# the seeds lies within _Z standard deviations of its expectation (plus a
# slack of _Z edges for rare pairs, whose counts are far from normal), and
# so do the per-node edge totals and the sum of squared per-pair z-scores.
_Z = 7.0


def _assert_matches_oracle(assignment, theta, weights, n: int) -> None:
    """Edge frequencies over seeds 0..n-1 match min(p_ij, 1) (see _Z), and
    every draw's clamped-pair warning is the oracle's, word for word."""
    v = assignment.size
    counts = np.zeros(v * v, dtype=np.int64)
    texts = set()
    for seed in range(n):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            edges = sample_graph(assignment, theta, weights, seed).edges
        texts.add(tuple(str(w.message) for w in caught))
        counts += np.bincount(edges[:, 0] * v + edges[:, 1], minlength=v * v)
    counts = counts.reshape(v, v)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pairwise_sample_graph(assignment, theta, weights, 0)
    assert texts == {tuple(str(w.message) for w in caught)}
    # The oracle's probabilities, as it computes them.
    p = np.minimum(np.outer(weights, weights) * theta[np.ix_(assignment, assignment)], 1.0)
    upper = np.triu(np.ones_like(p, dtype=bool), k=1)
    assert counts.sum(), "every case samples some edges"
    assert not counts[~upper].any()
    assert not counts[upper & (p == 0.0)].any()
    assert np.all(counts[upper & (p == 1.0)] == n)
    mean, var = n * p[upper], n * p[upper] * (1.0 - p[upper])
    dev = counts[upper] - mean
    assert np.all(np.abs(dev) <= _Z * np.sqrt(var) + _Z)
    # Per-node totals: mean and variance of a sum of independent pairs.
    node_dev = (counts + counts.T) - n * (p * upper + (p * upper).T)
    node_var = np.where(upper, p * (1.0 - p), 0.0) * n
    node_var = node_var.sum(axis=0) + node_var.sum(axis=1)
    assert np.all(np.abs(node_dev.sum(axis=1)) <= _Z * np.sqrt(node_var) + _Z)
    # Pearson's statistic over the pairs with 0 < p < 1; the variance of
    # each squared z-score is 2 plus the binomial's excess kurtosis.
    open_ = var > 0.0
    z2 = dev[open_] ** 2 / var[open_]
    pq = var[open_] / n
    z2_var = 2.0 + (1.0 - 6.0 * pq) / var[open_]
    assert abs(z2.sum() - z2.size) <= _Z * np.sqrt(z2_var.sum())


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_sample_graph_matches_pairwise_oracle(case):
    assignment, theta, weights = ORACLE_CASES[case]
    _assert_matches_oracle(assignment, theta, weights, 40 if "buffer" in case else 400)
    if case.startswith("clamped"):
        with pytest.warns(UserWarning, match="clamped"):
            sample_graph(assignment, theta, weights, 0)


@pytest.mark.parametrize("case", ["uniform", "powerlaw", "clamped just above 1"])
def test_sample_graph_top_ups_match_pairwise_oracle(case, monkeypatch):
    """With no spare gaps, most block pairs fall short and are topped up."""
    monkeypatch.setattr(dcsbm, "_MARGIN", 0.0)
    rounds = []
    slots = dcsbm._slots
    monkeypatch.setattr(dcsbm, "_slots", lambda *a: rounds.append(1) or slots(*a))
    _assert_matches_oracle(*ORACLE_CASES[case], 200)
    # Per draw, one call sizes the only batch and one starts its first
    # round; every further call is a top-up round.
    assert len(rounds) > 2 * 200


@pytest.mark.parametrize("rate", [1e-300, 5e-324])
def test_tiny_rates_give_no_spurious_edges(rate):
    """numpy draws INT64_MAX gaps at such rates; unclipped, they wrap."""
    assignment = planted_partition((300, 200, 100)).assignment
    theta = theta_matrix(0.05, rate, 3)
    weights = np.where(np.arange(600) % 2, 0.5, 1.5)
    for seed in range(5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = sample_graph(assignment, theta, weights, seed)
        blocks = assignment[graph.edges]
        assert graph.n_edges > 0 and np.all(blocks[:, 0] == blocks[:, 1])


@pytest.mark.parametrize("n", [2, 3, 4, 7, 64, 4_097, 100_003, 3_037_000_499 // 2])
def test_triangle_decode_at_row_boundaries(n):
    """Flat indices at the first and last column of each checked row decode
    exactly, however far the float square root is off."""
    rows = np.unique(np.r_[0, 1, n // 2, n - 3, n - 2,
                           derive_rng(n).integers(0, n - 1, 50)].clip(0, n - 2))
    start = rows * (2 * n - 1 - rows) // 2
    last = start + (n - 2 - rows)
    for flat, col in ((start, rows + 1), (last, np.full(rows.size, n - 1))):
        a, b = dcsbm._triangle(flat, np.full(rows.size, n))
        assert np.array_equal(a, rows) and np.array_equal(b, col)
    if n <= 64:
        a, b = dcsbm._triangle(np.arange(n * (n - 1) // 2), np.full(n * (n - 1) // 2, n))
        assert np.array_equal(np.stack([a, b]), np.triu_indices(n, k=1))


def test_complete_blocks_decode_every_in_block_pair():
    """At rate 1 every pair of a block is a candidate, so the diagonal
    decode visits every triangular row start and end."""
    assignment = _shuffled((45, 46), 7)
    graph = sample_graph(assignment, theta_matrix(1.0, 0.0, 2), np.ones(91), seed=3)
    i, j = np.triu_indices(91, k=1)
    same = assignment[i] == assignment[j]
    assert np.array_equal(graph.edges, np.stack([i[same], j[same]], axis=1))


def test_sample_graph_memory_is_bounded():
    assignment = planted_partition((1500, 1500)).assignment
    tracemalloc.start()
    try:
        sample_graph(assignment, theta_matrix(0.01, 0.01, 2), np.ones(3000), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# --- degradation ----------------------------------------------------------------


def test_degrade_zero_is_identity():
    p = planted_partition((5, 5))
    d = degrade_partition(p, 0.0, seed=1)
    assert np.array_equal(d.assignment, p.assignment)


def test_degrade_full_changes_everything():
    p = planted_partition((50, 50, 50))
    d = degrade_partition(p, 1.0, seed=2)
    assert np.all(d.assignment != p.assignment)
    assert d.q == p.q


def test_degrade_exact_count():
    p = planted_partition((500, 500))
    d = degrade_partition(p, 0.5, seed=3)
    assert int(np.count_nonzero(d.assignment != p.assignment)) == 500


def test_degrade_validation():
    p = planted_partition((4, 4))
    with pytest.raises(ValueError):
        degrade_partition(p, 1.5, seed=0)
    single = planted_partition((8,))
    with pytest.raises(ValueError):
        degrade_partition(single, 0.5, seed=0)
    assert degrade_partition(single, 0.0, seed=0).q == 1


def test_degrade_deterministic():
    p = planted_partition((30, 30))
    a = degrade_partition(p, 0.3, seed=7)
    b = degrade_partition(p, 0.3, seed=7)
    assert np.array_equal(a.assignment, b.assignment)
