"""Unit tests for the exact hypergeometric machinery and BH adjustment.

Expected values marked as hand-derived were computed with the exact
Fraction-arithmetic oracles in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bh_reference,
    exact_lower_mid_p,
    exact_upper_mid_p,
    full_support_mid_p,
    full_support_pmf,
    random_params,
)

from csvnet.stats import (
    HypergeomParams,
    bh_adjust,
    hypergeom_pmf,
    lower_mid_p,
    mid_p_family,
    support_pmfs,
    upper_mid_p,
)


# --- pmf --------------------------------------------------------------------


def test_pmf_values():
    assert hypergeom_pmf(1, HypergeomParams(4, 2, 2)) == pytest.approx(2 / 3, abs=1e-14)
    assert hypergeom_pmf(0, HypergeomParams(4, 2, 0)) == 1.0
    assert hypergeom_pmf(3, HypergeomParams(4, 2, 2)) == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        HypergeomParams(4, 5, 2)
    with pytest.raises(ValueError):
        HypergeomParams(4, 2, -1)


def test_pmf_sums_to_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        N = int(rng.integers(1, 10_000))
        K = int(rng.integers(0, N + 1))
        n = int(rng.integers(0, N + 1))
        p = HypergeomParams(N, K, n)
        lo, hi = p.support
        total = sum(hypergeom_pmf(x, p) for x in range(lo, hi + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_pmf_symmetric_in_K_and_n():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = random_params(rng)
        swapped = HypergeomParams(p.N, p.n, p.K)
        lo, hi = p.support
        for x in range(lo, hi + 1):
            assert hypergeom_pmf(x, p) == pytest.approx(
                hypergeom_pmf(x, swapped), abs=1e-12)


# --- mid-p-values -----------------------------------------------------------


def test_mid_p_hand_values():
    p = HypergeomParams(4, 2, 2)
    assert upper_mid_p(2, p) == pytest.approx(1 / 12, abs=1e-14)
    assert lower_mid_p(0, p) == pytest.approx(1 / 12, abs=1e-14)


def test_mid_p_outside_support():
    p = HypergeomParams(10, 4, 6)
    lo, hi = p.support
    assert upper_mid_p(lo - 1, p) == 1.0
    assert upper_mid_p(hi + 1, p) == 0.0
    assert lower_mid_p(lo - 1, p) == 0.0
    assert lower_mid_p(hi + 1, p) == 1.0


def test_mid_p_partition_identity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = random_params(rng)
        lo, hi = p.support
        for x in range(lo, hi + 1):
            assert upper_mid_p(x, p) + lower_mid_p(x, p) == pytest.approx(1.0, abs=1e-12)


def test_mid_p_matches_exact_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(200):
        p = random_params(rng)
        lo, hi = p.support
        xs = list(range(lo, hi + 1)) or [0]
        x = int(rng.choice(xs))
        assert upper_mid_p(x, p) == pytest.approx(
            float(exact_upper_mid_p(x, p.N, p.K, p.n)), abs=1e-12)
        assert lower_mid_p(x, p) == pytest.approx(
            float(exact_lower_mid_p(x, p.N, p.K, p.n)), abs=1e-12)


def test_mid_p_large_population_tail_precision():
    # A deep tail must keep relative precision, not collapse to 0 or 1-eps.
    p = HypergeomParams(20_000, 600, 600)
    direct = upper_mid_p(40, p)
    oracle = float(exact_upper_mid_p(40, p.N, p.K, p.n))
    assert direct == pytest.approx(oracle, rel=1e-9)


# --- family engine: bit-identical to the whole-support walk -------------------


def random_triples(rng: np.random.Generator, m: int, n_max: float = 1e6):
    """(N, K, n) with N log-uniform up to ``n_max``; a third of the triples
    draw K and n from the upper half of N, so their supports start at lo > 0."""
    N = np.maximum((10 ** rng.uniform(0, np.log10(n_max), m)).astype(np.int64), 1)
    frac = np.where(rng.random((2, m)) < 1 / 3, 0.5 + rng.random((2, m)) / 2,
                    rng.random((2, m)))
    K, n = np.minimum((frac * (N + 1)).astype(np.int64), N)
    K[:5], n[5:10] = 0, 0
    return N, K, n


def probe_points(N, K, n) -> list[int]:
    """Both support ends, one step outside each, the mode, and points 5,
    40 and 200 standard deviations out on either side (deep tails)."""
    lo, hi = max(0, n + K - N), min(n, K)
    mean = n * K / N
    sd = (mean * (N - K) / N * (N - n) / max(N - 1, 1)) ** 0.5
    points = {lo - 1, lo, hi, hi + 1, int(mean)}
    for k in (5, 40, 200):
        points |= {int(mean + k * sd), int(mean - k * sd)}
    return sorted(points)


def assert_family_matches(N, K, n) -> None:
    """Every pmf, and both mid-p tails at every probe point, equal the
    whole-support walk bit for bit; the engine gets the triples as one family."""
    triples = [(int(a), int(b), int(c)) for a, b, c in zip(N, K, n)]
    seen = 0
    for i, pmf in support_pmfs(N, K, n):
        assert np.array_equal(pmf, full_support_pmf(*triples[i])), triples[i]
        seen += 1
    assert seen == len(triples)
    probes = [probe_points(*t) for t in triples]
    x = [x for xs in probes for x in xs]
    params = np.repeat(np.array(triples), [len(xs) for xs in probes], axis=0).T
    for upper in (True, False):
        expect = [p for xs, t in zip(probes, triples)
                  for p in full_support_mid_p(xs, *t, upper)]
        assert mid_p_family(x, *params, upper).tolist() == expect


def test_family_bit_identical_random_triples():
    rng = np.random.default_rng(41)
    assert_family_matches(*random_triples(rng, 120))


def test_family_bit_identical_small_populations():
    rng = np.random.default_rng(42)
    assert_family_matches(*random_triples(rng, 300, n_max=200))


def test_family_bit_identical_grown_windows():
    # Means near 1: on the two large supports the tail is far heavier than
    # the first mean + 40 sd window, which has to double while the two short
    # supports in the same block are already done.
    N = np.array([1_000_000, 400_000, 50_000, 1_000_000])
    K = np.array([1_000, 600, 5_000, 200_000])
    n = np.array([1_000, 700, 10, 5])
    assert_family_matches(N, K, n)


def test_bit_identical_where_the_first_window_ends_near_underflow():
    # For K = n between 45,000 and 85,000 of N = 10^6, a row's first window
    # ends 700-750 nats below its maximum, around exp()'s underflow at
    # -745.13: stopping there or one window later decides which denormal
    # entries survive. One triple per call, so each row keeps its own window.
    for k in range(45_000, 87_500, 2_500):
        assert_family_matches(np.array([1_000_000]), np.array([k]), np.array([k]))


def test_family_bit_identical_giant_community():
    # Two communities on 200k edges, one holding 90 % of the stubs: within
    # tests of both and the between test, as enrichment_matrix builds them.
    n_total, d = 400_000, np.array([360_000, 40_000])
    assert_family_matches(np.full(3, n_total), d[[0, 1, 1]], d[[0, 1, 0]])


def test_family_bit_identical_at_the_validate_benchmark_shape():
    # The validate benchmark's shape: q = 200 planted communities of 100
    # nodes, about 200k edges, 20,100 tests, built as in
    # benchmarks/test_bench_family.py. Many triples are shared by two tests
    # or more, blocks mix supports of many lengths, and each row is padded
    # from a window of a few hundred columns to a support about 2,000 long.
    q, v, m = 200, 20_000, 200_000
    rng = np.random.default_rng([5, q])
    block = np.arange(v) // 100
    u = rng.integers(0, v, size=m)
    w = np.where(rng.random(m) < 0.7, block[u] * 100 + rng.integers(0, 100, size=m),
                 rng.integers(0, v, size=m))
    keep = u != w
    edges = np.unique(np.sort(np.stack([u[keep], w[keep]], axis=1), axis=1), axis=0)
    stubs = np.bincount(block[edges.ravel()], minlength=q)
    links = np.bincount(block[edges[:, 0]] * q + block[edges[:, 1]], minlength=q * q)
    links = links.reshape(q, q) + links.reshape(q, q).T
    r, s = np.triu_indices(q)
    N, K, n, x, upper = 2 * len(edges), stubs[s], stubs[r], links[r, s], r == s
    got = mid_p_family(x, N, K, n, upper)
    assert got.size == 20_100
    tests: dict[tuple, list[int]] = {}
    for k, key in enumerate(zip(K.tolist(), n.tolist(), upper.tolist())):
        tests.setdefault(key, []).append(k)
    assert len(tests) < 15_000
    for (k_, n_, up), ks in tests.items():
        expect = full_support_mid_p(x[ks].tolist(), N, k_, n_, up)
        assert got[ks].tolist() == expect, (k_, n_, up)


def test_scalar_api_reads_the_family_engine():
    for N, K, n in [(20_000, 600, 600), (1_000, 900, 800), (50, 0, 7), (1, 1, 1)]:
        p = HypergeomParams(N, K, n)
        assert np.array_equal(p.pmf, full_support_pmf(N, K, n))
        xs = probe_points(N, K, n)
        assert [upper_mid_p(x, p) for x in xs] == full_support_mid_p(xs, N, K, n, True)
        assert [lower_mid_p(x, p) for x in xs] == full_support_mid_p(xs, N, K, n, False)
        for x in xs:
            family = mid_p_family([x, x], N, K, n, [True, False])
            assert family.tolist() == [upper_mid_p(x, p), lower_mid_p(x, p)]


def test_family_shapes_and_validation():
    got = mid_p_family(np.array([[0, 1], [2, 3]]), 4, 2, 2, True)
    assert got.shape == (2, 2)
    assert got[1, 1] == 0.0 and got[0, 0] == pytest.approx(1 - 1 / 12)
    assert mid_p_family([], 4, 2, 2, True).shape == (0,)
    with pytest.raises(ValueError):
        mid_p_family(0, 4, 5, 2, True)
    with pytest.raises(ValueError):
        list(support_pmfs(4, 2, -1))


# --- Benjamini-Hochberg ------------------------------------------------------


def test_bh_hand_case():
    np.testing.assert_allclose(bh_adjust([0.01, 0.02, 0.04]), [0.03, 0.03, 0.04])


def test_bh_trivial_cases():
    np.testing.assert_allclose(bh_adjust([0.2]), [0.2])
    np.testing.assert_allclose(bh_adjust([0.5] * 4), [0.5] * 4)
    assert bh_adjust([]).size == 0


def test_bh_rejects_out_of_range():
    with pytest.raises(ValueError):
        bh_adjust([0.5, 1.5])


def test_bh_matches_reference():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 51))
        p = rng.random(m)
        if rng.random() < 0.3:  # force ties
            p = np.round(p, 1)
        expect = bh_reference(list(p))
        np.testing.assert_allclose(bh_adjust(p), expect, rtol=0, atol=0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_bh_properties(pvals):
    p = np.asarray(pvals)
    adj = bh_adjust(p)
    assert np.all(adj >= p - 1e-15)
    assert np.all(adj <= 1.0)
    # weak order preservation
    order = np.argsort(p, kind="stable")
    assert np.all(np.diff(adj[order]) >= -1e-15)
    for i in range(p.size):
        for j in range(p.size):
            if p[i] == p[j]:
                assert adj[i] == adj[j]
