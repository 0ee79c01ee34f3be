"""Unit tests for the exact hypergeometric machinery and BH adjustment.

Expected values marked as hand-derived were computed with the exact
Fraction-arithmetic oracles in tests/oracles.py.
"""

from __future__ import annotations

import time
import tracemalloc
from itertools import accumulate
from math import comb

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

from csvnet import stats
from csvnet.stats import (
    HypergeomParams,
    bh_adjust,
    lower_mid_p,
    mid_p_family,
    upper_mid_p,
)


# --- pmf --------------------------------------------------------------------


def engine_pmfs(N, K, n) -> list[np.ndarray]:
    """The engine's pmf rows of the broadcast triples, each read to its last
    index and padded with zeros to its whole support, in input order."""
    N, K, n = (np.asarray(a, dtype=np.int64).ravel() for a in np.broadcast_arrays(N, K, n))
    lo = np.maximum(n + K - N, 0)
    sizes = np.minimum(n, K) - lo + 1
    out = [np.empty(0)] * sizes.size
    for idx, pmfs in stats._pmf_blocks(N, K, n, lo, sizes, sizes - 1):
        for i, length, row in zip(idx.tolist(), sizes[idx].tolist(), pmfs):
            out[i] = np.zeros(length)
            out[i][:min(row.size, length)] = row[:length]
    return out


def test_pmf_values():
    # Both tails at every support point and one step outside it, against
    # the math.comb pmf: (4, 2, 2) has pmf 1/6, 2/3, 1/6.
    for N, K, n in [(4, 2, 2), (4, 2, 0), (10, 4, 6), (9, 9, 3)]:
        lo, hi = max(0, n + K - N), min(n, K)
        xs = list(range(lo - 1, hi + 2))
        for upper, exact in ((True, exact_upper_mid_p), (False, exact_lower_mid_p)):
            expect = [float(exact(x, N, K, n)) for x in xs]
            assert mid_p_family(xs, N, K, n, upper).tolist() == pytest.approx(
                expect, abs=1e-12), (N, K, n, upper)


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
        (pmf,) = engine_pmfs(N, K, n)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_pmf_symmetric_in_K_and_n():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = random_params(rng)
        lo, hi = p.support
        xs = np.arange(lo, hi + 1)
        for upper in (True, False):
            assert mid_p_family(xs, p.N, p.K, p.n, upper) == pytest.approx(
                mid_p_family(xs, p.N, p.n, p.K, upper), abs=1e-12)


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


def exact_mid_ps(xs, N: int, K: int, n: int, upper: bool) -> list[float]:
    """Exact mid-p-values at each of ``xs`` inside the support, from the
    integer weights C(K, x) C(N - K, n - x) built by their term-ratio
    recurrence; Python's int division rounds each quotient correctly."""
    lo, hi = max(0, n + K - N), min(n, K)
    t = [comb(K, lo) * comb(N - K, n - lo)]
    for x in range(lo, hi):
        t.append(t[-1] * (K - x) * (n - x) // ((x + 1) * (N - K - n + x + 1)))
    total = sum(t)
    assert total == comb(N, n)
    below = [0, *accumulate(t)]  # below[i]: the first i weights
    out = []
    for x in xs:
        i = x - lo
        side = total - below[i + 1] if upper else below[i]
        out.append((2 * side + t[i]) / (2 * total))
    return out


def test_mid_p_precision_on_long_supports():
    # Supports of 600-2,000 points at N = 40,000: both tails at the mean and
    # at 1-4 sd on either side (down to 0, the support's low end), each to
    # 1e-13 of the exact value.
    N = 40_000
    pairs = [(600, 600), (600, 2_000), (2_000, 600), (1_000, 1_500),
             (2_000, 2_000), (800, 1_200), (1_500, 700), (1_200, 1_900)]
    start = time.perf_counter()
    for K, n in pairs:
        assert min(K, n) >= 500
        mean = n * K / N
        sd = (mean * (N - K) / N * (N - n) / (N - 1)) ** 0.5
        xs = sorted({max(round(mean + k * sd), 0) for k in range(-4, 5)})
        for upper in (True, False):
            got = mid_p_family(xs, N, K, n, upper).tolist()
            for g, e in zip(got, exact_mid_ps(xs, N, K, n, upper)):
                assert g == pytest.approx(e, rel=1e-13, abs=0), (K, n, upper)
    assert time.perf_counter() - start < 2.0


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
    for triple, pmf in zip(triples, engine_pmfs(N, K, n), strict=True):
        assert np.array_equal(pmf, full_support_pmf(*triple)), triple
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


def validate_family():
    """(x, N, K, n, upper) of the validate benchmark's family: q = 200
    planted communities of 100 nodes, about 200k edges and 20,100 tests,
    built as in benchmarks/test_bench_family.py."""
    q, v, m = 200, 20_000, 200_000
    rng = np.random.default_rng([5, q])
    block = np.arange(v) // 100
    u = rng.integers(0, v, size=m)
    inside = block[u] * 100 + rng.integers(0, 100, size=m)
    w = np.where(rng.random(m) < 0.7, inside, rng.integers(0, v, size=m))
    keep = u != w
    edges = np.unique(np.sort(np.stack([u[keep], w[keep]], axis=1), axis=1), axis=0)
    stubs = np.bincount(block[edges.ravel()], minlength=q)
    links = np.bincount(block[edges[:, 0]] * q + block[edges[:, 1]], minlength=q * q)
    links = links.reshape(q, q) + links.reshape(q, q).T
    r, s = np.triu_indices(q)
    return links[r, s], 2 * len(edges), stubs[s], stubs[r], r == s


def test_family_bit_identical_at_the_validate_benchmark_shape():
    # Many triples are shared by two tests or more, blocks mix supports of
    # many lengths, and each row is padded from a window of a few dozen or a
    # few hundred columns to a support about 1,900 long.
    x, N, K, n, upper = validate_family()
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
        assert np.array_equal(engine_pmfs(N, K, n)[0], full_support_pmf(N, K, n))
        xs = probe_points(N, K, n)
        assert [upper_mid_p(x, p) for x in xs] == full_support_mid_p(xs, N, K, n, True)
        assert [lower_mid_p(x, p) for x in xs] == full_support_mid_p(xs, N, K, n, False)
        for x in xs:
            family = mid_p_family([x, x], N, K, n, [True, False])
            assert family.tolist() == [upper_mid_p(x, p), lower_mid_p(x, p)]


@settings(max_examples=60, deadline=None)
@given(target=st.integers(1, 5_000).flatmap(lambda N: st.tuples(
           st.just(N), st.integers(0, N), st.integers(0, N))),
       x=st.integers(-1, 5_001), upper=st.booleans(),
       wide=st.lists(st.integers(10_000, 400_000).flatmap(lambda N: st.tuples(
           st.just(N), st.integers(1, N // 2), st.integers(1, N // 2))), max_size=6),
       at=st.integers(0, 8))
def test_mid_p_alone_equals_mid_p_in_a_wide_family(target, x, upper, wide, at):
    # The wide triples put the test's row into blocks of other widths, and
    # the two fixed ones (means near 1 on supports of 600-1,000) make their
    # block's window double after the test's row has stopped.
    others = [(1_000_000, 1_000, 1_000), (400_000, 600, 700), *wide]
    tests = [(N, K, n, K * n // N, k % 2 == 0) for k, (N, K, n) in enumerate(others)]
    at = min(at, len(tests))
    tests.insert(at, (*target, x, upper))
    N, K, n, xs, ups = map(np.array, zip(*tests))
    alone = mid_p_family(x, *target, upper)
    assert mid_p_family(xs, N, K, n, ups)[at] == alone


# --- lower-only rows ---------------------------------------------------------
# A row that only lower tails read stops once it holds its reach, the largest
# point they read, and is _SUM_CUT = 40 nats below its maximum. Each test
# checks the family against the whole-support walk.

# N = 10^6, K = n = 3,000: mean 9 and mode 9 on a support of 3,001 points;
# 40 nats below the maximum at 47, exp() underflows from 287 on.
N3K, K3K = 1_000_000, 3_000


def walked(monkeypatch) -> list[tuple[int, np.ndarray]]:
    """Record each call of the walk's ``_extend``: its input width and the
    log-weights it returns."""
    calls = []
    extend = stats._extend

    def record(logw, cols, width):
        out = extend(logw, cols, width)
        calls.append((logw.shape[1], out))
        return out

    monkeypatch.setattr(stats, "_extend", record)
    return calls


def test_one_triple_read_by_both_tails():
    # The upper test keeps the whole 750-nat window of the row it shares with
    # the lower tests: a row cut 40 nats past the upper test's point would
    # leave out the small weights its downward running sum starts from.
    xs = [0, 5, 9, 13]
    lower = full_support_mid_p(xs, N3K, K3K, K3K, False)
    for x in range(0, 130, 3):
        got = mid_p_family([x, *xs], N3K, K3K, K3K, [True] + [False] * len(xs))
        assert got.tolist() == full_support_mid_p([x], N3K, K3K, K3K, True) + lower, x


def test_lower_tests_around_the_cuts(monkeypatch):
    pmf = full_support_pmf(N3K, K3K, K3K)
    with np.errstate(divide="ignore"):
        nats = np.log(pmf.max()) - np.log(pmf)
    calls = walked(monkeypatch)
    ends = []
    # Just past the mode, between the 40- and 750-nat points, and past the
    # 750-nat window, where the point reads 0; each set alone sets the reach.
    for xs, zone in (([10, 11, 13], nats < 40), ([50, 120], (nats > 40) & (nats < 750)),
                     ([300, 2_000], pmf == 0)):
        assert zone[xs].all()
        calls.clear()
        got = mid_p_family(xs, N3K, K3K, K3K, False)
        assert got.tolist() == full_support_mid_p(xs, N3K, K3K, K3K, False), xs
        ends.append(calls[-1][1].shape[1])
    # Near the mode the row stops at the sum cut, long before exp()
    # underflows; the deepest point lies past the end of its row.
    assert ends[0] < np.argmax(pmf == 0) and ends[2] <= 2_000


def test_lower_only_row_whose_reach_forces_the_window_to_double(monkeypatch):
    calls = walked(monkeypatch)
    mid_p_family(9, N3K, K3K, K3K, False)
    alone = calls[-1][1].shape[1]
    # A second lower test one past the end of that row keeps it growing.
    calls.clear()
    xs = [9, alone]
    got = mid_p_family(xs, N3K, K3K, K3K, False)
    assert calls[-1][1].shape[1] > alone
    assert got.tolist() == full_support_mid_p(xs, N3K, K3K, K3K, False)


def test_lower_only_rows_that_grow_past_the_sum_cut(monkeypatch):
    # Means from 0.01 to 2,000 on N = 10^6, each tested at 0 and at its
    # mean. On some rows a window ends 30-40 nats below the maximum, where
    # weights above e**-40 still change the normalizer: those rows must grow
    # once more, or every entry of theirs loses its last bits.
    K = np.sqrt(np.geomspace(0.01, 2_000, 400) * 1e6).astype(np.int64)
    x = np.concatenate((np.zeros_like(K), K * K // 1_000_000))
    calls = walked(monkeypatch)
    got = mid_p_family(x, 1_000_000, np.tile(K, 2), np.tile(K, 2), False)
    band = 0
    for _, out in calls:
        drop = out.max(axis=1) - out[:, -1]
        band += ((drop > 30) & (drop < 40)).sum()
    assert band > 0
    for k, (x0, xm) in enumerate(zip(x[:400].tolist(), x[400:].tolist())):
        expect = full_support_mid_p([x0, xm], 1_000_000, int(K[k]), int(K[k]), False)
        assert [got[k], got[400 + k]] == expect, K[k]


def test_family_work_at_the_validate_shape(monkeypatch):
    # The lower-only rows of the 20,100 tests stop near their 40-nat point,
    # a few dozen entries out, not their 750-nat point, about 400 out: the
    # walk computes about 670,000 log-weights, against 4.1 million when
    # every row went on to its 750-nat point.
    calls = walked(monkeypatch)
    mid_p_family(*validate_family())
    assert sum(out.shape[0] * (out.shape[1] - before) for before, out in calls) < 1_000_000


def test_family_memory_at_the_validate_shape():
    # A 0.15 MiB result. Measured peak 2.2 MiB: the per-test arrays go once
    # read, and one block of at most _BLOCK_ELEMS log-weights is walked and
    # read at a time. Keeping every per-test temporary to the end and each
    # block's copies side by side peaked at 6.4 MiB.
    family = validate_family()
    tracemalloc.start()
    try:
        mid_p_family(*family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20, peak / 2**20


def wide_family():
    """(x, N, K, n, upper) of a seeded 20-community family with 60,000-100,000
    stubs per community, about 1.6 million in all, as enrichment_matrix
    builds it: 20 within tests (upper) and 190 between tests (lower), each
    observed up to 8 sd from its mean of 2,300-6,300 on a support of
    60,000-100,000 points. Also timed in benchmarks/test_bench_family.py."""
    q = 20
    rng = np.random.default_rng([24, q])
    stubs = rng.integers(60_000, 100_001, size=q)
    N = int(stubs.sum())
    r, s = np.triu_indices(q)
    mean = stubs[r] * stubs[s] / N
    x = np.rint(mean + 3.0 * np.sqrt(mean) * rng.standard_normal(r.size)).astype(np.int64)
    return x, N, stubs[s], stubs[r], r == s


def test_wide_family_memory(monkeypatch):
    # First windows of 2,600-9,300 entries: the block budget keeps the walk
    # to a few of these rows at a time. A budget that let the 210 rows share
    # one or two blocks would peak near 50 MiB.
    x, N, K, n, upper = wide_family()
    tracemalloc.start()
    try:
        got = mid_p_family(x, N, K, n, upper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20
    calls = walked(monkeypatch)
    mid_p_family(x, N, K, n, upper)
    firsts = [out.shape for before, out in calls if before == 1]
    assert len(firsts) > 1
    assert all(rows * width <= stats._BLOCK_ELEMS or rows == 1 for rows, width in firsts)
    for k, key in enumerate(zip(x.tolist(), K.tolist(), n.tolist(), upper.tolist())):
        assert got[k] == full_support_mid_p([key[0]], N, *key[1:])[0], key


def test_family_rejects_non_integral_counts():
    # A float count was truncated: x = 2.7 read as 2 and N = 10.9 as 10, and
    # a NaN failed only after a numpy cast warning.
    for args in ((2.7, 10, 5, 5), (2, 10.9, 5, 5), (2, 10, 5.5, 5), (2, 10, 5, 4.2),
                 (np.nan, 10, 5, 5), (2, np.inf, 5, 5), (2, 10, -np.inf, 5),
                 ([1, 2.5], 10, 5, 5)):
        with pytest.raises(ValueError, match="finite integers"):
            mid_p_family(*args, True)
    with pytest.raises(ValueError, match="finite integers"):
        upper_mid_p(2, HypergeomParams(10.9, 5, 5))
    # Integral floats read as the integers they hold.
    assert mid_p_family([2.0, 3.0], 10.0, 5.0, 5, [True, False]).tolist() == (
        mid_p_family([2, 3], 10, 5, 5, [True, False]).tolist())


def test_family_shapes_and_validation():
    got = mid_p_family(np.array([[0, 1], [2, 3]]), 4, 2, 2, True)
    assert got.shape == (2, 2)
    assert got[1, 1] == 0.0 and got[0, 0] == pytest.approx(1 - 1 / 12)
    assert mid_p_family([], 4, 2, 2, True).shape == (0,)
    with pytest.raises(ValueError):
        mid_p_family(0, 4, 5, 2, True)
    with pytest.raises(ValueError):
        mid_p_family(0, 4, 2, -1, True)


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
    # NaN compares false with both bounds, so a min/max check lets it through.
    with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
        bh_adjust([0.01, float("nan"), 0.5])


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
