"""Exact hypergeometric distribution, one-tailed mid-p-values, and the
Benjamini-Hochberg step-up adjustment.

Every pmf comes from one engine, a block walk over a whole family of
parameter triples, and every mid-p from one reader of its pmf rows:
:func:`mid_p_family` checks each count and derives each support once, then
reads the blocks as they stop; the scalar tails are one-element families. A
block holds as many rows as fit in ``_BLOCK_ELEMS`` log-weights at the width
of its widest first window (at least one), and each row walks its support
from the low end with the term-ratio recurrence in log space: a sequential
cumsum of log pmf(x+1) / pmf(x). There is no per-triple cache.

Underflow window. float64 ``exp`` returns exactly 0.0 below -745.13, so a
row stops once it is past its mode and more than ``_CUT`` = 750 nats below
its maximum: past the mode every ratio is negative, every later log-weight
is lower still, and a walk over the whole support would turn each of them
into 0.0. A row that only lower tails read also stops once it holds its
reach, the largest point they read, and is more than ``_SUM_CUT`` = 40 nats
below its maximum. Past the mode the running normalizer already holds the
maximum weight 1.0, so half its ulp is at least 2**-53 ~ 1.1e-16, while
every later weight is below e**-40 ~ 4.2e-18: each addition rounds back to
the same float, so the normalizer and every pmf entry are unchanged, and a
lower tail at x reads no entry past x; :func:`mid_p_family` knows which
tails read a row and gives each its reach. The window starts
at mean + 40 sd (6 sd for a lower-only row) and doubles until the row
stops. On the validate benchmark's input, 200 communities on a 200k-edge
graph with supports about 1,900 long, the 125 rows that upper tails read end
404-410 entries wide and the 10,380 lower-only rows 56-202 (median 58).

Bit-identity with the whole-support walk. A sequential cumsum's prefix never
depends on later entries, and the walk continues across a window edge as
``cumsum([carry, ratios...])``, so every log-weight, each row maximum and
each exp() are the same floats as over the whole support. Every sum is a
running sum too: the normalizer is the last entry of the row's cumsum, a
lower tail sums upward from the support's low end, and an upper tail sums
downward from the window's end. Past a 750-nat window the whole support
holds only zeros, which add exactly nothing to a running sum, and past a
40-nat window only weights that round away, so each sum a test reads is the
same float as the whole-support cumsum; a point past the window reads 0.

Tail sums always accumulate the requested side directly from the pmf, so
deep tails keep full relative precision instead of collapsing into
1 - (bulk mass) cancellation. No normal or binomial approximation is used.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# float64 exp() returns exactly 0.0 below -745.13, so a log-weight more than
# this far below its row maximum adds nothing to any pmf.
_CUT = 750.0
# A weight more than this many nats below its row maximum is below e**-40,
# under half an ulp of a running sum of at least 1.0, which it leaves as is.
_SUM_CUT = 40.0
# A block's first window holds at most this many log-weights per array
# (128 KiB of float64), or one row.
_BLOCK_ELEMS = 1 << 14


def _pmf_blocks(N, K, n, lo, sizes, reach) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(idx, pmfs)`` for each set of the triples (N, K, n) that stop
    together: row ``k`` of ``pmfs`` holds the first entries of the pmf of
    triple ``idx[k]``, whose support starts at ``lo`` and is ``sizes`` long.

    ``reach`` gives each triple's last pmf index that will be read. A row's
    entries, and its normalizer, are the same floats as over the whole
    support, and the row holds every entry up to ``reach`` that is not
    exactly 0."""
    # First window: mean plus 40 standard deviations and 64 entries, or 6
    # sd (18 nats on a normal curve) for a row that may stop _SUM_CUT down,
    # grown by doubling where the tail is heavier than that. Rows are sorted
    # by it so that a block holds windows of similar width. (N < 2 has a
    # one-point support.)
    Nf, Kf, nf = np.maximum(N, 2).astype(np.float64), K.astype(np.float64), n.astype(np.float64)
    mean = nf * Kf / Nf
    sd = np.sqrt(mean * (Nf - Kf) / Nf * (Nf - nf) / (Nf - 1.0))
    first = np.where(reach < sizes - 1, mean + 6.0 * sd + 1.0, mean + 40.0 * sd + 64.0)
    del Nf, Kf, nf, mean, sd
    guess = np.minimum(np.ceil(first).astype(np.int64) - lo, sizes)
    del first
    order = np.argsort(guess, kind="stable")
    guess, sizes, reach = guess[order], sizes[order], reach[order]
    # The walk's float columns lo, K, n and N - K - n, stacked; see _extend.
    params = np.stack((lo, K, n, N - K - n))[:, order, None].astype(np.float64)
    del N, K, n, lo  # held in params
    total, start = order.size, 0
    while start < total:
        # The rows that fit in _BLOCK_ELEMS at the width of the widest (the
        # sort puts it last), at least one: only _BLOCK_ELEMS // guess[start] can.
        ahead = guess[start:start + _BLOCK_ELEMS // guess[start]]
        fit = np.count_nonzero(np.arange(1, ahead.size + 1) * ahead <= _BLOCK_ELEMS)
        stop = start + max(1, fit)
        width = int(guess[stop - 1])
        idx, size, cols = order[start:stop], sizes[start:stop], params[:, start:stop]
        read_to = reach[start:stop]
        start = stop
        logw = _extend(np.zeros((idx.size, 1)), cols, width)
        while True:
            done = size <= width
            if not done.all():
                # Log-weights rise to the mode and fall after it, so a last
                # entry _CUT below the maximum is past the mode, as is every
                # later entry, each lower still: exp() gives exactly 0.0.
                # A row that holds its reach may stop _SUM_CUT below.
                top = logw.max(axis=1)
                done |= (logw[:, -1] < top - _CUT) | (
                    (read_to < width) & (logw[:, -1] < top - _SUM_CUT))
            weights = logw[done]
            weights[np.arange(width) >= size[done][:, None]] = -np.inf
            weights -= weights.max(axis=1)[:, None]
            np.exp(weights, out=weights)
            weights /= np.cumsum(weights, axis=1)[:, -1:]
            yield idx[done], weights
            del weights
            if done.all():
                break
            keep = ~done
            idx, size, read_to, cols = idx[keep], size[keep], read_to[keep], cols[:, keep]
            width = int(min(2 * width, size.max()))
            logw = _extend(logw[keep], cols, width)


def _extend(logw: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """Continue each row's log-weights to ``width`` columns with the term
    ratios pmf(x+1) / pmf(x), carrying the sequential cumsum across the cut.

    ``cols`` stacks the float64 columns lo, K, n and c = N - K - n; each
    holds an integer below 2**53, so it is the same float the scalar formula
    ``K - x`` converts it to.
    """
    lo, K, n, c = cols
    xs = lo + np.arange(logw.shape[1] - 1, width - 1, dtype=np.float64)
    # Past the support end the ratios turn -inf or nan; a sequential cumsum
    # carries those only forward, and those columns are masked later.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.log((K - xs) * (n - xs)) - np.log((xs + 1.0) * (c + xs + 1.0))
    tail = np.cumsum(np.concatenate((logw[:, -1:], ratios), axis=1), axis=1)
    return np.concatenate((logw, tail[:, 1:]), axis=1)


def _read_mid_p(pmfs: np.ndarray, row, at, upper: bool) -> np.ndarray:
    """Mid-p of point ``at`` of pmf row ``row`` (broadcast) on one side, the
    upper if ``upper`` is true, with that side as a running sum; a point past
    the row reads 0. The lower side's run[:, k] adds the first k entries
    upward, the upper side's the last k downward from the row's end."""
    width = pmfs.shape[1]
    point = np.where(at < width, pmfs[row, np.minimum(at, width - 1)], 0.0)
    run = np.zeros((pmfs.shape[0], width + 1))
    if upper:
        np.cumsum(pmfs[:, ::-1], axis=1, out=run[:, 1:])
        side = run[row, np.maximum(width - 1 - at, 0)]
    else:
        np.cumsum(pmfs, axis=1, out=run[:, 1:])
        side = run[row, np.minimum(at, width)]
    return np.minimum(0.5 * point + side, 1.0)


def mid_p_family(x, N, K, n, upper) -> np.ndarray:
    """Mid-p-values of a family of hypergeometric tests, one per element of
    the broadcast arrays: P(X > x) + P(X = x) / 2 where ``upper`` is true,
    P(X < x) + P(X = x) / 2 where it is false."""
    x, N, K, n, upper = np.broadcast_arrays(x, N, K, n, upper)
    shape = x.shape
    counts = [a.ravel() for a in (x, N, K, n)]
    if any(a.dtype.kind not in "biu" and not (np.isfinite(a) & (np.trunc(a) == a)).all()
           for a in counts):
        raise ValueError("hypergeometric counts must be finite integers")
    x, N, K, n = (a.astype(np.int64, copy=False) for a in counts)
    if np.any((K < 0) | (K > N) | (n < 0) | (n > N)):
        raise ValueError("invalid hypergeometric parameters")
    upper = upper.astype(bool, copy=False).ravel()
    lo, hi = np.maximum(n + K - N, 0), np.minimum(n, K)
    out = np.where(upper, x < lo, x > hi).astype(np.float64)
    inside = np.flatnonzero((lo <= x) & (x <= hi))
    # One pmf per distinct triple; its tests then differ only in x and side.
    # by_triple lists the tests triple by triple: triple t's start at first[t].
    # Each per-test temporary is dropped once read, and only what the reads
    # use outlives the walk's set-up.
    triple = np.stack([N, K, n])[:, inside]
    order = np.lexsort(triple[::-1])
    by_triple, triple = inside[order], triple[:, order]
    del inside, order
    first = np.flatnonzero(np.diff(triple, axis=1, prepend=-1).any(axis=0))
    del triple
    count = np.diff(first, append=by_triple.size)
    j = x - lo
    # A triple's row is read up to its largest lower-tail point, or whole
    # if an upper tail reads it (x <= hi, so hi - lo is then the largest).
    reach = np.maximum.reduceat(np.where(upper, hi - lo, j)[by_triple], first)
    t = by_triple[first]  # one test of each distinct triple
    blocks = _pmf_blocks(N[t], K[t], n[t], lo[t], hi[t] - lo[t] + 1, reach)
    del x, N, K, n, counts, lo, hi, reach, t
    for idx, pmfs in blocks:
        # The tests of these triples, and the pmf row of each.
        per = count[idx]
        row = np.repeat(np.arange(idx.size), per)
        tests = by_triple[np.repeat(first[idx] - (np.cumsum(per) - per), per)
                          + np.arange(row.size)]
        up = upper[tests]
        for side, sel in ((True, up), (False, ~up)):
            if sel.any():
                out[tests[sel]] = _read_mid_p(pmfs, row[sel], j[tests[sel]], side)
        del pmfs  # before the walk builds the next block
    return out.reshape(shape)


def upper_mid_p(x_obs: int, N: int, K: int, n: int) -> float:
    """Mid-p-value of the overenrichment tail: P(X > x) + P(X = x) / 2, for
    n draws from N stubs of which K are successes."""
    return float(mid_p_family(x_obs, N, K, n, True))


def lower_mid_p(x_obs: int, N: int, K: int, n: int) -> float:
    """Mid-p-value of the underenrichment tail: P(X < x) + P(X = x) / 2."""
    return float(mid_p_family(x_obs, N, K, n, False))


def bh_adjust(pvalues) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values, in the input order.

    p_adj for the i-th smallest p is min over j >= i of min(1, m * p_(j) / j).
    """
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("expected a flat sequence of p-values")
    if p.size == 0:
        return p.copy()
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adj = np.minimum(np.minimum.accumulate(scaled[::-1])[::-1], 1.0)
    out = np.empty_like(adj)
    out[order] = adj
    return out
