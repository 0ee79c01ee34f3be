"""Exact hypergeometric distribution, one-tailed mid-p-values, and the
Benjamini-Hochberg step-up adjustment.

Every pmf comes from one engine, a block walk over a whole family of
parameter triples, and every mid-p from one reader of its pmf rows:
:func:`mid_p_family` reads the blocks as they stop, :func:`support_pmfs`
hands them out one triple at a time, and the scalar tails read the row of
one triple's whole support. Rows are grouped into blocks of at most
``_BLOCK_ROWS`` rows and ``_BLOCK_ELEMS`` log-weights, and each row walks
its support from the low end with the term-ratio recurrence in log space: a
sequential cumsum of log pmf(x+1) / pmf(x). There is no per-triple cache; a
:class:`HypergeomParams` object keeps the pmf of its own triple.

Underflow window. float64 ``exp`` returns exactly 0.0 below -745.13, so a
row stops once it is past its mode and more than ``_CUT`` = 750 nats below
its maximum: past the mode every ratio is negative, every later log-weight
is lower still, and a walk over the whole support would turn each of them
into 0.0. The window starts at mean + 40 sd and doubles until the row stops.
On a 200k-edge graph with 200 communities that is a few hundred entries of
supports about 2,000 long.

Bit-identity with the whole-support walk. A sequential cumsum's prefix never
depends on later entries, and the walk continues across a window edge as
``cumsum([carry, ratios...])``, so every log-weight, each row maximum and
each exp() are the same floats as over the whole support. Every sum is a
running sum too: the normalizer is the last entry of the row's cumsum, a
lower tail sums upward from the support's low end, and an upper tail sums
downward from the window's end. Past the window the whole support holds only
zeros, which add exactly nothing to a running sum, so each sum is the same
float as the whole-support cumsum; a point past the window reads 0.

Tail sums always accumulate the requested side directly from the pmf, so
deep tails keep full relative precision instead of collapsing into
1 - (bulk mass) cancellation. No normal or binomial approximation is used.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# float64 exp() returns exactly 0.0 below -745.13, so a log-weight more than
# this far below its row maximum adds nothing to any pmf.
_CUT = 750.0
# A block of rows holds at most this many log-weights per array.
_BLOCK_ROWS = 256
_BLOCK_ELEMS = 1 << 20


@dataclass(frozen=True)
class HypergeomParams:
    """Population stubs N, success stubs K, and draw count n."""

    N: int
    K: int
    n: int

    def __post_init__(self) -> None:
        if not (0 <= self.K <= self.N and 0 <= self.n <= self.N):
            raise ValueError(f"invalid hypergeometric parameters {self}")

    @property
    def support(self) -> tuple[int, int]:
        return max(0, self.n + self.K - self.N), min(self.n, self.K)

    @cached_property
    def pmf(self) -> np.ndarray:
        """Unit-normalized pmf over the support, indexed from support[0]:
        one call into the family engine, kept for this object's lifetime."""
        ((_, pmf),) = support_pmfs(self.N, self.K, self.n)
        pmf.setflags(write=False)
        return pmf


def _supports(N: np.ndarray, K: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of each support, after checking every parameter triple."""
    if np.any((K < 0) | (K > N) | (n < 0) | (n > N)):
        raise ValueError("invalid hypergeometric parameters")
    return np.maximum(n + K - N, 0), np.minimum(n, K)


def support_pmfs(N, K, n) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(i, pmf)`` for every parameter triple ``i`` of the broadcast
    arrays: the unit-normalized pmf over the whole support, indexed from its
    lower end. Triples come in block order, not input order."""
    for idx, size, pmfs in _pmf_blocks(N, K, n):
        for i, length, row in zip(idx.tolist(), size.tolist(), pmfs):
            pmf = np.zeros(length)
            w = min(row.size, length)
            pmf[:w] = row[:w]
            yield i, pmf


def _pmf_blocks(N, K, n) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(idx, size, pmfs)`` for each set of parameter triples of the
    broadcast arrays that stop together: triple ``idx[k]`` has support length
    ``size[k]``, row ``k`` of ``pmfs`` holds the first entries of its pmf,
    and every later entry is exactly zero."""
    N, K, n = (np.asarray(a, dtype=np.int64).ravel() for a in np.broadcast_arrays(N, K, n))
    lo, hi = _supports(N, K, n)
    # First window: mean plus 40 standard deviations, grown by doubling
    # where the tail is heavier than that. Rows are sorted by it so that a
    # block holds windows of similar width. (N < 2 has a one-point support.)
    Nf, Kf, nf = np.maximum(N, 2).astype(np.float64), K.astype(np.float64), n.astype(np.float64)
    mean = nf * Kf / Nf
    sd = np.sqrt(mean * (Nf - Kf) / Nf * (Nf - nf) / (Nf - 1.0))
    sizes = hi - lo + 1
    guess = np.minimum(np.ceil(mean + 40.0 * sd).astype(np.int64) - lo + 64, sizes)
    order = np.argsort(guess, kind="stable")
    guess, sizes = guess[order], sizes[order]
    # The walk's float columns lo, K, n and N - K - n, stacked; see _extend.
    params = np.stack((lo, K, n, N - K - n))[:, order, None].astype(np.float64)
    total, start = order.size, 0
    while start < total:
        width = int(guess[min(start + _BLOCK_ROWS, total) - 1])
        stop = min(start + max(1, min(_BLOCK_ROWS, _BLOCK_ELEMS // width)), total)
        idx, size, cols = order[start:stop], sizes[start:stop], params[:, start:stop]
        start = stop
        logw = _extend(np.zeros((idx.size, 1)), cols, width)
        while True:
            done = size <= width
            if not done.all():
                # Log-weights rise to the mode and fall after it, so a last
                # entry _CUT below the maximum is past the mode, as is every
                # later entry, each lower still: exp() gives exactly 0.0.
                done |= logw[:, -1] < logw.max(axis=1) - _CUT
            part = logw[done]
            part[np.arange(width) >= size[done][:, None]] = -np.inf
            weights = np.exp(part - part.max(axis=1)[:, None])
            weights /= np.cumsum(weights, axis=1)[:, -1:]
            yield idx[done], size[done], weights
            if done.all():
                break
            keep = ~done
            idx, size, cols = idx[keep], size[keep], cols[:, keep]
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


def _read_mid_p(pmfs: np.ndarray, row, at, upper) -> np.ndarray:
    """Mid-p of point ``at`` of pmf row ``row`` (broadcast), with the requested
    side as a running sum; a point past the row reads 0. below[:, k] adds the
    first k entries upward, above[:, k] the last k downward from the row's end."""
    width = pmfs.shape[1]
    zero = np.zeros((pmfs.shape[0], 1))
    below = np.cumsum(np.hstack((zero, pmfs)), axis=1)
    above = np.cumsum(np.hstack((zero, pmfs[:, ::-1])), axis=1)
    point = np.where(at < width, pmfs[row, np.minimum(at, width - 1)], 0.0)
    side = np.where(upper, above[row, np.maximum(width - 1 - at, 0)],
                    below[row, np.minimum(at, width)])
    return np.minimum(0.5 * point + side, 1.0)


def mid_p_family(x, N, K, n, upper) -> np.ndarray:
    """Mid-p-values of a family of hypergeometric tests, one per element of
    the broadcast arrays: P(X > x) + P(X = x) / 2 where ``upper`` is true,
    P(X < x) + P(X = x) / 2 where it is false."""
    x, N, K, n, upper = np.broadcast_arrays(x, N, K, n, upper)
    shape = x.shape
    x, N, K, n = (np.asarray(a, dtype=np.int64).ravel() for a in (x, N, K, n))
    upper = np.asarray(upper, dtype=bool).ravel()
    lo, hi = _supports(N, K, n)
    out = np.where(upper, x < lo, x > hi).astype(np.float64)
    inside = np.flatnonzero((lo <= x) & (x <= hi))
    # One pmf per distinct triple; its tests then differ only in x and side.
    # by_triple lists the tests triple by triple: triple t's start at first[t].
    triple = np.stack([N, K, n])[:, inside]
    order = np.lexsort(triple[::-1])
    by_triple, triple = inside[order], triple[:, order]
    first = np.flatnonzero(np.diff(triple, axis=1, prepend=-1).any(axis=0))
    count = np.diff(first, append=by_triple.size)
    j = x - lo
    for idx, _, pmfs in _pmf_blocks(*triple[:, first]):
        # The tests of these triples, and the pmf row of each.
        per = count[idx]
        row = np.repeat(np.arange(idx.size), per)
        tests = by_triple[np.repeat(first[idx] - (np.cumsum(per) - per), per)
                          + np.arange(row.size)]
        out[tests] = _read_mid_p(pmfs, row, j[tests], upper[tests])
    return out.reshape(shape)


def hypergeom_pmf(x: int, params: HypergeomParams) -> float:
    lo, hi = params.support
    return float(params.pmf[x - lo]) if lo <= x <= hi else 0.0


def _mid_p(x_obs: int, params: HypergeomParams, upper: bool) -> float:
    """One test of :func:`mid_p_family`, read from ``params.pmf``."""
    lo, hi = params.support
    if not lo <= x_obs <= hi:
        return float(upper == (x_obs < lo))
    return float(_read_mid_p(params.pmf[None], 0, x_obs - lo, upper))


def upper_mid_p(x_obs: int, params: HypergeomParams) -> float:
    """Mid-p-value of the overenrichment tail: P(X > x) + P(X = x) / 2."""
    return _mid_p(x_obs, params, True)


def lower_mid_p(x_obs: int, params: HypergeomParams) -> float:
    """Mid-p-value of the underenrichment tail: P(X < x) + P(X = x) / 2."""
    return _mid_p(x_obs, params, False)


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
