"""Reproducible random stream derivation.

Every random draw in the package flows from a single user seed. Independent
substreams are derived by combining the seed with integer key components via
``numpy.random.SeedSequence``, so each unit of work draws the same numbers
whatever order the units run in.
"""

from __future__ import annotations

import numpy as np

_SEED_MASK = (1 << 64) - 1


def _seed_sequence(seed, key) -> np.random.SeedSequence:
    entropy = [int(seed) & _SEED_MASK]
    for k in key:
        k = int(k)
        if k < 0:
            raise ValueError(f"stream key components must be nonnegative, got {k}")
        entropy.append(k)
    return np.random.SeedSequence(entropy)


def derive_seed(seed, *key: int) -> int:
    """Return a 64-bit integer seed for the stream identified by (seed, *key)."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


def derive_rng(seed, *key: int) -> np.random.Generator:
    """Return a PCG64 generator for the stream identified by (seed, *key).

    ``seed`` may be an integer or an existing Generator; a Generator is
    passed through unchanged (key must be empty in that case, since a live
    stream cannot be split retroactively).
    """
    if isinstance(seed, np.random.Generator):
        if key:
            raise ValueError("cannot derive a keyed stream from a live Generator")
        return seed
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, key)))
