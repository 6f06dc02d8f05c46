"""Deterministic random number streams.

All sampling in the package goes through Philox, a counter-based 64-bit
generator, so that a (seed, stream) pair reproduces bit-identical draws
across runs and across parallel schedules. ``stream`` separates independent
consumers (e.g. see-saw restarts) under one user-facing seed.
"""

import numpy as np

from .errors import InvalidInput


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    if not 0 <= seed < 2**64:  # the 64-bit key; wrapping would alias two seeds
        raise InvalidInput(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
