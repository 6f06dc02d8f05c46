"""Deterministic random number streams.

All sampling in the package goes through Philox, a counter-based 64-bit
generator, so that a (seed, stream) pair reproduces bit-identical draws
across runs and platforms. ``stream`` separates independent consumers (e.g.
see-saw restarts) under one user-facing seed.
"""

import numpy as np

from .errors import InvalidInput


def uint64(name: str, value) -> np.uint64:
    """``value`` as one 64-bit key word; a float or bool would alias an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if not 0 <= int(value) < 2**64:  # wrapping would alias two seeds
        raise InvalidInput(f"{name} must lie in [0, 2**64), got {value}")
    return np.uint64(value)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([uint64("seed", seed), uint64("stream", stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
