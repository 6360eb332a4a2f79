"""Reproducible random streams.

Every stochastic routine in this package draws from a generator obtained
through :func:`substream`, keyed by a user seed plus integer indices
(trial number, grid cell, chunk). Streams for distinct keys are
independent and do not depend on the order in which they are created, so
results are identical whether trials run serially or fan out across
threads.
"""

from __future__ import annotations

import numpy as np

# uniforms are built from the top 53 bits of each 64-bit draw, and the
# one integer that would round to 1.0 is clamped below it, so they lie
# strictly inside (0, 1) and -log(u) is always finite and positive.
_INV53 = 2.0**-53
_BELOW_ONE = 1.0 - _INV53


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for (seed, key), independent of creation order."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def open_uniform_block(rng: np.random.Generator, size: int) -> np.ndarray:
    """A block of open-interval uniforms; used to buffer hot loops.

    Each uniform takes one 64-bit draw. Its top 53 bits are the integers
    ``rng.integers(2**53)`` returns, at a fraction of the fixed cost.
    """
    u = ((rng.bit_generator.random_raw(size) >> 11) + 0.5) * _INV53
    return np.minimum(u, _BELOW_ONE, out=u)
