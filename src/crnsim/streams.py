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

# 2**53; uniforms are built from 53-bit integers so they lie strictly
# inside (0, 1) and -log(u) is always finite and positive.
_U53 = 1 << 53
_INV53 = 2.0**-53


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for (seed, key), independent of creation order."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def open_uniform_block(rng: np.random.Generator, size: int) -> np.ndarray:
    """A block of open-interval uniforms; used to buffer hot loops."""
    return (rng.integers(_U53, size=size) + 0.5) * _INV53
