"""Reproducible random streams.

Every stochastic routine in this package draws from a generator obtained
through :func:`substream`, keyed by a user seed plus integer indices
(trial number, grid cell, chunk). Streams for distinct keys are
independent and do not depend on the order in which they are created, so
results are identical whether trials run serially or fan out across
worker processes.

An event loop reads two sequences. Its waiting times come from
``standard_exponential`` on the generator of its key, numpy's ziggurat,
which is compiled C with no per-CPU dispatch, so the waits are the same
on every host and in blocks of any size. With two or more reactions its
selection uniforms come from :func:`open_uniform_block` on a second
generator, :func:`second_stream` of the first: the first's stream
advanced far past any run's draws, so the two never overlap and no other
key's generator reads it.
"""

from __future__ import annotations

import numpy as np

from .errors import check_integer

# uniforms are built from the top 53 bits of each 64-bit draw, and the
# one integer that would round to 1.0 is clamped below it, so they lie
# strictly inside (0, 1)
_INV53 = 2.0**-53
_BELOW_ONE = 1.0 - _INV53
# the step of numpy's PCG64.jumped, (phi - 1) * 2**128 draws
_JUMP = 210306068529402873165736369884012333109


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for (seed, key), independent of creation order.

    ``seed`` and each key must be integers of at least 0; a float or a
    bool is refused, not truncated.
    """
    ss = np.random.SeedSequence(
        check_integer(seed, "seed", 0),
        spawn_key=tuple(check_integer(k, "stream key", 0) for k in key),
    )
    return np.random.default_rng(ss)


def second_stream(rng: np.random.Generator) -> np.random.Generator:
    """A second generator for the run that reads ``rng``, independent of it.

    It is the stream ``rng.bit_generator.jumped()`` gives while ``rng`` is
    fresh: ``rng``'s PCG64 stream from its seed sequence, advanced by
    ``_JUMP`` draws. Built from the seed sequence, it does not depend on
    the draws ``rng`` has made, and it costs half as much as ``jumped``,
    which seeds a throwaway generator from the operating system first.
    """
    bit_generator = np.random.PCG64(rng.bit_generator.seed_seq)
    bit_generator.advance(_JUMP)
    return np.random.Generator(bit_generator)


def open_uniform_block(rng: np.random.Generator, size: int) -> np.ndarray:
    """A block of open-interval uniforms; used to buffer hot loops.

    Each uniform takes one 64-bit draw. Its top 53 bits are the integers
    ``rng.integers(2**53)`` returns, at a fraction of the fixed cost.
    """
    u = ((rng.bit_generator.random_raw(size) >> 11) + 0.5) * _INV53
    return np.minimum(u, _BELOW_ONE, out=u)
