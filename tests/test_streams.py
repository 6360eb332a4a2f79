import math

import numpy as np
import pytest

from crnsim.errors import DomainError
from crnsim.streams import open_uniform_block, substream


@pytest.mark.parametrize("seed, key", [(0, 0), (3, 17), (2012, 5), (99, 1234)])
@pytest.mark.parametrize("size", [1, 64, 4096, 100_000])
def test_uniforms_are_the_integers_draws_over_2_to_53(seed, key, size):
    # the top 53 bits of each raw draw are what rng.integers(2**53) returns,
    # so switching to random_raw leaves every simulate output unchanged
    ints = substream(seed, key).integers(2**53, size=size)
    assert np.array_equal(open_uniform_block(substream(seed, key), size), (ints + 0.5) * 2.0**-53)


class _TopRaw:
    """A stand-in generator whose every 64-bit draw is 2**64 - 1."""

    class bit_generator:
        @staticmethod
        def random_raw(size):
            return np.full(size, 2**64 - 1, dtype=np.uint64)


def test_top_integer_stays_below_one():
    # (2**53 - 1 + 0.5) * 2**-53 rounds to 1.0, where -log(u) would be -0.0
    u = open_uniform_block(_TopRaw(), 3)
    assert np.all(u == 1.0 - 2.0**-53)
    assert np.all(-np.log(u) > 0.0)


@pytest.mark.parametrize("seed", [-1, 1.7, 2.0, math.nan, True, "3"])
def test_seed_must_be_an_integer_of_at_least_zero(seed):
    # 1.7 and 2.0 were truncated, and -1 failed inside SeedSequence
    with pytest.raises(DomainError, match="seed must be an integer of at least 0"):
        substream(seed, 0)

