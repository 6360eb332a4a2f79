import math

import numpy as np
import pytest

from crnsim.errors import DomainError
from crnsim.streams import open_uniform_block, second_stream, substream


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
    # and a selection v * total would reach the total, so that a last
    # reaction of propensity 0 could be chosen
    u = open_uniform_block(_TopRaw(), 3)
    assert np.all(u == 1.0 - 2.0**-53)
    assert np.all(-np.log(u) > 0.0)


@pytest.mark.parametrize("seed", [-1, 1.7, 2.0, math.nan, True, "3"])
def test_seed_must_be_an_integer_of_at_least_zero(seed):
    # 1.7 and 2.0 were truncated, and -1 failed inside SeedSequence
    with pytest.raises(DomainError, match="seed must be an integer of at least 0"):
        substream(seed, 0)



@pytest.mark.parametrize("key", [2.5, 2.0, math.nan, True, "3", -1])
def test_stream_keys_must_be_integers_of_at_least_zero(key):
    # 2.5 and 2.0 ran key 2, True ran key 1, "3" ran key 3, and -1 failed
    # inside SeedSequence
    with pytest.raises(DomainError, match="stream key must be an integer of at least 0"):
        substream(1, 0, key)


def test_numpy_integer_stream_keys_accepted():
    want = substream(1, 2, 3).random(8)
    assert np.array_equal(substream(1, np.int64(2), np.uint8(3)).random(8), want)


@pytest.mark.parametrize("seed, key", [(0, ()), (3, (17,)), (2012, (5, 0))])
def test_second_stream_is_the_fresh_generator_jumped(seed, key):
    # the second stream is the first one advanced by PCG64's jump, however
    # many draws the first has made, and it is not the first stream's
    # child, substream(seed, *key, 0), which another run reads
    want = np.random.Generator(substream(seed, *key).bit_generator.jumped()).random(64)
    rng = substream(seed, *key)
    assert np.array_equal(second_stream(rng).random(64), want)
    rng.standard_exponential(5)
    assert np.array_equal(second_stream(rng).random(64), want)
    assert not np.array_equal(substream(seed, *key, 0).random(64), want)
    assert not np.array_equal(substream(seed, *key).random(64), want)


@pytest.mark.parametrize("seed, key", [(0, 0), (3, 17), (2012, 5)])
def test_waits_do_not_depend_on_the_block_split(seed, key):
    # the scalar loop draws its waits in blocks of 64, 128, ..., 4096, cut
    # to an event budget, and the batched loops in blocks of their own; the
    # ziggurat gives the same exponentials for any split
    one = substream(seed, key).standard_exponential(12_000)
    for sizes in ([64, 128, 256, 512, 1024, 2048, 4096, 3872],
                  [63, 1, 65, 127, 1, 191, 11_552], [1] * 300 + [11_700]):
        rng = substream(seed, key)
        assert np.array_equal(np.concatenate([rng.standard_exponential(n) for n in sizes]), one)
