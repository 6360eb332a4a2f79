import math

import pytest

from crnsim.errors import DomainError
from crnsim.parallel import map_chunks, map_ordered


@pytest.mark.parametrize("threads", [0, -3, 1.5, math.nan, True])
def test_threads_must_be_an_integer_of_at_least_one(threads):
    # 0 and -3 ran serially without a word, and NaN opened a pool that never
    # started a worker thread, so the map never returned
    with pytest.raises(DomainError, match="threads must be an integer of at least 1"):
        map_ordered(abs, [1, -2], threads)
    with pytest.raises(DomainError, match="threads must be an integer of at least 1"):
        map_chunks(lambda rng, size: size, 10, 4, 0, threads=threads)

