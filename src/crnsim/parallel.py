"""Thread fan-out that never changes results.

Work items carry their own random substreams, so the mapping below is a
pure scheduling choice: ``map_ordered`` returns results in input order
whether it runs serially or on a pool. ``map_chunks`` fixes the stream
layout of chunked Monte Carlo work: chunk c draws from
``substream(seed, *key, c)``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .streams import substream


def map_ordered(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def map_chunks(fn, total: int, chunk: int, seed: int, key: tuple = (), threads: int = 1) -> list:
    """``fn(substream(seed, *key, c), size)`` for each chunk c of ``total`` items, in order.

    Chunk c covers items ``c * chunk`` up to ``min((c + 1) * chunk, total)``
    and ``size`` is its item count. Each chunk draws only from its own
    substream, so the results do not depend on ``threads``.
    """

    def one(c: int):
        return fn(substream(seed, *key, c), min(chunk, total - c * chunk))

    return map_ordered(one, range(-(-total // chunk)), threads)
