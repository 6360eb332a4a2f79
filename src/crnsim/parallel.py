"""Fan-out that never changes results.

Work items carry their own random substreams, so the mapping below is a
pure scheduling choice. ``map_ordered`` returns ``[fn(x) for x in items]``
in input order, in the calling thread, for any callable, closures
included. ``map_chunks`` fixes the stream layout of chunked Monte Carlo
work: chunk c draws from ``substream(seed, *key, c)``.

On Linux, ``map_chunks`` runs the chunks of a call on a persistent pool of
worker processes, since the numpy calls of a chunk are too short to let
threads run while they hold the interpreter lock. The pool is forked on
the first call that fans out, grows to at most min(threads, usable CPUs)
workers and is shut down at interpreter exit; other maps run in the
calling thread. The pool machinery is imported on the first fan-out only.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from functools import partial

from .errors import check_integer
from .streams import substream

_FORKS = sys.platform.startswith("linux")  # where chunks run on worker processes
# (process, parent end of its pipe) per worker; None inside a worker, whose
# chunks always run in-process
_pool: list | None = []
_pool_lock = threading.Lock()  # one call drives the pool at a time


def map_ordered(fn, items, threads: int = 1) -> list:
    """``[fn(x) for x in items]``, in the calling thread.

    ``fn`` is often a closure, which cannot pickle to a worker process, so
    the items run in-process. ``threads`` must be an integer of at least 1.
    """
    check_integer(threads, "threads")
    return [fn(x) for x in items]


def _chunk(fn, total: int, chunk: int, seed: int, key: tuple, c: int):
    return fn(substream(seed, *key, c), min(chunk, total - c * chunk))


def map_chunks(fn, total: int, chunk: int, seed: int, key: tuple = (), threads: int = 1) -> list:
    """``fn(substream(seed, *key, c), size)`` for each chunk c of ``total`` items, in order.

    Chunk c covers items ``c * chunk`` up to ``min((c + 1) * chunk, total)``
    and ``size`` is its item count. Each chunk draws only from its own
    substream, so the results do not depend on ``threads`` or on the
    process that runs a chunk.

    On Linux the chunks run on min(threads, usable CPUs, chunks) worker
    processes, each taking one contiguous group of chunks. ``fn`` must
    then pickle (a ``TypeError`` says so when it does not), and an
    exception it raises in a worker is raised here unchanged; a concurrent
    caller waits for the pool. The chunks run in the calling thread inside
    a worker, off Linux, with one chunk, ``threads=1`` or one usable CPU,
    and when a worker would have to be forked from a process running
    several threads.
    """
    threads = check_integer(threads, "threads")
    n = -(-total // chunk)
    workers = min(threads, n, len(os.sched_getaffinity(0))) if _pool is not None and _FORKS else 1
    if workers > 1:
        with _pool_lock:
            if len(_pool) >= workers or threading.active_count() == 1:
                groups = [range(n * i // workers, n * (i + 1) // workers) for i in range(workers)]
                return _on_workers(fn, total, chunk, seed, key, groups)
    return map_ordered(partial(_chunk, fn, total, chunk, seed, key), range(n), threads)


def _on_workers(fn, total, chunk, seed, key, groups) -> list:
    """The chunks of ``groups``, group i on worker i, in one round trip per worker."""
    try:
        jobs = [pickle.dumps((fn, total, chunk, seed, key, cs)) for cs in groups]
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise TypeError(f"map_chunks runs chunks in worker processes, so its function "
                        f"must pickle: {exc}") from exc
    _start(len(groups))
    try:
        for (_, conn), job in zip(_pool, jobs):
            conn.send_bytes(job)
        replies = [pickle.loads(conn.recv_bytes()) for _, conn in _pool[:len(jobs)]]
    except (EOFError, OSError) as exc:
        _shutdown(kill=True)
        raise RuntimeError("a map_chunks worker process exited during a call") from exc
    except BaseException:  # interrupted mid-call: the workers' state is unknown
        _shutdown(kill=True)
        raise
    out = []
    for ok, value in replies:
        if not ok:
            raise value
        out += value
    return out


def _start(workers: int) -> None:
    """Fork workers until the pool has ``workers`` of them."""
    import atexit
    import multiprocessing

    if not _pool:  # registered after multiprocessing's own exit hook, so it runs first
        atexit.register(_shutdown)
    ctx = multiprocessing.get_context("fork")
    while len(_pool) < workers:
        here, there = ctx.Pipe()
        proc = ctx.Process(target=_serve, args=(there, here, os.getpid()), daemon=True)
        proc.start()
        there.close()
        _pool.append((proc, here))


def _shutdown(kill: bool = False) -> None:
    """Stop every worker: closing its pipe ends its loop; ``kill`` does not wait for that."""
    while _pool:
        proc, conn = _pool.pop()
        conn.close()
        if kill:
            proc.kill()
        proc.join(timeout=5)
        if proc.is_alive():
            proc.kill()
            proc.join()


def _serve(conn, parent_end, parent: int) -> None:
    """A worker's loop: run one group of chunks per message until the pipe closes."""
    import ctypes
    import signal

    global _pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent takes Ctrl-C
    # a busy worker reads no pipe, so it would outlive a parent killed
    # outright: have the kernel end it then (PR_SET_PDEATHSIG is 1). The
    # signal follows the forking thread, which was the parent's only one
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before the line above
        return
    # close every parent end this fork inherited, so that each worker sees
    # its pipe close as soon as the parent's end does
    parent_end.close()
    for _, other in _pool:
        other.close()
    _pool = None
    while True:
        try:
            job = conn.recv_bytes()
        except EOFError:
            return
        try:
            fn, total, chunk, seed, key, cs = pickle.loads(job)
            reply = pickle.dumps((True, [_chunk(fn, total, chunk, seed, key, c) for c in cs]))
        except Exception as exc:
            reply = pickle.dumps((False, exc))
        try:
            conn.send_bytes(reply)
        except OSError:  # the parent gave up on this call and closed the pipe
            return
