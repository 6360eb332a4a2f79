import math
import os
import subprocess
import sys
import threading
import time

import pytest

from crnsim import kinetics, parallel, processes
from crnsim.bounds import (
    DecayBoundParams,
    PoissonBoundParams,
    ReflectingBoundParams,
    WalkBoundParams,
    monte_carlo_validate,
)
from crnsim.cli import main
from crnsim.errors import DomainError
from crnsim.kinetics import StopCondition, run_trials
from crnsim.model import parse_crn
from crnsim.parallel import map_chunks, map_ordered
from crnsim.streams import substream


@pytest.mark.parametrize("threads", [0, -3, 1.5, math.nan, True])
def test_threads_must_be_an_integer_of_at_least_one(threads):
    # 0 and -3 ran serially without a word, and NaN opened a pool that never
    # started a worker thread, so the map never returned
    with pytest.raises(DomainError, match="threads must be an integer of at least 1"):
        map_ordered(abs, [1, -2], threads)
    with pytest.raises(DomainError, match="threads must be an integer of at least 1"):
        map_chunks(lambda rng, size: size, 10, 4, 0, threads=threads)


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="chunks run on worker processes on Linux only")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so threads > 1 takes the pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _first_draw(rng, size):
    return size, float(rng.random())


def _refuse_chunk_two(rng, size):
    if size == 2:
        raise DomainError("chunk two refused")
    return size


def _exit_at_once(rng, size):
    os._exit(3)


@linux_only
def test_chunks_come_back_in_order_with_their_sizes(two_cpus):
    want = [_first_draw(substream(5, 7, c), 3) for c in range(3)] + [
        _first_draw(substream(5, 7, 3), 1)]
    for threads in (1, 2, 4):
        assert map_chunks(_first_draw, 10, 3, 5, (7,), threads) == want


_STOPS = {
    "watch": StopCondition(t_max=3.0, reaches=[("Y", ">=", 1), ("Z", ">=", 1)]),
    "count": StopCondition(reaches=[("X", "<=", 4)], max_events=5_000),
    "horizon": StopCondition(t_max=0.4),
}


@linux_only
@pytest.mark.parametrize("stop", _STOPS.values(), ids=_STOPS.keys())
def test_run_trials_identical_on_workers(stop, two_cpus):
    crn, _ = parse_crn("X -> Y ; k=1\nY -> Z ; k=2\nX + Y -> Z ; k=0.1\n")
    init = crn.config({"X": 12})
    trials = 2 * kinetics._TRIAL_CHUNK + 300  # three chunks
    runs = [run_trials(crn, init, stop, trials, seed=21, threads=t) for t in (1, 2, 4)]
    for times, first in runs[1:]:
        assert times.tobytes() == runs[0][0].tobytes()
        assert first.shape == runs[0][1].shape and first.tobytes() == runs[0][1].tobytes()


_POINTS = [
    ("decay", DecayBoundParams(80, 1.0, 0.5, 0.5)),
    ("poisson", PoissonBoundParams(10.0, 14.0, "upper")),
    ("walk_z", WalkBoundParams(10.0, 5.0, 1.0, 0.5)),
    ("reflecting", ReflectingBoundParams(0.1, 1.0, 0.025, 100)),
]


@linux_only
@pytest.mark.parametrize("target, params", _POINTS, ids=[t for t, _ in _POINTS])
def test_validation_identical_on_workers(target, params, two_cpus):
    reports = [monte_carlo_validate(target, params, trials=20_000, seed=8, threads=t)
               for t in (1, 2, 4)]  # three chunks of draws
    assert reports[1] == reports[0] and reports[2] == reports[0]


@linux_only
def test_worker_exception_reaches_the_caller_unchanged(two_cpus):
    with pytest.raises(DomainError, match="^chunk two refused$"):
        map_chunks(_refuse_chunk_two, 8, 3, 0, threads=2)
    assert map_chunks(_first_draw, 4, 2, 0, threads=2) == map_chunks(_first_draw, 4, 2, 0)


@linux_only
def test_rate_beyond_the_sampler_exits_1_from_a_worker(two_cpus, capsys):
    argv = ["--threads", "2", "bounds", "walk", "--f-hat", "1e10", "--r-hat", "1",
            "--t", "1e10", "--eps-hat", "0.5", "--validate", "--trials", "20000"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: the Poisson rate f_hat*t = 1e+20 exceeds the sampler's limit of 9.22337e+18\n")


@linux_only
def test_concurrent_callers_share_the_pool(two_cpus):
    # one caller drives the pool at a time; the others wait for the pool
    want = map_chunks(_first_draw, 40, 3, 11)
    assert map_chunks(_first_draw, 40, 3, 11, threads=2) == want  # the pool exists
    got, interval = [], sys.getswitchinterval()

    def call():
        for _ in range(20):
            got.append(map_chunks(_first_draw, 40, 3, 11, threads=2))

    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(got) == 80 and all(g == want for g in got)


@linux_only
def test_function_that_does_not_pickle_is_refused(two_cpus):
    with pytest.raises(TypeError, match="must pickle"):
        map_chunks(lambda rng, size: size, 10, 4, 0, threads=2)


@linux_only
def test_pool_restarts_after_a_worker_dies(two_cpus):
    with pytest.raises(RuntimeError, match="worker process exited"):
        map_chunks(_exit_at_once, 4, 2, 0, threads=2)
    assert map_chunks(_first_draw, 4, 2, 0, threads=2) == map_chunks(_first_draw, 4, 2, 0)


@pytest.mark.parametrize("threads, cpus, trials, draws",
                         [(2, {0, 1}, 1024, 0), (1, {0, 1}, 3000, 20_000),
                          (2, {0}, 3000, 20_000)],
                         ids=["one-chunk", "threads-1", "one-cpu"])
def test_work_stays_in_process(threads, cpus, trials, draws, monkeypatch):
    # a monkeypatched kernel or sampler sees every chunk only in this process;
    # validation has no one-chunk case, as it takes at least 10 000 draws
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    batches, samples = [], []
    run_batch, sample = kinetics._run_batch, processes.sample_decay_batch
    monkeypatch.setattr(kinetics, "_run_batch",
                        lambda *a, **kw: batches.append(a[3]) or run_batch(*a, **kw))
    monkeypatch.setattr(processes, "sample_decay_batch",
                        lambda *a, **kw: samples.append(a[1]) or sample(*a, **kw))
    crn, _ = parse_crn("X -> Y ; k=1\n")
    run_trials(crn, crn.config({"X": 5}), StopCondition(t_max=1.0), trials, seed=1,
               threads=threads)
    assert sum(batches) == trials
    if draws:
        monte_carlo_validate("decay", DecayBoundParams(80, 1.0, 0.5, 0.5), trials=draws,
                             seed=1, threads=threads)
        assert sum(samples) == draws


def _caller_ident(rng, size):
    return threading.get_ident()


def test_work_without_the_pool_runs_in_the_calling_thread(monkeypatch):
    # threads gain nothing on work that holds the interpreter lock, so every
    # map the fork pool does not take runs in the caller
    me = threading.get_ident()
    assert set(map_ordered(lambda x: threading.get_ident(), range(8), 4)) == {me}
    monkeypatch.setattr(parallel, "_FORKS", False)
    assert set(map_chunks(_caller_ident, 40, 3, 0, threads=4)) == {me}


def _running(pid: int) -> bool:
    """Whether ``pid`` names a process that is neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@linux_only
@pytest.mark.parametrize("end", ["exit", "killed"])
def test_no_worker_outlives_its_parent(end):
    # a parent killed outright runs no exit hook; its workers die with it
    code = (
        "import multiprocessing, os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from crnsim.bounds import PoissonBoundParams, monte_carlo_validate\n"
        "params = PoissonBoundParams(10.0, 14.0, 'upper')\n"
        "monte_carlo_validate('poisson', params, trials=20_000, threads=2)\n"
        "print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
        f"if {end == 'killed'}:\n"
        "    monte_carlo_validate('poisson', params, trials=10**10, threads=2)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(parallel.__file__))}
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                          env=env) as child:
        pids = [int(p) for p in child.stdout.readline().split()]
        if end == "killed":
            time.sleep(0.5)  # the workers are busy with the endless call by now
            child.kill()
        assert child.wait(timeout=60) == (-9 if end == "killed" else 0)
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))
