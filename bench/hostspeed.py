"""Host speed, sampled with a fixed reference loop between unit calls.

On a shared host the speed of a core changes by up to 2x within a minute,
and in steps that last about a second, so raw times of the same code
spread more from run to run than a code change should be allowed to move
them. A crnsim call and a fixed loop of the same kind of work, timed next
to each other, slow down together. The runner therefore reports times
scaled to a reference speed: each stretch of time between two samples of
the reference loop counts as

    raw * REF_S / (mean time of the two samples around it)

The reference loops are benchmark code only, so no change to crnsim can
move them. There are three, matched to what a workload spends its time
on: ``interpreter`` (a small event loop over Python lists with a fresh
numpy generator per trial, and a breadth-first search over count tuples)
for multi-trial kinetics and analysis, ``records`` (an event loop that
records every event as a tuple, then formats the events as CSV) for
recorded trajectories, and ``arrays`` (an integer loop and whole-array
numpy work on 800 kB arrays) for the vectorised samplers. Raw times are
printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import statistics
import time

import numpy as np

PERIOD_S = 0.2  # least time between two samples inside a measured span

_ARRAY = np.random.default_rng(12345).random(100_000)


def interpreter_loop() -> float:
    """A three-reaction direct-method loop and a bounded BFS, both fixed."""
    coef, deltas = (1.0, 0.5, 0.25), ((0, 1), (1, 2), (2, 0))
    t = 0.0
    for trial in range(2):
        u = np.random.default_rng(trial).random(1024)
        counts, rho = [300, 0, 0], [0.0, 0.0, 0.0]
        for k in range(1000):
            total = 0.0
            for j in range(3):
                rho[j] = p = coef[j] * counts[j]
                total += p
            t -= math.log(u[k & 1023]) / total
            x, j = u[(k * 7) & 1023] * total, 0
            while x > rho[j] and j < 2:
                x -= rho[j]
                j += 1
            src, dst = deltas[j]
            if counts[src] > 0:
                counts[src] -= 1
                counts[dst] += 1
    seen, frontier = set(), [(3, 0, 0, 0)]
    while frontier and len(seen) < 1500:
        c = frontier.pop()
        if c in seen:
            continue
        seen.add(c)
        a, b, e, d = c
        for n in ((a - 1, b + 1, e, d), (a, b - 1, e + 1, d), (a, b, e - 1, d + 2),
                  (a + 1, b, e, d - 1)):
            if min(n) >= 0 and max(n) < 20 and n not in seen:
                frontier.append(n)
    return t + len(seen)


def records_loop() -> float:
    """Two recorded 1000-event trajectories, written out as CSV text."""
    runs = []
    for trial in range(2):
        u = np.random.default_rng(trial).random(1024)
        t, events = 0.0, []
        for k in range(1000):
            t -= math.log(u[k]) / (1000.0 - k)
            events.append((t, k % 3))
        runs.append(events)
    buf = io.StringIO()
    w = csv.writer(buf)
    for events in runs:
        for i, (t, j) in enumerate(events):
            w.writerow([i, repr(t), f"r{j}"])
    return t + buf.tell()


def arrays_loop() -> float:
    """An integer loop and four passes of exp and cumsum over 100k floats."""
    acc = 0
    for i in range(12_000):
        acc += (i * i) % 7
    for _ in range(4):
        acc += float(np.cumsum(np.exp(-_ARRAY))[-1])
    return acc


# Each loop's time at the reference speed. Any fixed value does; these are
# the loops' medians on the machine the baseline was measured on, so that
# scaled figures read close to raw ones there.
REFERENCES = {
    "interpreter": (interpreter_loop, 0.0058),
    "records": (records_loop, 0.0042),
    "arrays": (arrays_loop, 0.0040),
}


class SpeedProbe:
    """Samples a reference loop before, after and (between unit calls, at
    most every PERIOD_S) inside a measured span, and scales times taken
    in the span to the reference speed."""

    def __init__(self, kind: str):
        self.loop, self.ref_s = REFERENCES[kind]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._next = 0.0

    def sample(self):
        t0 = time.perf_counter()
        self.loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._next = t1 + PERIOD_S

    def maybe_sample(self):
        if time.perf_counter() >= self._next:
            self.sample()

    def start(self, n: int = 1):
        """Begin a span: drop old samples and take ``n`` fresh ones."""
        self.starts.clear()
        self.ends.clear()
        for _ in range(n):
            self.sample()

    def finish(self, n: int = 1):
        """End a span with ``n`` more samples."""
        for _ in range(n):
            self.sample()

    def factor(self) -> float:
        """REF_S over the mean sample of the span."""
        return self.ref_s / statistics.fmean(e - s for s, e in zip(self.starts, self.ends))

    def scale(self, t0: float, t1: float, weighted: bool = True) -> float:
        """The time in [t0, t1] outside the samples, each gap between two
        samples weighted by REF_S over the mean of those two samples (or
        unweighted)."""
        total = 0.0
        k = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < t1:
            lo, hi = max(self.ends[k], t0), min(self.starts[k + 1], t1)
            if hi > lo:
                mean = (self.ends[k] - self.starts[k] + self.ends[k + 1] - self.starts[k + 1]) / 2
                total += (hi - lo) * (self.ref_s / mean if weighted else 1.0)
            k += 1
        return total
