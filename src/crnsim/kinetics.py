"""Exact stochastic simulation of reaction-network kinetics.

Implements the direct method: in a configuration ``c`` with volume ``v``,
a unimolecular reaction X -> ... has propensity k*c(X), a bimolecular
X + Y -> ... (distinct species) has (k/v)*c(X)*c(Y), and X + X -> ... has
(k/v)*c(X)*(c(X)-1)/2. The time to the next event is exponential with
rate equal to the total propensity, and the event is chosen with
probability proportional to its propensity. Reactions with zero or more
than two reactants have no propensity and are rejected up front.

Waiting times are sampled by inverse CDF on open-interval uniforms, so
every waiting time is finite and strictly positive, though one far below
the clock's resolution leaves the event time unchanged. A trace records
(time, reaction index) events compactly; full count vectors are captured
only at requested checkpoint times.

There are two event loops, one per execution shape. Both evaluate the
propensities above by one formula over one reaction table of plain
tuples, ``_Compiled``, and every :class:`StopCondition` is turned into
their arguments in one place, ``_prepare``, which also builds that
table. It refuses, before any event is drawn, a stop without a time
horizon or event budget none of whose triggers can ever fire.
``simulate`` records one trajectory with the scalar loop, ``_run_core``.
``run_trials`` repeats a stop over independent trials with the batched
loop, ``_run_batch``, which advances all trials of a chunk of
``_TRIAL_CHUNK`` in lockstep over species-major arrays (a row per count,
a column per trial) that it lays out from that table once per call; the
chunks fan out through ``parallel.map_chunks``, so chunk c draws from
``substream(seed, *stream_key, c)``. It returns per-trial end times and
first-appearance times; the first-production statistics and the
``harness`` experiments build on it. Each loop tests the watch, count
and event-budget stops in one place, before it draws: the scalar loop at
the top of each iteration, the batched loop at the top of each sweep.
The batched loop reads the watched counts only after a sweep that fired a
reaction raising a watched species. ``t_max`` is tested against the drawn
event time.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, UnsupportedReactionOrderError, check_integer
from .model import Configuration, Crn, apply_reaction
from .streams import open_uniform_block, substream
from .parallel import map_chunks

_BLOCK = 4096  # uniforms buffered per refill inside the event loops
# the first refill of a scalar run is small, since many runs stop after a
# few events. Every uniform of open_uniform_block takes one 64-bit draw, so
# how a run splits its refills leaves the sequence of uniforms unchanged.
_FIRST_BLOCK = 64
# trials per substream in run_trials; fixed so that results do not depend
# on the thread count
_TRIAL_CHUNK = 1024


@dataclass(frozen=True)
class StopCondition:
    """Bounds that end a run; the first one reached wins.

    ``t_max`` stops at a time horizon (the clock is advanced to exactly
    ``t_max`` and the pending event is discarded). ``species_appears``
    stops once every named species has been seen with positive count.
    ``count_reaches`` is a (species, threshold) pair: the run stops when
    the count reaches the threshold from its initial side. ``max_events``
    bounds the number of reaction events. Counts and the event bound are
    integers of at least 0.
    """

    t_max: float | None = None
    species_appears: frozenset[str] | None = None
    count_reaches: tuple[str, int] | None = None
    max_events: int | None = None

    def __post_init__(self):
        if (
            self.t_max is None
            and self.species_appears is None
            and self.count_reaches is None
            and self.max_events is None
        ):
            raise DomainError("stop condition must include at least one finite bound")
        if self.t_max is not None and not (self.t_max >= 0 and math.isfinite(self.t_max)):
            raise DomainError("t_max must be finite and nonnegative")
        if self.max_events is not None:
            check_integer(self.max_events, "max_events", 0)
        if self.count_reaches is not None:
            check_integer(self.count_reaches[1], "a count threshold", 0)
        if self.species_appears is not None:
            object.__setattr__(self, "species_appears", frozenset(self.species_appears))


STOPPED = "stopped"
EXHAUSTED = "exhausted"


@dataclass
class Trace:
    """One simulated trajectory.

    ``events`` is the time-ordered list of (time, reaction index);
    replaying it from ``initial`` with ``model.apply_reaction``
    reproduces ``terminal``. ``checkpoints`` holds (time, counts) rows for
    the checkpoint times that the run reached. Status is "exhausted" when
    total propensity hit zero, else "stopped".
    """

    initial: Configuration
    events: list[tuple[float, int]]
    terminal: Configuration
    time: float
    status: str
    volume: float
    checkpoints: list[tuple[float, np.ndarray]] = field(default_factory=list)

    def replay(self, crn: Crn):
        """Yield the configuration after each event, starting from the initial."""
        cfg = self.initial
        yield cfg
        for _, ridx in self.events:
            cfg = apply_reaction(cfg, crn.reactions[ridx])
            yield cfg

    def to_csv(self, crn: Crn, fileobj):
        w = csv.writer(fileobj)
        w.writerow(["event_index", "time", "reaction_label"])
        for i, (t, ridx) in enumerate(self.events):
            w.writerow([i, repr(t), crn.reaction_label(ridx)])

    def checkpoints_to_csv(self, crn: Crn, fileobj):
        w = csv.writer(fileobj)
        w.writerow(["time"] + list(crn.species.names))
        for t, counts in self.checkpoints:
            w.writerow([repr(t)] + [int(c) for c in counts])


class _Compiled:
    """Per-(crn, volume) reaction table: the one propensity definition of
    both event loops.

    Both loops read counts with one extra entry held at 1 after the
    species. Reaction j has propensity
    ``coef[j] * c[ra[j]] * (c[rb[j]] - minus[j])``: X -> ... has coef k
    and ``rb`` at the entry held at 1; X + Y -> ... has coef k/v and ``rb``
    at Y; X + X -> ... has coef k/(2v), ``rb`` equal to ``ra`` and
    ``minus`` 1. ``table`` holds these four values per reaction, and
    ``deltas[j]`` holds reaction j's net change as (species, change) pairs.
    The scalar loop reads both as they are; the batched loop lays them out
    once per call over its own species-major rows.
    """

    __slots__ = ("table", "deltas")

    def __init__(self, crn: Crn, volume: float):
        if not 0 < volume < math.inf:
            raise DomainError("volume must be positive and finite")
        ones = crn.n_species
        table, deltas = [], []
        for rx in crn.reactions:
            order = rx.order
            sup = [s for s, r in enumerate(rx.reactants) if r]
            if order == 1:
                table.append((rx.rate_constant, sup[0], ones, 0))
            elif order == 2 and len(sup) == 2:
                table.append((rx.rate_constant / volume, sup[0], sup[1], 0))
            elif order == 2:
                table.append((rx.rate_constant / volume / 2.0, sup[0], sup[0], 1))
            else:
                raise UnsupportedReactionOrderError(
                    f"reaction has {order} reactants; only orders 1 and 2 are supported"
                )
            deltas.append(
                tuple(
                    (s, p - r)
                    for s, (r, p) in enumerate(zip(rx.reactants, rx.products))
                    if p != r
                )
            )
        # k/v overflowing to inf makes inf * 0 a NaN propensity, and a NaN
        # total neither exhausts a run nor passes its t_max
        if not all(0.0 < k < math.inf for k, _, _, _ in table):
            raise DomainError(
                f"volume {volume!r} takes a rate constant divided by it out of floating-point range"
            )
        self.table = tuple(table)
        self.deltas = tuple(deltas)


def _run_core(
    comp: _Compiled,
    counts: list,
    rng,
    *,
    t_max=None,
    watch=None,
    count_stop=None,
    max_events=None,
    checkpoint_times=(),
):
    """Scalar event loop: one recorded run.

    ``counts`` holds the species counts followed by the entry held at 1
    that ``comp`` reads, and is updated in place. ``watch`` is a set of
    species ids whose first positive-count times are collected
    (already-positive species report 0.0); the run ends once every watched
    species was seen. ``count_stop`` is (sid, threshold, direction) with
    direction +1 / -1. These stops and ``max_events`` are tested in one
    place, at the top of each iteration before its uniforms are drawn, so
    one that already holds in ``counts`` ends the run at time 0. Returns
    (time, status, events, checkpoints, watch_times, n_events).
    """
    table, deltas = comp.table, comp.deltas
    nrx = len(table)
    t = 0.0
    events = []
    n_events = 0

    cps = list(checkpoint_times)
    cp_rows = []
    cpi = 0

    watch_times = {s: 0.0 for s in watch or () if counts[s] > 0}
    pending = set(watch or ()) - watch_times.keys()
    if count_stop is not None:
        sid, thr, direction = count_stop

    ubuf = None
    ui = nbuf = 0
    cum = [0.0] * (nrx + 1)  # cum[j + 1]: the propensities of reactions 0..j, summed in order
    while True:
        if (
            (watch and not pending)
            or (count_stop is not None and (counts[sid] - thr) * direction >= 0)
            or (max_events is not None and n_events >= max_events)
        ):
            status = STOPPED
            break
        total = 0.0
        j = 1
        for k, a, b, m in table:
            total += k * counts[a] * (counts[b] - m)
            cum[j] = total
            j += 1
        if total <= 0.0:
            status = EXHAUSTED
            break
        if ui >= nbuf:
            nbuf = _FIRST_BLOCK if ubuf is None else _BLOCK
            ubuf = open_uniform_block(rng, nbuf).tolist()
            ui = 0
        u = ubuf[ui]
        ui += 1
        tn = t - math.log(u) / total
        if t_max is not None and tn > t_max:
            t = t_max
            status = STOPPED
            break
        while cpi < len(cps) and cps[cpi] < tn:
            cp_rows.append((cps[cpi], np.array(counts[:-1], dtype=np.int64)))
            cpi += 1
        t = tn
        if nrx == 1:
            chosen = 0
        else:
            if ui >= nbuf:  # the time draw above already filled the buffer once
                nbuf = _BLOCK
                ubuf = open_uniform_block(rng, nbuf).tolist()
                ui = 0
            # the first j with x < cum[j + 1], or the last reaction when there is none
            chosen = min(bisect_right(cum, ubuf[ui] * total, 1), nrx) - 1
            ui += 1
        for s, d in deltas[chosen]:
            counts[s] += d
        n_events += 1
        events.append((t, chosen))
        # later events can round to this same time, so a checkpoint at it
        # takes the counts after the first of them
        while cpi < len(cps) and cps[cpi] <= t:
            cp_rows.append((cps[cpi], np.array(counts[:-1], dtype=np.int64)))
            cpi += 1
        if pending:
            for s, d in deltas[chosen]:
                if d > 0 and s in pending and counts[s] > 0:
                    watch_times[s] = t
                    pending.discard(s)

    # an exhausted process is frozen from here on
    until = math.inf if status == EXHAUSTED else t
    while cpi < len(cps) and cps[cpi] <= until:
        cp_rows.append((cps[cpi], np.array(counts[:-1], dtype=np.int64)))
        cpi += 1
    return t, status, events, cp_rows, watch_times, n_events


def _run_batch(
    comp: _Compiled,
    counts: list,
    rng,
    trials: int,
    *,
    t_max=None,
    watch=None,
    count_stop=None,
    max_events=None,
):
    """``trials`` independent runs of ``_run_core`` from ``counts``, in lockstep.

    ``counts`` ends with the entry held at 1, as for ``_run_core``.
    Every active trial makes one event per sweep, so the sweep count is
    each active trial's event count. A sweep takes the time uniforms of
    all active trials, then their selection uniforms (none with a single
    reaction), so a one-trial run reads the uniforms ``_run_core`` reads.
    The state is species-major, with one column per active trial: the
    counts have a row per species, the entry held at 1, and a row per
    X + X reaction holding its reactant's count minus 1, and the
    first-appearance times a row per watched species. These rows, the
    reactant rows of each reaction and the step of each reaction over
    them are built here from ``comp.table`` and ``comp.deltas``, the only
    place that layout is written. The propensities
    are then one row gather and float products in the scalar loop's
    order, and the step is one column gather from the transposed
    stoichiometry. The watch, count and event-budget stops are tested at
    the top of each sweep, before its uniforms are drawn. The watched
    counts are read only after a sweep in which some trial fired a
    reaction that raises a watched species, since no other reaction can
    make an unseen one positive; the watch's completion is tested only
    when something new was seen. A trial ends without an event in the
    sweep where its total propensity is zero (it is then exhausted and
    keeps the time of its last event) or its next event lies past
    ``t_max`` (it takes ``t_max``), and retires at the top of the next.

    Returns (end times, first-appearance times with one column per
    watched species in id order and NaN where never seen, exhausted
    flags, event counts), one row per trial.
    """
    wcols = np.array(sorted(watch or ()), dtype=np.intp)
    init = np.array(counts, dtype=np.int64)
    end = np.zeros(trials)
    first = np.full((trials, wcols.size), math.nan)
    first[:, init[wcols] > 0] = 0.0
    exhausted = np.zeros(trials, dtype=bool)
    n_events = np.zeros(trials, dtype=np.int64)
    if count_stop is not None:
        sid, thr, direction = count_stop
        reached = np.greater_equal if direction > 0 else np.less_equal
    nrx = len(comp.table)
    draws = 1 if nrx == 1 else 2
    # each X + X reaction reads one more row, which holds its reactant's
    # count minus 1 and follows that count's changes, in place of c - minus
    rows = list(range(init.size))
    rab = [a for _, a, _, _ in comp.table]  # the ra rows, then the rb rows
    for _, a, b, m in comp.table:
        if m:
            b = len(rows)
            rows.append(a)
        rab.append(b)
    rab = np.array(rab, dtype=np.intp)
    steps = np.zeros((init.size, nrx), dtype=np.int64)
    for j, delta in enumerate(comp.deltas):
        for s, d in delta:
            steps[s, j] = d
    steps = steps[rows]
    start = init[rows]
    start[init.size :] -= 1
    coefk = np.repeat(np.array([k for k, _, _, _ in comp.table])[:, None], trials, axis=1)
    raises = (steps[wcols] > 0).any(axis=0)
    cnt = np.repeat(start[:, None], trials, axis=1)
    seen = first.T.copy()
    t = np.zeros(trials)
    ids = np.arange(trials)
    ended = dead = np.zeros(trials, dtype=bool)  # set in a sweep, read at the top of the next
    any_ended = False
    fresh = wcols.size > 0  # whether a watched species appeared since the watch was last tested
    ubuf, ui = np.empty(0), 0
    sweep = 0

    with np.errstate(divide="ignore"):
        while True:
            # the one stop test: a trial retires here once its stop holds,
            # or in the sweep after the one it ended in
            done = ended
            if fresh:
                done = done | ~np.isnan(seen).any(axis=0)
            if count_stop is not None:
                done = done | reached(cnt[sid], thr)
            retire = any_ended if done is ended else np.count_nonzero(done)
            if max_events is not None and sweep >= max_events:
                done, retire = np.ones_like(done), True
            if retire:
                out = ids[done]
                end[out] = t[done]
                first[out] = seen[:, done].T
                exhausted[out] = dead[done]
                n_events[out] = sweep - ended[done]
                keep = ~done
                ids, t, cnt, seen = ids[keep], t[keep], cnt[:, keep], seen[:, keep]
                coefk = coefk[:, : ids.size]
                if not ids.size:
                    break
            sweep += 1
            if nrx == 0:  # nothing can fire, so every trial left is exhausted
                ended = dead = np.ones(ids.size, dtype=bool)
                any_ended = True
                continue
            k = ids.size
            # coef * c[ra] * (c[rb] - minus), the counts cast to float as a
            # float-by-integer product casts them
            g = cnt.take(rab, axis=0).astype(np.float64)
            cum = g[:nrx] * coefk
            cum *= g[nrx:]
            if nrx > 1:
                cum = np.add.accumulate(cum, axis=0)
            total = cum[-1]
            need = draws * k
            if ui + need > ubuf.size:
                block = open_uniform_block(rng, max(2 * need, _BLOCK))
                ubuf, ui = np.concatenate((ubuf[ui:], block)), 0
            tn = t - np.log(ubuf[ui : ui + k]) / total
            usel = ubuf[ui + k : ui + need]
            ui += need
            # a zero total makes tn infinite, and -inf when every propensity
            # is -0.0 (X + X at count 0), so with t_max both show in |tn|;
            # which ended trials are exhausted is settled only if some ended
            ended = dead = total <= 0.0 if t_max is None else np.abs(tn) > t_max
            if nrx == 1:
                step = steps
                rose = raises[0]
            else:
                # the first j with x < cum[j], or the last reaction when there is none
                idx = np.add.reduce(cum[:-1] <= usel * total, axis=0)
                step = steps.take(idx, axis=1)
                rose = wcols.size and np.count_nonzero(raises.take(idx))
            any_ended = np.count_nonzero(ended)
            if any_ended:  # an ended trial makes no event
                dead = total <= 0.0
                step = step * ~ended
                tn = np.where(dead, t, tn if t_max is None else np.minimum(tn, t_max))
            cnt += step
            t = tn
            # only a reaction that raises a watched species can make an
            # unseen one positive
            fresh = False
            if rose:
                new = np.isnan(seen) & (cnt.take(wcols, axis=0) > 0)
                fresh = np.count_nonzero(new)
                if fresh:
                    seen = np.where(new, t, seen)
    return end, first, exhausted, n_events


def _prepare(crn: Crn, init: Configuration, stop: StopCondition, volume):
    """(volume, reaction table, counts, event-loop keyword arguments) that
    run ``stop`` from ``init``.

    The volume defaults to the total initial count, and the counts end
    with the entry held at 1 that the table reads. A count threshold is
    approached from the side of its initial count. Without ``t_max`` or
    ``max_events`` a stop none of whose triggers can ever fire would loop
    forever, so it raises ``DomainError``.
    """
    if len(init) != crn.n_species:
        raise DomainError("initial configuration does not span the species table")
    if volume is None:
        volume = float(init.total)
    comp = _Compiled(crn, volume)
    counts = init.counts.tolist()
    watch = count_stop = None
    if stop.species_appears is not None:
        watch = {crn.species.id_of(name) for name in stop.species_appears}
    if stop.count_reaches is not None:
        name, thr = stop.count_reaches
        sid = crn.species.id_of(name)
        count_stop = (sid, thr, -1 if counts[sid] > thr else 1)
    # a zero configuration has no propensity and ends at once
    if stop.t_max is None and stop.max_events is None and any(counts):
        why = _never_fires(crn, counts, watch, count_stop)
        if why is not None:
            raise DomainError(f"{why}; give the stop a t_max or max_events")
    counts.append(1)
    return volume, comp, counts, {
        "t_max": stop.t_max,
        "watch": watch,
        "count_stop": count_stop,
        "max_events": stop.max_events,
    }


def _never_fires(crn: Crn, counts: list, watch, count_stop) -> str | None:
    """Why neither trigger of a stop can ever fire from ``counts``, or None
    when one of them might.

    The watch trigger never fires when a watched species lies outside the
    stage closure, which over-approximates what can be produced. A rising
    count trigger never fires when its threshold exceeds the bound that a
    conservation certificate puts on that count. Any other trigger might.
    """
    from . import analysis  # deferred: it slows down importing this module

    reasons = []
    if watch is not None:
        closure = analysis.stage_decomposition(crn, Configuration(counts)).closure
        never = sorted(crn.species.name_of(s) for s in watch - closure)
        if not never:
            return None
        reasons.append(
            f"species {', '.join(never)} can never appear from this initial configuration"
        )
    if count_stop is not None:
        sid, thr, direction = count_stop
        mass = analysis.check_mass_conserving(crn).mass if direction > 0 else None
        if mass is None:
            return None
        cap = sum(m * c for m, c in zip(mass, counts)) // mass[sid]
        if thr <= cap:
            return None
        reasons.append(
            f"the count of {crn.species.name_of(sid)} stays at most {cap} by mass "
            f"conservation and can never reach {thr}"
        )
    return "; ".join(reasons)


def simulate(
    crn: Crn,
    init: Configuration,
    stop: StopCondition,
    seed: int,
    volume: float | None = None,
    checkpoint_times=None,
    stream_key: tuple = (),
) -> Trace:
    """Run the direct method from ``init`` until ``stop`` fires or the
    total propensity reaches zero.

    The volume defaults to the total initial count. The same (crn, init,
    volume, stop, seed, stream_key) always yields the bit-identical
    trace; ``stream_key`` selects an independent substream, e.g. one per
    trial of a repeated experiment. Checkpoint times must be finite and
    nonnegative.
    """
    cps = sorted(checkpoint_times) if checkpoint_times else ()
    if not all(0 <= x < math.inf for x in cps):
        raise DomainError(f"checkpoint times must be finite and nonnegative, got {cps}")
    volume, comp, counts, loop_args = _prepare(crn, init, stop, volume)
    t, status, events, cp_rows, _, _ = _run_core(
        comp, counts, substream(seed, *stream_key), checkpoint_times=cps, **loop_args
    )
    return Trace(
        initial=init,
        events=events,
        terminal=Configuration(counts[:-1]),
        time=t,
        status=status,
        volume=volume,
        checkpoints=cp_rows,
    )


def run_trials(
    crn: Crn,
    init: Configuration,
    stop: StopCondition,
    trials: int,
    seed: int,
    volume: float | None = None,
    threads: int = 1,
    stream_key: tuple = (),
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Run ``stop`` from ``init`` in ``trials`` independent trials.

    Returns the per-trial end times and, for each species in
    ``stop.species_appears``, the per-trial time it first had positive
    count: 0 when present initially, NaN when it never appeared. The
    trials of each chunk of ``_TRIAL_CHUNK`` run in lockstep through
    ``parallel.map_chunks``, so chunk c draws from
    ``substream(seed, *stream_key, c)`` and results do not depend on the
    thread count. A one-trial run ends where ``simulate(...,
    stream_key=(*stream_key, 0))`` does. The volume defaults to the total
    initial count.
    """
    check_integer(trials, "trials")
    _, comp, counts, loop_args = _prepare(crn, init, stop, volume)
    batch = partial(_run_batch, comp, counts, **loop_args)
    parts = map_chunks(batch, trials, _TRIAL_CHUNK, seed, stream_key, threads)
    times = np.concatenate([p[0] for p in parts])
    seen = np.concatenate([p[1] for p in parts])
    columns = sorted(loop_args["watch"] or ())
    first = {
        name: seen[:, columns.index(crn.species.id_of(name))].copy()
        for name in stop.species_appears or ()
    }
    return times, first


def csv_time(x: float) -> str:
    """A time as a CSV cell: its repr, or "censored" when it is not finite."""
    return repr(x) if math.isfinite(x) else "censored"


def json_time(x: float) -> float | None:
    """A time as a JSON value: None when it is not finite."""
    return x if math.isfinite(x) else None


def write_csv(fileobj, results):
    """The ``CSV_HEADER`` of the first result, then the ``csv_rows()`` of every result."""
    w = csv.writer(fileobj)
    w.writerow(results[0].CSV_HEADER)
    for res in results:
        w.writerows(res.csv_rows())


@dataclass
class FirstProductionStats:
    """Per-trial first-production times of one species.

    ``times`` uses NaN for trials censored at the time cap (the species
    had not appeared). Censored trials never enter the mean or variance;
    quantiles treat them as +infinity.
    """

    target: str
    t_cap: float
    times: np.ndarray
    seed: int

    @property
    def trials(self) -> int:
        return self.times.size

    @property
    def censored(self) -> int:
        return int(np.isnan(self.times).sum())

    @property
    def produced_fraction(self) -> float:
        return 1.0 - self.censored / self.trials

    @property
    def mean(self) -> float:
        ok = self.times[~np.isnan(self.times)]
        return float(ok.mean()) if ok.size else math.nan

    @property
    def variance(self) -> float:
        ok = self.times[~np.isnan(self.times)]
        return float(ok.var(ddof=1)) if ok.size > 1 else math.nan

    def quantile(self, q: float) -> float:
        """Order-statistic quantile (rounding up), censored trials count as +inf."""
        vals = np.where(np.isnan(self.times), np.inf, self.times)
        return float(np.quantile(vals, q, method="higher"))

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "t_cap": self.t_cap,
            "trials": self.trials,
            "censored": self.censored,
            "mean": json_time(self.mean),
            "variance": json_time(self.variance),
            "median": json_time(self.median),
            "p90": json_time(self.quantile(0.9)),
            "seed": self.seed,
        }

    CSV_HEADER = ("trial", "time_or_censored")

    def csv_rows(self):
        return ([i, csv_time(t)] for i, t in enumerate(self.times.tolist()))

    def to_csv(self, fileobj):
        write_csv(fileobj, [self])


def first_production_times(
    crn: Crn,
    init: Configuration,
    target: str,
    t_cap: float,
    trials: int,
    seed: int,
    volume: float | None = None,
    threads: int = 1,
) -> FirstProductionStats:
    """Time of the first event giving ``target`` positive count, per trial.

    A target already present reports time 0; a trial where it has not
    appeared by ``t_cap`` is censored. Trials run through ``run_trials``,
    one substream (seed, c) per chunk c of ``_TRIAL_CHUNK`` trials, so
    results do not depend on the thread count.
    """
    if not 0 < t_cap < math.inf:
        raise DomainError("t_cap must be finite and positive")
    stop = StopCondition(t_max=t_cap, species_appears=frozenset({target}))
    times = run_trials(crn, init, stop, trials, seed, volume=volume, threads=threads)[1][target]
    return FirstProductionStats(target=target, t_cap=t_cap, times=times, seed=seed)
