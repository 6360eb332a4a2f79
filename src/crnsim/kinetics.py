"""Exact stochastic simulation of reaction-network kinetics.

Implements the direct method: in a configuration ``c`` with volume ``v``,
a unimolecular reaction X -> ... has propensity k*c(X), a bimolecular
X + Y -> ... (distinct species) has (k/v)*c(X)*c(Y), and X + X -> ... has
(k/v)*c(X)*(c(X)-1)/2. The time to the next event is exponential with
rate equal to the total propensity, and the event is chosen with
probability proportional to its propensity. Reactions with zero or more
than two reactants have no propensity and are rejected up front.

Waiting times are sampled by inverse CDF on open-interval uniforms, so
every inter-event time is finite and strictly positive. A trace records
(time, reaction index) events compactly; full count vectors are captured
only at requested checkpoint times.

Every run goes through one event loop, ``_run_core``, and every
:class:`StopCondition` is turned into that loop's arguments in one place,
``_resolve_stop``. It also refuses, before any event is drawn, a stop
without a time horizon or event budget none of whose triggers can ever
fire. ``simulate`` records one trajectory. ``run_trials`` repeats a stop
over independent trials, trial i drawing from ``substream(seed,
*stream_key, i)``, and returns per-trial end times and first-appearance
times; the first-production statistics and the ``harness`` experiments
build on it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnsupportedReactionOrderError
from .model import Configuration, Crn, apply_reaction
from .streams import open_uniform_block, substream
from .parallel import map_ordered

_BLOCK = 4096  # uniforms buffered per refill inside the event loop
# the first refill of a run is small, since many trials of a multi-trial run
# stop after a few events.
# With the power-of-two bound of open_uniform_block every uniform takes one
# 64-bit draw, so the split leaves the sequence of uniforms unchanged.
_FIRST_BLOCK = 64


@dataclass(frozen=True)
class StopCondition:
    """Bounds that end a run; the first one reached wins.

    ``t_max`` stops at a time horizon (the clock is advanced to exactly
    ``t_max`` and the pending event is discarded). ``species_appears``
    stops once every named species has been seen with positive count.
    ``count_reaches`` is a (species, threshold) pair: the run stops when
    the count reaches the threshold from its initial side. ``max_events``
    bounds the number of reaction events.
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
        if self.max_events is not None and self.max_events < 0:
            raise DomainError("max_events must be nonnegative")
        if self.count_reaches is not None and self.count_reaches[1] < 0:
            raise DomainError("a count threshold must be nonnegative")
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
    """Per-(crn, volume) reaction table in loop-friendly form."""

    __slots__ = ("n", "modes", "ia", "ib", "coef", "deltas")

    def __init__(self, crn: Crn, volume: float):
        if volume <= 0:
            raise DomainError("volume must be positive")
        modes, ia, ib, coef, deltas = [], [], [], [], []
        for rx in crn.reactions:
            order = rx.order
            sup = [s for s, r in enumerate(rx.reactants) if r]
            if order == 1:
                modes.append(0)
                ia.append(sup[0])
                ib.append(-1)
                coef.append(rx.rate_constant)
            elif order == 2 and len(sup) == 2:
                modes.append(1)
                ia.append(sup[0])
                ib.append(sup[1])
                coef.append(rx.rate_constant / volume)
            elif order == 2:
                modes.append(2)
                ia.append(sup[0])
                ib.append(-1)
                coef.append(rx.rate_constant / volume / 2.0)
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
        self.n = len(crn.reactions)
        self.modes = tuple(modes)
        self.ia = tuple(ia)
        self.ib = tuple(ib)
        self.coef = tuple(coef)
        self.deltas = tuple(deltas)


def _run_core(
    comp: _Compiled,
    counts: list,
    rng,
    *,
    t_max=None,
    watch=None,
    stop_on_watch=False,
    count_stop=None,
    max_events=None,
    record=False,
    checkpoint_times=(),
):
    """Shared event loop.

    ``watch`` is a set of species ids whose first positive-count times are
    collected (already-positive species report 0.0). With
    ``stop_on_watch`` the run ends once every watched species was seen.
    ``count_stop`` is (sid, threshold, direction) with direction +1 / -1.
    Returns (time, status, events, checkpoints, watch_times, n_events).
    """
    nrx = comp.n
    modes, ia, ib, coef, deltas = comp.modes, comp.ia, comp.ib, comp.coef, comp.deltas
    t = 0.0
    events = [] if record else None
    n_events = 0

    cps = list(checkpoint_times)
    cp_rows = []
    cpi = 0

    watch_times = {}
    pending = set()
    if watch:
        for sid in watch:
            if counts[sid] > 0:
                watch_times[sid] = 0.0
            else:
                pending.add(sid)

    status = None
    if stop_on_watch and watch and not pending:
        status = STOPPED
    if count_stop is not None and status is None:
        sid, thr, direction = count_stop
        if (counts[sid] - thr) * direction >= 0:
            status = STOPPED
    if max_events == 0 and status is None:
        status = STOPPED

    ubuf = None
    ui = nbuf = 0
    rho = [0.0] * nrx
    while status is None:
        total = 0.0
        for j in range(nrx):
            m = modes[j]
            if m == 0:
                p = coef[j] * counts[ia[j]]
            elif m == 1:
                p = coef[j] * counts[ia[j]] * counts[ib[j]]
            else:
                ci = counts[ia[j]]
                p = coef[j] * ci * (ci - 1)
            rho[j] = p
            total += p
        if total <= 0.0:
            status = EXHAUSTED
            break
        if ui >= nbuf:
            nbuf = _FIRST_BLOCK if ubuf is None else _BLOCK
            ubuf = open_uniform_block(rng, nbuf)
            ui = 0
        u = ubuf[ui]
        ui += 1
        tn = t - math.log(u) / total
        if t_max is not None and tn > t_max:
            t = t_max
            status = STOPPED
            break
        while cpi < len(cps) and cps[cpi] < tn:
            cp_rows.append((cps[cpi], np.array(counts, dtype=np.int64)))
            cpi += 1
        t = tn
        if nrx == 1:
            chosen = 0
        else:
            if ui >= nbuf:  # the time draw above already filled the buffer once
                nbuf = _BLOCK
                ubuf = open_uniform_block(rng, nbuf)
                ui = 0
            x = ubuf[ui] * total
            ui += 1
            acc = 0.0
            chosen = nrx - 1
            for j in range(nrx):
                acc += rho[j]
                if x < acc:
                    chosen = j
                    break
        for s, d in deltas[chosen]:
            counts[s] += d
        n_events += 1
        if record:
            events.append((t, chosen))
        while cpi < len(cps) and cps[cpi] <= t:
            cp_rows.append((cps[cpi], np.array(counts, dtype=np.int64)))
            cpi += 1
        if pending:
            for s, d in deltas[chosen]:
                if d > 0 and s in pending and counts[s] > 0:
                    watch_times[s] = t
                    pending.discard(s)
            if stop_on_watch and not pending:
                status = STOPPED
                break
        if count_stop is not None:
            sid, thr, direction = count_stop
            if (counts[sid] - thr) * direction >= 0:
                status = STOPPED
                break
        if max_events is not None and n_events >= max_events:
            status = STOPPED
            break

    if status == EXHAUSTED:
        while cpi < len(cps):  # the process is frozen from here on
            cp_rows.append((cps[cpi], np.array(counts, dtype=np.int64)))
            cpi += 1
    else:
        while cpi < len(cps) and cps[cpi] <= t:
            cp_rows.append((cps[cpi], np.array(counts, dtype=np.int64)))
            cpi += 1
    return t, status, events, cp_rows, watch_times, n_events


def _resolve_stop(crn: Crn, stop: StopCondition, counts: list) -> dict:
    """The ``_run_core`` keyword arguments that run ``stop`` from ``counts``.

    A count threshold is approached from the side of its initial count.
    Without ``t_max`` or ``max_events`` a stop none of whose triggers can
    ever fire would loop forever, so it raises ``DomainError``.
    """
    watch = count_stop = None
    if stop.species_appears is not None:
        watch = {crn.species.id_of(name) for name in stop.species_appears}
    if stop.count_reaches is not None:
        name, thr = stop.count_reaches
        sid, thr = crn.species.id_of(name), int(thr)
        count_stop = (sid, thr, -1 if counts[sid] > thr else 1)
    # a zero configuration has no propensity and ends at once
    if stop.t_max is None and stop.max_events is None and any(counts):
        why = _never_fires(crn, counts, watch, count_stop)
        if why is not None:
            raise DomainError(f"{why}; give the stop a t_max or max_events")
    return {
        "t_max": stop.t_max,
        "watch": watch,
        "stop_on_watch": watch is not None,
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
    trial of a repeated experiment.
    """
    if len(init) != crn.n_species:
        raise DomainError("initial configuration does not span the species table")
    if volume is None:
        volume = float(init.total)
    comp = _Compiled(crn, volume)
    counts = init.counts.tolist()
    loop_args = _resolve_stop(crn, stop, counts)
    cps = sorted(checkpoint_times) if checkpoint_times else ()
    t, status, events, cp_rows, _, _ = _run_core(
        comp,
        counts,
        substream(seed, *stream_key),
        record=True,
        checkpoint_times=cps,
        **loop_args,
    )
    return Trace(
        initial=init,
        events=events,
        terminal=Configuration(counts),
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
    count: 0 when present initially, NaN when it never appeared. Trial i
    draws from ``substream(seed, *stream_key, i)``, so it ends where
    ``simulate(..., stream_key=(*stream_key, i))`` does, at any thread
    count. The volume defaults to the total initial count.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    if len(init) != crn.n_species:
        raise DomainError("initial configuration does not span the species table")
    vol = float(init.total) if volume is None else float(volume)
    comp = _Compiled(crn, vol)
    base_counts = init.counts.tolist()
    loop_args = _resolve_stop(crn, stop, base_counts)

    def one(trial: int):
        t, _, _, _, watch_times, _ = _run_core(
            comp, list(base_counts), substream(seed, *stream_key, trial), **loop_args
        )
        return t, watch_times

    results = map_ordered(one, range(trials), threads)
    first = {}
    for name in stop.species_appears or ():
        sid = crn.species.id_of(name)
        first[name] = np.array([wt.get(sid, math.nan) for _, wt in results])
    return np.array([t for t, _ in results]), first


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
    appeared by ``t_cap`` is censored. Trial i draws from the substream
    (seed, i), so results do not depend on execution order or thread
    count.
    """
    if not 0 < t_cap < math.inf:
        raise DomainError("t_cap must be finite and positive")
    stop = StopCondition(t_max=t_cap, species_appears=frozenset({target}))
    times = run_trials(crn, init, stop, trials, seed, volume=volume, threads=threads)[1][target]
    return FirstProductionStats(target=target, t_cap=t_cap, times=times, seed=seed)
