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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnsupportedReactionOrderError
from .model import Configuration, Crn, Reaction, apply_reaction
from .streams import open_uniform, open_uniform_block, substream
from .parallel import map_ordered

_BLOCK = 4096  # uniforms buffered per refill inside the event loop
# the first refill of a run is small, since many trials of a multi-trial run
# stop after a few events.
# With the power-of-two bound of open_uniform_block every uniform takes one
# 64-bit draw, so the split leaves the sequence of uniforms unchanged.
_FIRST_BLOCK = 64


def propensity(config: Configuration, rx: Reaction, volume: float) -> float:
    """Stochastic mass-action propensity of ``rx`` in ``config``."""
    if volume <= 0:
        raise DomainError("volume must be positive")
    order = rx.order
    if order == 1:
        i = next(s for s, r in enumerate(rx.reactants) if r)
        return rx.rate_constant * config[i]
    if order == 2:
        sup = [s for s, r in enumerate(rx.reactants) if r]
        if len(sup) == 2:
            i, j = sup
            return (rx.rate_constant / volume) * config[i] * config[j]
        i = sup[0]
        ci = config[i]
        return (rx.rate_constant / volume) * ci * (ci - 1) / 2.0
    raise UnsupportedReactionOrderError(
        f"reaction has {order} reactants; only orders 1 and 2 are supported"
    )


@dataclass
class SimState:
    """Mutable simulation cursor: configuration, clock, volume, event count."""

    config: Configuration
    volume: float
    time: float = 0.0
    event_count: int = 0


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


def step(state: SimState, crn: Crn, rng: np.random.Generator):
    """Advance one reaction event in place.

    Returns the (time, reaction index) event, or None when the total
    propensity is zero and the process is exhausted. The selection uniform
    is only drawn when more than one reaction competes.
    """
    props = [propensity(state.config, rx, state.volume) for rx in crn.reactions]
    total = math.fsum(props)
    if total <= 0.0:
        return None
    dt = -math.log(open_uniform(rng)) / total
    if len(props) == 1:
        chosen = 0
    else:
        x = open_uniform(rng) * total
        acc = 0.0
        chosen = len(props) - 1
        for j, p in enumerate(props):
            acc += p
            if x < acc:
                chosen = j
                break
    state.config = apply_reaction(state.config, crn.reactions[chosen])
    state.time += dt
    state.event_count += 1
    return (state.time, chosen)


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


def _resolve_stop(crn: Crn, stop: StopCondition):
    watch = None
    if stop.species_appears is not None:
        watch = {crn.species.id_of(name) for name in stop.species_appears}
    count_stop = None
    if stop.count_reaches is not None:
        name, thr = stop.count_reaches
        count_stop = (crn.species.id_of(name), int(thr))
    return watch, count_stop


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
    watch, raw_count_stop = _resolve_stop(crn, stop)
    counts = init.counts.tolist()
    count_stop = None
    if raw_count_stop is not None:
        sid, thr = raw_count_stop
        direction = -1 if counts[sid] > thr else 1
        count_stop = (sid, thr, direction)
    rng = substream(seed, *stream_key)
    cps = sorted(checkpoint_times) if checkpoint_times else ()
    t, status, events, cp_rows, _, _ = _run_core(
        comp,
        counts,
        rng,
        t_max=stop.t_max,
        watch=watch,
        stop_on_watch=watch is not None,
        count_stop=count_stop,
        max_events=stop.max_events,
        record=True,
        checkpoint_times=cps,
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
        def _finite(x):
            return x if math.isfinite(x) else None

        return {
            "target": self.target,
            "t_cap": self.t_cap,
            "trials": self.trials,
            "censored": self.censored,
            "mean": _finite(self.mean),
            "variance": _finite(self.variance),
            "median": _finite(self.median),
            "p90": _finite(self.quantile(0.9)),
            "seed": self.seed,
        }

    def to_csv(self, fileobj):
        w = csv.writer(fileobj)
        w.writerow(["trial", "time_or_censored"])
        for i, t in enumerate(self.times.tolist()):
            w.writerow([i, "censored" if math.isnan(t) else repr(t)])


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

    A target already present reports time 0. Trial i draws from the
    substream (seed, i), so results do not depend on execution order or
    thread count.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    if not t_cap > 0:
        raise DomainError("t_cap must be positive")
    times = first_production_times_multi(
        crn, init, [target], t_cap, trials, seed, volume=volume, threads=threads
    )[target]
    return FirstProductionStats(target=target, t_cap=t_cap, times=times, seed=seed)


def first_production_times_multi(
    crn: Crn,
    init: Configuration,
    targets,
    t_cap: float,
    trials: int,
    seed: int,
    volume: float | None = None,
    threads: int = 1,
    stream_key: tuple = (),
) -> dict[str, np.ndarray]:
    """First-production times for several species out of shared trials.

    Each trial runs once, watching every target, and stops as soon as all
    of them have appeared (or at ``t_cap``). Returns one times array per
    target, NaN marking censored trials. ``stream_key`` prefixes the trial
    index in the substream key, separating e.g. grid cells that share a
    seed.
    """
    if len(init) != crn.n_species:
        raise DomainError("initial configuration does not span the species table")
    vol = float(init.total) if volume is None else float(volume)
    comp = _Compiled(crn, vol)
    sids = [crn.species.id_of(name) for name in targets]
    watch = set(sids)
    base_counts = init.counts.tolist()

    def one(trial: int) -> dict:
        rng = substream(seed, *stream_key, trial)
        counts = list(base_counts)
        _, _, _, _, watch_times, _ = _run_core(
            comp,
            counts,
            rng,
            t_max=t_cap,
            watch=watch,
            stop_on_watch=True,
        )
        return watch_times

    results = map_ordered(one, range(trials), threads)
    out = {}
    for name, sid in zip(targets, sids):
        arr = np.full(trials, np.nan)
        for i, wt in enumerate(results):
            if sid in wt:
                arr[i] = wt[sid]
        out[name] = arr
    return out
