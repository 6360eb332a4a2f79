"""Exact stochastic simulation of reaction-network kinetics.

Implements the direct method: in a configuration ``c`` with volume ``v``,
a unimolecular reaction X -> ... has propensity k*c(X), a bimolecular
X + Y -> ... (distinct species) has (k/v)*c(X)*c(Y), and X + X -> ... has
(k/v)*c(X)*(c(X)-1)/2. The time to the next event is exponential with
rate equal to the total propensity, and the event is chosen with
probability proportional to its propensity. Reactions with zero or more
than two reactants have no propensity and are rejected up front.

Waiting times are standard exponentials divided by the total
propensity. Each is finite and nonnegative: numpy's ziggurat returns
exactly 0.0 with probability 2**-53, and a wait of 0, or one far below
the clock's resolution, leaves the event time unchanged. A trace records
its events as two flat read-only columns, the event times (float64) and
the reaction indices (the smallest unsigned dtype that holds every index
of the network), and ``Events`` shows them as a sequence of
(time, reaction index) pairs; full count vectors are captured only at
requested checkpoint times.

There are two event loops, one per execution shape, and each picks its
body by reaction count alone. Both evaluate the propensities above by
one formula over one reaction table of plain tuples, ``_Compiled``, and
every :class:`StopCondition` is turned into their arguments in one
place, ``_prepare``, which also takes that table from ``_table``, a
bounded cache of one table per (crn, volume). A watch, one
(species, side, threshold) triple of ``StopCondition.reaches``, becomes
a species id, a threshold and the side it approaches from, +1 for
``">="`` and -1 for ``"<="``: a watch is reached once its count has
crossed its threshold, and stays reached, and the watches stop a run
once every one is reached. ``_prepare`` refuses, before any event is
drawn, a stop without a time horizon or event budget that has a watch
which can never be reached. ``simulate``
records one trajectory with ``_run_core``. With two or more reactions
that is the scalar loop: straight-line Python generated from the shape
of the run, the table's reactant rows and net changes, the species
count, each watch's species and side, and whether ``t_max`` is given.
The source is compiled once per shape and kept in a bounded cache,
``_kernel``; the counts and the propensities it keeps are its locals,
the choice of reaction an ``if``/``elif`` chain,
and each branch of it recomputes only the kept propensities of the
reactions that read a species it changes; the running sums compute the
others. Its waits and its selection uniforms come in blocks, and it
only draws, selects, records and tests watches. It records each event's
total propensity in place of its time, keeps its blocks of waits, and
notes the event at which each watch is reached; ``_run_core`` then
divides the waits by the totals and sums them along the events with one
``np.add.accumulate``, so an event's time is ``t + e / total`` after the
last one's, as ``_run_path`` computes it. A loop without ``t_max`` keeps
no clock at all. Only integers go into
that source: the rate coefficients, thresholds and event budget are
arguments, so no float, species name or label is ever compiled, and a
run at another volume or threshold reuses the kernel. ``run_trials``
repeats a stop over independent trials with the batched loop,
``_run_batch``, which advances all trials of a chunk of ``_TRIAL_CHUNK`` in lockstep over
species-major arrays (a row per count, a column per trial) that it lays
out from that table once per call; the chunks fan out through
``parallel.map_chunks``, so chunk c draws from
``substream(seed, *stream_key, c)``: its waits from that generator's
``standard_exponential`` and its selections from
``streams.second_stream`` of it. It returns per-trial end times and the
time each watch was first reached, one column per watch, and
``run_trials`` returns those columns whole; the first-production
statistics and the ``harness`` experiments build on it. With at most one
reaction, as in decay or leader election, every event fires that
reaction, so the counts follow one path and only the times differ. Both
``_run_batch`` and ``_run_core`` then hand the run to ``_run_path``,
which advances it a block of sweeps per array operation, in windows of
``_BLOCK`` sweeps whatever the trial count, with the sweep loop's float
operations, so its outputs are the ones the sweep loop, or the scalar
loop, would give.
Whichever body ran, ``_run_core`` then reads the checkpoints from the
two event columns by one rule, in numpy, with the
table's dense net changes, ``_Compiled.steps``, which are also the only
expansion of the net changes that ``_run_batch`` and ``_run_path`` read.
A table of at most one reaction draws no selection uniforms,
so it never builds a second generator. Each loop tests a watch only
where its count moves toward its threshold: the scalar loop in the
branches that move it, the batched loop after a sweep that fired such a
reaction, and ``_run_path`` once, over the path's counts, where each
watch falls on one sweep common to its trials. Each tests the stop in one
place, before it draws: the scalar loop at the top of each event, the
batched loop at the top of each sweep, and ``_run_path`` at the sweep
where the last watch is reached. Every run carries an event budget,
``_NO_BUDGET`` when the stop gives none, so each loop has one shape: the
batched loop tests the budget at the top of each sweep, ``_run_path``
with the other common stops, and the scalar loop once per block of
waits, when it cuts the block to the events left. A trial or run is
exhausted where its total propensity is at most zero, whatever its wait.
``t_max`` is tested against the drawn event time. One
writer, ``_write_csv``, writes every CSV file; species names and labels
are identifiers (see ``model``), so no cell needs quoting.

Both loops read the same two sequences, the waits and the selection
uniforms, and compute each event time as ``t + e / total`` and each
selection as ``v * total`` in float64 (``simulate`` sums the times after
the run, by the same operations in the same order), so a one-trial ``run_trials``
ends bit for bit where ``simulate`` does, and neither loop's outputs
depend on the host CPU.
"""

from __future__ import annotations

import bisect
import itertools
import linecache
import math
import operator
import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, UnsupportedReactionOrderError, check_integer, check_real
from .model import Configuration, Crn, apply_reaction
from .streams import open_uniform_block, second_stream, substream
from .parallel import map_chunks

_BLOCK = 4096  # waits, and selection uniforms, buffered per refill in the event loops
# the scalar loop's first refill takes _FIRST_BLOCK waits and each later one
# twice the last, up to _BLOCK, since its Python loop pays for every wait
# it converts and many of its runs stop after a few events. Neither the
# ziggurat's exponentials nor the uniforms of open_uniform_block depend on
# how a run splits its draws into blocks, so the split leaves both
# sequences unchanged. With an event budget a block is cut to the events
# left.
_FIRST_BLOCK = 64
# which propensities the scalar loop keeps in locals. A kept one costs a
# product and a store in each branch that changes a species its reaction
# reads, and saves a product in every event's sums. Timed on networks where
# one species is read by 2 to 32 reactions, keeping them took 11% to 52%
# less time per event while at most half of the branches recompute each
# one, -7% to +9% at three quarters, and 2% to 18% more when every branch
# does; so a propensity is kept only while at most this share of the
# branches recompute it
_KEEP_SHARE = 0.5
# ... and, fewest recomputing branches first, only while the branches hold
# at most this many recomputations per reaction in all, which keeps the
# source linear in the size of the reaction table (a source line takes
# about 12 us to compile on a 2-vCPU x86 host)
_RECOMPUTE_LINES = 8
# rows joined per write by _write_csv, which bounds its memory
_CSV_CHUNK = 4096
# events an Events view turns into Python numbers at a time while it is
# iterated, which bounds the memory of walking a long trace
_EVENT_CHUNK = 4096
# the event budget of a run without max_events, which no run reaches
_NO_BUDGET = 2**63 - 1
# trials per substream in run_trials; fixed so that results do not depend
# on the thread count
_TRIAL_CHUNK = 1024
# above this many active trials _run_path sums a block's times with one row
# addition per sweep, and at most this many with np.add.accumulate along
# the sweeps, which runs one column at a time. Timed (as subtractions, which
# cost what additions do) on blocks of _BLOCK draws on a 2-vCPU x86 host,
# the rows took 1.8 times as long as the accumulate at 150 trials (27 rows),
# 1.03 times at 256 (16 rows), 0.79 times at 300 and 0.21 times at 1024 (4
# rows, 6 against 30 us); both give the same floats
_ROW_SUM_TRIALS = 256
# the side of a watch as the loops take it: +1 for a count that rises to its
# threshold, -1 for one that falls to it
_SIDES = {">=": 1, "<=": -1}


@dataclass(frozen=True)
class StopCondition:
    """Bounds that end a run.

    ``t_max`` stops at a time horizon (the clock is advanced to exactly
    ``t_max`` and the pending event is discarded), and ``max_events``
    bounds the number of reaction events. ``reaches`` is a nonempty
    sequence of watches, each a (species, side, threshold) triple whose
    side, ``">="`` or ``"<="``, says from where its count comes to the
    threshold: ``(s, ">=", 1)`` watches s until it is produced, and
    ``(s, "<=", 1)`` until at most one copy is left. A watch is reached
    once its count is at or past its threshold, seen from its side, and
    stays reached; the watches stop the run when every one of them is
    reached. A run ends at the first of ``t_max``, ``max_events`` and its
    watches to hold. Thresholds and the event bound are integers of at
    least 0, and ``t_max`` is kept as ``errors.check_real`` returns it, so
    it is finite and at least 0; anything else raises ``DomainError``.
    """

    t_max: float | None = None
    reaches: tuple[tuple[str, str, int], ...] | None = None
    max_events: int | None = None

    def __post_init__(self):
        if self.t_max is None and self.reaches is None and self.max_events is None:
            raise DomainError("stop condition must include at least one finite bound")
        if self.t_max is not None:
            object.__setattr__(self, "t_max", check_real(self.t_max, "t_max", zero=True))
        if self.max_events is not None:
            object.__setattr__(self, "max_events", check_integer(self.max_events, "max_events", 0))
        if self.reaches is not None:
            # a str is no sequence of watches, and an empty one never fires
            watches = self.reaches
            if isinstance(watches, str) or not isinstance(watches, Iterable):
                watches = ()
            checked = []
            for w in watches:
                if isinstance(w, str) or not isinstance(w, Sequence) or len(w) != 3 or not (
                        isinstance(w[1], str) and w[1] in _SIDES):
                    raise DomainError(
                        f"a watch must be a (species, '>=' or '<=', threshold) triple, got {w!r}")
                name, side, level = w
                checked.append((name, side, check_integer(level, "a count threshold", 0)))
            if not checked:
                raise DomainError("reaches must be a nonempty sequence of watches")
            object.__setattr__(self, "reaches", tuple(checked))


STOPPED = "stopped"
EXHAUSTED = "exhausted"


@lru_cache(maxsize=256)
def _index_dtype(n_reactions: int) -> np.dtype:
    """The smallest unsigned dtype that holds every reaction index."""
    return np.min_scalar_type(max(n_reactions - 1, 0))


class Events(Sequence):
    """The events of a trace: a read-only sequence of (time, reaction index)
    pairs over two flat columns.

    ``times`` (float64) and ``reactions`` (an unsigned integer dtype) are
    read-only arrays of one entry per event, for vectorised use. ``len``
    costs O(1); an index gives a ``(float, int)`` tuple, a slice a list of
    them, and iteration yields them, converting ``_EVENT_CHUNK`` events at
    a time. A view equals another with equal columns, and any sequence of
    equal pairs, so ``trace.events == []`` holds for a run without events.
    """

    __slots__ = ("times", "reactions")

    def __init__(self, times, reactions):
        self.times = times = np.asarray(times, dtype=np.float64).view()
        self.reactions = reactions = np.asarray(reactions).view()
        if times.ndim != 1 or times.shape != reactions.shape:
            raise ValueError("the event columns must be flat and of one length")
        times.setflags(write=False)
        reactions.setflags(write=False)

    def __len__(self):
        return self.times.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(self.times[i].tolist(), self.reactions[i].tolist()))
        return self.times.item(i), self.reactions.item(i)

    def __iter__(self):
        for start in range(0, len(self), _EVENT_CHUNK):
            stop = start + _EVENT_CHUNK
            yield from zip(self.times[start:stop].tolist(), self.reactions[start:stop].tolist())

    def __eq__(self, other):
        if isinstance(other, Events):
            return bool(np.array_equal(self.times, other.times)
                        and np.array_equal(self.reactions, other.reactions))
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self):
        return f"Events(times={self.times!r}, reactions={self.reactions!r})"


@dataclass(eq=False)
class Trace:
    """One simulated trajectory.

    ``events`` is an ``Events`` view of the time-ordered (time, reaction
    index) pairs over two read-only columns, ``events.times`` and
    ``events.reactions``; replaying them from ``initial`` with
    ``model.apply_reaction`` reproduces ``terminal``. ``checkpoints`` holds
    (time, counts) rows for the checkpoint times that the run reached.
    Status is "exhausted" when total propensity hit zero, else "stopped".
    Two traces are equal when every field is, the events by value and the
    checkpoint counts by exact array equality.
    """

    initial: Configuration
    events: Events
    terminal: Configuration
    time: float
    status: str
    volume: float
    checkpoints: list[tuple[float, np.ndarray]] = field(default_factory=list)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        fields = ("initial", "events", "terminal", "time", "status", "volume")
        return (
            all(getattr(self, f) == getattr(other, f) for f in fields)
            and len(self.checkpoints) == len(other.checkpoints)
            and all(t == u and np.array_equal(a, b)
                    for (t, a), (u, b) in zip(self.checkpoints, other.checkpoints))
        )

    def replay(self, crn: Crn):
        """Yield the configuration after each event, starting from the initial."""
        cfg = self.initial
        yield cfg
        for ridx in self.events.reactions.tolist():
            cfg = apply_reaction(cfg, crn.reactions[ridx])
            yield cfg

    def to_csv(self, crn: Crn, fileobj):
        """The events as CSV rows (index, time's repr, reaction label)."""
        labels = [crn.reaction_label(j) for j in range(len(crn.reactions))]
        _write_csv(fileobj, ("event_index", "time", "reaction_label"),
                   (f"{i},{t!r},{labels[j]}\r\n" for i, (t, j) in enumerate(self.events)))

    def checkpoints_to_csv(self, crn: Crn, fileobj):
        """The checkpoints as CSV rows (time, then each species' count)."""
        _write_csv(fileobj, ("time", *crn.species.names),
                   (_csv_line([t, *counts.tolist()]) for t, counts in self.checkpoints))


def _csv_line(cells) -> str:
    return ",".join(map(str, cells)) + "\r\n"


def _write_csv(fileobj, header, lines):
    """The ``header`` row, then ``lines``, rows that end in CRLF, joined in
    chunks of ``_CSV_CHUNK``."""
    fileobj.write(_csv_line(header))
    lines = iter(lines)
    while chunk := "".join(itertools.islice(lines, _CSV_CHUNK)):
        fileobj.write(chunk)


class _Compiled:
    """Per-(crn, volume) reaction table: the one propensity definition of
    both event loops.

    Both loops read counts with one extra entry held at 1 after the
    species. Reaction j has propensity
    ``coef[j] * c[ra[j]] * (c[rb[j]] - minus[j])``: X -> ... has coef k
    and ``rb`` at the entry held at 1; X + Y -> ... has coef k/v and ``rb``
    at Y; X + X -> ... has coef k/(2v), ``rb`` equal to ``ra`` and
    ``minus`` 1. ``table`` holds these four values per reaction, ``rows``
    its (ra, rb, minus) rows, and ``deltas[j]`` reaction j's net change as
    (species, change) pairs; ``rows`` and ``deltas`` are the part of the
    scalar loop's lookup key that the table fixes. ``steps`` holds the same
    net changes as one read-only int64 row per reaction, dense over the
    counts and the entry held at 1 (which no reaction changes): the batched
    loop lays out its own copy once per call over its species-major rows,
    ``_run_path`` reads its one reaction's change from it, and
    ``_run_core`` rebuilds its checkpoints with it. A coefficient that
    underflows to 0 is refused, and so is a table whose total propensity
    could leave the float range at counts below 2**63. ``volume`` holds the
    volume as ``errors.check_real`` returns it. ``_prepare`` takes each
    table from ``_table``, which builds one per (crn, volume).
    """

    __slots__ = ("volume", "table", "rows", "deltas", "steps")

    def __init__(self, crn: Crn, volume: float):
        self.volume = volume = check_real(volume, "volume")
        ones = crn.n_species
        table, deltas, steps = [], [], []
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
            change = list(map(operator.sub, rx.products, rx.reactants))
            deltas.append(tuple((s, d) for s, d in enumerate(change) if d))
            steps += change
            steps.append(0)  # the entry held at 1
        # k/v underflowing to 0 silently removes its reaction
        if not all(k > 0.0 for k, _, _, _ in table):
            raise DomainError(
                f"volume {volume!r} takes a rate constant divided by it out of floating-point range"
            )
        # a total propensity of inf makes every wait 0 and picks reactions
        # whose reactants are gone (k/v of inf makes inf * 0 a NaN one); the
        # counts stay below 2**63, so a propensity of order o stays below
        # coef * 2**(63 o), and plain sum overflows to inf where fsum raises
        reach = [k * 2.0 ** (63 * rx.order) for (k, _, _, _), rx in zip(table, crn.reactions)]
        if not math.isfinite(sum(reach)):
            k = crn.reactions[reach.index(max(reach))].rate_constant
            raise DomainError(
                f"rate constant {k!r} at volume {volume!r} can take the total propensity "
                "out of floating-point range"
            )
        self.table = tuple(table)
        self.rows = tuple(row[1:] for row in table)
        self.deltas = tuple(deltas)
        self.steps = np.array(steps, dtype=np.int64).reshape(len(table), ones + 1)
        self.steps.setflags(write=False)  # every run of the table reads it


@lru_cache(maxsize=256, typed=True)
def _table(crn: Crn, volume) -> _Compiled:
    """The reaction table of ``crn`` at ``volume``, built once per (crn,
    volume) and shared by every run of them; ``typed`` keeps an int volume
    apart from the equal float, as ``Trace.volume`` keeps it."""
    return _Compiled(crn, volume)


def _run_core(
    comp: _Compiled,
    counts: list,
    rng,
    *,
    t_max=None,
    watch=(),
    max_events=_NO_BUDGET,
    checkpoint_times=(),
):
    """One recorded run.

    ``counts`` holds the species counts followed by the entry held at 1
    that ``comp`` reads, and is updated in place. ``watch`` holds the
    stop's watches as (sid, threshold, side), side +1 for a count that
    rises to its threshold and -1 for one that falls to it; the run ends
    once every watch was reached, and the time each was first reached is
    collected by its index (a watch reached in ``counts`` reports 0.0).
    ``comp`` is the table ``_prepare`` took from ``_table``.
    The stop is tested before an event's wait is read, so a stop that
    already holds in ``counts`` ends the run at time 0. Returns (time,
    status, events, checkpoints, watch_times, n_events), where ``events``
    is the pair of columns of a ``Trace``: the event times (float64) and
    the reaction indices (``_index_dtype``).

    The run takes one of two bodies, chosen by the size of the table, as
    ``_run_batch`` chooses. With two or more reactions it is the kernel
    ``_kernel`` generated for the shape of this run: the reactant rows and
    net changes of ``comp``, the species count, each watch's species and
    side, and whether ``t_max`` is given. The rate coefficients, the
    thresholds and the event budget are its arguments, so runs at another
    volume, horizon, threshold or budget reuse it. Its waits come from
    ``rng.standard_exponential`` and its selection uniforms from
    ``open_uniform_block`` on ``second_stream(rng)``, built here before
    ``rng`` makes any draw. It keeps its blocks of waits, records each
    event's total propensity in a list and its reaction index in a
    ``bytearray`` when they take one byte (up to 256 reactions), else in a
    list, and notes the number of events after which each watch was
    reached; it returns ``t_max`` as the end time when the horizon cut the
    run, else None. Here the event times are then ``waits / totals``
    summed along the events by one ``np.add.accumulate``: the float
    operations of ``t + e / total`` in the order the loop would take them,
    so a run with ``t_max`` gets the times of the clock it keeps for its
    horizon test, and one without keeps none. The end time is the last
    event's time, and a watch's time that of the event that reached it.
    With at most one reaction the run is one trial of ``_run_path``, which
    reads the same waits and computes each event time by the same float
    operations, a block of up to ``_BLOCK`` events per array operation,
    and records only the event times, a block at a time (a single block
    is taken as it is): every event fires the one reaction, so the counts
    after n events are ``init + n * delta``, and its outputs give the end
    time, the status and the watch times.

    Either body records events only; the checkpoints are read from the
    two event columns afterwards, by one rule. ``checkpoint_times`` is
    sorted, and those past the end of the run are taken only when the run
    is exhausted. Checkpoint ``x`` takes the counts after the events
    before ``x`` and the first event at ``x``, if there is one: after j
    events, the initial counts plus the net changes (``comp.steps``) of
    the reactions among the first j, counted per segment of events
    between checkpoints and summed along them.
    """
    start = counts[:-1]
    nrx = len(comp.table)
    dtype = _index_dtype(nrx)
    if nrx > 1:
        kernel = _kernel(comp.rows, comp.deltas, len(start),
                         tuple((sid, side) for sid, _, side in watch), t_max is not None)
        totals, chosen, waits = [], bytearray() if dtype.itemsize == 1 else [], []
        reached = dict.fromkeys(_reached(watch, counts), 0)
        t, status = kernel(comp.table, counts, rng, second_stream(rng), open_uniform_block, t_max,
                           tuple(level for _, level, _ in watch), max_events, reached,
                           totals, chosen, waits)
        n = len(totals)
        # event i's time is t + e / total after event i - 1's, as in _run_path
        times = np.fromiter(totals, np.float64, count=n)
        with np.errstate(over="ignore"):  # a wait over a tiny total may overflow to inf
            np.divide(_joined(waits)[:n], times, out=times)
        np.add.accumulate(times, out=times)
        chosen = np.array(chosen, dtype)
        if t is None:  # not cut at t_max: the run ends at its last event
            t = times.item(-1) if n else 0.0
        watch_times = {i: times.item(k - 1) if k else 0.0 for i, k in reached.items()}
    else:
        blocks = []
        end, first, exhausted, _ = _run_path(comp, counts, rng, 1, t_max, watch, max_events,
                                             blocks)
        times = _joined(blocks)
        chosen = np.zeros(times.size, dtype)
        status = EXHAUSTED if exhausted[0] else STOPPED
        t = end.item()
        if t == t_max:
            t = t_max  # as the stop holds it
        watch_times = {i: x for i, x in enumerate(first[0].tolist()) if x == x}  # NaN: never reached
        if times.size:  # so there is one reaction
            counts[:] = [x + times.size * d for x, d in zip(counts, comp.steps[0].tolist())]
    cps = checkpoint_times
    if status == STOPPED:  # checkpoints past the end are not reached
        cps = cps[: bisect.bisect_right(cps, t)]
    cp_rows = []
    if cps:
        at = np.array(cps, dtype=np.float64)
        # the events before each checkpoint, and the first one at it
        j = np.minimum(times.searchsorted(at, "right"), times.searchsorted(at) + 1)
        if nrx == 1:  # every event fired the one reaction
            fired = j[:, None]
        else:
            # event e lies in segment i, between checkpoints i - 1 and i,
            # where i is the number of checkpoints with j <= e; each
            # reaction's events per segment, summed along the checkpoints
            seg = j.searchsorted(np.arange(j[-1]), "right") * nrx
            fired = np.bincount(seg + chosen[: j[-1]], minlength=at.size * nrx)
            fired = fired.reshape(at.size, nrx).cumsum(axis=0)
        cp_rows = list(zip(cps, (fired @ comp.steps)[:, :-1] + np.array(start)))
    return t, status, (times, chosen), cp_rows, watch_times, times.size


def _joined(blocks) -> np.ndarray:
    """The arrays ``blocks`` end to end; a single one as it is."""
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate(blocks) if blocks else np.empty(0)


def _reached(watch, counts) -> list:
    """The indices of the watches that ``counts`` has reached: those whose
    count is at or past its threshold, seen from its side."""
    return [i for i, (sid, level, side) in enumerate(watch) if (counts[sid] - level) * side >= 0]


# all that a generated kernel reads besides its arguments. Its source holds
# no float, so a timed kernel's clock starts from here
_KERNEL_GLOBALS = {
    "ZERO": 0.0,
    "STOPPED": STOPPED,
    "EXHAUSTED": EXHAUSTED,
}
_KERNEL_FILES = itertools.count()


@lru_cache(maxsize=256)
def _kernel(rows, deltas, n_species, watch, timed):
    """The scalar event loop for one shape of run, compiled once and cached.

    ``rows`` holds each reaction's (ra, rb, minus) and ``deltas`` its net
    change, as ``_Compiled.rows`` and ``_Compiled.deltas`` hold them;
    ``watch`` holds each watch's (sid, side),
    and ``timed`` whether ``t_max`` is given. The source is registered
    with ``linecache`` under its own file name, so a traceback through the
    kernel shows its lines; the entry goes when the kernel does.
    """
    src = _kernel_source(rows, deltas, n_species, watch, timed)
    filename = f"<crnsim kernel {next(_KERNEL_FILES)}>"
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile(src, filename, "exec"), namespace)
    kernel = namespace.pop("kernel")
    linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
    weakref.finalize(kernel, linecache.cache.pop, filename, None)
    return kernel


def _kernel_source(rows, deltas, n_species, watch, timed) -> str:
    """Python source of the event loop ``_kernel`` compiles for a table of
    two or more reactions; see ``_run_core``.

    The counts live in locals ``c0``, ``c1``, ... and the coefficients in
    ``k0``, ``k1``, ..., unpacked from the table argument. Reaction j's
    propensity ``a_j`` is ``k_j * c_a * (c_b - m)``, without the factor for
    the entry held at 1 and without a ``- 0``. A kept ``a_j`` is computed
    once before the loop; after that, each branch recomputes, by the same
    expression, only the kept ones of the reactions that read a species it
    changes. ``a_j`` is kept only while at most ``_KEEP_SHARE`` of the
    branches recompute it, fewest first, and while the branches hold at most
    ``_RECOMPUTE_LINES`` recomputations per reaction, which keeps the source
    linear in the size of the table; the sums compute every other propensity
    at every event. At the top of each event ``s_j`` sums the first j in
    table order, so ``s`` of the last is the total, and the reaction is
    chosen by a chain ``if x < s1 ... elif ... else`` over those sums: the
    first j with x < s_(j+1), or the last reaction when there is none. Each
    event appends its total propensity, not its time, to the list argument
    ``events``, and each branch appends its index to ``chosen`` and applies
    its own changes. Watch i has a flag ``p{i}``, set while it is pending,
    and its threshold in ``level{i}``; only a branch that moves its species
    toward the threshold tests it, and marks it reached there by storing
    the number of events so far in ``wt[i]``. The stop, no watch pending,
    is tested at the top of each event. Each event reads one selection
    uniform ``v`` from ``sel``, and its wait from ``rng``; both come in
    blocks of one size, and the event budget is tested once per block,
    when the block is sized to the events left in it. Each block of waits
    is appended, as drawn, to the list argument ``waits``, from which
    ``_run_core`` computes the event times. Only a ``timed`` kernel reads
    the waits: it keeps the clock ``t``, advanced by ``t + e / total``
    (so no event calls ``log``), for its ``t_max`` test. After the loop
    the kernel writes its counts back to ``counts`` and returns ``t_max``
    if the horizon cut the run (else None) and the status; it holds no
    checkpoint code, since ``_run_core`` reads the checkpoints from the
    two event columns. The source holds only integers and local names.
    """
    nrx = len(rows)
    names = [f"c{s}" for s in range(n_species)]
    out = ["def kernel(table, counts, rng, sel, draw, t_max, levels, max_events, wt, events, chosen,"
           " waits):"]

    def emit(depth, *lines):
        out.extend("    " * depth + line for line in lines)

    def propensity(j):
        a, b, m = rows[j]
        prop = f"k{j} * c{a}"
        if b != n_species:
            prop += f" * (c{b} - {m})" if m else f" * c{b}"
        return prop

    # the reactions that read each species and the branches that change it;
    # none changes the entry held at 1
    readers = [[] for _ in range(n_species + 1)]
    for j, (a, b, _) in enumerate(rows):
        for s in {a, b} - {n_species}:
            readers[s].append(j)
    writers = [set() for _ in range(n_species + 1)]
    for i, delta in enumerate(deltas):
        for s, _ in delta:
            writers[s].add(i)
    # locals a0, a1, ... hold the kept propensities (see _KEEP_SHARE); the
    # sums compute the rest
    kept, lines = set(), 0
    for w, j in sorted((len(writers[a] | writers[b]), j) for j, (a, b, _) in enumerate(rows)):
        if w > _KEEP_SHARE * nrx or lines + w > _RECOMPUTE_LINES * nrx:
            break
        kept.add(j)
        lines += w

    emit(1, "[" + ", ".join(f"[k{j}, _, _, _]" for j in range(nrx)) + "] = table")
    emit(1, f"[{', '.join([*names, '_'])}] = counts")
    if watch:  # wt holds the watches reached at the start
        flags = [f"p{i}" for i in range(len(watch))]
        emit(1, f"[{', '.join(f'level{i}' for i in range(len(watch)))}] = levels",
             *(f"{p} = {i} not in wt" for i, p in enumerate(flags)),
             f"pending = {' + '.join(flags)}")
    emit(1, "end = None", "record = events.append", "mark = chosen.append", "keep = waits.append")
    if timed:
        emit(1, "t = ZERO")
    emit(1, *(f"a{j} = {propensity(j)}" for j in sorted(kept)), f"size = {_FIRST_BLOCK}",
         "while True:")
    emit(2, "left = max_events - len(events)", "if left <= 0:")
    emit(3, "status = STOPPED", "break")
    emit(2, "n = min(size, left)", "block = rng.standard_exponential(n)", "keep(block)",
         f"size = min(2 * size, {_BLOCK})")
    if timed:
        emit(2, "for e, v in zip(block.tolist(), draw(sel, n).tolist()):")
    else:
        emit(2, "for v in draw(sel, n).tolist():")
    if watch:
        emit(3, "if not pending:")
        emit(4, "status = STOPPED", "break")
    for j in range(nrx):
        prop = f"a{j}" if j in kept else propensity(j)
        emit(3, f"s{j + 1} = {f's{j} + ' if j else ''}{prop}")
    total = f"s{nrx}"
    emit(3, f"if {total} <= 0:")
    emit(4, "status = EXHAUSTED", "break")
    if timed:
        emit(3, f"tn = t + e / {total}", "if tn > t_max:")
        emit(4, "end = t_max", "status = STOPPED", "break")
        emit(3, "t = tn")
    emit(3, f"record({total})", f"x = v * {total}")
    for j, delta in enumerate(deltas):
        if j == 0:
            emit(3, "if x < s1:")
        elif j < nrx - 1:
            emit(3, f"elif x < s{j + 1}:")
        else:
            emit(3, "else:")
        for s, d in delta:
            emit(4, f"c{s} {'+' if d > 0 else '-'}= {abs(d)}")
        emit(4, f"mark({j})")
        affected = {i for s, _ in delta for i in readers[s] if i in kept}
        emit(4, *(f"a{i} = {propensity(i)}" for i in sorted(affected)))
        moved = dict(delta)
        for i, (s, side) in enumerate(watch):
            if moved.get(s, 0) * side > 0:
                emit(4, f"if p{i} and c{s} {'>=' if side > 0 else '<='} level{i}:")
                emit(5, f"p{i} = False", f"wt[{i}] = len(events)", "pending -= 1")
    emit(2, "else:")
    emit(3, "continue")
    emit(2, "break")
    emit(1, f"counts[:{n_species}] = [{', '.join(names)}]", "return end, status")
    return "\n".join(out) + "\n"


def _run_batch(
    comp: _Compiled,
    counts: list,
    rng,
    trials: int,
    *,
    t_max=None,
    watch=(),
    max_events=_NO_BUDGET,
):
    """``trials`` independent runs of ``_run_core`` from ``counts``, in lockstep.

    ``counts`` ends with the entry held at 1, as for ``_run_core``.
    Every active trial makes one event per sweep, so the sweep count is
    each active trial's event count. A sweep takes one wait per active
    trial from ``rng.standard_exponential`` and one selection uniform per
    active trial from ``open_uniform_block`` on ``second_stream(rng)``,
    built before ``rng`` makes any draw, so a one-trial run reads the
    draws ``_run_core`` reads. A table of at most one reaction goes to
    ``_run_path`` before anything is laid out here; it advances a block
    of sweeps per array operation and draws no selections. The sweep loop
    here serves two or more reactions. A wait over a total of a few
    subnormals may overflow to inf, as the scalar loop's division does;
    the trial then ends at ``t_max``, or its event lies at time inf, and
    neither loop warns.

    The loop's state is species-major, with one column per active trial:
    the counts have a row per species, the entry held at 1, and a row per
    X + X reaction holding its reactant's count minus 1, and the times
    each watch was first reached a row per watch. These rows, the
    reactant rows of each reaction and the step of each reaction over
    them are built here from ``comp.table`` and ``comp.steps``, the only
    place that layout is written. The propensities
    are then one row gather and float products in the scalar loop's
    order, and the step is one column gather from the transposed
    stoichiometry. The watches and the event budget are tested at the
    top of each sweep, before its draws are read. The watched counts are
    read only after a sweep in which some trial fired a reaction that
    moves a watched count toward its threshold, since no other reaction
    can reach a pending watch; whether every watch is reached is tested
    only when one was newly reached. A trial ends without an event in the
    sweep where its total propensity is at most zero (it is then exhausted
    and keeps the time of its last event, whatever its wait) or its next
    event lies past ``t_max`` (it takes ``t_max``), and retires at the top
    of the next. A count that passes 2**63 - 1 wraps to below 0 in its
    int64 row; the species rows of the trials that retire are read for
    such a count, which raises ``DomainError``.

    Returns (end times, first-passage times, exhausted flags, event
    counts), one row per trial, as ``_run_path`` does. The first-passage
    times have one column per watch, in the order of ``watch``: the time
    it was first reached, or NaN.
    """
    nrx = len(comp.table)
    if nrx < 2:
        return _run_path(comp, counts, rng, trials, t_max, watch, max_events)
    end, first, exhausted, n_events = _outputs(trials, watch, counts)
    init = np.array(counts, dtype=np.int64)
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
    nsp = init.size - 1  # the species rows
    steps = comp.steps.T[rows]
    start = init[rows]
    start[init.size :] -= 1
    coefk = np.repeat(np.array([k for k, _, _, _ in comp.table])[:, None], trials, axis=1)
    wsid = np.array([sid for sid, _, _ in watch], dtype=np.intp)
    side = np.array([d for _, _, d in watch], dtype=np.int64)[:, None]
    # watch i is reached where side * count >= side * threshold; a count
    # stays below 2**63, so a higher threshold is never reached either way
    bar = side * np.array([min(level, _NO_BUDGET) for _, level, _ in watch],
                          dtype=np.int64)[:, None]
    moves = (steps[wsid] * side > 0).any(axis=0)
    cnt = np.repeat(start[:, None], trials, axis=1)
    seen = first.T.copy()
    t = np.zeros(trials)
    ids = np.arange(trials)
    ended = dead = np.zeros(trials, dtype=bool)  # set in a sweep, read at the top of the next
    any_ended = False
    fresh = bool(watch)  # whether a watch was newly reached since the stop was last tested
    sel = second_stream(rng)
    ebuf = vbuf = np.empty(0)  # waits and selection uniforms, drawn in step
    ui = 0
    sweep = 0

    # a wait over a tiny total may overflow to inf, as in the scalar loop
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            # the one stop test: a trial retires here once its stop holds,
            # or in the sweep after the one it ended in
            done = ended
            if fresh:
                done = done | ~np.isnan(seen).any(axis=0)
            retire = any_ended if done is ended else np.count_nonzero(done)
            if sweep >= max_events:
                done, retire = np.ones_like(done), True
            if retire:
                # an int64 count that passed 2**63 - 1 wrapped to below 0,
                # where nothing brings it back before its trial retires
                if cnt[:nsp, done].min(initial=0) < 0:
                    raise DomainError("a count overflows the 64-bit count range")
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
            k = ids.size
            # coef * c[ra] * (c[rb] - minus), the counts cast to float as a
            # float-by-integer product casts them
            g = cnt.take(rab, axis=0).astype(np.float64)
            cum = g[:nrx] * coefk
            cum *= g[nrx:]
            cum = np.add.accumulate(cum, axis=0)
            total = cum[-1]
            if ui + k > ebuf.size:
                size = max(2 * k, _BLOCK)
                ebuf = np.concatenate((ebuf[ui:], rng.standard_exponential(size)))
                vbuf = np.concatenate((vbuf[ui:], open_uniform_block(sel, size)))
                ui = 0
            tn = t + ebuf[ui : ui + k] / total
            usel = vbuf[ui : ui + k]
            ui += k
            # a total of at most zero makes tn infinite, -inf (every
            # propensity -0.0, X + X at count 0) or, with a wait of 0.0,
            # NaN, so exhaustion is read from the total itself
            ended = dead = total <= 0.0
            if t_max is not None:
                ended = dead | (tn > t_max)
            # the first j with x < cum[j], or the last reaction when there is none
            idx = np.add.reduce(cum[:-1] <= usel * total, axis=0)
            step = steps.take(idx, axis=1)
            rose = watch and np.count_nonzero(moves.take(idx))
            any_ended = np.count_nonzero(ended)
            if any_ended:  # an ended trial makes no event
                step = step * ~ended
                tn = np.where(dead, t, tn if t_max is None else np.minimum(tn, t_max))
            cnt += step
            t = tn
            # only a reaction that moves a watched count toward its
            # threshold can reach a pending watch
            fresh = False
            if rose:
                new = np.isnan(seen) & (cnt.take(wsid, axis=0) * side >= bar)
                fresh = np.count_nonzero(new)
                if fresh:
                    seen = np.where(new, t, seen)
    return end, first, exhausted, n_events


def _outputs(trials: int, watch, counts):
    """The outputs of ``trials`` runs from ``counts``, as ``_run_batch``
    returns them: end times, first-passage times (NaN, or 0.0 for a
    watch that ``counts`` has reached), exhausted flags and event counts."""
    first = np.empty((trials, len(watch)))
    first.fill(math.nan)
    for i in _reached(watch, counts):
        first[:, i] = 0.0
    return np.zeros(trials), first, np.zeros(trials, dtype=bool), np.zeros(trials, dtype=np.int64)


@np.errstate(over="ignore")  # a wait over a tiny propensity may overflow to inf
def _run_path(comp, counts, rng, trials, t_max, watch, max_events, record=None):
    """The ``trials`` runs of ``_run_batch`` for a table of at most one
    reaction, returned as ``_run_batch`` returns them; with one trial,
    also the run of ``_run_core``, whose event times it appends to
    ``record``, one array per block, each a view of that block's times.

    Every active trial fires the one reaction in every sweep, so all of
    them follow one path of counts, ``init + s * delta`` after s sweeps,
    and only their times differ. So what reads counts falls on one common
    sweep: each watch, the stop (the last watch reached, or the event
    budget) and exhaustion, where the path's propensity is at most zero
    (-0.0 for X + X at count 0; with no reaction it is 0). A stop wins
    over exhaustion at the same sweep. Each count is linear in the sweep,
    so these sweeps are found once, before any wait is drawn, and a
    trial's time after a watch's sweep is the time that watch was first
    reached. Only ``t_max`` ends trials at sweeps of their own.

    The path's propensities, ``float(c_a) * coef * float(c_b - minus)``
    in the order of the sweep loop in ``_run_batch`` (the second factor is
    left out when it is the entry held at 1), are computed a window of
    ``_BLOCK`` sweeps at a time, cut at the halt sweep, for one trial as
    for many. The trials advance a block of at most ``_BLOCK`` waits at a
    time: its waits, from ``rng.standard_exponential``, are read as a
    (sweeps x trials) array, one row per sweep, in the order a sweep loop
    reads them, and every trial's times come from one division
    and a running sum along the sweeps: one ``np.add.accumulate``, or
    above ``_ROW_SUM_TRIALS`` trials one row addition per sweep, which is
    faster for a block of few sweeps. These are the sweep loop's float
    operations in its order, so the outputs are the ones it would give.
    With ``t_max``, a block ends at the first sweep in which some trial
    passes it; those trials retire, and the waits the block drew past that
    sweep are read by the next one. No array grows with the length of the
    path. Since each count is linear in the sweep, so is the first sweep
    that takes one past 2**63 - 1; an active trial that makes it raises
    ``DomainError``.
    """
    if comp.table:
        [(coef, a, b, minus)] = comp.table
        delta = comp.steps[0].tolist()
        # a count falls by at most what the reaction consumes, so none goes
        # below 0, and the propensity is at most 0 (-0.0 for X + X at count
        # 0) from the first sweep at which c_a or c_b - minus is
        dead_at = min(_first_sweep(counts[a], delta[a], 0),
                      _first_sweep(counts[b] - minus, delta[b], 0))
    else:  # a propensity of 0 from the entry held at 1: nothing can fire
        coef, a, b, minus = 0.0, len(counts) - 1, len(counts) - 1, 0
        delta = [0] * len(counts)
        dead_at = 0
    # the first sweep at which each watch is reached, where side * count,
    # which moves by side * delta a sweep, is at least side * threshold
    at = [_first_sweep(-side * counts[sid], -side * delta[sid], -side * level)
          for sid, level, side in watch]
    stop_at = min(max_events, max(at, default=_NO_BUDGET))
    halt_at = min(stop_at, dead_at)
    # the first sweep that takes some count past 2**63 - 1
    over_at = min((_first_sweep(-c, -d, -2**63) for c, d in zip(counts, delta) if d > 0),
                  default=_NO_BUDGET)
    end, first, exhausted, n_events = outputs = _outputs(trials, watch, counts)
    ids = np.arange(trials)
    t = np.zeros(trials)
    ebuf = np.empty(0)  # waits drawn and not yet read
    s = 0  # the sweeps every active trial has made, one event each
    w0 = wend = 0  # the path's propensities are computed from sweep w0 to wend
    while True:
        if s == over_at:  # some active trial made that sweep
            raise DomainError("a count overflows the 64-bit count range")
        if s == halt_at:
            end[ids] = t
            n_events[ids] = s
            exhausted[ids] = dead_at < stop_at
            return outputs
        if s == wend:
            w0, wend = s, min(s + _BLOCK, halt_at, over_at)
            prop = _path_counts(counts[a], delta[a], w0, wend).astype(np.float64) * coef
            if b < len(counts) - 1:  # else the factor is the entry held at 1
                prop *= _path_counts(counts[b] - minus, delta[b], w0, wend).astype(np.float64)
        k = ids.size
        fire = min(max(1, _BLOCK // k), wend - s)  # the sweeps of this block
        need = fire * k
        if ebuf.size < need:
            more = rng.standard_exponential(need - ebuf.size)
            ebuf = np.concatenate((ebuf, more)) if ebuf.size else more
        # row r holds every trial's time after sweep s + r
        times = np.empty((fire + 1, k))
        times[0] = t
        np.divide(ebuf[:need].reshape(fire, k), prop[s - w0 : s - w0 + fire, None],
                  out=times[1:])
        if k > _ROW_SUM_TRIALS:
            for r in range(fire):
                np.add(times[r], times[r + 1], out=times[r + 1])
        else:
            np.add.accumulate(times, axis=0, out=times)
        late = None
        # the times only grow along a trial, so the last row shows whether
        # any trial passed t_max in this block
        if t_max is not None and np.maximum.reduce(times[fire]) > t_max:
            # so the rows' maxima grow too, and the first late row is the
            # first whose maximum passes t_max
            top = times[1:, 0] if k == 1 else np.maximum.reduce(times[1:], axis=1)
            fire = int(top.searchsorted(t_max, "right")) + 1
            late = times[fire] > t_max
        if record is not None:  # one trial, so a late row ends its run
            record.append(times[1 : fire if late is not None else fire + 1, 0])
        ebuf = ebuf[fire * k :]
        for i, x in enumerate(at):
            if s < x <= s + fire:  # the trials that make sweep x reach watch i there
                saw = ~late if late is not None and x == s + fire else slice(None)
                first[ids[saw], i] = times[x - s, saw]
        s += fire
        if late is None:
            t = times[fire].copy()
            continue
        # the late trials take t_max after s - 1 events
        out = ids[late]
        end[out] = t_max
        n_events[out] = s - 1
        if out.size == k:
            return outputs
        keep = ~late
        ids, t = ids[keep], times[fire, keep]


def _path_counts(c0: int, d: int, start: int, stop: int) -> np.ndarray:
    """The counts ``c0 + d * s`` for the sweeps s from ``start`` to ``stop``
    (exclusive), as int64. Each of them is in the int64 range, and so is
    every value computed on the way, though ``c0 + d * stop`` may not be."""
    counts = np.arange(stop - start, dtype=np.int64)
    counts *= d
    counts += c0 + d * start
    return counts


def _first_sweep(c0: int, d: int, x: int) -> int:
    """The first sweep s >= 0 at which the count ``c0 + d * s`` is at most
    ``x``, or ``_NO_BUDGET`` when there is none."""
    if c0 <= x:
        return 0
    return _NO_BUDGET if d >= 0 else -((c0 - x) // d)


def _prepare(crn: Crn, init: Configuration, stop: StopCondition, volume):
    """(volume, reaction table, counts, event-loop keyword arguments) that
    run ``stop`` from ``init``.

    The volume defaults to the total initial count, and is checked with
    ``errors.check_real`` before the table is looked up in ``_table``, so a
    volume that is no real number (a list, a 0-d array) raises
    ``DomainError``. The counts end with the entry held at 1 that the
    table reads. The loops take the
    stop's watches as (sid, threshold, side) tuples, in the order of
    ``stop.reaches``, side +1 for ``">="`` and -1 for ``"<="``. Without
    ``t_max`` or ``max_events`` a stop with a watch that can never be
    reached would loop forever, so it raises ``DomainError``.
    """
    if len(init) != crn.n_species:
        raise DomainError("initial configuration does not span the species table")
    # checked before the lookup, which needs a hashable volume
    comp = _table(crn, check_real(float(init.total) if volume is None else volume, "volume"))
    counts = init.counts.tolist()
    watch = [(crn.species.id_of(name), level, _SIDES[side])
             for name, side, level in stop.reaches or ()]
    # a zero configuration has no propensity and ends at once
    if stop.t_max is None and stop.max_events is None and any(counts):
        why = _never_fires(crn, counts, watch)
        if why is not None:
            raise DomainError(f"{why}; give the stop a t_max or max_events")
    counts.append(1)
    return comp.volume, comp, counts, {
        "t_max": stop.t_max,
        "watch": tuple(watch),
        "max_events": _NO_BUDGET if stop.max_events is None else stop.max_events,
    }


def _never_fires(crn: Crn, counts: list, watch) -> str | None:
    """Why some watch of a stop can never be reached from ``counts``, or
    None when each might be.

    A watch reached at the start, or one that falls to its threshold,
    might always be. A rising one never is when its species lies outside
    the stage closure of the reactions that can fire, which
    over-approximates what can be produced, or when masses that no
    reaction raises bound its count below its threshold. A reaction whose
    reactants outweigh the start under such masses never fires, and it
    is left out of the closure and of the watches' masses. Each test seeks
    its own masses (``analysis.never_covers``), which finds them whenever
    any exist, a conservation certificate's among them: ``A + B -> C``,
    ``X -> Y``, ``Y -> X`` from A = 300, B = 200, X = 1 keeps C at most
    200, though its certificate allows C = 250.
    """
    rising = [(sid, level) for sid, level, side in watch if side > 0 and counts[sid] < level]
    if not rising:
        return None
    from . import analysis  # deferred: it slows down importing this module

    able = Crn(crn.species, tuple(rx for rx in crn.reactions
                                  if analysis.never_covers(crn, counts, rx.reactants) is None))
    closure = analysis.stage_decomposition(able, Configuration(counts)).closure
    reasons = {}  # in watch order, each once
    for sid, level in rising:
        name = crn.species.name_of(sid)
        if sid not in closure:
            reasons[f"species {name} can never appear from this initial configuration"] = None
            continue
        mass = analysis.never_covers(able, counts, [level * (s == sid) for s in range(crn.n_species)])
        if mass is not None:
            reasons[f"the count of {name} stays at most {_dot(mass, counts) // mass[sid]} under "
                    f"masses that no reaction raises and can never reach {level}"] = None
    return "; ".join(reasons) or None


def _dot(x, y):
    """The sum of the products of ``x`` and ``y``, exact on Python ints and
    ``Fraction``s."""
    return sum(map(operator.mul, x, y))


def _items(value, name: str) -> tuple:
    """The items of ``value``, refused with ``DomainError`` when it is a
    bare number (a 0-d array too) or a string, which is not a sequence of
    numbers."""
    if isinstance(value, str) or not isinstance(value, Iterable) or getattr(value, "ndim", 1) == 0:
        raise DomainError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


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
    trace; ``stream_key``, a tuple of integers of at least 0, selects an
    independent substream, e.g. one per trial of a repeated experiment.
    Checkpoint times, a sequence or a numpy array, must be finite and
    nonnegative; a checkpoint of -0.0 is kept as 0.0. A bare number or a
    string as the stream key or the checkpoint times raises
    ``DomainError``. A network of two or
    more reactions runs through the generated scalar loop, and one of at
    most one reaction a block of events per array operation
    (``_run_path``), with the same draws and float operations.
    """
    cps = () if checkpoint_times is None else _items(checkpoint_times, "checkpoint_times")
    # + 0 turns -0.0 into 0.0, so no CSV row reads -0.0, and keeps an int an int
    cps = sorted(check_real(x, "checkpoint times", zero=True) + 0 for x in cps)
    volume, comp, counts, loop_args = _prepare(crn, init, stop, volume)
    t, status, events, cp_rows, _, _ = _run_core(
        comp, counts, substream(seed, *_items(stream_key, "stream_key")), checkpoint_times=cps,
        **loop_args
    )
    return Trace(
        initial=init,
        events=Events(*events),
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
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``stop`` from ``init`` in ``trials`` independent trials.

    Returns the per-trial end times and the first-passage times, an
    array of one row per trial and one column per watch of
    ``stop.reaches``, in its order: the time the watch was first
    reached, 0 when it is reached at the start, NaN when it never was.
    The trials of each chunk of ``_TRIAL_CHUNK`` run in lockstep through
    ``parallel.map_chunks``, so chunk c draws from ``substream(seed,
    *stream_key, c)`` and results do not depend on ``threads``. On Linux
    the chunks run on up to min(threads, usable
    CPUs) worker processes, elsewhere in-process. Each chunk is one
    ``_run_batch`` call; with at most one reaction it advances a block of
    sweeps per array operation, so a run of many events over few trials,
    such as leader election from many candidates, costs about as much as
    its waits. A one-trial run ends bit for bit where
    ``simulate(..., stream_key=(*stream_key, 0))`` does, and a bare
    number or a string as the key raises ``DomainError``, as there. The
    volume defaults to the total initial count.
    """
    check_integer(trials, "trials")
    stream_key = _items(stream_key, "stream_key")
    _, comp, counts, loop_args = _prepare(crn, init, stop, volume)
    batch = partial(_run_batch, comp, counts, **loop_args)
    parts = map_chunks(batch, trials, _TRIAL_CHUNK, seed, stream_key, threads)
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def csv_time(x: float) -> str:
    """A time as a CSV cell: its repr, or "censored" when it is not finite."""
    return repr(x) if math.isfinite(x) else "censored"


def json_time(x: float) -> float | None:
    """A time as a JSON value: None when it is not finite."""
    return x if math.isfinite(x) else None


def write_csv(fileobj, result):
    """The ``CSV_HEADER`` of ``result``, then its ``csv_rows()``."""
    _write_csv(fileobj, result.CSV_HEADER, map(_csv_line, result.csv_rows()))


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
    t_cap = check_real(t_cap, "t_cap")
    seed = check_integer(seed, "seed", 0)
    stop = StopCondition(t_max=t_cap, reaches=[(target, ">=", 1)])
    times = run_trials(crn, init, stop, trials, seed, volume=volume, threads=threads)[1][:, 0]
    return FirstProductionStats(target=target, t_cap=t_cap, times=times, seed=seed)
