import bisect
import csv
import dataclasses
import gc
import hashlib
import io
import itertools
import linecache
import math
import os
import re
import subprocess
import sys
import tokenize
import tracemalloc
import traceback
from pathlib import Path

import numpy as np
import pytest
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from crnsim import analysis, kinetics
from crnsim.analysis import stage_decomposition
from crnsim.errors import DomainError, UnsupportedReactionOrderError
from crnsim.harness import chain_crn, leader_election_crn, leader_election_experiment
from crnsim.kinetics import (
    _TRIAL_CHUNK,
    FirstProductionStats,
    StopCondition,
    _Compiled,
    first_production_times,
    run_trials,
    simulate,
)
from crnsim.model import Configuration, Crn, Reaction, SpeciesTable, format_crn, parse_crn
from crnsim.streams import open_uniform_block, second_stream, substream

from conftest import random_config, random_crn


# The event CSV writer as it stood before rows were joined in chunks: one
# csv.writer row per event. Kept only as a reference for Trace.to_csv.
def row_by_row_to_csv(trace, crn, fileobj):
    w = csv.writer(fileobj)
    w.writerow(["event_index", "time", "reaction_label"])
    labels = [crn.reaction_label(j) for j in range(len(crn.reactions))]
    w.writerows([i, t, labels[ridx]] for i, (t, ridx) in enumerate(trace.events))


def _appears(crn, names) -> list:
    """A rising watch at 1 per name, in species-id order."""
    return [(name, ">=", 1) for name in sorted(set(names), key=crn.species.id_of)]


def _count_watch(crn, init, name, level) -> tuple:
    """A watch on ``name``'s count that approaches ``level`` from the side
    of its count in ``init``."""
    return name, "<=" if init[crn.species.id_of(name)] > level else ">=", level


def _propensities(comp, counts) -> list:
    """Every propensity from ``counts`` as both event loops compute it."""
    c = [*counts, 1]
    return [k * c[a] * (c[b] - m) for k, a, b, m in comp.table]


class TestPropensity:
    """The compiled table: reaction j has propensity
    coef * c[ra] * (c[rb] - minus) over the counts followed by an entry
    held at 1, which is k * c(X), (k/v) * c(X) * c(Y) and
    (k/2v) * c(X) * (c(X) - 1) for the three reaction shapes."""

    def test_unimolecular(self):
        crn, _ = parse_crn("X -> 0 ; k=2\n")
        comp = _Compiled(crn, 3.0)
        assert comp.table == ((2.0, 0, 1, 0),)
        assert _propensities(comp, [7]) == [14.0]

    def test_bimolecular_distinct(self):
        crn, _ = parse_crn("X + Y -> X ; k=2\n")
        comp = _Compiled(crn, 10.0)
        assert comp.table == ((0.2, 0, 1, 0),)
        assert _propensities(comp, [5, 4]) == [4.0]

    def test_bimolecular_identical_pair_count(self):
        crn, _ = parse_crn("X + X -> Y ; k=1\n")
        comp = _Compiled(crn, 2.0)
        assert comp.table == ((0.25, 0, 0, 1),)
        assert _propensities(comp, [4, 0]) == [3.0]

    def test_identical_pair_single_copy_has_no_propensity(self):
        # the event loop sees total propensity 0 and fires nothing
        crn, _ = parse_crn("X + X -> Y ; k=1\n")
        trace = simulate(
            crn, Configuration([1, 0]), StopCondition(max_events=1), seed=0, volume=100.0
        )
        assert trace.status == "exhausted"
        assert trace.events == []

    def test_rejects_order_zero_and_three(self):
        for text in ("0 -> X\n", "A + 2B -> A + 3C\n"):
            crn, _ = parse_crn(text)
            with pytest.raises(UnsupportedReactionOrderError):
                _Compiled(crn, 1.0)

    def test_rejects_nonpositive_volume(self):
        crn, _ = parse_crn("X -> 0\n")
        with pytest.raises(DomainError):
            _Compiled(crn, 0.0)


class TestTable:
    """``_prepare`` takes each reaction table from one cache per (crn, volume)."""

    @pytest.mark.parametrize("first_int", [True, False], ids=["int-first", "float-first"])
    def test_an_int_volume_stays_an_int(self, first_int):
        # 10 == 10.0 and both hash alike, so an untyped cache would give the
        # second call the first one's volume
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        init, stop = crn.config({"X": 10}), StopCondition(t_max=0.5)
        kinetics._table.cache_clear()
        calls = [{"volume": 10}, {}] if first_int else [{}, {"volume": 10}]
        volumes = [simulate(crn, init, stop, seed=1, **kw).volume for kw in calls]
        if not first_int:
            volumes.reverse()
        assert volumes == [10, 10.0] and [type(v) for v in volumes] == [int, float]

    @pytest.mark.parametrize("volume", [np.array(10.0), [10.0]], ids=["0-d-array", "list"])
    def test_an_unhashable_volume_is_a_domain_error(self, volume):
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        init, stop = crn.config({"X": 10}), StopCondition(t_max=0.5)
        with pytest.raises(DomainError, match="volume must be finite and positive"):
            simulate(crn, init, stop, seed=1, volume=volume)
        with pytest.raises(DomainError, match="volume must be finite and positive"):
            run_trials(crn, init, stop, 2, seed=1, volume=volume)

    def test_equal_networks_share_one_table(self):
        crn, _ = parse_crn("A + B -> C ; k=2\nC -> A + B ; k=1\n")
        init, stop = crn.config({"A": 3, "B": 2}), StopCondition(t_max=1.0)
        twin = Crn(SpeciesTable(list(crn.species.names)), list(crn.reactions))
        comp = kinetics._prepare(crn, init, stop, None)[1]
        assert kinetics._prepare(twin, init, stop, None)[1] is comp
        assert kinetics._prepare(parse_crn(format_crn(crn))[0], init, stop, None)[1] is comp
        assert kinetics._prepare(crn, init, stop, 5)[1] is not comp
        faster = dataclasses.replace(crn.reactions[1], rate_constant=1.5)
        other = kinetics._prepare(Crn(crn.species, (crn.reactions[0], faster)), init, stop, None)[1]
        assert other is not comp and other.table[1][0] == 1.5 and comp.table[1][0] == 1.0

    def test_the_steps_are_read_only(self):
        # every run of a table reads its steps; the batched loop lays out
        # its own copy
        crn, _ = parse_crn("A + B -> C ; k=2\nC -> A + B ; k=1\n")
        init = crn.config({"A": 3, "B": 2})
        comp = kinetics._prepare(crn, init, StopCondition(t_max=1.0), None)[1]
        with pytest.raises(ValueError, match="read-only"):
            comp.steps[0, 0] = 5
        assert comp.steps.tolist() == [[-1, -1, 1, 0], [1, 1, -1, 0]]
        end, first = run_trials(crn, init, StopCondition(t_max=1.0), 3, seed=2)
        assert end.tolist() == [1.0] * 3 and comp.steps.tolist() == [[-1, -1, 1, 0],
                                                                    [1, 1, -1, 0]]


class TestStep:
    def test_exhausted_on_zero_config(self):
        crn, _ = parse_crn("X -> 0\n")
        trace = simulate(crn, Configuration([0]), StopCondition(max_events=1), seed=1, volume=1.0)
        assert trace.status == "exhausted"
        assert trace.events == []

    def test_waiting_time_mean(self):
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        n, samples = 1000, 20_000
        init, stop = crn.config({"X": n}), StopCondition(max_events=1)
        total = sum(simulate(crn, init, stop, seed=2, stream_key=(i,)).time for i in range(samples))
        mean = total / samples
        se = (1.0 / n) / math.sqrt(samples)  # exponential: sd == mean
        assert abs(mean - 1.0 / n) < 4 * se

    def test_selection_frequency_matches_propensity_ratio(self):
        # propensities stay (3, 1) because reactants are catalytic
        crn, _ = parse_crn("A -> A + B ; k=3\nC -> C + D ; k=1\n")
        steps = 100_000
        trace = simulate(
            crn, crn.config({"A": 1, "C": 1}), StopCondition(max_events=steps), seed=3,
            volume=1.0,
        )
        first = sum(ridx == 0 for _, ridx in trace.events)
        se = math.sqrt(0.75 * 0.25 / steps)
        assert abs(first / steps - 0.75) < 4.5 * se


# (network, start, volume, total propensity at the start) for each
# reaction shape; every reaction is catalytic, so the total never changes
# and each wait of a run is a first-event time from the start
_LAW_SHAPES = {
    "X": ("X -> X + Y ; k=1.5\n", {"X": 40}, 1.0, 1.5 * 40),
    "A+B": ("A + B -> A + B + C ; k=2\n", {"A": 30, "B": 20}, 25.0, 2 / 25 * 30 * 20),
    "X+X": ("X + X -> X + X + Y ; k=0.7\n", {"X": 30}, 10.0, 0.7 / 20 * 30 * 29),
}
# samples per law test: enough for a Kolmogorov-Smirnov test at p > 1e-6 to
# fail on a 3% error in the time scale (a KS distance of 0.0107 against a
# critical distance of 0.0054)
_LAW_SAMPLES = 250_000
_LAW_P = 1e-6  # each law test fails with this probability on a correct kernel


class ScriptedWaits:
    """Stands in for a substream generator in the event loops: its waits
    are a fixed script followed by ``fill``, and its bit generator, from
    which the selection stream is derived, is that of ``substream(0)``."""

    def __init__(self, waits, fill=1.0):
        self.waits, self.fill = list(waits), fill
        self.bit_generator = substream(0).bit_generator

    def standard_exponential(self, n):
        head, self.waits = self.waits[:n], self.waits[n:]
        return np.array(head + [self.fill] * (n - len(head)))


class TestLaws:
    """The laws of the direct method, checked by distribution tests that
    read no pin: the first-event time is Exp(total) for each reaction
    shape, and reaction j is chosen with probability a_j / total, in both
    event loops."""

    @pytest.mark.parametrize("shape", _LAW_SHAPES)
    def test_first_event_time_is_exponential_in_simulate(self, shape):
        text, start, volume, total = _LAW_SHAPES[shape]
        crn, _ = parse_crn(text)
        trace = simulate(crn, crn.config(start), StopCondition(max_events=_LAW_SAMPLES),
                         seed=31, volume=volume)
        waits = np.diff(trace.events.times, prepend=0.0)
        assert waits.size == _LAW_SAMPLES
        assert scipy_stats.kstest(waits * total, "expon").pvalue > _LAW_P

    @pytest.mark.parametrize("shape", _LAW_SHAPES)
    def test_first_event_time_is_exponential_in_run_trials(self, shape):
        text, start, volume, total = _LAW_SHAPES[shape]
        crn, _ = parse_crn(text)
        times, _ = run_trials(crn, crn.config(start), StopCondition(max_events=1),
                              _LAW_SAMPLES, seed=32, volume=volume)
        assert scipy_stats.kstest(times * total, "expon").pvalue > _LAW_P

    # three catalytic reactions of propensities 3, 1 and 2, so that the
    # chain of the scalar loop has a first, a middle and a last branch
    _CHOICE = "A -> A + B ; k=3\nC -> C + D ; k=1\nE -> E + F ; k=2\n"
    _CHOICE_P = np.array([3, 1, 2]) / 6
    _CHOICE_EVENTS = 60_000

    def test_selection_frequencies_in_simulate(self):
        crn, _ = parse_crn(self._CHOICE)
        trace = simulate(crn, crn.config({"A": 1, "C": 1, "E": 1}),
                         StopCondition(max_events=self._CHOICE_EVENTS), seed=33)
        counts = np.bincount(trace.events.reactions, minlength=3)
        assert counts.sum() == self._CHOICE_EVENTS
        assert scipy_stats.chisquare(counts, self._CHOICE_EVENTS * self._CHOICE_P).pvalue > _LAW_P

    def test_selection_frequencies_in_run_trials(self):
        # one event per trial: the species it makes shows which reaction fired
        crn, _ = parse_crn(self._CHOICE)
        stop = StopCondition(max_events=1, reaches=[("B", ">=", 1), ("D", ">=", 1), ("F", ">=", 1)])
        _, first = run_trials(crn, crn.config({"A": 1, "C": 1, "E": 1}), stop,
                              self._CHOICE_EVENTS, seed=34)
        made = ~np.isnan(first.T)
        assert np.all(made.sum(axis=0) == 1)
        counts = made.sum(axis=1)
        assert scipy_stats.chisquare(counts, self._CHOICE_EVENTS * self._CHOICE_P).pvalue > _LAW_P

    @pytest.mark.parametrize("text", ["X -> Y ; k=1\n", "X -> Y ; k=1\nZ -> W ; k=3\n"],
                             ids=["path", "sweep"])
    def test_rising_count_watch_is_an_order_statistic(self, text):
        # from X = n under X -> Y, Y >= k first holds at the k-th smallest
        # of n Exp(1) times, so P(T <= t) = P(Binomial(n, 1 - e^-t) >= k).
        # With one reaction the trials run on _run_path; Z -> W beside it
        # leaves Y's law alone and puts them in the sweep loop. The KS
        # p-value is uniform under a continuous law, so each case fails on
        # a fraction _LAW_P of streams with a correct kernel
        n, k = 20, 5
        crn, _ = parse_crn(text)
        init = crn.config({s: n for s in ("X", "Z") if s in crn.species})
        _, first = run_trials(crn, init, StopCondition(reaches=[("Y", ">=", k)]), _LAW_SAMPLES,
                              seed=35)
        assert first.shape == (_LAW_SAMPLES, 1) and not np.isnan(first).any()

        def law(t):
            return scipy_special.bdtrc(k - 1, n, -np.expm1(-t))

        assert scipy_stats.kstest(first[:, 0], law).pvalue > _LAW_P
        # a 3% error in the time scale fails (a KS distance of 0.026
        # against a critical distance of 0.0054)
        assert scipy_stats.kstest(first[:, 0] * 1.03, law).pvalue < _LAW_P


class TestSimulate:
    def test_pure_death_mean(self):
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        init = crn.config({"X": 1000})
        trials = 2000
        vals = np.array(
            [
                simulate(crn, init, StopCondition(t_max=1.0), seed=s).terminal[0]
                for s in range(trials)
            ],
            dtype=float,
        )
        p = math.exp(-1.0)
        se = math.sqrt(1000 * p * (1 - p) / trials)
        assert abs(vals.mean() - 1000 * p) < 4 * se

    def test_pure_death_law_large_n(self):
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        n, trials = 10_000, 800
        init = crn.config({"X": n})
        vals = np.array(
            [
                simulate(crn, init, StopCondition(t_max=1.0), seed=7, stream_key=(s,)).terminal[0]
                for s in range(trials)
            ],
            dtype=float,
        )
        p = math.exp(-1.0)
        mean_se = math.sqrt(n * p * (1 - p) / trials)
        assert abs(vals.mean() - n * p) < 4 * mean_se
        var_ref = n * p * (1 - p)
        var_se = var_ref * math.sqrt(2.0 / (trials - 1))
        assert abs(vals.var(ddof=1) - var_ref) < 4 * var_se

    def test_no_reactions_exhausts_immediately(self):
        crn, _ = parse_crn("species: A\n")
        trace = simulate(crn, crn.config({"A": 5}), StopCondition(t_max=1.0), seed=0)
        assert trace.status == "exhausted"
        assert trace.time == 0.0
        assert trace.events == []

    def test_leader_election_count_stop_mean(self):
        crn, _ = parse_crn("L + L -> L + N ; k=1\n")
        n, trials = 50, 400
        times = np.array(
            [
                simulate(
                    crn,
                    crn.config({"L": n}),
                    StopCondition(reaches=[("L", "<=", 1)]),
                    seed=s,
                    volume=float(n),
                ).time
                for s in range(trials)
            ]
        )
        expect = 2.0 * (n - 1)
        assert abs(times.mean() - expect) / expect < 0.10

    def test_trace_replay_and_strictly_increasing_times(self, rng):
        for trial in range(25):
            crn = random_crn(rng, kinetics_compatible=True)
            init = random_config(rng, crn, max_count=30)
            trace = simulate(
                crn, init, StopCondition(t_max=2.0, max_events=3000), seed=trial
            )
            ts = [t for t, _ in trace.events]
            assert all(a < b for a, b in zip(ts, ts[1:]))
            cfgs = list(trace.replay(crn))
            assert cfgs[-1] == trace.terminal
            assert all(int(c.counts.min()) >= 0 for c in cfgs)

    def test_bit_for_bit_determinism(self):
        crn, _ = parse_crn("X -> Y ; k=2\nY -> X ; k=1\n")
        init = crn.config({"X": 50})
        a = simulate(crn, init, StopCondition(t_max=5.0), seed=99)
        b = simulate(crn, init, StopCondition(t_max=5.0), seed=99)
        assert a.events == b.events
        assert a.terminal == b.terminal

    @pytest.mark.parametrize(
        "key,stop,digest",
        [
            (0, StopCondition(t_max=2.0), "082274327e1641c4"),
            (1, StopCondition(reaches=[("D", ">=", 1)], max_events=100_000),
             "c95b8ed7a316af15"),
            (2, StopCondition(reaches=[("C", ">=", 6)], max_events=100_000), "6d07fdeb5c175889"),
        ],
        ids=["t_max", "watch", "count"],
    )
    def test_traces_byte_identical_to_pinned_digest(self, key, stop, digest):
        # sha256 prefixes of the event and checkpoint CSVs, status, end time
        # and terminal counts of five runs on a network with all three
        # reaction shapes; the watch and count runs stop long before
        # max_events, which only bounds a regression
        crn, _ = parse_crn(
            "species: A B C D\n"
            "A -> B ; k=1.5\nA + B -> C ; k=2\nB + B -> D ; k=0.7\n"
            "C -> A + B ; k=1\nD -> B + B ; k=0.3\n"
        )
        init = crn.config({"A": 30, "B": 10})
        h = hashlib.sha256()
        for seed in range(5):
            trace = simulate(crn, init, stop, seed=seed, volume=17.0,
                             checkpoint_times=[0.0, 0.05, 0.2, 1.0, 2.5], stream_key=(key,))
            buf = io.StringIO()
            trace.to_csv(crn, buf)
            trace.checkpoints_to_csv(crn, buf)
            buf.write(f"{trace.status},{trace.time!r},{trace.terminal.counts.tolist()}\n")
            h.update(buf.getvalue().encode())
        assert h.hexdigest()[:16] == digest

    def test_random_networks_byte_identical_to_pinned_digest(self):
        # sha256 prefix of the event and checkpoint CSVs, status, end time
        # and terminal counts of every stop on each of 60 random networks.
        # All stops of a network share one stream, so each run is a prefix
        # of the t_max run, and a checkpoint at the time most of that run's
        # events share ties with an event in every run that gets that far.
        # Odd cases shrink the volume until bimolecular waits vanish against
        # the clock, so that many events share one time. Each watch holds a
        # species present at the start and one absent species, so a watch
        # ends its run at the event that first raises that species; the
        # count stop is approached from each side.
        rng = np.random.default_rng(1313)
        h = hashlib.sha256()
        for case in range(60):
            crn = random_crn(rng, kinetics_compatible=True)
            full = random_config(rng, crn, max_count=60 if case % 2 else 20).counts
            # about half the species start absent, so that the watches have targets
            init = Configuration(full * (rng.random(full.size) < 0.5))
            if not init.total:
                init = Configuration(full)
            names, counts = crn.species.names, init.counts.tolist()
            volume = 1e-18 if case % 2 else None
            present = next(s for s, c in zip(names, counts) if c > 0)
            absent = [s for s, c in zip(names, counts) if c == 0] or [present]
            sid = int(rng.integers(len(names)))
            stops = [
                StopCondition(t_max=1.5, max_events=400),
                *(StopCondition(t_max=1.5, reaches=_appears(crn, {present, other}),
                                max_events=400) for other in absent),
                StopCondition(reaches=[_count_watch(crn, init, names[sid], counts[sid] + 3)],
                              max_events=400),
                StopCondition(reaches=[_count_watch(crn, init, names[sid],
                                                    max(counts[sid] - 2, 0))],
                              max_events=400),
                StopCondition(t_max=1.5, max_events=0),
            ]
            times = [t for t, _ in simulate(crn, init, stops[0], seed=case, volume=volume).events]
            tie = max(times, key=times.count) if times else 0.5
            cps = [3.0, tie, 0.0, 0.3, tie]
            for stop in stops:
                trace = simulate(crn, init, stop, seed=case, volume=volume,
                                 checkpoint_times=cps)
                buf = io.StringIO()
                trace.to_csv(crn, buf)
                trace.checkpoints_to_csv(crn, buf)
                buf.write(f"{trace.status},{trace.time!r},{trace.terminal.counts.tolist()}\n")
                h.update(buf.getvalue().encode())
        assert h.hexdigest()[:16] == "103e8da7c95ab616"

    def test_species_in_no_reaction_keeps_its_count(self):
        # no table row reads C, the last species, and with only bimolecular
        # reactions none reads the entry held at 1 either, so the state must
        # be sized from the species count
        crn, _ = parse_crn("species: A B C\nA + B -> B + B ; k=1\n")
        trace = simulate(crn, crn.config({"A": 5, "B": 1, "C": 4}), StopCondition(t_max=50.0),
                         seed=2, checkpoint_times=[0.0, 60.0])
        assert trace.status == "exhausted" and len(trace.events) == 5
        assert trace.terminal.counts.tolist() == [0, 6, 4]
        assert [c.tolist() for _, c in trace.checkpoints] == [[5, 1, 4], [0, 6, 4]]

    @pytest.mark.parametrize(
        "stop",
        [
            StopCondition(t_max=1.0, reaches=[("A", ">=", 1), ("B", ">=", 1)]),
            StopCondition(reaches=[("A", ">=", 9)], max_events=5),
        ],
        ids=["watch", "count"],
    )
    def test_no_reactions_fills_every_checkpoint(self, stop):
        crn, _ = parse_crn("species: A B\n")
        trace = simulate(crn, crn.config({"A": 3}), stop, seed=0, checkpoint_times=[0.0, 7.0])
        assert (trace.status, trace.time, trace.events) == ("exhausted", 0.0, [])
        assert [(t, c.tolist()) for t, c in trace.checkpoints] == [(0.0, [3, 0]), (7.0, [3, 0])]

    @pytest.mark.parametrize(
        "stop",
        [
            StopCondition(max_events=0),
            StopCondition(reaches=[("A", ">=", 3)]),
            StopCondition(t_max=1.0, reaches=[("A", ">=", 1)]),
        ],
        ids=["no-budget-left", "count-met", "watch-met"],
    )
    def test_no_reactions_stops_at_zero_when_the_stop_holds(self, stop, monkeypatch):
        # a network with no reactions runs through _run_path, as one of one
        # reaction does, where a stop wins over a propensity of 0 at the
        # same sweep
        kernels = _spy_kernels(monkeypatch)
        crn, _ = parse_crn("species: A B\n")
        trace = simulate(crn, crn.config({"A": 3}), stop, seed=0, checkpoint_times=[0.0, 7.0])
        assert (trace.status, trace.time, trace.events) == ("stopped", 0.0, [])
        assert [(t, c.tolist()) for t, c in trace.checkpoints] == [(0.0, [3, 0])]
        assert kernels == []

    def test_event_time_that_overflows_to_infinity(self):
        # a propensity of 1e-320 makes the wait overflow to inf; the
        # checkpoints all come before that event, and none is taken twice
        crn, _ = parse_crn("X -> 0 ; k=1e-320\n")
        trace = simulate(crn, crn.config({"X": 1}), StopCondition(max_events=1), seed=0,
                         checkpoint_times=[1.0, 2.0])
        assert trace.events == [(math.inf, 0)] and trace.time == math.inf
        assert [(t, c.tolist()) for t, c in trace.checkpoints] == [(1.0, [1]), (2.0, [1])]

    @pytest.mark.parametrize(
        "stop_after,n_events,status",
        [(lambda first: StopCondition(max_events=10), 2, "exhausted"),
         (lambda first: StopCondition(max_events=2), 2, "stopped"),
         (lambda first: StopCondition(t_max=first + 2.0), 1, "stopped")],
        ids=["exhausted", "budget", "t_max"],
    )
    def test_event_time_that_overflows_to_infinity_in_the_kernel(self, stop_after, n_events,
                                                                 status, monkeypatch):
        # two reactions, so the kernel runs: A -> B fires at a finite time,
        # then B -> C's propensity of 1e-320 makes the next wait overflow to
        # inf. The checkpoints before, at and after the finite event are each
        # taken once, with the counts replay gives; only the run cut at
        # t_max, which lies between the last two checkpoints whatever the
        # stream, leaves out the one past its end
        kernels = _spy_kernels(monkeypatch)
        crn, _ = parse_crn("A -> B ; k=1\nB -> C ; k=1e-320\n")
        init = crn.config({"A": 1})
        first = simulate(crn, init, StopCondition(max_events=1), seed=0).time
        assert 0.0 < first
        cps = [first / 2, first, first + 1.0, 1e300]
        stop = stop_after(first)
        trace = simulate(crn, init, stop, seed=0, checkpoint_times=cps)
        assert len(kernels) == 2 and trace.status == status
        ends = [t for t, _ in trace.events]
        assert ends == [first, math.inf][:n_events]
        states = [c.counts.tolist() for c in trace.replay(crn)]
        taken = cps if stop.t_max is None else cps[:3]
        assert [(t, c.tolist()) for t, c in trace.checkpoints] == [
            (x, states[bisect.bisect_right(ends, x)]) for x in taken]
        assert [c.tolist() for _, c in trace.checkpoints] == [[1, 0, 0]] + [[0, 1, 0]] * (
            len(taken) - 1)

    def test_checkpoints_match_replayed_states(self):
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        init = crn.config({"X": 200})
        cps = [0.1, 0.5, 1.0, 1.5]
        trace = simulate(
            crn, init, StopCondition(t_max=2.0), seed=4, checkpoint_times=cps
        )
        assert [t for t, _ in trace.checkpoints] == cps
        for cp_time, counts in trace.checkpoints:
            cfg = init
            state = init
            for (t, ridx), cfg in zip(trace.events, list(trace.replay(crn))[1:]):
                if t <= cp_time:
                    state = cfg
            assert list(counts) == state.counts.tolist()

    def test_exhausted_checkpoints_fill_forward(self):
        crn, _ = parse_crn("X -> 0 ; k=5\n")
        trace = simulate(
            crn,
            crn.config({"X": 3}),
            StopCondition(t_max=100.0),
            seed=8,
            checkpoint_times=[50.0, 99.0],
        )
        assert trace.status == "exhausted"
        assert [int(c[0]) for _, c in trace.checkpoints] == [0, 0]

    def test_checkpoint_at_a_time_shared_by_many_events(self):
        # after S -> F, F -> F + X fires at rate 1e30, so its waits vanish
        # against the clock and all 50 events round to one float time; a
        # checkpoint there reads the counts after the first event at it
        crn, _ = parse_crn("S -> F ; k=1\nF -> F + X ; k=1e30\n")
        init, stop = crn.config({"S": 1}), StopCondition(max_events=50)
        tie = simulate(crn, init, stop, seed=3).events[0][0]
        trace = simulate(crn, init, stop, seed=3, checkpoint_times=[tie])
        assert {t for t, _ in trace.events} == {tie} and len(trace.events) == 50
        assert [(t, c.tolist()) for t, c in trace.checkpoints] == [(tie, [0, 1, 0])]

    def test_checkpoint_at_zero_when_the_first_wait_rounds_to_zero(self, monkeypatch):
        # a total propensity near the float maximum and waits of 2**-53
        # make each event time round to 0; as at any event time, a
        # checkpoint at 0 reads the counts after the first event at 0, not
        # the initial ones
        monkeypatch.setattr(kinetics, "substream", lambda *key: ScriptedWaits([2.0**-53] * 2))
        crn, _ = parse_crn("X -> 0 ; k=1.9e289\n")
        trace = simulate(crn, crn.config({"X": 9 * 10**18}), StopCondition(max_events=2),
                         seed=0, checkpoint_times=[0.0])
        assert trace.events == [(0.0, 0), (0.0, 0)]
        assert [(t, c.tolist()) for t, c in trace.checkpoints] == [
            (0.0, [8999999999999999999])]

    def test_checkpoint_times_may_be_a_numpy_array(self):
        # an array used to fail the truth test of an empty checkpoint list
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        init, stop = crn.config({"X": 50}), StopCondition(t_max=2.0)
        runs = [simulate(crn, init, stop, seed=7, checkpoint_times=cps)
                for cps in ([1.0, 0.5], np.array([1.0, 0.5]))]
        rows = [[(t, c.tolist()) for t, c in run.checkpoints] for run in runs]
        assert rows[0] == rows[1] and [t for t, _ in rows[0]] == [0.5, 1.0]
        files = [io.StringIO() for _ in runs]
        for run, f in zip(runs, files):
            run.checkpoints_to_csv(crn, f)
        assert files[0].getvalue() == files[1].getvalue()

    def test_checkpoints_match_replay_on_random_networks(self):
        # checkpoints at 0, at every event time of a first run, between its
        # events and past its end; a row holds the counts after the last
        # event at or before its time, and a run that stopped takes none
        # past its end. The second run stops by its budget halfway, so the
        # checkpoint at its last event time is taken after the loop.
        rng = np.random.default_rng(1919)
        for case in range(40):
            crn = random_crn(rng, kinetics_compatible=True)
            init = random_config(rng, crn, max_count=30)
            stop = StopCondition(t_max=2.0, max_events=300)
            first = simulate(crn, init, stop, seed=case)
            times = [t for t, _ in first.events]
            assert all(a < b for a, b in zip(times, times[1:]))  # no two events share a time
            mids = [(a + b) / 2 for a, b in zip(times, times[1:])]
            cps = [0.0, *times, *mids, first.time + 1.0, first.time + 7.5]
            for run in (stop, StopCondition(max_events=len(times) // 2)):
                trace = simulate(crn, init, run, seed=case, checkpoint_times=cps)
                states = [c.counts.tolist() for c in trace.replay(crn)]
                ends = [t for t, _ in trace.events]
                reached = [x for x in sorted(cps)
                           if trace.status == "exhausted" or x <= trace.time]
                assert [t for t, _ in trace.checkpoints] == reached
                for x, counts in trace.checkpoints:
                    assert counts.tolist() == states[bisect.bisect_right(ends, x)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_checkpoint_time_is_refused(self, bad, monkeypatch):
        # sorted left a NaN in place and both capture loops stopped at it,
        # dropping the later checkpoints; an exhausted run wrote a row at
        # inf, and a negative time got a row of the initial counts
        crn, _ = parse_crn("X -> 0 ; k=5\n")
        _refuse_to_simulate(monkeypatch)
        with pytest.raises(DomainError, match="checkpoint times must be finite"):
            simulate(crn, crn.config({"X": 3}), StopCondition(t_max=1.0), seed=8,
                     checkpoint_times=[bad, 0.5])

    @pytest.mark.parametrize("text", ["A -> B ; k=1\n", "A -> B ; k=1\nA -> C ; k=2\n"],
                             ids=["one-reaction", "two-reactions"])
    def test_zero_waits_at_a_positive_and_a_zero_total(self, text, monkeypatch):
        # the ziggurat returns exactly 0.0 with probability 2**-53. From
        # A = 2 two zero waits fire both events at time 0, and a third meets
        # a total of 0, where 0 / 0 is NaN and passes no test against t_max,
        # so the total alone must end the run as exhausted, in both loops;
        # the budget bounds a regression
        crn, _ = parse_crn(text)
        init, stop = crn.config({"A": 2}), StopCondition(t_max=1.0, max_events=10)
        monkeypatch.setattr(kinetics, "substream", lambda *key: ScriptedWaits([0.0] * 3))
        trace = simulate(crn, init, stop, seed=0)
        assert (trace.status, trace.time, trace.events.times.tolist()) == (
            "exhausted", 0.0, [0.0, 0.0])
        assert trace.terminal[0] == 0
        _, comp, counts, args = kinetics._prepare(crn, init, stop, None)
        end, _, exhausted, n_events = kinetics._run_batch(comp, counts, ScriptedWaits([0.0] * 9),
                                                          3, **args)
        assert end.tolist() == [0.0] * 3 and exhausted.all() and n_events.tolist() == [2] * 3

    @pytest.mark.parametrize("key", [(2.5,), (True,), ("3",), (-1,)])
    def test_stream_key_must_hold_integers(self, key):
        # 2.5 ran stream 2 in both calls, True stream 1 and "3" stream 3
        crn, _ = parse_crn("A -> B ; k=1\nB -> A ; k=1\n")
        init, stop = crn.config({"A": 4}), StopCondition(t_max=1.0)
        with pytest.raises(DomainError, match="stream key must be an integer of at least 0"):
            simulate(crn, init, stop, seed=0, stream_key=key)
        with pytest.raises(DomainError, match="stream key must be an integer of at least 0"):
            run_trials(crn, init, stop, 3, seed=0, stream_key=key)

    @pytest.mark.parametrize("key", [3, np.int64(3), np.array(3), 2.5, "3", "03"],
                             ids=["int", "numpy-int", "0-d-array", "float", "str",
                                  "two-letter-str"])
    def test_stream_key_must_be_a_sequence(self, key, monkeypatch):
        # a number, or a 0-d array, raised TypeError from *stream_key in
        # both calls, and a string was read letter by letter, so "03" was
        # refused for its "0"
        crn, _ = parse_crn("A -> B ; k=1\nB -> A ; k=1\n")
        init, stop = crn.config({"A": 4}), StopCondition(t_max=1.0)
        _refuse_to_simulate(monkeypatch)
        with pytest.raises(DomainError, match="stream_key must be a sequence"):
            simulate(crn, init, stop, seed=0, stream_key=key)
        with pytest.raises(DomainError, match="stream_key must be a sequence"):
            run_trials(crn, init, stop, 3, seed=0, stream_key=key)

    @pytest.mark.parametrize("cps", [5, 0.5, np.float64(0.5), np.array(0.5), "0.5", "05"],
                             ids=["int", "float", "numpy-float", "0-d-array", "str",
                                  "two-letter-str"])
    def test_checkpoint_times_must_be_a_sequence(self, cps, monkeypatch):
        # a number, or a 0-d array, raised TypeError from iterating it, and
        # a string was read letter by letter, so "05" was refused for its "0"
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        _refuse_to_simulate(monkeypatch)
        with pytest.raises(DomainError, match="checkpoint_times must be a sequence"):
            simulate(crn, crn.config({"X": 3}), StopCondition(t_max=1.0), seed=0,
                     checkpoint_times=cps)

    def test_event_budget(self):
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        trace = simulate(
            crn, crn.config({"X": 100}), StopCondition(max_events=7), seed=1
        )
        assert len(trace.events) == 7
        assert trace.terminal[0] == 93

    @pytest.mark.parametrize(
        "text,start,budgets",
        [
            ("X -> 0 ; k=1\n", {"X": 500}, (1, 63, 64, 65, 191, 192, 193)),
            ("X -> 0 ; k=1\n", {"X": 150}, (1, 63, 64, 65, 191, 192, 193)),
            ("A -> B ; k=1\nB -> A ; k=2\n", {"A": 40},
             (31, 32, 33, 63, 64, 65, 95, 96, 97, 191, 192, 193)),
            ("A -> B ; k=1\nB -> 0 ; k=1\n", {"A": 20}, (31, 32, 33, 95, 96, 97)),
        ],
        ids=["one-reaction", "one-reaction-exhausts", "two-reactions", "two-reactions-exhausts"],
    )
    def test_budget_at_block_boundaries(self, text, start, budgets):
        # the kernel of two or more reactions tests the budget once per
        # block of waits, of 64 and then 128, each cut to the events left,
        # and reads one selection uniform beside each wait, from blocks of
        # the same size, so its blocks end after events 64 and 192; a
        # one-reaction run advances windows of 4096 sweeps, cut at the
        # budget. Budgets of 32 and 96 mark where a two-reaction loop's
        # blocks ended when it read two uniforms per event
        crn, _ = parse_crn(text)
        init = crn.config(start)
        full = simulate(crn, init, StopCondition(t_max=30.0), seed=19, stream_key=(2,))
        for budget in budgets:
            trace = simulate(crn, init, StopCondition(max_events=budget), seed=19,
                             stream_key=(2,))
            if budget <= len(full.events):
                assert (trace.status, len(trace.events)) == ("stopped", budget)
            else:
                assert full.status == trace.status == "exhausted"
            assert trace.events == full.events[:budget]

    # (network, start, stop, checkpoints) run through _run_path and the
    # event-by-event reference. Checkpoints at 0, duplicated, between events
    # and past the end; the budgets sit on both sides of 4096, where the
    # windows end, and of 64 and 192, where the scalar loop's blocks end
    _PATH_CASES = {
        "t_max": ("X -> 0 ; k=1\n", {"X": 1000}, StopCondition(t_max=1.0),
                  [0.0, 0.25, 0.25, 0.5, 1.0, 3.0]),
        "int-t_max": ("X -> 0 ; k=1\n", {"X": 50}, StopCondition(t_max=2), [1, 2.0]),
        # about 4900 events, so the run crosses the end of its first window,
        # with checkpoints in both
        "t_max-two-windows": ("X -> 0 ; k=1\n", {"X": 10**5}, StopCondition(t_max=0.05),
                              [0.0, 0.02, 0.045, 0.05]),
        # about 10 events from a count that could take a million
        "t_max-few-events": ("X -> 0 ; k=1\n", {"X": 10**6}, StopCondition(t_max=1e-5),
                             [0.0, 5e-6, 1e-5]),
        "count-rising": ("X -> X + Y ; k=2\n", {"X": 3}, StopCondition(reaches=[("Y", ">=", 150)]),
                         [0.0, 1.0, 1.0, 1e3]),
        "count-falling": ("A + B -> C ; k=1\n", {"A": 300, "B": 200},
                          StopCondition(reaches=[("B", "<=", 7)]), [0.0, 0.001, 1e3]),
        "watch-at-0": ("X -> Y ; k=1\n", {"X": 5, "Y": 1},
                       StopCondition(t_max=9.0, reaches=[("X", ">=", 1), ("Y", ">=", 1)]),
                       [0.0, 0.5]),
        "watch-at-1": ("species: X Y Z\nX -> Y + Z ; k=1\n", {"X": 5},
                       StopCondition(reaches=[("X", ">=", 1), ("Y", ">=", 1), ("Z", ">=", 1)]),
                       [0.0, 0.0, 2.0]),
        "watch-never-met": ("species: X Y Z\nX -> Y ; k=1\n", {"X": 5},
                            StopCondition(t_max=2.0, reaches=[("Y", ">=", 1), ("Z", ">=", 1)]),
                            [0.0, 1.0, 5.0]),
        # Y appears at event 1 and reaches 30 at event 30, which stops the run
        "watches-at-two-sweeps": ("X -> Y ; k=1\n", {"X": 50},
                                  StopCondition(reaches=[("Y", ">=", 1), ("Y", ">=", 30)]),
                                  [0.0, 0.05, 1e3]),
        **{f"budget-{n}": ("X -> 0 ; k=1\n", {"X": 10**4}, StopCondition(max_events=n),
                           [0.0, 0.01, 1e9])
           for n in (1, 63, 64, 65, 191, 192, 193, 4095, 4096, 4097)},
        "exhausts": ("X -> 0 ; k=5\n", {"X": 30}, StopCondition(t_max=100.0),
                     [0.0, 0.1, 50.0, 99.0, 99.0]),
        "no-reactions": ("species: A B\n", {"A": 3}, StopCondition(t_max=1.0), [0.0, 7.0]),
        "dimer-to-1": ("A + A -> B ; k=1\n", {"A": 501}, StopCondition(t_max=1e9),
                       [0.0, 0.001, 1e10]),
        "dimer-to-0": ("A + A -> B ; k=1\n", {"A": 500}, StopCondition(max_events=10**6),
                       [0.0, 1e10]),
    }

    @pytest.mark.parametrize("case", list(_PATH_CASES))
    def test_one_reaction_matches_event_by_event_reference(self, case):
        text, start, stop, cps = self._PATH_CASES[case]
        crn, _ = parse_crn(text)
        self._assert_path_matches_reference(crn, crn.config(start), stop, cps, (len(case),))

    @pytest.mark.parametrize(
        "waits,stop,cps,rows",
        [
            # X -> 0 from 2 at k = 1: events at 0.5 and 1.5, then exhausted
            ([1.0, 1.0], StopCondition(t_max=5.0), [0.5, 1.5, 1.5, 4.0], [1, 0, 0, 0]),
            ([1.0, 1.0], StopCondition(max_events=1), [0.5, 0.6], [1]),
            # waits of 0 fire two events at time 0; a checkpoint at 0 reads
            # the counts after the first of them
            ([0.0, 0.0, 0.5], StopCondition(t_max=5.0), [0.0, 0.0, 0.25, 1.0], [1, 1, 0, 0]),
        ],
        ids=["exact-event-times", "exact-end-time", "zero-waits"],
    )
    def test_scripted_one_reaction_matches_reference(self, waits, stop, cps, rows, monkeypatch):
        monkeypatch.setattr(kinetics, "substream", lambda *key: ScriptedWaits(waits))
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        trace = self._assert_path_matches_reference(crn, crn.config({"X": 2}), stop, cps, ())
        assert [c.tolist() for _, c in trace.checkpoints] == [[x] for x in rows]

    @staticmethod
    def _assert_path_matches_reference(crn, init, stop, cps, key):
        """``simulate`` equals the reference on stream (23, *key), and
        ``_run_core`` reports its watch times; no kernel is generated."""
        with pytest.MonkeyPatch.context() as mp:
            kernels = _spy_kernels(mp)
            trace = simulate(crn, init, stop, seed=23, checkpoint_times=cps, stream_key=key)
            _, comp, counts, args = kinetics._prepare(crn, init, stop, None)
            watch_times = kinetics._run_core(comp, list(counts), kinetics.substream(23, *key),
                                             checkpoint_times=cps, **args)[4]
        assert kernels == []
        t, status, times, terminal, rows, seen = _one_reaction_events(
            comp, counts, kinetics.substream(23, *key), checkpoint_times=cps, **args)
        want = kinetics.Trace(
            initial=init, events=kinetics.Events(times, np.zeros(len(times), np.uint8)),
            terminal=Configuration(terminal), time=t, status=status, volume=trace.volume,
            checkpoints=[(x, np.array(row, dtype=np.int64)) for x, row in rows])
        assert trace == want
        assert type(trace.time) is type(t) and trace.events.reactions.dtype == np.uint8
        assert watch_times == seen and list(watch_times) == list(seen)
        return trace

    def test_production_watch_stop(self):
        crn, _ = parse_crn("X -> Y ; k=1\n")
        trace = simulate(
            crn,
            crn.config({"X": 10}),
            StopCondition(t_max=50.0, reaches=[("Y", ">=", 1)]),
            seed=2,
        )
        assert len(trace.events) == 1
        assert trace.terminal[1] == 1

    def test_unsupported_order_surfaces(self):
        crn, _ = parse_crn("A + 2B -> A + 3C\n")
        with pytest.raises(UnsupportedReactionOrderError):
            simulate(crn, crn.config({"A": 1, "B": 2}), StopCondition(t_max=1.0), seed=0)

    @pytest.mark.parametrize("watch", ["X>=", "XY", 5, ("X", 1, 2), ("X", 1), {"X": 1}],
                             ids=["str", "two-letter-str", "int", "triple", "single", "dict"])
    def test_watch_must_be_a_triple(self, watch):
        # a watch is (species, side, threshold): a string, a number, a
        # mapping, a pair and a triple whose side is not ">=" or "<=" are
        # each refused
        with pytest.raises(DomainError, match=r"a watch must be a \(species, '>=' or '<=', "
                                              r"threshold\) triple, got "):
            StopCondition(t_max=1.0, reaches=[watch])

    def test_stop_condition_validation(self):
        with pytest.raises(DomainError):
            StopCondition()
        with pytest.raises(DomainError):
            StopCondition(t_max=math.inf)
        with pytest.raises(DomainError):
            StopCondition(max_events=-1)
        with pytest.raises(DomainError):  # counts never fall below 0
            StopCondition(reaches=[("X", "<=", -1)])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_events": math.nan},
            {"max_events": math.inf},
            {"max_events": 2.5},
            {"max_events": True},
            {"t_max": 1.0, "reaches": [("A", ">=", math.nan)]},
            {"t_max": 1.0, "reaches": [("A", ">=", 2.5)]},
            {"t_max": 1.0, "reaches": [("A", ">=", True)]},
        ],
        ids=["events-nan", "events-inf", "events-2.5", "events-True",
             "count-nan", "count-2.5", "count-True"],
    )
    def test_stop_sizes_must_be_integers(self, kwargs):
        # a NaN or infinite budget fails every comparison, so max_events=nan
        # ran A -> B, B -> A forever; 2.5 ran three events, and a threshold
        # of 2.5 was truncated to 2
        with pytest.raises(DomainError, match="must be an integer of at least 0"):
            StopCondition(**kwargs)

    @pytest.mark.parametrize("names", [frozenset(), (), iter([]), "AB", "A", 5],
                             ids=["empty-frozenset", "empty-tuple", "empty-iterator", "str",
                                  "one-letter-str", "int"])
    def test_watch_must_name_species(self, names):
        # an empty watch never fires: from A=1, A -> B, B -> A ran forever in
        # simulate and run_trials; "AB" watched A and B, and a run stopped
        # when B appeared while AB was still 0; 5 raised a TypeError
        for t_max in (None, 1.0):
            with pytest.raises(DomainError, match="reaches must be a nonempty sequence"):
                StopCondition(t_max=t_max, reaches=names)

    def test_numpy_integer_stop_sizes_accepted(self):
        crn, _ = parse_crn("A -> B\nB -> A\n")
        # A + B = 3 is conserved, so B never reaches 4 and the budget ends the run
        stop = StopCondition(max_events=np.int64(9), reaches=[("B", ">=", np.int64(4))])
        trace = simulate(crn, crn.config({"A": 3}), stop, seed=0)
        assert len(trace.events) == 9

    def test_csv_exports(self):
        crn, _ = parse_crn("X -> 0 ; k=1 ; label=decay\n")
        trace = simulate(
            crn,
            crn.config({"X": 5}),
            StopCondition(t_max=10.0),
            seed=3,
            checkpoint_times=[1.0],
        )
        buf = io.StringIO()
        trace.to_csv(crn, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "event_index,time,reaction_label"
        assert lines[1].endswith(",decay")
        buf2 = io.StringIO()
        trace.checkpoints_to_csv(crn, buf2)
        assert buf2.getvalue().splitlines()[0] == "time,X"

    @pytest.mark.parametrize(
        "labels,rates,start,stop",
        [
            ((None, "back"), (1.0, 2.0), {"A": 60},
             StopCondition(max_events=2 * kinetics._CSV_CHUNK + 5)),
            ((None, None), (1.0, 2.0), {"A": 5}, StopCondition(max_events=0)),
            ((None, None), (1e-320, 2.0), {"A": 1}, StopCondition(max_events=1)),
        ],
        ids=["longer-than-a-chunk", "no-events", "infinite-time"],
    )
    def test_trace_csv_equals_row_by_row_writer(self, labels, rates, start, stop):
        crn = _swap_crn(labels, rates)
        trace = simulate(crn, crn.config(start), stop, seed=5)
        fast, slow = io.StringIO(), io.StringIO()
        trace.to_csv(crn, fast)
        row_by_row_to_csv(trace, crn, slow)
        assert fast.getvalue() == slow.getvalue()

    @pytest.mark.parametrize("labels", [('a,"b"', "line\nbreak"), ("", None)],
                             ids=["quoted-labels", "empty-and-default-labels"])
    def test_trace_csv_refuses_labels_that_need_quoting(self, labels):
        # a label the text format cannot hold is refused when the network
        # is built, so no cell of a trace CSV needs quoting
        with pytest.raises(ValueError, match="is not an identifier"):
            _swap_crn(labels, (1.0, 2.0))


def _swap_crn(labels, rates) -> Crn:
    """A -> B and B -> A with the given labels and rate constants."""
    return Crn(SpeciesTable(("A", "B")), (
        Reaction((1, 0), (0, 1), rates[0], labels[0]),
        Reaction((0, 1), (1, 0), rates[1], labels[1]),
    ))


def _no_events(*args, **kwargs):
    raise AssertionError("the stop should have been refused before simulating")


def _refuse_to_simulate(monkeypatch):
    """Make both event loops fail, so a stop that is not refused fails instead of hanging."""
    monkeypatch.setattr(kinetics, "_run_core", _no_events)
    monkeypatch.setattr(kinetics, "_run_batch", _no_events)


_RUN_BATCH = kinetics._run_batch


def _spy_batch(monkeypatch) -> list:
    """Record what every ``_run_batch`` call returns: (end, first, exhausted, n_events)."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(_RUN_BATCH(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(kinetics, "_run_batch", spy)
    return calls


def _watch_reached(count, level, side) -> bool:
    """Whether a watch's count is at or past its threshold, seen from its side."""
    return count >= level if side > 0 else count <= level


def _one_reaction_sweeps(comp, counts, rng, trials, *, t_max=None, watch=(),
                         max_events=kinetics._NO_BUDGET):
    """``_run_batch`` for a table of at most one reaction, one sweep at a time.

    This is how the batched loop ran such a table before it took blocks of
    sweeps, kept as the reference for them: every active trial fires the
    reaction in every sweep, so one list of counts serves them all. A
    watch is tested after every sweep, and stays reached once it is.
    """
    c = list(counts)
    coef, a, b, minus = comp.table[0] if comp.table else (0.0, len(c) - 1, len(c) - 1, 0)
    delta = comp.deltas[0] if comp.table else ()
    end, exhausted = np.zeros(trials), np.zeros(trials, dtype=bool)
    n_events = np.zeros(trials, dtype=np.int64)
    first = np.full((trials, len(watch)), math.nan)
    first[:, [_watch_reached(c[sid], level, side) for sid, level, side in watch]] = 0.0
    ids, t = np.arange(trials), np.zeros(trials)
    ended, dead = np.zeros(trials, dtype=bool), False
    ebuf, ui, sweep = np.empty(0), 0, 0
    while True:
        done = ended.copy()
        if watch:
            done |= ~np.isnan(first[ids]).any(axis=1)
        done |= sweep >= max_events
        out = ids[done]
        end[out], exhausted[out] = t[done], ended[done] & dead
        n_events[out] = sweep - ended[done]
        ids, t = ids[~done], t[~done]
        if not ids.size:
            return end, first, exhausted, n_events
        sweep += 1
        total = float(c[a]) * coef * float(c[b] - minus)
        if ui + ids.size > ebuf.size:
            ebuf, ui = np.concatenate((ebuf[ui:], rng.standard_exponential(4096))), 0
        with np.errstate(divide="ignore", invalid="ignore"):
            tn = t + ebuf[ui : ui + ids.size] / total
        ui += ids.size
        dead = total <= 0.0
        if dead:  # every trial ends without an event and keeps its time
            ended = np.ones(ids.size, dtype=bool)
            continue
        ended = tn > t_max if t_max is not None else np.zeros(ids.size, dtype=bool)
        t = np.where(ended, t_max, tn)
        if ended.all():
            continue
        for x, d in delta:
            c[x] += d
        fired = ids[~ended]
        for j, (sid, level, side) in enumerate(watch):
            if _watch_reached(c[sid], level, side):
                col = first[fired, j]
                first[fired, j] = np.where(np.isnan(col), t[~ended], col)


def _one_reaction_events(comp, counts, rng, *, t_max=None, watch=(),
                         max_events=kinetics._NO_BUDGET, checkpoint_times=()):
    """``_run_core`` for a table of at most one reaction, one event at a time.

    This is the scalar loop's rule, kept as the reference for the blocks of
    ``_run_path``: at the top of each event the stops, then exhaustion,
    then the wait and ``t_max``; a checkpoint is taken before the first
    event past it, or after the first event at its time, and after the
    loop only up to the end time unless the run is exhausted. Every watch
    is tested after every event, and stays reached once it is. Returns
    (time, status, event times, terminal counts, checkpoints, watch times
    by watch index, in index order).
    """
    c = list(counts)
    coef, a, b, minus = comp.table[0] if comp.table else (0.0, len(c) - 1, len(c) - 1, 0)
    delta = comp.deltas[0] if comp.table else ()
    seen = {i: 0.0 for i, (sid, level, side) in enumerate(watch)
            if _watch_reached(c[sid], level, side)}
    cps, rows = list(checkpoint_times), []
    t, times = 0.0, []
    while True:
        if (watch and len(seen) == len(watch)) or len(times) >= max_events:
            status = "stopped"
            break
        total = float(c[a]) * coef * float(c[b] - minus)
        if total <= 0.0:
            status = "exhausted"
            break
        tn = t + rng.standard_exponential(1).item() / total
        if t_max is not None and tn > t_max:
            t, status = t_max, "stopped"
            break
        while cps and (cps[0] < tn or cps[0] == t and times):
            rows.append((cps.pop(0), c[:-1]))
        t = tn
        times.append(t)
        for x, d in delta:
            c[x] += d
        for i, (sid, level, side) in enumerate(watch):
            if i not in seen and _watch_reached(c[sid], level, side):
                seen[i] = t
    until = math.inf if status == "exhausted" else t
    while cps and cps[0] <= until:
        rows.append((cps.pop(0), c[:-1]))
    return t, status, times, c[:-1], rows, dict(sorted(seen.items()))


def _direct_method_events(comp, counts, rng, *, t_max=None, watch=(),
                          max_events=kinetics._NO_BUDGET):
    """``_run_core``'s run in Python floats, one event at a time, with the
    clock kept as the scalar loop kept it: ``t += e / total`` after each
    event, on event i's wait and selection uniform of ``rng`` and of
    ``second_stream(rng)``.

    At the top of each event the stops, then exhaustion, then the wait and
    ``t_max``; the total sums the propensities in table order, and the
    event is the first reaction whose running sum passes ``v * total``, or
    the last. Every watch is tested after every event, and stays reached
    once it is. Returns (time, status, event times, reaction indices,
    terminal counts, watch times by watch index)."""
    c = list(counts)
    sel = second_stream(rng)
    seen = {i: 0.0 for i, (sid, level, side) in enumerate(watch)
            if _watch_reached(c[sid], level, side)}
    t, times, chosen = 0.0, [], []
    while True:
        if (watch and len(seen) == len(watch)) or len(times) >= max_events:
            status = "stopped"
            break
        e, v = rng.standard_exponential(1).item(), open_uniform_block(sel, 1).item()
        sums = list(itertools.accumulate(_propensities(comp, c[:-1])))
        total = sums[-1]
        if total <= 0.0:
            status = "exhausted"
            break
        tn = t + e / total
        if t_max is not None and tn > t_max:
            t, status = t_max, "stopped"
            break
        t = tn
        j = next((j for j, s in enumerate(sums) if v * total < s), len(sums) - 1)
        times.append(t)
        chosen.append(j)
        for x, d in comp.deltas[j]:
            c[x] += d
        for i, (sid, level, side) in enumerate(watch):
            if i not in seen and _watch_reached(c[sid], level, side):
                seen[i] = t
    return t, status, times, chosen, c[:-1], seen


def _assert_one_trial_matches_simulate(crn, init, stop, seed, key, monkeypatch):
    """A one-trial run ends as ``simulate`` on the substream of chunk 0 does.

    The two loops read the same waits and selection uniforms and compute
    times and selections by the same float operations, so the end reason,
    the event count and every time match exactly, and so does the time
    each watch was first reached, a count watch's too, which is read from
    the replay.
    """
    calls = _spy_batch(monkeypatch)
    times, first = run_trials(crn, init, stop, 1, seed=seed, stream_key=key)
    trace = simulate(crn, init, stop, seed=seed, stream_key=(*key, 0))
    _, _, exhausted, n_events = calls[-1]
    watches = stop.reaches or ()
    assert first.shape == (1, len(watches))
    assert bool(exhausted[0]) == (trace.status == "exhausted")
    assert n_events[0] == len(trace.events)
    assert (times[0] == stop.t_max) == (trace.time == stop.t_max)
    assert times[0] == trace.time
    event_times = [0.0] + [t for t, _ in trace.events]
    for (name, side, level), reached in zip(watches, first[0].tolist()):
        sid = crn.species.id_of(name)
        seen = [t for t, c in zip(event_times, trace.replay(crn))
                if _watch_reached(c[sid], level, 1 if side == ">=" else -1)]
        if seen:
            assert reached == seen[0]
        else:
            assert math.isnan(reached)
    return trace


def _covers(crn, counts, target) -> bool:
    """Whether some configuration reachable from ``counts`` covers
    ``target`` (has each count at least target's), exactly.

    A breadth-first search backwards from ``target`` keeps the minimal
    configurations from which it can be covered: x covers the reactants
    r of a reaction and x + p - r covers m iff x covers max(r, m - p + r).
    Every such set is finite (Dickson's lemma), so the search ends on
    networks whose reachable set is infinite too. It is never capped: a
    search that grows past 10^4 minimal configurations fails the test."""

    def below(a, b):
        return all(x <= y for x, y in zip(a, b))

    basis = frontier = [tuple(target)]
    while frontier:
        if any(below(m, counts) for m in frontier):
            return True
        grown = []
        for m in frontier:
            for rx in crn.reactions:
                x = tuple(max(r, c - p + r) for r, c, p in zip(rx.reactants, m, rx.products))
                if not any(below(b, x) for b in basis):
                    basis = [b for b in basis if not below(x, b)] + [x]
                    grown = [b for b in grown if not below(x, b)] + [x]
        assert len(basis) <= 10**4, "the backward search grew past its guard"
        frontier = grown
    return False


def _batch_digest(calls) -> str:
    """sha256 prefix of every array the recorded ``_run_batch`` calls returned."""
    h = hashlib.sha256()
    for call in calls:
        for arr in call:
            h.update(arr.tobytes())
    return h.hexdigest()[:16]


_RANDOM_NETWORKS_BATCH_DIGEST = "901768e3dae05818"
_ONE_REACTION_BATCH_DIGEST = "027ac02054d58554"


def _random_networks_batch_digest(rng, monkeypatch) -> str:
    """The digest of every ``_run_batch`` array over two chunks of trials on
    random networks, under each kind of stop: a count with a budget, a
    watch with a horizon and a budget, a horizon alone and a budget alone."""
    calls = _spy_batch(monkeypatch)
    for case in range(30):
        crn = random_crn(rng, kinetics_compatible=True)
        init = random_config(rng, crn, max_count=20)
        names = crn.species.names
        watched = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
        count_name = names[int(rng.integers(len(names)))]
        # the first watched species starts absent, so the watch can
        # complete, run out of time, exhaust or use up its budget; the
        # volume is given, since that start may hold no molecule
        absent = init.counts.copy()
        absent[crn.species.id_of(str(watched[0]))] = 0
        runs = [
            (init, StopCondition(reaches=[_count_watch(crn, init, count_name,
                                                       int(rng.integers(0, 25)))],
                                 max_events=200)),
            (Configuration(absent), StopCondition(
                t_max=2.0, reaches=_appears(crn, map(str, watched)), max_events=40)),
            (init, StopCondition(t_max=0.5)),
            (init, StopCondition(max_events=int(rng.integers(0, 60)))),
        ]
        for start, stop in runs:
            run_trials(crn, start, stop, 1100, seed=case, volume=float(init.total),
                       stream_key=(case,))
    assert len(calls) == 240
    return _batch_digest(calls)


def _one_reaction_batch_digest(monkeypatch) -> str:
    """The digest of every ``_run_batch`` array for networks of at most one
    reaction, under every stop: leader election to one leader, with and
    without a horizon that censors some trials; X -> 0 to a horizon over
    two chunks, where the trials end over many sweeps; X + X and X + Y to
    exhaustion (at totals of -0.0 and 0.0), with a budget, a horizon or a
    count that is never reached (beside a budget, since the count is
    refused without one); X -> Y watching Y to a horizon, and
    watching a species it never makes; a budget alone; and no reaction at
    all."""
    leader = leader_election_crn()
    decay, _ = parse_crn("X -> 0 ; k=1\n")
    dimer, _ = parse_crn("A + A -> B ; k=1\n")
    pair, _ = parse_crn("A + B -> C ; k=1\n")
    convert, _ = parse_crn("species: X Y Z\nX -> Y ; k=1\n")
    inert, _ = parse_crn("species: A B\n")
    runs = [
        (leader, {"L": 1000}, StopCondition(reaches=[("L", "<=", 1)]), 40),
        (leader, {"L": 200}, StopCondition(t_max=398.0, reaches=[("L", "<=", 1)]), 1100),
        (decay, {"X": 1000}, StopCondition(t_max=1.0), 1100),
        (dimer, {"A": 500}, StopCondition(max_events=10**6), 30),
        (dimer, {"A": 501}, StopCondition(t_max=1e9), 30),
        (pair, {"A": 300, "B": 200}, StopCondition(reaches=[("C", ">=", 250)], max_events=10**6),
         30),
        (convert, {"X": 10**4}, StopCondition(t_max=1e-4, reaches=[("Y", ">=", 1)]), 1100),
        (convert, {"X": 10**4},
         StopCondition(t_max=0.5, reaches=[("Y", ">=", 1), ("Z", ">=", 1)]), 20),
        (leader, {"L": 1000}, StopCondition(max_events=300), 50),
        (inert, {"A": 3}, StopCondition(t_max=1.0, reaches=[("A", ">=", 1), ("B", ">=", 1)]),
         5),
        (inert, {"A": 3}, StopCondition(reaches=[("A", "<=", 0)], max_events=4), 5),
    ]
    calls = _spy_batch(monkeypatch)
    for seed, (crn, init, stop, trials) in enumerate(runs):
        run_trials(crn, crn.config(init), stop, trials, seed=seed)
    assert len(calls) == 14
    return _batch_digest(calls)


class TestRunTrials:
    def test_trials_end_where_simulate_ends_on_random_networks(self, rng, monkeypatch):
        for case in range(20):
            crn = random_crn(rng, kinetics_compatible=True)
            init = random_config(rng, crn, max_count=20)
            names = crn.species.names
            watched = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
            count_name = names[int(rng.integers(len(names)))]
            count = _count_watch(crn, init, count_name, int(rng.integers(0, 25)))
            stops = [
                StopCondition(reaches=[count], max_events=500),
                StopCondition(t_max=2.0, reaches=_appears(crn, map(str, watched)),
                              max_events=3000),
                # both kinds: the run stops once every watch is reached
                StopCondition(t_max=2.0, reaches=[*_appears(crn, map(str, watched)), count],
                              max_events=3000),
            ]
            for stop in stops:
                _assert_one_trial_matches_simulate(crn, init, stop, case, (case, 5), monkeypatch)

    @pytest.mark.parametrize(
        "text, init",
        [
            ("A -> B ; k=1.5\nB -> A ; k=0.5\n", {"A": 7}),
            ("A + B -> C ; k=2\nC -> A + B ; k=0.5\n", {"A": 5, "B": 3}),
            ("A + A -> B ; k=2\nB -> A + A ; k=0.5\nA -> C ; k=0.1\n", {"A": 6}),
        ],
        ids=["X", "X+Y", "X+X"],
    )
    def test_one_trial_matches_simulate_for_each_reaction_shape(self, text, init,
                                                                monkeypatch):
        # the batched loop lays out its own rows from the compiled table;
        # in the X + X case an extra row holds c(A) - 1 and must follow
        # every change of A, including the +2 of B -> A + A
        crn, _ = parse_crn(text)
        stop = StopCondition(t_max=50.0, max_events=60)
        for key in range(5):
            _assert_one_trial_matches_simulate(crn, crn.config(init), stop, 7, (key,),
                                               monkeypatch)

    def test_no_reactions_exhausts_every_trial_at_zero(self, monkeypatch):
        crn, _ = parse_crn("species: A B\n")
        stop = StopCondition(t_max=1.0, reaches=[("A", ">=", 1), ("B", ">=", 1)])
        calls = _spy_batch(monkeypatch)
        times, first = run_trials(crn, crn.config({"A": 3}), stop, 5, seed=0)
        assert np.all(times == 0.0) and calls[-1][2].all()
        assert np.all(first[:, 0] == 0.0) and np.isnan(first[:, 1]).all()
        _assert_one_trial_matches_simulate(crn, crn.config({"A": 3}), stop, 0, (), monkeypatch)

    @pytest.mark.parametrize(
        "stop",
        [
            StopCondition(reaches=[("A", ">=", 5)]),
            StopCondition(reaches=[("A", ">=", 1)]),
            StopCondition(max_events=0),
            StopCondition(t_max=0.0),
        ],
    )
    def test_stop_satisfied_at_time_zero(self, stop, monkeypatch):
        crn, _ = parse_crn("A -> B\nB -> A\n")
        init = crn.config({"A": 5})
        calls = _spy_batch(monkeypatch)
        times, first = run_trials(crn, init, stop, 7, seed=1)
        assert np.all(times == 0.0)
        assert not calls[-1][2].any()
        assert np.all(first == 0.0)
        trace = _assert_one_trial_matches_simulate(crn, init, stop, 1, (), monkeypatch)
        assert trace.events == []

    def test_max_events_counts_per_trial(self, monkeypatch):
        # A + A -> C exhausts a trial after three firings; the rest must
        # each stop after exactly max_events, whenever they started. At
        # k=1 about 27% of trials exhaust within 40 events, so both kinds
        # are present (at k=0.2 about 1% did, and 300 trials held none on
        # about one stream in twenty)
        crn, _ = parse_crn("A -> B ; k=1\nB -> A ; k=1\nA + A -> C ; k=1\n")
        init = crn.config({"A": 6})
        stop = StopCondition(max_events=40)
        calls = _spy_batch(monkeypatch)
        run_trials(crn, init, stop, 300, seed=4)
        _, _, exhausted, n_events = calls[-1]
        assert np.all(n_events[~exhausted] == 40)
        assert np.all(n_events[exhausted] < 40) and exhausted.any()
        for key in range(10):
            _assert_one_trial_matches_simulate(crn, init, stop, 4, (key,), monkeypatch)

    @pytest.mark.parametrize("target", [("A", 3), ("B", 7), ("A", 10)], ids=["above", "below", "at"])
    def test_count_threshold_from_either_side(self, target, monkeypatch):
        crn, _ = parse_crn("A -> B ; k=1\nB -> A ; k=0.5\n")
        init = crn.config({"A": 10})
        name, thr = target
        stop = StopCondition(reaches=[_count_watch(crn, init, name, thr)])
        sid = crn.species.id_of(name)
        for key in range(10):
            trace = _assert_one_trial_matches_simulate(crn, init, stop, 2, (key,), monkeypatch)
            assert trace.terminal[sid] == thr

    def test_exhausted_trials_keep_their_last_event_time(self, monkeypatch):
        crn, _ = parse_crn("species: A B C\nA -> B\n")
        init = crn.config({"A": 3})
        stop = StopCondition(t_max=1e6, reaches=[("B", ">=", 1), ("C", ">=", 1)])
        calls = _spy_batch(monkeypatch)
        times, first = run_trials(crn, init, stop, 50, seed=5)
        _, _, exhausted, n_events = calls[-1]
        assert exhausted.all() and np.all(n_events == 3)
        assert np.all((times > first[:, 0]) & (times < 1e6))
        assert np.isnan(first[:, 1]).all()
        for key in range(5):
            trace = _assert_one_trial_matches_simulate(crn, init, stop, 5, (key,), monkeypatch)
            assert trace.time == trace.events[-1][0]

    @pytest.mark.parametrize(
        "text, a0, n_events",
        [("A + A -> B\n", 2, 1), ("A + A -> B\nB + B -> C\n", 4, 3)],
        ids=["dimer", "cascade"],
    )
    def test_exhausted_when_every_propensity_is_negative_zero(self, text, a0, n_events,
                                                              monkeypatch):
        # X + X at count 0 has propensity coef*0*(0-1) = -0.0, so the total
        # is -0.0; the budget keeps a regression from looping forever
        crn, _ = parse_crn(text)
        init = crn.config({"A": a0})
        stop = StopCondition(t_max=1e6, max_events=50)
        calls = _spy_batch(monkeypatch)
        times, _ = run_trials(crn, init, stop, 20, seed=6)
        _, _, exhausted, counts = calls[-1]
        assert exhausted.all() and np.all(counts == n_events) and np.all(times < 1e6)
        for key in range(5):
            trace = _assert_one_trial_matches_simulate(crn, init, stop, 6, (key,), monkeypatch)
            assert trace.status == "exhausted" and trace.time == trace.events[-1][0]

    def test_batch_outputs_byte_identical_to_pinned_digest(self, rng, monkeypatch):
        assert _random_networks_batch_digest(rng, monkeypatch) == _RANDOM_NETWORKS_BATCH_DIGEST

    def test_long_runs_with_few_trials_byte_identical_to_pinned_digest(self, monkeypatch):
        # sha256 prefix of every _run_batch array for runs of over 800
        # sweeps over a few trials on the doubling chain: the
        # paper's negative example watching X4 to a horizon; a watch on X2,
        # X3 and X4, where X2 appears and is then consumed, so X4 completes
        # the watch long after X2 was seen (or the horizon comes first, in
        # about 11% of trials, so in some of the 60 but on one stream in
        # 1000); and a count stop approached from above
        chain3, chain2 = chain_crn(3), chain_crn(2)
        runs = [
            (chain3, {"X1": 4096}, 4096.0,
             StopCondition(t_max=4.0, reaches=[("X4", ">=", 1)]), 30, 11),
            (chain3, {"X1": 2048}, 512.0,
             StopCondition(t_max=6.0, reaches=[("X2", ">=", 1), ("X3", ">=", 1), ("X4", ">=", 1)]),
             60, 12),
            (chain2, {"X1": 3000}, None, StopCondition(reaches=[("X1", "<=", 40)]), 5, 13),
        ]
        calls = _spy_batch(monkeypatch)
        for crn, init, volume, stop, trials, seed in runs:
            run_trials(crn, crn.config(init), stop, trials, seed=seed, volume=volume)
        first = calls[1][1]
        assert np.isnan(first[:, 1:]).any() and not np.isnan(first[:, 0]).any()
        assert [int(c[3].min()) for c in calls] == [4025, 853, 2916]  # all long runs
        assert _batch_digest(calls) == "505b597b3c96288a"

    def test_one_reaction_runs_byte_identical_to_pinned_digest(self, monkeypatch):
        assert _one_reaction_batch_digest(monkeypatch) == _ONE_REACTION_BATCH_DIGEST

    def test_batch_digests_do_not_depend_on_the_host_cpu(self):
        # numpy dispatches some kernels, np.log among them, to paths for
        # the host CPU that can differ in the last bit; a child interpreter
        # with numpy's AVX-512 paths disabled recomputes both batch pins
        tests = Path(__file__).resolve().parent
        src = str(Path(kinetics.__file__).resolve().parents[1])
        code = "\n".join([
            "import sys",
            f"sys.path[:0] = [{src!r}, {str(tests)!r}]",
            "import numpy as np, pytest, conftest, test_kinetics as t",
            "with pytest.MonkeyPatch.context() as mp:",
            "    print(t._random_networks_batch_digest(np.random.default_rng(conftest.RNG_SEED), mp))",
            "with pytest.MonkeyPatch.context() as mp:",
            "    print(t._one_reaction_batch_digest(mp))",
        ])
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300, check=True).stdout
        assert out.split() == [_RANDOM_NETWORKS_BATCH_DIGEST, _ONE_REACTION_BATCH_DIGEST]

    def test_one_reaction_blocks_match_sweep_by_sweep(self, rng):
        # _run_batch advances the trials of a one-reaction table a block of
        # sweeps at a time; a loop over single sweeps gives the same bytes
        # for every reaction shape and stop, including horizons that end
        # the trials at sweeps of their own and watches on species the
        # reaction makes, consumes or never touches, of either spelling
        # and of both together, where the run stops once every watch is
        shapes = ["X -> 0", "X -> Y", "X -> X + Y", "X + X -> Y", "X + X -> X", "X + Y -> Z",
                  "X + Y -> X + X", "X -> Y + Y", "X + X -> X + Y + Y", ""]
        both = 0
        for case in range(80):
            shape = shapes[case % len(shapes)]
            crn, _ = parse_crn(f"species: X Y Z\n{shape} ; k={rng.choice([0.3, 1.0, 2.5])}\n"
                               if shape else "species: X Y Z\n")
            init = crn.config({"X": int(rng.integers(0, 60)), "Y": int(rng.choice([0, 0, 7]))})
            kw = {"max_events": int(rng.integers(0, 400))} if rng.random() < 0.5 else {}
            if rng.random() < 0.7 or not kw:
                kw["t_max"] = float(rng.choice([0.0, 0.05, 0.5, 3.0, 40.0]))
            appears = rng.random() < 0.4
            watches = _appears(crn, rng.choice(["X", "Y", "Z"], size=int(rng.integers(1, 4)),
                                               replace=False).tolist()) if appears else []
            counted = rng.random() < 0.5
            if counted:
                watches.append(_count_watch(crn, init, str(rng.choice(["X", "Y", "Z"])),
                                            int(rng.integers(0, 70))))
            if watches:
                kw["reaches"] = watches
            both += appears and counted
            volume = float(max(init.total, 1))  # the start may hold no molecule
            _, comp, counts, args = kinetics._prepare(crn, init, StopCondition(**kw), volume)
            trials = int(rng.choice([1, 5, 130, 700]))
            got = kinetics._run_batch(comp, counts, substream(case), trials, **args)
            want = _one_reaction_sweeps(comp, counts, substream(case), trials, **args)
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (shape, kw, trials)
        assert both >= 10

    def test_kernel_law_matches_repeated_simulate(self, rng):
        # on random networks where an absent species is producible, the
        # kernel's mean end time and censored fraction for that species
        # agree with independent simulate calls within |z| <= 5
        trials, checked = 2000, 0
        while checked < 5:
            crn = random_crn(rng, kinetics_compatible=True)
            counts = random_config(rng, crn, max_count=12).counts.copy()
            sid = int(rng.integers(crn.n_species))
            counts[sid] = 0
            init = Configuration(counts)
            if init.total == 0 or sid not in stage_decomposition(crn, init).closure:
                continue
            if simulate(crn, init, StopCondition(max_events=1), seed=0).status == "exhausted":
                continue  # no reaction can fire at all
            target = crn.species.name_of(sid)
            stop = StopCondition(t_max=0.5, reaches=[(target, ">=", 1)])
            times, first = run_trials(crn, init, stop, trials, seed=checked)
            ref_t, ref_censored = np.empty(trials), np.empty(trials)
            for i in range(trials):
                trace = simulate(crn, init, stop, seed=checked, stream_key=(1, i))
                ref_t[i] = trace.time
                ref_censored[i] = all(c[sid] == 0 for c in trace.replay(crn))
            se = math.sqrt((times.var(ddof=1) + ref_t.var(ddof=1)) / trials)
            assert abs(times.mean() - ref_t.mean()) <= 5 * se
            p_kernel, p_ref = np.isnan(first[:, 0]).mean(), ref_censored.mean()
            pooled = (p_kernel + p_ref) / 2
            se = math.sqrt(2 * pooled * (1 - pooled) / trials)
            assert abs(p_kernel - p_ref) <= 5 * se if se > 0 else p_kernel == p_ref
            checked += 1

    @pytest.mark.parametrize(
        "stop",
        [
            StopCondition(reaches=[("C", ">=", 1)]),
            StopCondition(reaches=[("B", ">=", 1), ("C", ">=", 1)]),
            StopCondition(reaches=[("A", ">=", 99)]),
            StopCondition(reaches=[("B", ">=", 6)]),
            StopCondition(reaches=[("C", ">=", 1), ("A", ">=", 99)]),
            # the run stops once every watch is reached, so one that never
            # is refuses the stop
            StopCondition(reaches=[("C", ">=", 1), ("A", "<=", 0)]),
            StopCondition(reaches=[("B", ">=", 1), ("A", ">=", 99)]),
            # a rising count on a species outside the stage closure ran
            # forever, with masses whose bound allows the threshold, and
            # with none, since B -> B + D pumps D and C + D -> C + C makes
            # C from D
            pytest.param(("species: A B C\nA -> B\nB -> A\n", {"A": 3},
                          StopCondition(reaches=[("C", ">=", 2)])), id="count-outside-closure"),
            pytest.param(("species: A B C D\nA -> B\nB -> A\nB -> B + D\nC + D -> C + C\n",
                          {"A": 3}, StopCondition(reaches=[("C", ">=", 2)])),
                         id="count-outside-closure-no-certificate"),
            # masses under which the weight falls bound a rising count too
            # (this ran until X was gone)
            pytest.param(("X -> 0\n", {"X": 5}, StopCondition(reaches=[("X", ">=", 10)])),
                         id="count-above-a-falling-weight"),
            # A + B = 3 and 2C <= A + B bound C by 1 even though C + X -> Y
            # lets the weight of A, B and C fall (masses sought on those
            # species alone found none that bound C, and this ran forever)
            pytest.param(("A -> B\nB -> A\nA + A -> C\nC + X -> Y\n", {"A": 3},
                          StopCondition(reaches=[("C", ">=", 2)])),
                         id="count-above-a-conserved-weight"),
            # the pump A -> A + A weighs A at 0, and no reaction makes B,
            # so C stays at most B = 1
            pytest.param(("A -> A + A\nA + B -> C\n", {"A": 1, "B": 1},
                          StopCondition(reaches=[("C", ">=", 2)])), id="count-beside-a-pump"),
            # A + B + C = 1 while the pump on C never fires, since A + A
            # never meet; with the pump the network has no masses for C
            pytest.param(("A -> B\nB -> A\nB -> C\nA + A -> A + A + C\n", {"A": 1},
                          StopCondition(reaches=[("C", ">=", 2)])),
                         id="count-beside-a-pump-that-never-fires"),
            # no reaction makes B, so A + B -> C never fires and C lies
            # outside the stage closure, beside a pump
            pytest.param(("A -> A + A\nA + B -> C\n", {"A": 1},
                          StopCondition(reaches=[("C", ">=", 1)])), id="pump-beside-the-watch"),
            # the conservation certificate (A, B, X and Y at 1, C at 2) lets
            # C reach (300 + 200 + 1) // 2 = 250, but each C takes a B, so C
            # stays at most 200: with X <-> Y this ran forever, and alone
            # A + B -> C ran to exhaustion
            pytest.param(("A + B -> C\nX -> Y\nY -> X\n", {"A": 300, "B": 200, "X": 1},
                          StopCondition(reaches=[("C", ">=", 250)]),
                          "the count of C stays at most 200 "),
                         id="count-above-a-loose-certificate"),
            pytest.param(("A + B -> C\n", {"A": 300, "B": 200},
                          StopCondition(reaches=[("C", ">=", 250)]),
                          "the count of C stays at most 200 "),
                         id="count-above-a-loose-certificate-that-exhausts"),
        ],
    )
    def test_stop_that_can_never_fire_is_refused(self, stop, monkeypatch):
        # by default A + B = 5 is conserved and nothing produces C; a case
        # may name the start of its message
        text, start, stop, *why = stop if isinstance(stop, tuple) else (
            "species: A B C\nA -> B\nB -> A\n", {"A": 5}, stop)
        crn, _ = parse_crn(text)
        _refuse_to_simulate(monkeypatch)
        message = ".*".join([*why, "t_max or max_events"])
        with pytest.raises(DomainError, match=message):
            simulate(crn, crn.config(start), stop, seed=0)
        with pytest.raises(DomainError, match=message):
            run_trials(crn, crn.config(start), stop, 3, seed=0)

    def test_watch_that_conservation_rules_out_is_refused(self, monkeypatch):
        # A + A -> C lies in the stage closure, but A + B = 1 is conserved,
        # so two copies of A never meet; this run looped forever
        crn, _ = parse_crn("A -> B\nB -> A\nA + A -> C\n")
        stop = StopCondition(reaches=[("C", ">=", 1)])
        _refuse_to_simulate(monkeypatch)
        with pytest.raises(DomainError, match="species C can never appear"):
            simulate(crn, crn.config({"A": 1}), stop, seed=0)
        with pytest.raises(DomainError, match="species C can never appear"):
            run_trials(crn, crn.config({"A": 1}), stop, 3, seed=0)
        # from A = 2 the weight allows A + A, so the stop reaches the loops
        with pytest.raises(AssertionError, match="refused before simulating"):
            simulate(crn, crn.config({"A": 2}), stop, seed=0)
        # the masses may weigh D, E and F at 0, so B -> B + D, or B -> B + E
        # with E -> F, leaves them standing (with B -> B + E and E -> F the
        # run looped forever)
        for text in ("A -> B\nB -> A\nA + A -> C\nB -> B + E\nE -> F\n",
                     "A -> B\nB -> A\nA + A -> C\nB -> B + D\n"):
            pumped, _ = parse_crn(text)
            with pytest.raises(DomainError, match="species C can never appear"):
                simulate(pumped, pumped.config({"A": 1}), stop, seed=0)
            with pytest.raises(DomainError, match="species C can never appear"):
                run_trials(pumped, pumped.config({"A": 1}), stop, 3, seed=0)
        # D is made (A -> B -> B + D), so a watch on D finds no masses and
        # the stop runs
        with pytest.raises(AssertionError, match="refused before simulating"):
            simulate(pumped, pumped.config({"A": 1}),
                     StopCondition(reaches=[("D", ">=", 1)]), seed=0)
        # A + B + 2C never rises, so from A = 3 C stays at most 1, though
        # C + X -> Y lets A + B + 2C fall; from A = 4 the stop runs
        leaky, _ = parse_crn("A -> B\nB -> A\nA + A -> C\nC + X -> Y\n")
        stop = StopCondition(reaches=[("C", ">=", 2)])
        with pytest.raises(DomainError, match="count of C stays at most 1 .* never reach 2"):
            simulate(leaky, leaky.config({"A": 3}), stop, seed=0)
        with pytest.raises(AssertionError, match="refused before simulating"):
            simulate(leaky, leaky.config({"A": 4}), stop, seed=0)

    def test_falling_count_stop_seeks_no_certificate(self, monkeypatch):
        def no_certificate(*args):
            raise AssertionError("a falling count stop needs no certificate")

        # a rising watch does seek masses, so the stub is live
        monkeypatch.setattr(analysis, "never_covers", no_certificate)
        crn = leader_election_crn()
        with pytest.raises(AssertionError, match="needs no certificate"):
            simulate(crn, crn.config({"L": 10}), StopCondition(reaches=[("N", ">=", 2)]), seed=0)
        stop = StopCondition(reaches=[("L", "<=", 1)])
        times, _ = run_trials(crn, crn.config({"L": 10}), stop, 3, seed=0)
        assert times.shape == (3,)
        assert simulate(crn, crn.config({"L": 10}), stop, seed=0).terminal[0] == 1

    def test_refused_stops_are_unreachable(self, monkeypatch):
        # every refusal on random one-watch stops is sound: a breadth-first
        # search of the configurations that reach the watch's threshold
        # never meets the start
        rng = np.random.default_rng(38)
        _refuse_to_simulate(monkeypatch)
        refused = unreachable = 0
        for _ in range(300):
            crn = random_crn(rng, kinetics_compatible=True)
            init = random_config(rng, crn, max_count=4)
            sid = int(rng.integers(crn.n_species))
            level = int(init.counts[sid]) + int(rng.integers(1, 7))
            stop = StopCondition(reaches=[(crn.species.name_of(sid), ">=", level)])
            target = [level * (s == sid) for s in range(crn.n_species)]
            reachable = _covers(crn, init.counts.tolist(), target)
            try:
                simulate(crn, init, stop, seed=0)
            except AssertionError:
                unreachable += not reachable  # accepted: it reached the stubbed loops
            except DomainError:
                refused += 1
                assert not reachable
        # two accepted stops are unreachable only because counts are integers
        assert (refused, unreachable) == (193, 2)
        # the search itself: C stays at most B, and a pump reaches any count
        pair, _ = parse_crn("A + B -> C\n")
        assert _covers(pair, [300, 200, 0], [0, 0, 200])
        assert not _covers(pair, [300, 200, 0], [0, 0, 201])
        pump, _ = parse_crn("A -> A + A\nA + B -> C\n")
        assert _covers(pump, [1, 2, 0], [50, 0, 2]) and not _covers(pump, [1, 1, 0], [0, 0, 2])

    @pytest.mark.parametrize("trials", [2.5, 100_000.0, math.nan, math.inf, 0, True])
    def test_trials_must_be_a_positive_integer(self, trials, monkeypatch):
        # a float trials count raised a TypeError inside the chunk layout,
        # NaN passed the old ``trials < 1`` check, and True ran one trial,
        # which the harness then reported as ``trials == True``
        crn, _ = parse_crn("A -> B\n")
        _refuse_to_simulate(monkeypatch)
        with pytest.raises(DomainError, match="trials must be an integer"):
            run_trials(crn, crn.config({"A": 3}), StopCondition(t_max=1.0), trials, seed=0)
        with pytest.raises(DomainError, match="trials must be an integer"):
            leader_election_experiment(10, trials, 1)

    def test_numpy_integer_trials_accepted(self):
        crn, _ = parse_crn("A -> B\n")
        stop = StopCondition(t_max=1.0)
        times, _ = run_trials(crn, crn.config({"A": 3}), stop, np.int64(4), seed=0)
        assert times.shape == (4,)

    @pytest.mark.parametrize("volume", [math.nan, math.inf, -math.inf])
    def test_volume_must_be_finite(self, volume, monkeypatch):
        # a NaN volume made every propensity NaN, so a run with a t_max never ended
        crn, _ = parse_crn("A + B -> C\nC -> A + B\n")
        init = crn.config({"A": 3, "B": 2})
        stop = StopCondition(t_max=1.0)
        _refuse_to_simulate(monkeypatch)
        with pytest.raises(DomainError, match="volume must be finite and positive"):
            simulate(crn, init, stop, seed=0, volume=volume)
        with pytest.raises(DomainError, match="volume must be finite and positive"):
            run_trials(crn, init, stop, 3, seed=0, volume=volume)

    @pytest.mark.parametrize("k,volume", [(1.0, 1e-320), (1e-30, 1e300)])
    def test_volume_that_takes_a_rate_out_of_range_is_refused(self, k, volume, monkeypatch):
        # k/v overflowing to inf made a propensity with a zero count NaN, so
        # reactions fired without their reactants; k/v underflowing to 0
        # silently removed the reaction
        crn, _ = parse_crn(f"A + B -> C ; k={k!r}\nC -> A + B\n")
        init = crn.config({"A": 3, "C": 2})
        stop = StopCondition(t_max=1.0)
        _refuse_to_simulate(monkeypatch)
        with pytest.raises(DomainError, match="out of floating-point range"):
            simulate(crn, init, stop, seed=0, volume=volume)
        with pytest.raises(DomainError, match="out of floating-point range"):
            run_trials(crn, init, stop, 3, seed=0, volume=volume)

    @pytest.mark.parametrize(
        "text,start,k",
        [
            ("X -> Y ; k=1e308\nX -> Z ; k=1e308\nY -> X\n", {"X": 3}, 1e308),
            ("A + B -> C ; k=1e308\nA -> B\n", {"A": 10}, 1e308),
            ("A + B -> C ; k=1e280\n", {"A": 1, "B": 1}, 1e280),
        ],
        ids=["unimolecular", "bimolecular", "second-count"],
    )
    def test_rate_that_can_overflow_the_total_is_refused(self, text, start, k, monkeypatch):
        # an infinite total propensity made every wait 0, so Y -> X fired at
        # Y = 0, and made the events of the second network land at time nan;
        # k=1e280 times counts below 2**63 stays finite for one count, not two
        crn, _ = parse_crn(text)
        init, stop = crn.config(start), StopCondition(max_events=3)
        _refuse_to_simulate(monkeypatch)
        message = re.escape(f"rate constant {k!r} at volume 1.0 can take the total propensity")
        with pytest.raises(DomainError, match=message):
            simulate(crn, init, stop, seed=0, volume=1.0)
        with pytest.raises(DomainError, match=message):
            run_trials(crn, init, stop, 3, seed=0, volume=1.0)

    @pytest.mark.parametrize(
        "stop",
        [
            StopCondition(reaches=[("B", ">=", 1)]),
            StopCondition(reaches=[("B", ">=", 5)]),
            StopCondition(reaches=[("A", "<=", 0)]),
            StopCondition(t_max=1.0, reaches=[("C", ">=", 1)]),
            StopCondition(max_events=50, reaches=[("A", ">=", 99)]),
            # the run stops once every watch is reached, so each must be
            # reachable, or the run bounded
            StopCondition(reaches=[("B", ">=", 1), ("A", "<=", 0)]),
            StopCondition(reaches=[("B", ">=", 1), ("A", ">=", 99)], max_events=50),
        ],
    )
    def test_stop_that_can_fire_or_is_bounded_runs(self, stop):
        crn, _ = parse_crn("species: A B C\nA -> B\nB -> A\n")
        assert simulate(crn, crn.config({"A": 5}), stop, seed=0).status == "stopped"

    def test_threshold_beyond_int64_is_never_reached(self, monkeypatch):
        # the sweep loop compares the counts, int64, with the thresholds as
        # one int64 array, which could not hold 2**70; the budget ends the run
        crn, _ = parse_crn("A -> B ; k=1\nB -> A ; k=1\n")
        stop = StopCondition(reaches=[("B", ">=", 2**70)], max_events=9)
        calls = _spy_batch(monkeypatch)
        run_trials(crn, crn.config({"A": 3}), stop, 4, seed=0)
        assert calls[-1][3].tolist() == [9] * 4
        _assert_one_trial_matches_simulate(crn, crn.config({"A": 3}), stop, 0, (), monkeypatch)

    @pytest.mark.parametrize(
        "text,start,stop",
        [
            ("X -> X + X\n", {"X": 2**63 - 3}, StopCondition(t_max=1)),
            ("X -> X + X\nY -> 0\n", {"X": 2**63 - 3, "Y": 1}, StopCondition(max_events=10)),
        ],
        ids=["path", "sweep"],
    )
    def test_count_past_the_int64_range_is_a_domain_error(self, text, start, stop):
        # X passes 2**63 - 1 at its third event. _run_path raised a bare
        # OverflowError while it laid out the path's counts, and the sweep
        # loop's int64 counts wrapped, so both trials were reported
        # exhausted after 3 events
        crn, _ = parse_crn(text)
        init = crn.config(start)
        with pytest.raises(DomainError, match="a count overflows the 64-bit count range"):
            simulate(crn, init, stop, seed=0, volume=1.0)
        with pytest.raises(DomainError, match="a count overflows the 64-bit count range"):
            run_trials(crn, init, stop, 2, seed=0, volume=1.0)

    def test_count_threshold_on_unconserved_network_is_not_refused(self):
        # no conservation certificate exists, so the threshold is reachable for all we know
        crn, _ = parse_crn("X -> X + X\n")
        trace = simulate(crn, crn.config({"X": 1}), StopCondition(reaches=[("X", ">=", 40)]),
                         seed=0)
        assert trace.terminal[0] == 40


class TestFirstProduction:
    def test_target_present_reports_zero(self):
        crn, _ = parse_crn("X -> Y\n")
        stats = first_production_times(
            crn, crn.config({"X": 5, "Y": 2}), "Y", t_cap=1.0, trials=8, seed=0
        )
        assert np.all(stats.times == 0.0)

    def test_exponential_minimum_law(self):
        crn, _ = parse_crn("X -> Y ; k=1\n")
        n, trials = 200, 3000
        stats = first_production_times(
            crn, crn.config({"X": n}), "Y", t_cap=5.0, trials=trials, seed=7
        )
        se = (1.0 / n) / math.sqrt(trials)
        assert stats.censored == 0
        assert abs(stats.mean - 1.0 / n) < 4 * se

    def test_unproducible_target_censors(self):
        crn, _ = parse_crn("X -> Y\nZ -> W\n")
        stats = first_production_times(
            crn, crn.config({"X": 5}), "W", t_cap=2.0, trials=10, seed=1
        )
        assert stats.censored == 10
        assert math.isnan(stats.mean)
        assert stats.median == math.inf
        assert stats.to_dict()["median"] is None

    @pytest.mark.parametrize("t_cap", [math.inf, math.nan, 0.0, -1.0])
    def test_t_cap_must_be_finite_and_positive(self, t_cap, monkeypatch):
        crn, _ = parse_crn("species: A B C\nA -> B\nB -> A\n")
        _refuse_to_simulate(monkeypatch)
        with pytest.raises(DomainError, match="t_cap"):
            first_production_times(crn, crn.config({"A": 5}), "C", t_cap, 2, seed=0)

    def test_unknown_target(self):
        crn, _ = parse_crn("X -> Y\n")
        with pytest.raises(KeyError):
            first_production_times(crn, crn.config({"X": 1}), "Q", 1.0, 1, seed=0)

    def test_trials_independent_of_execution_order(self):
        # trials retire in different sweeps, some censored at the cap
        crn, _ = parse_crn("X -> Y ; k=1\nY -> Z ; k=1\n")
        init = crn.config({"X": 3})
        # the first chunk of a longer run is a run of exactly one chunk:
        # same substream, same trials in lockstep
        longer = first_production_times(crn, init, "Z", 0.5, _TRIAL_CHUNK + 300, seed=13)
        one_chunk = first_production_times(crn, init, "Z", 0.5, _TRIAL_CHUNK, seed=13)
        assert 0 < one_chunk.censored < _TRIAL_CHUNK
        assert longer.times[:_TRIAL_CHUNK].tobytes() == one_chunk.times.tobytes()
        # several chunks give the same bytes on one thread and on three
        stop = StopCondition(t_max=0.5, reaches=[("Y", ">=", 1), ("Z", ">=", 1)])
        trials = 2 * _TRIAL_CHUNK + 500
        serial = run_trials(crn, init, stop, trials, seed=13)
        threaded = run_trials(crn, init, stop, trials, seed=13, threads=3)
        assert serial[0].tobytes() == threaded[0].tobytes()
        assert serial[1].tobytes() == threaded[1].tobytes()

    def test_multi_target_shared_trials(self):
        crn, _ = parse_crn("X -> Y ; k=5\nY -> Z ; k=5\n")
        stop = StopCondition(t_max=20.0, reaches=[("Y", ">=", 1), ("Z", ">=", 1)])
        out = run_trials(crn, crn.config({"X": 40}), stop, trials=50, seed=3)[1]
        assert np.all(out[:, 0] <= out[:, 1])
        assert not np.isnan(out[:, 1]).any()

    def test_stats_quantiles_with_censoring(self):
        stats = FirstProductionStats(
            target="S",
            t_cap=1.0,
            times=np.array([0.1, 0.2, 0.3, np.nan]),
            seed=0,
        )
        assert stats.censored == 1
        assert stats.produced_fraction == 0.75
        assert stats.quantile(0.5) == pytest.approx(0.3)
        assert stats.quantile(0.95) == math.inf
        assert stats.mean == pytest.approx(0.2)


class TestEvents:
    """A trace keeps its events as two read-only columns behind a sequence
    view of (time, reaction index) pairs."""

    def _swap(self, seed, max_events=20):
        crn, _ = parse_crn("A -> B ; k=1\nB -> A ; k=2\n")
        return simulate(crn, crn.config({"A": 6}), StopCondition(max_events=max_events), seed)

    def test_view_semantics(self, monkeypatch):
        # three events per chunk, so that iteration crosses chunk boundaries
        monkeypatch.setattr(kinetics, "_EVENT_CHUNK", 3)
        ev = self._swap(4).events
        pairs = list(zip(ev.times.tolist(), ev.reactions.tolist()))
        assert len(ev) == len(pairs) == 20 and {j for _, j in pairs} == {0, 1}
        assert (ev[0], ev[-1], ev[-20]) == (pairs[0], pairs[-1], pairs[0])
        assert all(type(t) is float and type(j) is int for t, j in [ev[5], *ev])
        assert ev[2:7] == pairs[2:7] and type(ev[2:7]) is list and ev[::-3] == pairs[::-3]
        assert list(ev) == pairs and ev == pairs and pairs == ev and ev == tuple(pairs)
        assert ev == self._swap(4).events and ev != self._swap(5).events
        assert ev != pairs[:-1] and ev != [*pairs[:-1], (pairs[-1][0], 1 - pairs[-1][1])]
        with pytest.raises(IndexError):
            ev[20]
        assert (ev.times.dtype, ev.reactions.dtype) == (np.float64, np.uint8)
        for column in (ev.times, ev.reactions):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_traces_compare_by_value(self):
        # the dataclass comparison of the (time, counts) rows raised
        # "truth value of an array ... is ambiguous" for two species
        crn, _ = parse_crn("species: A B\nA -> B ; k=1\n")

        def run(seed):
            return simulate(crn, crn.config({"A": 5}), StopCondition(t_max=1.0), seed,
                            checkpoint_times=[0.5])

        a, b = run(3), run(3)
        assert a == b and a.checkpoints[0][1].size == 2
        assert a != run(4)
        (t, counts), = a.checkpoints
        assert a != dataclasses.replace(a, checkpoints=[(t, counts + [0, 1])])

    @staticmethod
    def _bytes_kept_per_event(text, start):
        """The bytes a 10**5-event trace of ``text`` keeps per event."""
        crn, _ = parse_crn(text)
        init = crn.config(start)
        simulate(crn, init, StopCondition(max_events=10), seed=0)  # compiles any kernel
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = simulate(crn, init, StopCondition(max_events=100_000), seed=1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.events) == 100_000
        return kept / len(trace.events)

    def test_recorded_events_take_at_most_12_bytes_each(self):
        # a list of (time, reaction) tuples kept about 87 bytes per event
        assert self._bytes_kept_per_event("X -> Y ; k=1\nY -> X ; k=1\n", {"X": 100}) <= 12

    def test_one_reaction_events_take_at_most_12_bytes_each(self):
        # _run_path records its event times a block at a time and joins the
        # blocks once: float64 times and uint8 indices, about 9 bytes
        assert self._bytes_kept_per_event("X -> 0 ; k=1\n", {"X": 200_000}) <= 12

    def test_more_than_256_reactions(self):
        # the last 240 of the 320 reactions are U_i -> V_i, and each U_i
        # starts at 1, so indices above 255 fire and take two bytes each
        n = 80
        crn, _ = parse_crn("".join(f"X + Y{i} -> Y{i}\n" for i in range(n))
                           + "".join(f"U{i} -> V{i}\n" for i in range(3 * n)))
        init = crn.config({"X": 50, **{f"Y{i}": 1 for i in range(n)},
                           **{f"U{i}": 1 for i in range(3 * n)}})
        trace = simulate(crn, init, StopCondition(t_max=100.0), seed=9)
        reactions = trace.events.reactions
        assert reactions.dtype == np.uint16 and reactions.max() > 255
        assert reactions.size == trace.events.times.size > 3 * n
        *_, last = trace.replay(crn)
        assert last == trace.terminal
        fast, slow = io.StringIO(), io.StringIO()
        trace.to_csv(crn, fast)
        row_by_row_to_csv(trace, crn, slow)
        assert fast.getvalue() == slow.getvalue()

    def test_one_reaction_records_no_indices(self, monkeypatch):
        # such a run takes no kernel, so no branch appends an index; the
        # index column is all zeros
        kernels = _spy_kernels(monkeypatch)
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        trace = simulate(crn, crn.config({"X": 40}), StopCondition(t_max=10.0), seed=2)
        reactions = trace.events.reactions
        assert reactions.size == len(trace.events) > 0 and not reactions.any()
        assert trace.events[-1] == (trace.events.times[-1], 0)
        assert kernels == []


_KERNEL = kinetics._kernel


def _spy_kernels(monkeypatch) -> list:
    """Record every kernel that ``_run_core`` looks up."""
    kernels = []

    def spy(*shape):
        kernels.append(_KERNEL(*shape))
        return kernels[-1]

    monkeypatch.setattr(kinetics, "_kernel", spy)
    return kernels


def _source(crn) -> str:
    """The kernel source of a ``t_max`` run of ``crn`` with no watch."""
    comp = _Compiled(crn, 1.0)
    return kinetics._kernel_source(tuple(row[1:] for row in comp.table), comp.deltas,
                                   crn.n_species, (), True)


class TestKernel:
    """The scalar loop is generated once per shape of run and cached."""

    def test_volumes_share_one_kernel(self, monkeypatch):
        # the coefficients are an argument, not part of the source: the
        # first wait scales with the volume through the kernel both share.
        # C starts at 0, so A + B -> C alone sets the first wait
        kernels = _spy_kernels(monkeypatch)
        crn, _ = parse_crn("A + B -> C ; k=1.5\nC -> A + B ; k=1\n")
        init, stop = crn.config({"A": 4, "B": 3}), StopCondition(max_events=1)
        small = simulate(crn, init, stop, seed=6, volume=2.0)
        large = simulate(crn, init, stop, seed=6, volume=5.0)
        assert len(kernels) == 2 and kernels[0] is kernels[1]
        assert large.time / small.time == pytest.approx(2.5, rel=1e-12, abs=0)

    def test_thresholds_share_one_kernel(self, monkeypatch):
        # a count threshold is an argument too, not part of the source: runs
        # that differ only in it share the kernel, and on one stream the
        # lower threshold's events are a prefix of the higher one's
        kernels = _spy_kernels(monkeypatch)
        crn, _ = parse_crn("A + B -> C ; k=1.5\nC -> A + B ; k=1\n")
        init = crn.config({"A": 4, "B": 3})
        low, high = (simulate(crn, init, StopCondition(reaches=[("C", ">=", c)], max_events=10**4),
                              seed=6) for c in (2, 3))
        assert len(kernels) == 2 and kernels[0] is kernels[1]
        assert (low.terminal[2], high.terminal[2]) == (2, 3)
        assert low.events == high.events[: len(low.events)]

    def test_generated_frame_shows_in_traceback(self, monkeypatch):
        def no_uniforms(rng, size):
            raise RuntimeError("no uniforms")

        monkeypatch.setattr(kinetics, "open_uniform_block", no_uniforms)
        # two reactions, so that the kernel draws selection uniforms
        crn, _ = parse_crn("X -> Y ; k=1\nY -> X ; k=1\n")
        with pytest.raises(RuntimeError, match="no uniforms") as info:
            simulate(crn, crn.config({"X": 3}), StopCondition(t_max=1.0), seed=0)
        frames = [f for f in traceback.extract_tb(info.tb)
                  if f.filename.startswith("<crnsim kernel")]
        assert len(frames) == 1 and "draw(sel" in frames[0].line

    def test_source_holds_only_integers_and_local_names(self, monkeypatch):
        kernels = _spy_kernels(monkeypatch)
        crn, _ = parse_crn(
            "species: Alpha Beta Gamma\n"
            "Alpha + Beta -> Gamma ; k=1.25 ; label=bind\nGamma -> Alpha + Beta ; k=0.5\n"
            "Beta + Beta -> Alpha ; k=3\n"
        )
        stop = StopCondition(t_max=0.5, reaches=[("Gamma", ">=", 1), ("Beta", "<=", 2)],
                             max_events=50)
        simulate(crn, crn.config({"Alpha": 5, "Beta": 9}), stop, seed=1,
                 checkpoint_times=[0.25])
        src = "".join(linecache.getlines(kernels[-1].__code__.co_filename))
        tokens = list(tokenize.generate_tokens(io.StringIO(src).readline))
        assert all(t.string.isdigit() for t in tokens if t.type == tokenize.NUMBER)
        assert not any(t.type == tokenize.STRING for t in tokens)
        names = {t.string for t in tokens if t.type == tokenize.NAME}
        assert not names & {"Alpha", "Beta", "Gamma", "bind"}
        assert {"s1", "s2", "s3", "c0", "c2", "k2"} <= names
        # the checkpoints are read from the event columns after the run, so
        # the kernel takes none and needs no numpy
        assert not names & {"cps", "cp", "np", "nan", "inf"}
        assert set(kinetics._KERNEL_GLOBALS) == {"ZERO", "STOPPED", "EXHAUSTED"}

    def test_source_is_linear_in_the_reactions(self):
        # every X + Y_i -> Y_i reads X and changes it, and U_i -> V_i touches
        # neither, so a quarter of the branches change X: keeping every
        # propensity of X's readers would take n lines in each of n
        # branches. The budget is read once, when a block of uniforms is
        # sized, and no event counts against it
        lines = {}
        for n in (40, 80):
            crn, _ = parse_crn("".join(f"X + Y{i} -> Y{i}\n" for i in range(n))
                               + "".join(f"U{i} -> V{i}\n" for i in range(3 * n)))
            src = _source(crn)
            assert "a0 =" in src and f"a{n - 1} =" not in src
            assert [line.strip() for line in src.splitlines()[1:] if "max_events" in line] == [
                "left = max_events - len(events)"]
            lines[n] = len(src.splitlines())
        assert lines[80] < 2.1 * lines[40]

    def test_propensities_in_the_sums_match_kept_ones(self, monkeypatch):
        # X is read by 21 reactions and changed by 22 of the 26 branches,
        # more than _KEEP_SHARE of them, so their propensities are computed
        # in the sums at every event, while the U, V pairs keep theirs;
        # keeping every propensity, or none, gives the same trace, bit for bit
        crn, _ = parse_crn(
            "".join(f"X + Y{i} -> Y{i} + Z ; k={1 + i / 7}\n" for i in range(20))
            + "Z -> X ; k=3\nX + X -> Z ; k=0.5\nZ + Y0 -> Y0 ; k=0.25\n"
            + "U -> V ; k=2\nV -> U ; k=1.5\nU + V -> U + U ; k=0.75\n"
        )
        init = crn.config({"X": 40, "Z": 5, "U": 7, "V": 3,
                           **{f"Y{i}": 1 + i % 3 for i in range(20)}})
        stop = StopCondition(t_max=2.0, max_events=3000)
        runs, kept = [], []
        for share, lines in ((kinetics._KEEP_SHARE, kinetics._RECOMPUTE_LINES), (1, 10**9),
                             (1, 0)):
            monkeypatch.setattr(kinetics, "_KEEP_SHARE", share)
            monkeypatch.setattr(kinetics, "_RECOMPUTE_LINES", lines)
            monkeypatch.setattr(kinetics, "_kernel", _KERNEL.__wrapped__)
            src = _source(crn)
            kept.append(("a0 =" in src, "a20 =" in src, "a23 =" in src))
            runs.append(simulate(crn, init, stop, seed=4, checkpoint_times=[0.01, 0.5]))
            assert len(runs[-1].events) > 100
        assert kept == [(False, False, True), (True, True, True), (False, False, False)]
        for other in runs[1:]:
            assert other.events == runs[0].events and other.terminal == runs[0].terminal
            assert [(t, c.tolist()) for t, c in other.checkpoints] == [
                (t, c.tolist()) for t, c in runs[0].checkpoints]

    def test_event_times_follow_the_python_float_rule(self, rng):
        # the kernel records each event's total and its watches' event
        # counts, and _run_core sums the times afterwards: bit for bit the
        # clock of a loop that keeps t += e / total in Python floats, on
        # random networks, timed and untimed, with watches reached at the
        # start, during the run or never
        seen = {"start": 0, "during": 0, "never": 0, "t_max": 0, "exhausted": 0, "kernel": 0}
        for case in range(160):
            crn = random_crn(rng, kinetics_compatible=True)
            init = random_config(rng, crn, max_count=12)
            c = init.counts.tolist()
            a, b = (int(x) for x in rng.integers(crn.n_species, size=2))
            names = crn.species.names
            reaches = [(names[a], ">=", c[a]), (names[b], ">=", c[b] + 1)]
            if case % 3 == 0:
                reaches.append((names[b], ">=", 10**6))
            stop = StopCondition(t_max=float(rng.uniform(0.05, 3.0)) if case % 2 else None,
                                 reaches=reaches, max_events=300)
            _, comp, counts, args = kinetics._prepare(crn, init, stop, None)
            key = (case,)
            t, status, events, _, watch_times, n = kinetics._run_core(
                comp, list(counts), substream(41, *key), **args)
            want = _direct_method_events(comp, counts, substream(41, *key), **args)
            assert (t, status, events[0].tolist(), events[1].tolist()) == want[:4]
            assert type(t) is type(want[0]) and n == len(want[2])
            assert watch_times == want[5] and list(watch_times) == list(want[5])
            seen["kernel"] += len(comp.table) > 1
            seen["start"] += 0 in watch_times and watch_times[0] == 0.0
            seen["during"] += any(x > 0.0 for x in watch_times.values())
            seen["never"] += len(watch_times) < len(reaches)
            seen["t_max"] += t == stop.t_max
            seen["exhausted"] += status == "exhausted"
        assert min(seen.values()) >= 10, seen

    def test_source_leaves_linecache_with_its_kernel(self):
        crn, _ = parse_crn("X -> Y ; k=1\nY -> X ; k=1\n")
        comp = _Compiled(crn, 1.0)
        shape = (tuple(row[1:] for row in comp.table), comp.deltas, 2, (), True)
        kernel = _KERNEL.__wrapped__(*shape)
        filename = kernel.__code__.co_filename
        assert filename in linecache.cache
        del kernel
        gc.collect()
        assert filename not in linecache.cache


def test_small_first_refill_keeps_the_uniform_sequence():
    # the scalar loop refills 64 uniforms first, then twice the last refill
    # up to 4096; each uniform takes one 64-bit draw, so the split cannot
    # change any run
    for s, k in [(0, 0), (3, 17), (2012, 5)]:
        one = open_uniform_block(substream(s, k), 4096)
        rng = substream(s, k)
        split = np.concatenate([open_uniform_block(rng, 64), open_uniform_block(rng, 4032)])
        assert np.array_equal(one, split)
        rng = substream(s, k)
        doubling = np.concatenate([open_uniform_block(rng, 64 << i) for i in range(6)])
        assert np.array_equal(one[:4032], doubling)
