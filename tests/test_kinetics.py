import hashlib
import io
import math

import numpy as np
import pytest

from crnsim import kinetics
from crnsim.analysis import stage_decomposition
from crnsim.errors import DomainError, UnsupportedReactionOrderError
from crnsim.harness import chain_crn, leader_election_experiment
from crnsim.kinetics import (
    _TRIAL_CHUNK,
    FirstProductionStats,
    StopCondition,
    _Compiled,
    first_production_times,
    run_trials,
    simulate,
)
from crnsim.model import Configuration, parse_crn
from crnsim.streams import open_uniform_block, substream

from conftest import random_config, random_crn


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
                    StopCondition(count_reaches=("L", 1)),
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
            (0, StopCondition(t_max=2.0), "b428180be6c6b24a"),
            (1, StopCondition(species_appears=frozenset({"D"}), max_events=100_000),
             "1bec0d348f0e520c"),
            (2, StopCondition(count_reaches=("C", 6), max_events=100_000), "e0590a9e0a66250c"),
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

    def test_event_budget(self):
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        trace = simulate(
            crn, crn.config({"X": 100}), StopCondition(max_events=7), seed=1
        )
        assert len(trace.events) == 7
        assert trace.terminal[0] == 93

    def test_species_appears_stop(self):
        crn, _ = parse_crn("X -> Y ; k=1\n")
        trace = simulate(
            crn,
            crn.config({"X": 10}),
            StopCondition(t_max=50.0, species_appears=frozenset({"Y"})),
            seed=2,
        )
        assert len(trace.events) == 1
        assert trace.terminal[1] == 1

    def test_unsupported_order_surfaces(self):
        crn, _ = parse_crn("A + 2B -> A + 3C\n")
        with pytest.raises(UnsupportedReactionOrderError):
            simulate(crn, crn.config({"A": 1, "B": 2}), StopCondition(t_max=1.0), seed=0)

    def test_stop_condition_validation(self):
        with pytest.raises(DomainError):
            StopCondition()
        with pytest.raises(DomainError):
            StopCondition(t_max=math.inf)
        with pytest.raises(DomainError):
            StopCondition(max_events=-1)
        with pytest.raises(DomainError):  # counts never fall below 0
            StopCondition(count_reaches=("X", -1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_events": math.nan},
            {"max_events": math.inf},
            {"max_events": 2.5},
            {"max_events": True},
            {"t_max": 1.0, "count_reaches": ("A", math.nan)},
            {"t_max": 1.0, "count_reaches": ("A", 2.5)},
            {"t_max": 1.0, "count_reaches": ("A", True)},
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

    def test_numpy_integer_stop_sizes_accepted(self):
        crn, _ = parse_crn("A -> B\nB -> A\n")
        # A + B = 3 is conserved, so B never reaches 4 and the budget ends the run
        stop = StopCondition(max_events=np.int64(9), count_reaches=("B", np.int64(4)))
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


def _assert_one_trial_matches_simulate(crn, init, stop, seed, key, monkeypatch):
    """A one-trial run ends as ``simulate`` on the substream of chunk 0 does.

    The two loops read the same uniforms and make the same selections, so
    the end reason, the event count and which species appeared match
    exactly. Times match to 1e-12 relative, since ``np.log`` and
    ``math.log`` may differ by one ulp.
    """
    calls = _spy_batch(monkeypatch)
    times, first = run_trials(crn, init, stop, 1, seed=seed, stream_key=key)
    trace = simulate(crn, init, stop, seed=seed, stream_key=(*key, 0))
    _, _, exhausted, n_events = calls[-1]
    assert set(first) == set(stop.species_appears or ())
    assert bool(exhausted[0]) == (trace.status == "exhausted")
    assert n_events[0] == len(trace.events)
    assert (times[0] == stop.t_max) == (trace.time == stop.t_max)
    assert times[0] == pytest.approx(trace.time, rel=1e-12, abs=0)
    event_times = [0.0] + [t for t, _ in trace.events]
    for name, per_trial in first.items():
        sid = crn.species.id_of(name)
        seen = [t for t, c in zip(event_times, trace.replay(crn)) if c[sid] > 0]
        if seen:
            assert per_trial[0] == pytest.approx(seen[0], rel=1e-12, abs=0)
        else:
            assert math.isnan(per_trial[0])
    return trace


class TestRunTrials:
    def test_trials_end_where_simulate_ends_on_random_networks(self, rng, monkeypatch):
        for case in range(20):
            crn = random_crn(rng, kinetics_compatible=True)
            init = random_config(rng, crn, max_count=20)
            names = crn.species.names
            watched = rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False)
            count_name = names[int(rng.integers(len(names)))]
            stops = [
                StopCondition(count_reaches=(count_name, int(rng.integers(0, 25))), max_events=500),
                StopCondition(t_max=2.0, species_appears=frozenset(map(str, watched)),
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
        stop = StopCondition(t_max=1.0, species_appears=frozenset({"A", "B"}))
        calls = _spy_batch(monkeypatch)
        times, first = run_trials(crn, crn.config({"A": 3}), stop, 5, seed=0)
        assert np.all(times == 0.0) and calls[-1][2].all()
        assert np.all(first["A"] == 0.0) and np.isnan(first["B"]).all()
        _assert_one_trial_matches_simulate(crn, crn.config({"A": 3}), stop, 0, (), monkeypatch)

    @pytest.mark.parametrize(
        "stop",
        [
            StopCondition(count_reaches=("A", 5)),
            StopCondition(species_appears=frozenset({"A"})),
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
        assert all(np.all(v == 0.0) for v in first.values())
        trace = _assert_one_trial_matches_simulate(crn, init, stop, 1, (), monkeypatch)
        assert trace.events == []

    def test_max_events_counts_per_trial(self, monkeypatch):
        # A + A -> B exhausts a trial after at most three events; the rest
        # must each stop after exactly max_events, whenever they started
        crn, _ = parse_crn("A -> B ; k=1\nB -> A ; k=1\nA + A -> C ; k=0.2\n")
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
        stop = StopCondition(count_reaches=target)
        name, thr = target
        sid = crn.species.id_of(name)
        for key in range(10):
            trace = _assert_one_trial_matches_simulate(crn, init, stop, 2, (key,), monkeypatch)
            assert trace.terminal[sid] == thr

    def test_exhausted_trials_keep_their_last_event_time(self, monkeypatch):
        crn, _ = parse_crn("species: A B C\nA -> B\n")
        init = crn.config({"A": 3})
        stop = StopCondition(t_max=1e6, species_appears=frozenset({"B", "C"}))
        calls = _spy_batch(monkeypatch)
        times, first = run_trials(crn, init, stop, 50, seed=5)
        _, _, exhausted, n_events = calls[-1]
        assert exhausted.all() and np.all(n_events == 3)
        assert np.all((times > first["B"]) & (times < 1e6))
        assert np.isnan(first["C"]).all()
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
        # sha256 prefix of every _run_batch array over two chunks of
        # trials on random networks, under each kind of stop: a count with
        # a budget, a watch with a horizon and a budget, a horizon alone
        # and a budget alone
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
                (init, StopCondition(count_reaches=(count_name, int(rng.integers(0, 25))),
                                     max_events=200)),
                (Configuration(absent), StopCondition(
                    t_max=2.0, species_appears=frozenset(map(str, watched)), max_events=40)),
                (init, StopCondition(t_max=0.5)),
                (init, StopCondition(max_events=int(rng.integers(0, 60)))),
            ]
            for start, stop in runs:
                run_trials(crn, start, stop, 1100, seed=case, volume=float(init.total),
                           stream_key=(case,))
        h = hashlib.sha256()
        for call in calls:
            for arr in call:
                h.update(arr.tobytes())
        assert len(calls) == 240
        assert h.hexdigest()[:16] == "f07b0fe15aa01ebe"

    def test_long_runs_with_few_trials_byte_identical_to_pinned_digest(self, monkeypatch):
        # sha256 prefix of every _run_batch array for runs of over a
        # thousand sweeps over a few trials on the doubling chain: the
        # paper's negative example watching X4 to a horizon; a watch on X2,
        # X3 and X4, where X2 appears and is then consumed, so X4 completes
        # the watch long after X2 was seen (or the horizon comes first); and
        # a count stop approached from above
        chain3, chain2 = chain_crn(3), chain_crn(2)
        runs = [
            (chain3, {"X1": 4096}, 4096.0,
             StopCondition(t_max=4.0, species_appears=frozenset({"X4"})), 30, 11),
            (chain3, {"X1": 2048}, 512.0,
             StopCondition(t_max=6.0, species_appears=frozenset({"X2", "X3", "X4"})), 7, 12),
            (chain2, {"X1": 3000}, None, StopCondition(count_reaches=("X1", 40)), 5, 13),
        ]
        calls = _spy_batch(monkeypatch)
        for crn, init, volume, stop, trials, seed in runs:
            run_trials(crn, crn.config(init), stop, trials, seed=seed, volume=volume)
        first = calls[1][1]
        assert np.isnan(first[:, 1:]).any() and not np.isnan(first[:, 0]).any()
        assert [int(c[3].min()) for c in calls] == [3765, 1348, 2928]  # all long runs
        h = hashlib.sha256()
        for call in calls:
            for arr in call:
                h.update(arr.tobytes())
        assert h.hexdigest()[:16] == "fe4f01cc57001a91"

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
            stop = StopCondition(t_max=0.5, species_appears=frozenset({target}))
            times, first = run_trials(crn, init, stop, trials, seed=checked)
            ref_t, ref_censored = np.empty(trials), np.empty(trials)
            for i in range(trials):
                trace = simulate(crn, init, stop, seed=checked, stream_key=(1, i))
                ref_t[i] = trace.time
                ref_censored[i] = all(c[sid] == 0 for c in trace.replay(crn))
            se = math.sqrt((times.var(ddof=1) + ref_t.var(ddof=1)) / trials)
            assert abs(times.mean() - ref_t.mean()) <= 5 * se
            p_kernel, p_ref = np.isnan(first[target]).mean(), ref_censored.mean()
            pooled = (p_kernel + p_ref) / 2
            se = math.sqrt(2 * pooled * (1 - pooled) / trials)
            assert abs(p_kernel - p_ref) <= 5 * se if se > 0 else p_kernel == p_ref
            checked += 1

    @pytest.mark.parametrize(
        "stop",
        [
            StopCondition(species_appears=frozenset({"C"})),
            StopCondition(species_appears=frozenset({"B", "C"})),
            StopCondition(count_reaches=("A", 99)),
            StopCondition(count_reaches=("B", 6)),
            StopCondition(species_appears=frozenset({"C"}), count_reaches=("A", 99)),
        ],
    )
    def test_stop_that_can_never_fire_is_refused(self, stop, monkeypatch):
        # A + B = 5 is conserved and nothing produces C
        crn, _ = parse_crn("species: A B C\nA -> B\nB -> A\n")
        _refuse_to_simulate(monkeypatch)
        with pytest.raises(DomainError, match="t_max or max_events"):
            simulate(crn, crn.config({"A": 5}), stop, seed=0)
        with pytest.raises(DomainError, match="t_max or max_events"):
            run_trials(crn, crn.config({"A": 5}), stop, 3, seed=0)

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
        with pytest.raises(DomainError, match="volume must be positive and finite"):
            simulate(crn, init, stop, seed=0, volume=volume)
        with pytest.raises(DomainError, match="volume must be positive and finite"):
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
        "stop",
        [
            StopCondition(species_appears=frozenset({"B"})),
            StopCondition(count_reaches=("B", 5)),
            StopCondition(count_reaches=("A", 0)),
            StopCondition(t_max=1.0, species_appears=frozenset({"C"})),
            StopCondition(max_events=50, count_reaches=("A", 99)),
            # the first trigger to fire ends the run, so one that can fire is enough
            StopCondition(species_appears=frozenset({"C"}), count_reaches=("A", 0)),
            StopCondition(species_appears=frozenset({"B"}), count_reaches=("A", 99)),
        ],
    )
    def test_stop_that_can_fire_or_is_bounded_runs(self, stop):
        crn, _ = parse_crn("species: A B C\nA -> B\nB -> A\n")
        assert simulate(crn, crn.config({"A": 5}), stop, seed=0).status == "stopped"

    def test_count_threshold_on_unconserved_network_is_not_refused(self):
        # no conservation certificate exists, so the threshold is reachable for all we know
        crn, _ = parse_crn("X -> X + X\n")
        trace = simulate(crn, crn.config({"X": 1}), StopCondition(count_reaches=("X", 40)), seed=0)
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
        stop = StopCondition(t_max=0.5, species_appears=frozenset({"Y", "Z"}))
        trials = 2 * _TRIAL_CHUNK + 500
        serial = run_trials(crn, init, stop, trials, seed=13)
        threaded = run_trials(crn, init, stop, trials, seed=13, threads=3)
        assert serial[0].tobytes() == threaded[0].tobytes()
        for name in ("Y", "Z"):
            assert serial[1][name].tobytes() == threaded[1][name].tobytes()

    def test_multi_target_shared_trials(self):
        crn, _ = parse_crn("X -> Y ; k=5\nY -> Z ; k=5\n")
        stop = StopCondition(t_max=20.0, species_appears=frozenset({"Y", "Z"}))
        out = run_trials(crn, crn.config({"X": 40}), stop, trials=50, seed=3)[1]
        assert np.all(out["Y"] <= out["Z"])
        assert not np.isnan(out["Z"]).any()

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


def test_small_first_refill_keeps_the_uniform_sequence():
    # the event loop refills 64 uniforms first, then 4096 at a time; each
    # uniform takes one 64-bit draw, so the split cannot change any run
    for s, k in [(0, 0), (3, 17), (2012, 5)]:
        one = open_uniform_block(substream(s, k), 4096)
        rng = substream(s, k)
        split = np.concatenate([open_uniform_block(rng, 64), open_uniform_block(rng, 4032)])
        assert np.array_equal(one, split)
