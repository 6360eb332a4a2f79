import io
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from crnsim import kinetics
from crnsim.errors import DomainError
from crnsim.harness import (
    ChainResult,
    LeaderElectionResult,
    chain_crn,
    chain_experiment,
    constant_time_scan,
    leader_election_crn,
    leader_election_experiment,
    scale_configuration,
)
from crnsim.kinetics import write_csv
from crnsim.model import Configuration, parse_crn


class TestBuilders:
    def test_leader_network(self):
        crn = leader_election_crn()
        assert crn.species.names == ("L", "N")
        assert len(crn.reactions) == 1

    def test_chain_network_shape(self):
        crn = chain_crn(3)
        assert crn.species.names == ("X1", "X2", "X3", "X4")
        assert len(crn.reactions) == 6  # m decays + m merges
        rates = {rx.rate_constant for rx in crn.reactions}
        assert rates == {1.0}

    def test_chain_network_roundtrips_through_text(self):
        from crnsim.model import format_crn, parse_crn

        crn = chain_crn(3)
        assert parse_crn(format_crn(crn))[0] == crn


class TestLeaderElection:
    def test_two_candidates_single_exponential(self):
        # one event at rate (1/2)*(2*1/2) = 1/2, so the mean time is 2
        res = leader_election_experiment(n=2, trials=1500, seed=0)
        assert res.analytic_mean == 2.0
        se = 2.0 / math.sqrt(res.trials)  # exponential sd equals its mean
        assert abs(res.mean - 2.0) < 4 * se

    def test_mean_tracks_closed_form(self):
        res = leader_election_experiment(n=100, trials=500, seed=1)
        assert abs(res.mean - res.analytic_mean) / res.analytic_mean < 0.08

    def test_single_trial_degenerates(self):
        res = leader_election_experiment(n=10, trials=1, seed=2)
        assert res.times.size == 1
        assert math.isnan(res.ci95_halfwidth)
        assert res.to_dict()["ci95_halfwidth"] is None

    def test_csv_layout(self):
        res = leader_election_experiment(n=5, trials=3, seed=3)
        buf = io.StringIO()
        write_csv(buf, res)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,trial,time"
        assert len(lines) == 4

    def test_time_law_matches_exact_cdf(self):
        # the time to one leader from n is a sum of independent
        # Exp(i(i-1)/(2n)) holds, i = n down to 2: the absorption time of
        # the pure-death chain on n, n-1, ..., 1. Its CDF at t is the mass
        # expm(Q t) puts on one leader; Q has distinct rates, so its
        # eigendecomposition gives that mass at every sample at once, and
        # scipy.linalg.expm checks it at a few. Kolmogorov-Smirnov at a
        # fixed seed: under the law, sqrt(N) D exceeds 1.95 with asymptotic
        # probability 0.001 (scipy.special.kolmogorov(1.95)). Measured on
        # this statistic over seeds 0-19 999 of this experiment, it
        # exceeded 1.95 on 23: a false-failure rate per stream of
        # 1.15e-3 +- 0.24e-3, so one failure or more in 50 salted streams
        # has probability 5.6%
        from scipy.linalg import expm

        n, trials = 20, 4000
        rates = np.array([i * (i - 1) / (2 * n) for i in range(n, 1, -1)])
        q = np.diag(np.append(-rates, 0.0)) + np.diag(rates, 1)  # state j holds n - j leaders
        w, v = np.linalg.eig(q)
        weights = v[0] * np.linalg.inv(v)[:, -1]

        def ks(times):
            x = np.sort(times)
            cdf = (np.exp(np.outer(x, w)) * weights).sum(axis=1).real
            for j in range(0, trials, 500):
                assert cdf[j] == pytest.approx(expm(q * x[j])[0, -1], abs=1e-12)
            i = np.arange(1, trials + 1)
            return math.sqrt(trials) * max((i / trials - cdf).max(), (cdf - (i - 1) / trials).max())

        res = leader_election_experiment(n, trials, seed=26)
        assert ks(res.times) <= 1.95
        # a 10% error in the rate moves every time by that factor, and fails
        assert ks(res.times * 1.1) > 1.95 and ks(res.times / 1.1) > 1.95

    def test_long_path_takes_little_memory(self):
        # 200 000 candidates make a path of 199 999 sweeps, which the trials
        # advance a block at a time: one float per sweep would take 1.6 MB
        leader_election_experiment(10, 1, 0)  # the first call imports analysis
        tracemalloc.start()
        try:
            res = leader_election_experiment(200_000, 3, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(res.times > 0)
        assert peak < 1_000_000

    def test_determinism_and_thread_invariance(self):
        a = leader_election_experiment(n=30, trials=40, seed=7)
        b = leader_election_experiment(n=30, trials=40, seed=7, threads=4)
        assert np.array_equal(a.times, b.times)


class TestResultFields:
    """Each result stores a value once; what follows from it is a property."""

    def test_leader_election(self):
        res = leader_election_experiment(n=7, trials=4, seed=1)
        assert [f.name for f in fields(LeaderElectionResult)] == ["n", "seed", "times"]
        assert (res.trials, res.analytic_mean) == (4, 12.0)
        assert res.to_dict()["trials"] == 4 and res.to_dict()["analytic_mean"] == 12.0

    def test_chain(self):
        res = chain_experiment(m=1, n=8, trials=4, t_cap=0.7, seed=2)
        assert [f.name for f in fields(ChainResult)] == ["m", "n", "stats"]
        assert (res.t_cap, res.seed) == (res.stats.t_cap, res.stats.seed) == (0.7, 2)
        assert res.to_dict()["t_cap"] == 0.7 and res.to_dict()["seed"] == 2


class TestChain:
    def test_large_n_produces_fast(self):
        res = chain_experiment(m=1, n=1000, trials=200, t_cap=2.0, seed=0)
        assert res.produced_fraction == 1.0
        assert res.stats.median < 0.2

    def test_tiny_n_often_censors(self):
        # from (2, 0): merge rate 1/2 vs decay rate 2, so X2 appears with
        # probability 1/5; afterwards nothing can merge again
        res = chain_experiment(m=1, n=2, trials=600, t_cap=20.0, seed=1)
        assert 0.1 < res.produced_fraction < 0.3

    def test_fraction_nonincreasing_in_m(self):
        fracs = [
            chain_experiment(m=m, n=64, trials=250, t_cap=4.0, seed=2).produced_fraction
            for m in (1, 2, 3)
        ]
        assert all(b <= a + 0.05 for a, b in zip(fracs, fracs[1:]))

    def test_csv_marks_censoring(self):
        res = chain_experiment(m=2, n=4, trials=30, t_cap=0.5, seed=3)
        buf = io.StringIO()
        write_csv(buf, res)
        assert "censored" in buf.getvalue()


class TestIntegerArguments:
    """Sizes are refused unless they are integers: a float was simulated at
    one size and reported at another, or failed deep inside with a
    ``TypeError``. Simulating fails here, so a size that is not refused
    fails the test instead of running."""

    @pytest.fixture(autouse=True)
    def refuse_to_simulate(self, monkeypatch):
        def no_events(*args, **kwargs):
            raise AssertionError("the size should have been refused before simulating")

        monkeypatch.setattr(kinetics, "_run_batch", no_events)

    @pytest.mark.parametrize("n", [10.5, 2.0, math.nan])
    def test_leader_election_n(self, n):
        # n=10.5 simulated L=10 but reported analytic_mean 19.0
        with pytest.raises(DomainError, match="n must be an integer of at least 2"):
            leader_election_experiment(n, 5, 1)

    @pytest.mark.parametrize("n", [64.5, math.inf, math.nan])
    def test_chain_n(self, n):
        # n=64.5 started 64 copies in volume 64.5
        with pytest.raises(DomainError, match="n must be an integer of at least 2"):
            chain_experiment(1, n, 5, 2.0, 1)

    @pytest.mark.parametrize("m", [2.5, math.nan, True])
    def test_chain_m(self, m):
        with pytest.raises(DomainError, match="m must be an integer of at least 1"):
            chain_crn(m)
        with pytest.raises(DomainError, match="m must be an integer of at least 1"):
            chain_experiment(m, 64, 5, 2.0, 1)

    @pytest.mark.parametrize("n", [20.5, math.nan, True])
    def test_scan_grid(self, n):
        # n=20.5 scanned n=20
        crn, _ = parse_crn("X -> Y ; k=1\n")
        with pytest.raises(DomainError, match="n must be an integer of at least 1"):
            constant_time_scan(crn, crn.config({"X": 10}), 1.0, [100, n], 5, 0)
        with pytest.raises(DomainError, match="n must be an integer of at least 1"):
            scale_configuration(Configuration([3, 1]), n)

    def test_scan_grid_repeats_no_size(self):
        # n_grid=[20, 20] reported two rows for n=20 but one all-produced fraction
        crn, _ = parse_crn("X -> Y ; k=1\n")
        with pytest.raises(DomainError, match="n_grid must not repeat a size"):
            constant_time_scan(crn, crn.config({"X": 10}), 1.0, [20, 100, np.int64(20)], 5, 0)

    def test_scan_grid_nonempty(self):
        crn, _ = parse_crn("X -> Y ; k=1\n")
        with pytest.raises(DomainError, match="n_grid must be nonempty"):
            constant_time_scan(crn, crn.config({"X": 10}), 1.0, [], 5, 0)

    @pytest.mark.parametrize("seed", [1.7, -1, math.nan, True])
    def test_seed(self, seed):
        # 1.7 ran as seed 1 but was reported as 1.7; -1 failed in SeedSequence
        crn, _ = parse_crn("X -> Y ; k=1\n")
        init = crn.config({"X": 10})
        calls = [
            lambda: leader_election_experiment(10, 5, seed),
            lambda: chain_experiment(1, 16, 5, 2.0, seed),
            lambda: constant_time_scan(crn, init, 1.0, [20], 5, seed),
            lambda: kinetics.first_production_times(crn, init, "Y", 1.0, 5, seed),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="seed must be an integer of at least 0"):
                call()


class TestNumpyIntegerArguments:
    """numpy integers pass ``check_integer``, and the results keep the
    Python ``int`` it returns, so their reports can be written as JSON."""

    def test_leader_election(self):
        res = leader_election_experiment(np.int64(10), np.int64(5), 0)
        report = json.loads(json.dumps(res.to_dict()))
        assert (report["n"], report["trials"]) == (10, 5)

    def test_chain(self):
        res = chain_experiment(np.int64(1), np.int64(16), 5, 2.0, 0)
        report = json.loads(json.dumps(res.to_dict()))
        assert (report["m"], report["n"]) == (1, 16)

    def test_scan(self):
        crn, _ = parse_crn("X -> Y ; k=1\n")
        scan = constant_time_scan(crn, crn.config({"X": 10}), 1.0, [np.int64(20)],
                                  np.int64(5), 0)
        rows = json.loads(json.dumps(scan.to_dict()))["rows"]
        assert [(r["n"], r["trials"]) for r in rows] == [(20, 5)]

    def test_seeds(self):
        # a numpy seed was stored as given, and json.dumps refused the report
        leader = leader_election_experiment(10, 5, np.int64(3))
        chain = chain_experiment(1, 16, 5, 2.0, np.int64(3))
        crn, _ = parse_crn("X -> Y ; k=1\n")
        scan = constant_time_scan(crn, crn.config({"X": 10}), 1.0, [20], 5, np.int64(3))
        stats = kinetics.first_production_times(crn, crn.config({"X": 10}), "Y", 1.0, 5,
                                                np.int64(3))
        for res in (leader, chain, scan, stats):
            assert json.loads(json.dumps(res.to_dict()))["seed"] == 3
            assert type(res.seed) is int
        assert np.array_equal(leader.times, leader_election_experiment(10, 5, 3).times)


class TestScaling:
    def test_exact_scaling_preserves_proportions(self):
        template = Configuration([3, 1])
        scaled = scale_configuration(template, 400)
        assert scaled == Configuration([300, 100])

    def test_remainder_goes_to_largest_species(self):
        template = Configuration([2, 1])
        scaled = scale_configuration(template, 10)
        # floors are (6, 3); the leftover 1 joins the largest proportion
        assert scaled == Configuration([7, 3])
        assert scaled.total == 10

    def test_zero_species_stay_zero(self):
        scaled = scale_configuration(Configuration([5, 0]), 123)
        assert scaled == Configuration([123, 0])

    def test_zero_template_rejected(self):
        with pytest.raises(DomainError):
            scale_configuration(Configuration([0, 0]), 10)


class TestScan:
    def test_conversion_medians_decrease(self):
        crn, _ = parse_crn("X -> Y ; k=1\n")
        res = constant_time_scan(
            crn, crn.config({"X": 10}), alpha=1.0, n_grid=[100, 1000], trials=400, seed=0
        )
        rows = res.rows_for("Y")
        assert [r.n for r in rows] == [100, 1000]
        assert rows[1].median < rows[0].median
        assert res.all_produced_fraction == {100: 1.0, 1000: 1.0}

    def test_single_cell_grid(self):
        crn, _ = parse_crn("X -> Y ; k=1\n")
        res = constant_time_scan(
            crn, crn.config({"X": 4}), alpha=1.0, n_grid=[50], trials=50, seed=1
        )
        assert len(res.rows) == 1
        assert res.rows[0].trials == 50

    def test_leader_scan_target_is_follower_species(self):
        res = constant_time_scan(
            leader_election_crn(),
            Configuration([10, 0]),
            alpha=1.0,
            n_grid=[100, 1000],
            trials=300,
            seed=2,
        )
        assert res.targets == ("N",)
        rows = res.rows_for("N")
        assert rows[1].median <= rows[0].median * 1.1

    def test_default_time_cap_is_m_plus_one(self):
        crn, _ = parse_crn("X -> Y ; k=1\nY -> Z ; k=1\n")
        res = constant_time_scan(
            crn, crn.config({"X": 8}), alpha=1.0, n_grid=[64], trials=20, seed=3
        )
        assert res.t_cap == 3.0  # m = 2

    @pytest.mark.parametrize("t_cap", [0.0, -1.0, math.nan, math.inf])
    def test_time_cap_must_be_finite_and_positive(self, t_cap, monkeypatch):
        # t_cap=0 censored every trial at time 0 and reported produced 0/n
        def no_events(*args, **kwargs):
            raise AssertionError("the time cap should have been refused before simulating")

        monkeypatch.setattr(kinetics, "_run_batch", no_events)
        crn, _ = parse_crn("X -> Y ; k=1\n")
        with pytest.raises(DomainError, match="t_cap must be finite and positive"):
            constant_time_scan(crn, crn.config({"X": 5}), 1.0, [10], 5, 0, t_cap=t_cap)

    @pytest.mark.parametrize("alpha", [None, "x", 0.0, 1.5, math.nan])
    def test_alpha_is_refused_before_simulating(self, alpha, monkeypatch):
        # None raised TypeError and "x" ValueError from float(alpha), before
        # any check of it
        def no_events(*args, **kwargs):
            raise AssertionError("alpha should have been refused before simulating")

        monkeypatch.setattr(kinetics, "_run_batch", no_events)
        crn, _ = parse_crn("X -> Y ; k=1\n")
        with pytest.raises(DomainError, match="alpha must"):
            constant_time_scan(crn, crn.config({"X": 5}), alpha, [10], 5, 0)

    def test_alpha_density_failure(self):
        crn, _ = parse_crn("A -> B\n")
        template = crn.config({"A": 99, "B": 1})  # B present but very thin
        with pytest.raises(DomainError, match="alpha-dense"):
            constant_time_scan(crn, template, alpha=0.3, n_grid=[100], trials=10, seed=4)

    def test_support_change_rejected(self):
        crn, _ = parse_crn("A -> B\n")
        template = crn.config({"A": 99, "B": 1})
        with pytest.raises(DomainError, match="support"):
            constant_time_scan(crn, template, alpha=0.001, n_grid=[3], trials=10, seed=5)

    def test_deterministic_and_thread_invariant(self):
        crn, _ = parse_crn("X -> Y ; k=1\n")
        init = crn.config({"X": 10})
        a = constant_time_scan(crn, init, 1.0, [50, 100], trials=60, seed=6)
        b = constant_time_scan(crn, init, 1.0, [50, 100], trials=60, seed=6, threads=3)
        assert a.to_dict() == b.to_dict()

    def test_csv_layout(self):
        crn, _ = parse_crn("X -> Y ; k=1\n")
        res = constant_time_scan(crn, crn.config({"X": 5}), 1.0, [20], trials=10, seed=7)
        buf = io.StringIO()
        write_csv(buf, res)
        header = buf.getvalue().splitlines()[0]
        assert header == "n,species,trials,produced_count,median,p90,mean_uncensored"
