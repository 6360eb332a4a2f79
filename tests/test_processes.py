import hashlib
import math

import numpy as np
import pytest

from crnsim.errors import DomainError
from crnsim.kinetics import StopCondition, simulate
from crnsim.model import parse_crn
from crnsim.processes import (
    POISSON_RATE_MAX,
    DecayParams,
    ReflectingParams,
    WalkParams,
    sample_decay_batch,
    sample_walk_reflecting_batch,
    sample_walk_z_batch,
)
from crnsim.streams import substream


def decay_event_chain(p: DecayParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Reference decay sampler in O(size*N): the i-th decay waits an
    exponential time with rate lam*(N-i+1), and the value at t is N minus
    the number of decays whose cumulative time fits inside t."""
    rates = p.lam * np.arange(p.N, 0, -1, dtype=np.float64)
    waits = rng.exponential(1.0, size=(size, p.N)) / rates
    return p.N - (np.cumsum(waits, axis=1) <= p.t).sum(axis=1)


def two_sample_z(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """z statistics for equal means and equal variances of two samples.

    The variance statistic uses the large-sample variance of a sample
    variance, (m4 - s^4)/n, with m4 the fourth central moment.
    """

    def var_of_var(x):
        s2 = x.var(ddof=1)
        return (((x - x.mean()) ** 4).mean() - s2**2) / x.size

    z_mean = (a.mean() - b.mean()) / math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    z_var = (a.var(ddof=1) - b.var(ddof=1)) / math.sqrt(var_of_var(a) + var_of_var(b))
    return float(z_mean), float(z_var)


def reflecting_gather_scatter(p: ReflectingParams, size: int, rng, stop_at=None):
    """Reference reflecting sweep over full-size arrays indexed by the ids
    of the active draws; it takes the same random draws in the same order
    as the compacted sampler, so the two agree bit for bit."""
    fwd = p.delta_f * p.N
    state = np.zeros(size, dtype=np.int64)
    vmax = np.zeros(size, dtype=np.int64)
    tnow = np.zeros(size)
    idx = np.arange(size)
    while idx.size:
        rates = fwd + p.lambda_r * state[idx]
        tnext = tnow[idx] + rng.exponential(1.0, idx.size) / rates
        alive = tnext <= p.t
        live = idx[alive]
        if live.size == 0:
            break
        tnow[live] = tnext[alive]
        state[live] += np.where(rng.random(live.size) * rates[alive] < fwd, 1, -1)
        vmax[live] = np.maximum(vmax[live], state[live])
        if stop_at is not None:
            live = live[state[live] < stop_at]
        idx = live
    return state, vmax


class TestDecay:
    def test_N_beyond_int64_refused(self):
        vals = sample_decay_batch(DecayParams(2**63 - 1, 1.0, 50.0), 3, substream(4))
        assert vals.tolist() == [0, 0, 0]
        with pytest.raises(DomainError, match=f"N must be at most {2**63 - 1}, got {2**63}"):
            DecayParams(2**63, 1.0, 1.0)

    def test_fast_decay_empties(self):
        vals = sample_decay_batch(DecayParams(100, 50.0, 1.0), 500, substream(0))
        assert vals.max() == 0

    def test_binomial_law_mean(self):
        N, trials = 1000, 10_000
        vals = sample_decay_batch(DecayParams(N, 1.0, 1.0), trials, substream(1))
        p = math.exp(-1.0)
        se = math.sqrt(N * p * (1 - p) / trials)
        assert abs(vals.mean() - N * p) < 4 * se

    def test_tiny_horizon_keeps_initial_value(self):
        assert sample_decay_batch(DecayParams(10, 1.0, 1e-9), 1, substream(2)).tolist() == [10]

    def test_values_in_range(self):
        vals = sample_decay_batch(DecayParams(50, 0.5, 2.0), 2000, substream(3))
        assert vals.min() >= 0 and vals.max() <= 50

    def test_agrees_with_kinetics_on_pure_death(self):
        # cross-module oracle: the decay sampler and the simulator's
        # unimolecular X -> 0 are the same process (volume is irrelevant
        # for first-order kinetics, so pick an arbitrary one)
        N, lam, trials = 1000, 1.0, 1500
        crn, _ = parse_crn("X -> 0 ; k=1\n")
        init = crn.config({"X": N})
        sim_vals = np.array(
            [
                simulate(crn, init, StopCondition(t_max=1.0), seed=s, volume=123.0).terminal[0]
                for s in range(trials)
            ],
            dtype=float,
        )
        proc_vals = sample_decay_batch(DecayParams(N, lam, 1.0), trials, substream(5)).astype(float)
        pooled_se = math.sqrt(sim_vals.var(ddof=1) / trials + proc_vals.var(ddof=1) / trials)
        assert abs(sim_vals.mean() - proc_vals.mean()) < 4 * pooled_se
        var_ref = N * math.exp(-1) * (1 - math.exp(-1))
        assert abs(proc_vals.var(ddof=1) - var_ref) / var_ref < 0.15
        assert abs(sim_vals.var(ddof=1) - var_ref) / var_ref < 0.15

    @pytest.mark.parametrize(
        "N,lam,t,draws",
        [(200, 1.0, 0.7, 20_000), (50, 2.0, 0.3, 20_000), (1000, 0.5, 3.0, 5_000)],
    )
    def test_matches_event_chain(self, N, lam, t, draws):
        # the binomial draw and the N-event chain are the same law; with
        # 3 points x 2 statistics, |z| <= 4 fails a correct sampler with
        # probability about 4e-4
        p = DecayParams(N, lam, t)
        fast = sample_decay_batch(p, draws, substream(31, N)).astype(float)
        chain = decay_event_chain(p, draws, substream(32, N)).astype(float)
        z_mean, z_var = two_sample_z(fast, chain)
        assert abs(z_mean) <= 4 and abs(z_var) <= 4

    def test_cost_is_independent_of_N(self):
        # the event chain would need a 1000 x 10^9 array of waiting times
        N, draws = 10**9, 1000
        vals = sample_decay_batch(DecayParams(N, 1.0, 1.0), draws, substream(6))
        p = math.exp(-1.0)
        sd = math.sqrt(N * p * (1 - p))
        assert vals.dtype == np.int64 and vals.shape == (draws,)
        assert np.all(np.abs(vals - N * p) < 6 * sd)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            DecayParams(0, 1.0, 1.0)
        with pytest.raises(DomainError):
            DecayParams(5, -1.0, 1.0)
        # a non-integer N reached the decay sampler, which raised a TypeError
        for N in (2.5, 100.0):
            with pytest.raises(DomainError, match="N must be an integer"):
                DecayParams(N, 1.0, 1.0)
            with pytest.raises(DomainError, match="N must be an integer"):
                ReflectingParams(N, 0.5, 1.0, 1.0)
        assert DecayParams(np.int64(5), 1.0, 1.0).N == 5


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: DecayParams(x, 1.0, 1.0),
        lambda x: DecayParams(10, x, 1.0),
        lambda x: DecayParams(10, 1.0, x),
        lambda x: WalkParams(x, 0.5, 1.0),
        lambda x: WalkParams(1.0, x, 1.0),
        lambda x: WalkParams(1.0, 0.5, x),
        lambda x: ReflectingParams(x, 0.5, 1.0, 1.0),
        lambda x: ReflectingParams(10, x, 1.0, 1.0),
        lambda x: ReflectingParams(10, 0.5, x, 1.0),
        lambda x: ReflectingParams(10, 0.5, 1.0, x),
    ],
)
def test_non_finite_params_rejected(make, bad):
    # an infinite horizon would keep the reflecting sampler drawing forever
    with pytest.raises(DomainError):
        make(bad)


class TestWalkZ:
    def test_symmetric_walk_centers_at_zero(self):
        vals = sample_walk_z_batch(WalkParams(5.0, 5.0, 2.0), 10_000, substream(0))
        se = math.sqrt(2 * 5.0 * 2.0 / 10_000)
        assert abs(vals.mean()) < 4 * se

    def test_mean_and_variance(self):
        f, r, t, draws = 10.0, 2.0, 3.0, 20_000
        vals = sample_walk_z_batch(WalkParams(f, r, t), draws, substream(1))
        mean_se = math.sqrt((f + r) * t / draws)
        assert abs(vals.mean() - (f - r) * t) < 4 * mean_se
        assert abs(vals.var(ddof=1) - (f + r) * t) / ((f + r) * t) < 0.1

    def test_mean_variance_grid(self):
        for i, (f, r, t) in enumerate([(3.0, 1.0, 1.0), (50.0, 10.0, 0.5), (2.0, 1.5, 8.0)]):
            vals = sample_walk_z_batch(WalkParams(f, r, t), 20_000, substream(100 + i))
            mean_se = math.sqrt((f + r) * t / 20_000)
            assert abs(vals.mean() - (f - r) * t) < 5 * mean_se
            assert abs(vals.var(ddof=1) - (f + r) * t) / ((f + r) * t) < 0.1

    def test_tiny_horizon_stays_put(self):
        vals = sample_walk_z_batch(WalkParams(3.0, 1.0, 1e-9), 1000, substream(2))
        assert np.all(vals == 0)

    def test_single_draw(self):
        vals = sample_walk_z_batch(WalkParams(1.0, 1.0, 1.0), 1, substream(3))
        assert vals.shape == (1,) and isinstance(vals.tolist()[0], int)

    def test_rate_limit_is_numpys(self):
        # the largest mean numpy's Poisson sampler takes, and the next float
        rng = substream(4)
        assert rng.poisson(POISSON_RATE_MAX, 1).shape == (1,)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(POISSON_RATE_MAX, math.inf), 1)

    @pytest.mark.parametrize("f, r", [(1e10, 1.0), (1.0, 1e10)], ids=["forward", "reverse"])
    def test_rate_beyond_the_sampler_refused_before_any_draw(self, f, r):
        rng = substream(5)
        before = rng.bit_generator.state
        with pytest.raises(DomainError, match="exceeds the sampler's limit of 9.22337e"):
            sample_walk_z_batch(WalkParams(f, r, 1e10), 10, rng)
        assert rng.bit_generator.state == before


class TestReflecting:
    def test_strong_pullback_keeps_low(self):
        v, m = sample_walk_reflecting_batch(
            ReflectingParams(1, 1.0, 1e6, 1.0), 500, substream(0)
        )
        assert m.max() <= 1

    def test_stationary_mean(self):
        # birth-death with constant birth rate b and death rate j has
        # Poisson(b) stationary law; t = 10 relaxation times suffices
        p = ReflectingParams(1000, 1.0, 1.0, 10.0)
        v, _ = sample_walk_reflecting_batch(p, 400, substream(1))
        assert abs(v.mean() - 1000.0) / 1000.0 < 0.05

    def test_tiny_horizon(self):
        v, m = sample_walk_reflecting_batch(ReflectingParams(10, 0.5, 1.0, 1e-9), 1, substream(2))
        assert (v.tolist(), m.tolist()) == ([0], [0])

    def test_running_max_dominates_value(self, rng):
        for i in range(10):
            p = ReflectingParams(
                int(rng.integers(1, 200)),
                float(rng.uniform(0.05, 2.0)),
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.1, 2.0)),
            )
            v, m = sample_walk_reflecting_batch(p, 200, substream(1000 + i))
            assert np.all(v >= 0)
            assert np.all(m >= v)


class TestReflectingStopped:
    def test_unstopped_draws_match_pinned_digest(self):
        # digest of the sampler before stop_at existed: stop_at=None keeps
        # the loop and its random draws
        h = hashlib.sha256()
        points = [ReflectingParams(200, 0.1, 1.0, 1.0), ReflectingParams(50, 0.5, 2.0, 3.0)]
        for i, p in enumerate(points):
            v, m = sample_walk_reflecting_batch(p, 1000, substream(7, i), stop_at=None)
            h.update(v.astype("<i8").tobytes())
            h.update(m.astype("<i8").tobytes())
        assert h.hexdigest()[:16] == "098320bcd03cacf3"

    def test_stopped_draws_match_pinned_digest(self):
        # two chunks per point; at both levels some draws stop at the level
        # and the rest pass the horizon first, so retirement on either
        # ground and the order of the exponential and uniform draws all show
        h = hashlib.sha256()
        points = [
            (ReflectingParams(200, 0.1, 1.0, 1.0), 12),
            (ReflectingParams(50, 0.5, 2.0, 3.0), 18),
        ]
        for i, (p, level) in enumerate(points):
            for c in range(2):
                v, m = sample_walk_reflecting_batch(p, 1000, substream(8, i, c), stop_at=level)
                assert 0 < (m == level).mean() < 1
                h.update(v.astype("<i8").tobytes())
                h.update(m.astype("<i8").tobytes())
        assert h.hexdigest()[:16] == "d865681e2536b298"

    def test_tail_frequency_matches_full_paths(self):
        # Pr[max < 12] is about 0.27 here, so both estimates are sharp
        p, thr, draws = ReflectingParams(200, 0.1, 1.0, 1.0), 12, 200_000
        _, full = sample_walk_reflecting_batch(p, draws, substream(21))
        _, stopped = sample_walk_reflecting_batch(p, draws, substream(22), stop_at=thr)
        a, b = (full < thr).mean(), (stopped < thr).mean()
        pooled = (a + b) / 2
        z = (a - b) / math.sqrt(pooled * (1 - pooled) * 2 / draws)
        assert 0.2 < pooled < 0.35
        assert abs(z) <= 5

    def test_stopped_draws_end_at_the_level(self, rng):
        for i in range(10):
            p = ReflectingParams(
                int(rng.integers(1, 200)),
                float(rng.uniform(0.05, 2.0)),
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.1, 2.0)),
            )
            level = int(rng.integers(1, 30))
            v, m = sample_walk_reflecting_batch(p, 200, substream(2000 + i), stop_at=level)
            assert np.all(m <= level)
            assert np.all(v >= 0) and np.all(m >= v)
            assert np.all(v[m == level] == level)

    def test_matches_gather_scatter_reference(self, rng):
        for i in range(12):
            p = ReflectingParams(
                int(rng.integers(1, 300)),
                float(rng.uniform(0.05, 2.0)),
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.1, 2.0)),
            )
            level = None if i % 3 == 0 else int(rng.integers(1, 40))
            got = sample_walk_reflecting_batch(p, 700, substream(3000 + i), stop_at=level)
            want = reflecting_gather_scatter(p, 700, substream(3000 + i), stop_at=level)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("level", [0, -3, 0.5, 2.5, math.inf, math.nan])
    def test_bad_level_rejected(self, level):
        with pytest.raises(DomainError):
            sample_walk_reflecting_batch(
                ReflectingParams(10, 0.5, 1.0, 1.0), 10, substream(0), stop_at=level
            )


class TestDeterminism:
    def test_same_seed_same_draws(self):
        for fn, params in [
            (sample_decay_batch, DecayParams(100, 1.0, 1.0)),
            (sample_walk_z_batch, WalkParams(4.0, 1.0, 2.0)),
        ]:
            a = fn(params, 50, substream(9))
            b = fn(params, 50, substream(9))
            assert np.array_equal(a, b)
        pa = ReflectingParams(50, 0.5, 1.0, 1.0)
        va, ma = sample_walk_reflecting_batch(pa, 50, substream(9))
        vb, mb = sample_walk_reflecting_batch(pa, 50, substream(9))
        assert np.array_equal(va, vb) and np.array_equal(ma, mb)

