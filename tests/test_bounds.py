import hashlib
import json
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from crnsim.bounds import (
    DecayBoundParams,
    PoissonBoundParams,
    ReflectingBoundParams,
    WalkBoundParams,
    clopper_pearson_upper,
    compute_theorem_constants,
    monte_carlo_validate,
)
from crnsim.errors import DomainError, HypothesisViolationError
from crnsim.harness import chain_crn
from crnsim.model import parse_crn

from conftest import random_config, random_crn


class TestDecayBound:
    def test_worked_value(self):
        # (delta*N - 1) * log2(2*delta*e^(lam*t)) at N=100, lam=t=1, delta=0.1
        got = DecayBoundParams(100, 1.0, 1.0, 0.1).log2_bound()
        assert got == pytest.approx(9 * math.log2(0.2 * math.e), rel=1e-12)
        assert got == pytest.approx(-7.9130974859, rel=1e-9)

    def test_vacuous_when_base_exceeds_one(self):
        assert DecayBoundParams(100, 1.0, 1.0, 0.5).log2_bound() > 0

    def test_strictly_decreasing_in_n(self):
        vals = [DecayBoundParams(n, 1.0, 1.0, 0.1).log2_bound() for n in (50, 100, 200, 400)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            DecayBoundParams(0, 1.0, 1.0, 0.1).log2_bound()
        with pytest.raises(DomainError):
            DecayBoundParams(10, 1.0, 1.0, 1.0).log2_bound()


class TestPoissonBound:
    def test_worked_value_upper(self):
        # e^(-10) * (e/2)^20 in log2
        expect = (-10 + 20 * (1 - math.log(2.0))) / math.log(2.0)
        got = PoissonBoundParams(10.0, 20.0, "upper").log2_bound()
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(-5.5730495911, rel=1e-9)

    def test_degenerates_at_the_mean(self):
        for eps in (1e-3, 1e-6):
            assert abs(PoissonBoundParams(10.0, 10.0 * (1 + eps), "upper").log2_bound()) < 1e-3
            assert abs(PoissonBoundParams(10.0, 10.0 * (1 - eps), "lower").log2_bound()) < 1e-3

    def test_gamma_form_identity(self):
        # e^(-lam) (e lam/n)^n with n = gamma*lam equals (e^(1-1/gamma)/gamma)^(gamma*lam)
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = float(rng.uniform(0.5, 50.0))
            gamma = float(rng.uniform(1.05, 4.0))
            direct = PoissonBoundParams(lam, gamma * lam, "upper").log2_bound()
            gamma_form = gamma * lam * math.log2(math.exp(1 - 1 / gamma) / gamma)
            assert direct == pytest.approx(gamma_form, rel=1e-12, abs=1e-12)
            gamma = float(rng.uniform(0.2, 0.95))
            direct = PoissonBoundParams(lam, gamma * lam, "lower").log2_bound()
            gamma_form = gamma * lam * math.log2(math.exp(1 - 1 / gamma) / gamma)
            assert direct == pytest.approx(gamma_form, rel=1e-12, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            PoissonBoundParams(10.0, 5.0, "upper").log2_bound()
        with pytest.raises(DomainError):
            PoissonBoundParams(10.0, 15.0, "lower").log2_bound()
        with pytest.raises(DomainError):
            PoissonBoundParams(10.0, 15.0, "sideways").log2_bound()

    @pytest.mark.parametrize("side", [None, 3])
    def test_non_string_side_refused(self, side):
        # raised AttributeError from side.lower()
        with pytest.raises(DomainError, match=f"side must be 'upper' or 'lower', got {side}"):
            PoissonBoundParams(10.0, 14.0, side)


class TestWalkBound:
    def test_worked_values(self):
        assert WalkBoundParams(2.0, 1.0, 8.0, 1.0).log2_bound() == pytest.approx(
            1 - 0.5 * math.log2(math.e), rel=1e-12
        )
        assert WalkBoundParams(100.0, 25.0, 1.0, 2.0 / 3.0).log2_bound() == pytest.approx(
            -3.5084220028, rel=1e-9
        )

    def test_linear_in_t(self):
        base = WalkBoundParams(10.0, 5.0, 1.0, 0.5).log2_bound()
        scaled = WalkBoundParams(10.0, 5.0, 4.0, 0.5).log2_bound()
        assert scaled - 1 == pytest.approx(4 * (base - 1), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            WalkBoundParams(1.0, 2.0, 1.0, 0.5).log2_bound()


class TestReflectingBound:
    def test_worked_value(self):
        assert ReflectingBoundParams(0.22, 1.0, 0.05, 1000).log2_bound() == -9.0

    def test_vacuous_at_small_scale(self):
        assert ReflectingBoundParams(0.22, 1.0, 0.05, 100).log2_bound() == 0.0

    def test_hypothesis_violations_are_named(self):
        with pytest.raises(HypothesisViolationError, match="lambda_r"):
            ReflectingBoundParams(0.22, 0.5, 0.05, 1000).log2_bound()
        with pytest.raises(HypothesisViolationError, match="delta_r"):
            ReflectingBoundParams(0.22, 1.0, 0.06, 1000).log2_bound()
        with pytest.raises(HypothesisViolationError, match="6/delta_f"):
            ReflectingBoundParams(0.22, 1.0, 0.05, 20).log2_bound()

    @pytest.mark.parametrize("N", [1000.5, 1000.0, 0, math.inf, math.nan])
    def test_non_integer_N_is_refused(self, N):
        # N=1000.5 gave a bound of 2^-9.005, and the params class built with
        # N=500.5
        with pytest.raises(DomainError, match="N must be an integer"):
            ReflectingBoundParams(0.22, 1.0, 0.05, N)

    def test_numpy_integer_N_accepted(self):
        assert ReflectingBoundParams(0.22, 1.0, 0.05, np.int64(1000)).log2_bound() == -9.0
        assert ReflectingBoundParams(0.2, 1.0, 0.05, np.int64(500)).N == 500


@pytest.mark.parametrize(
    "cls, args",
    [
        (DecayBoundParams, (100, math.inf, 1.0, 0.1)),
        (DecayBoundParams, (100, 1.0, math.nan, 0.1)),
        (PoissonBoundParams, (math.inf, 3.0, "lower")),
        (PoissonBoundParams, (10.0, math.inf, "upper")),
        (WalkBoundParams, (2.0, 1.0, math.inf, 0.5)),
        (WalkBoundParams, (math.inf, 1.0, 1.0, 0.5)),
        (ReflectingBoundParams, (0.22, math.inf, 0.05, 1000)),
        (ReflectingBoundParams, (math.nan, 1.0, 0.05, 1000)),
    ],
    # each id names the log2 bound whose point is refused
    ids=[f"log_bound_{name}-args{i}" for i, name in enumerate(
        ["decay", "decay", "poisson", "poisson", "walk", "walk", "reflecting", "reflecting"])],
)
def test_non_finite_parameters_refused(cls, args):
    with pytest.raises(DomainError, match="must be finite"):
        cls(*args)


@pytest.mark.parametrize(
    "cls, args, target",
    [
        (WalkBoundParams, (1e300, 1.0, 1e300, 0.5), "walk_z"),  # raised OverflowError
        (WalkBoundParams, (1e300, 1.0, 1e300, 1e-200), "walk_z"),  # 0 * inf: nan
        (DecayBoundParams, (10**9, 1e300, 1e300, 0.5), "decay"),
        (PoissonBoundParams, (1e300, 1.7e308, "upper"), "poisson"),
        (ReflectingBoundParams, (1e300, 1.0, 0.5, 10**9), "reflecting"),
    ],
    ids=["walk-overflow", "walk-nan", "decay", "poisson", "reflecting"],
)
def test_bound_outside_the_float_range_refused(cls, args, target):
    # finite fields whose log2 bound is inf, -inf or nan, which JSON cannot write
    with pytest.raises(DomainError, match=f"the {target} bound leaves the float range"):
        cls(*args)


class TestPrecision:
    def test_evaluators_stable_at_higher_precision(self):
        # recompute with 80-bit mantissas; float64 results agree to 1e-9
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        mp.prec = 80
        rng = np.random.default_rng(11)
        for _ in range(50):
            N = int(rng.integers(10, 5000))
            lam = float(rng.uniform(0.1, 3.0))
            t = float(rng.uniform(0.1, 3.0))
            delta = float(rng.uniform(0.01, 0.45))
            got = DecayBoundParams(N, lam, t, delta).log2_bound()
            hp = float(
                (mpmath.mpf(delta) * N - 1)
                * mpmath.log(2 * mpmath.mpf(delta) * mpmath.e ** (mpmath.mpf(lam) * t), 2)
            )
            assert got == pytest.approx(hp, rel=1e-9, abs=1e-9)

            gamma = float(rng.uniform(1.1, 5.0))
            got = PoissonBoundParams(lam * 10, gamma * lam * 10, "upper").log2_bound()
            lam_mp = mpmath.mpf(lam) * 10
            n_mp = gamma * lam_mp
            hp = float(mpmath.log(mpmath.e ** (-lam_mp) * (mpmath.e * lam_mp / n_mp) ** n_mp, 2))
            assert got == pytest.approx(hp, rel=1e-9, abs=1e-9)

            f = float(rng.uniform(2.0, 100.0))
            r = f * float(rng.uniform(0.1, 0.9))
            eps = float(rng.uniform(0.1, 1.5))
            got = WalkBoundParams(f, r, t, eps).log2_bound()
            hp = float(
                1
                - mpmath.log(mpmath.e, 2)
                * (mpmath.mpf(eps) ** 2 * (mpmath.mpf(f) - r) ** 2 * t / (8 * mpmath.mpf(f)))
            )
            assert got == pytest.approx(hp, rel=1e-9, abs=1e-9)


class TestTheoremConstants:
    def test_chain_worst_case(self):
        crn = chain_crn(3)
        init = crn.config({"X1": 1000})
        tc = compute_theorem_constants(crn, init, alpha=1.0, c_hat=1.0)
        # 2m = 6 unit-rate reactions
        assert tc.K_hat == 6.0
        assert tc.k_hat == 1.0
        assert tc.c_hat == 1.0
        assert tc.lam == 6.0
        assert tc.m == 3 == crn.n_species - 1
        assert tc.t == 4.0
        assert tc.log2_c == pytest.approx(2 + 24 * math.log2(math.e), rel=1e-12)
        assert len(tc.log2_delta) == 4
        assert tc.log2_delta[0] == pytest.approx(-tc.log2_c, rel=1e-12)  # alpha = 1

    def test_m_zero_network(self):
        crn, _ = parse_crn("X -> 0 ; k=2\n")
        tc = compute_theorem_constants(crn, crn.config({"X": 5}), alpha=1.0, c_hat=1.0)
        assert tc.m == 0
        assert tc.t == 1.0
        assert len(tc.log2_delta) == 1

    def test_c_hat_adjusted_up_for_small_rates(self):
        crn, _ = parse_crn("X -> Y ; k=0.25\n")
        tc = compute_theorem_constants(crn, crn.config({"X": 5}), alpha=0.5, c_hat=1.0)
        # lam = c_hat*K_hat must be >= 1, so c_hat rises to 1/K_hat = 4
        assert tc.c_hat == 4.0
        assert tc.lam == 1.0

    def test_c_hat_derived_from_classification(self):
        crn, _ = parse_crn("L + L -> L + N\n")
        tc = compute_theorem_constants(crn, crn.config({"L": 10}), alpha=1.0)
        assert tc.c_hat_input == 1.0

    def test_unknown_classification_requires_c_hat(self):
        crn, _ = parse_crn("X -> 2X\n")
        with pytest.raises(DomainError, match="c_hat"):
            compute_theorem_constants(crn, crn.config({"X": 3}), alpha=1.0)

    @pytest.mark.parametrize(
        "alpha, message",
        [
            (True, "alpha must be a real number, got True"),
            ("0.5", "alpha must be a real number, got '0.5'"),
            (math.nan, "alpha must be finite, got nan"),
            (1.5, "alpha must lie in (0, 1]"),
        ],
        ids=["bool", "str", "nan", "above-one"],
    )
    def test_alpha_is_checked_as_is_alpha_dense_checks_it(self, alpha, message):
        # True ran as alpha = 1.0 and "0.5" ended in a TypeError
        crn, _ = parse_crn("L + L -> L + N\n")
        with pytest.raises(DomainError) as info:
            compute_theorem_constants(crn, crn.config({"L": 10}), alpha)
        assert str(info.value) == message

    def test_missing_init_is_an_error(self):
        crn, _ = parse_crn("X -> Y\n")
        with pytest.raises(DomainError, match="initial configuration"):
            compute_theorem_constants(crn, None, alpha=1.0, c_hat=1.0)

    def test_ladder_recurrence_is_exact_in_log_space(self):
        crn = chain_crn(3)
        tc = compute_theorem_constants(crn, crn.config({"X1": 8}), alpha=0.75, c_hat=1.0)
        step = math.log2(tc.k_hat) - (4.0 + math.log2(tc.lam) + tc.log2_c)
        for i in range(tc.m):
            assert tc.log2_delta[i + 1] == 2.0 * tc.log2_delta[i] + step

    def test_floor_and_thresholds(self):
        crn = chain_crn(2)
        tc = compute_theorem_constants(crn, crn.config({"X1": 4}), alpha=0.5, c_hat=1.0)
        assert tc.log2_delta[tc.m] >= tc.log2_delta_m_lower
        assert tc.log2_epsilon == tc.log2_epsilon_prime - 1.0
        assert len(tc.n_thresholds) == tc.m + 2
        assert all(v > 0 for _, v in tc.n_thresholds)  # log2(n) thresholds
        assert len(tc.warnings) == 2

    def test_random_networks_satisfy_floor_inequality(self, rng):
        for trial in range(60):
            crn = random_crn(rng, max_species=5, max_reactions=6)
            init = random_config(rng, crn)
            tc = compute_theorem_constants(crn, init, alpha=0.5, c_hat=1.25)
            base = (
                math.log2(tc.alpha)
                + math.log2(tc.k_hat)
                - (4.0 + math.log2(tc.lam) + 2.0 * tc.log2_c)
            )
            for i, l2d in enumerate(tc.log2_delta):
                assert l2d > (2.0**i) * base


    @pytest.mark.parametrize(
        "text",
        [
            # 2^1022 times the floor's negative base leaves the float range,
            # and 2^1029 overflows on its own
            "species: " + " ".join(f"S{i}" for i in range(1023)) + "\nS0 -> S1\n",
            "species: " + " ".join(f"S{i}" for i in range(1030)) + "\nS0 -> S1\n",
            "X -> Y ; k=1e308\nY -> X ; k=1e308\n",  # the rate sum overflows
        ],
        ids=["1023-species", "1030-species", "rate-sum"],
    )
    def test_constants_beyond_the_float_range_refused(self, text):
        # the first printed -Infinity, the other two died with an OverflowError
        crn, _ = parse_crn(text)
        init = crn.config({crn.species.names[0]: 10})
        with pytest.raises(DomainError, match="leave the float range"):
            compute_theorem_constants(crn, init, alpha=0.5, c_hat=1.0)


class TestMonteCarlo:
    def test_vacuous_decay_bound_dominates(self):
        rep = monte_carlo_validate(
            "decay", DecayBoundParams(200, 1.0, 1.0, 0.25), trials=10_000, seed=1
        )
        assert rep.vacuous
        assert rep.verdict == "dominates"
        assert rep.log2_bound == pytest.approx(49 * math.log2(0.5 * math.e), rel=1e-12)

    def test_unresolvable_bound_is_inconclusive(self):
        rep = monte_carlo_validate(
            "decay", DecayBoundParams(2000, 1.0, 1.0, 0.05), trials=10_000, seed=1
        )
        assert rep.verdict == "inconclusive"
        assert 2.0**rep.log2_bound < 10 / rep.trials

    def test_walk_bound_dominates(self):
        rep = monte_carlo_validate(
            "walk_z", WalkBoundParams(100.0, 25.0, 1.0, 2.0 / 3.0), trials=20_000, seed=2
        )
        assert rep.verdict == "dominates"
        assert rep.upper_confidence <= 2.0**rep.log2_bound

    @pytest.mark.parametrize(
        "target, params, rate",
        [
            ("walk_z", WalkBoundParams(1e10, 1.0, 1e10, 0.5), "f_hat\\*t"),
            ("poisson", PoissonBoundParams(1e19, 2e19, "upper"), "lam"),
        ],
        ids=["walk_z", "poisson"],
    )
    def test_rate_beyond_the_poisson_sampler_refused(self, target, params, rate):
        # the bound is finite, but numpy cannot draw a Poisson mean above 9.2e18
        with pytest.raises(DomainError, match=f"Poisson rate {rate} = .* exceeds"):
            monte_carlo_validate(target, params, trials=10_000, threads=2)

    def test_poisson_empirical_rate_matches_exact_tail(self):
        lam, n = 10.0, 14
        rep = monte_carlo_validate(
            "poisson", PoissonBoundParams(lam, n, "upper"), trials=50_000, seed=3
        )
        exact = 1.0 - scipy_stats.poisson.cdf(n - 1, lam)
        se = math.sqrt(exact * (1 - exact) / rep.trials)
        assert abs(rep.empirical_rate - exact) < 4 * se
        assert rep.verdict == "dominates"

    def test_reflecting_dominates(self):
        rep = monte_carlo_validate(
            "reflecting",
            ReflectingBoundParams(0.2, 1.0, 0.05, 500),
            trials=10_000,
            seed=4,
        )
        assert rep.verdict == "dominates"

    def test_thread_count_does_not_change_hits(self):
        params = PoissonBoundParams(10.0, 14, "upper")
        a = monte_carlo_validate("poisson", params, trials=30_000, seed=5, threads=1)
        b = monte_carlo_validate("poisson", params, trials=30_000, seed=5, threads=4)
        assert a.empirical_hits == b.empirical_hits
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize(
        "target,params,digest",
        [
            ("decay", DecayBoundParams(80, 1.0, 0.5, 0.5), "6ff4d67597b9c42a"),
            ("poisson", PoissonBoundParams(10.0, 14.0, "upper"), "ce6956c537bd6158"),
            ("walk_z", WalkBoundParams(10.0, 5.0, 1.0, 0.5), "6b0a90c3a6b1e277"),
            ("reflecting", ReflectingBoundParams(0.1, 1.0, 0.025, 100), "d65adcc2f48b9c89"),
        ],
        ids=["decay", "poisson", "walk_z", "reflecting"],
    )
    def test_report_matches_pinned_digest(self, target, params, digest):
        # sha256 prefixes of the whole report; every point has tail hits, so
        # a change in the draws, the chunk layout or the parameters the
        # sampler reads shows. The decay pin was taken when the sampler
        # moved from the N-event chain to one binomial draw per sample:
        # the same law from fewer random numbers
        rep = monte_carlo_validate(target, params, trials=10_000, seed=6101)
        blob = json.dumps(rep.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "target, numpy_params, python_params",
        [
            ("decay", lambda: DecayBoundParams(np.int64(80), 1.0, 0.5, 0.5),
             lambda: DecayBoundParams(80, 1.0, 0.5, 0.5)),
            ("poisson", lambda: PoissonBoundParams(10.0, np.int64(14), "upper"),
             lambda: PoissonBoundParams(10.0, 14, "upper")),
            ("walk_z", lambda: WalkBoundParams(np.float32(10.0), 5.0, 1.0, np.float64(0.5)),
             lambda: WalkBoundParams(10.0, 5.0, 1.0, 0.5)),
            ("reflecting", lambda: ReflectingBoundParams(0.2, 1.0, 0.05, np.int64(500)),
             lambda: ReflectingBoundParams(0.2, 1.0, 0.05, 500)),
        ],
        ids=["decay", "poisson", "walk_z", "reflecting"],
    )
    def test_report_from_numpy_scalars_is_json(self, target, numpy_params, python_params):
        # json.dumps raised "Object of type int64 is not JSON serializable"
        a = monte_carlo_validate(target, numpy_params(), trials=np.int64(10_000), seed=7)
        b = monte_carlo_validate(target, python_params(), trials=10_000, seed=7)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_fields_are_stored_as_python_numbers(self):
        assert type(DecayBoundParams(np.int64(80), 1.0, 0.5, 0.5).N) is int
        assert type(ReflectingBoundParams(0.2, 1.0, 0.05, np.int64(500)).N) is int
        p = PoissonBoundParams(np.float32(10.0), 14, "UPPER")
        assert (type(p.lam), type(p.n), p.side) == (float, int, "upper")

    def test_trial_floor_enforced(self):
        with pytest.raises(DomainError):
            monte_carlo_validate("poisson", PoissonBoundParams(10.0, 14, "upper"), trials=100)

    @pytest.mark.parametrize("trials", [2.5, 100_000.0, math.nan, math.inf])
    def test_non_integer_trials_refused(self, trials):
        # a float trials count raised a TypeError inside the chunk layout
        with pytest.raises(DomainError, match="trials must be an integer"):
            monte_carlo_validate("poisson", PoissonBoundParams(10.0, 14, "upper"), trials=trials)

    def test_numpy_integer_trials_accepted(self):
        rep = monte_carlo_validate(
            "poisson", PoissonBoundParams(10.0, 14, "upper"), trials=np.int64(10_000), seed=1
        )
        assert rep.trials == 10_000

    @pytest.mark.parametrize(
        "target,make",
        [
            ("decay", lambda: DecayBoundParams(2.5, 1.0, 1.0, 0.5)),
            ("decay", lambda: DecayBoundParams(100.0, 1.0, 1.0, 0.5)),
            ("decay", lambda: DecayBoundParams(True, 1.0, 1.0, 0.5)),
            ("reflecting", lambda: ReflectingBoundParams(0.2, 1.0, 0.05, 500.0)),
        ],
        ids=["decay-2.5", "decay-100.0", "decay-True", "reflecting-500.0"],
    )
    def test_non_integer_N_is_refused(self, target, make):
        # the decay sampler raised a TypeError on a float N, and True built
        # a decay of one unit
        with pytest.raises(DomainError, match="N must be an integer"):
            monte_carlo_validate(target, make(), trials=10_000)

    def test_hypothesis_violations_propagate(self):
        with pytest.raises(HypothesisViolationError):
            monte_carlo_validate(
                "reflecting", ReflectingBoundParams(0.2, 1.0, 0.06, 500), trials=10_000
            )

    def test_unknown_target(self):
        with pytest.raises(DomainError):
            monte_carlo_validate("brownian", None, trials=10_000)

    @pytest.mark.parametrize("target", [3, None, ["decay"], b"decay"])
    def test_target_that_is_not_a_string_is_unknown(self, target):
        # 3, None and a list raised AttributeError from target.lower()
        with pytest.raises(DomainError, match="unknown target"):
            monte_carlo_validate(target, DecayBoundParams(66, 1.0, 0.5, 0.05), trials=10_000)

    def test_params_must_match_target(self):
        with pytest.raises(DomainError, match="WalkBoundParams"):
            monte_carlo_validate("walk_z", PoissonBoundParams(10.0, 14, "upper"), trials=10_000)


def test_clopper_pearson_known_values():
    # zero successes: upper limit is 1 - 0.01^(1/n)
    n = 1000
    assert clopper_pearson_upper(0, n) == pytest.approx(1 - 0.01 ** (1 / n), rel=1e-9)
    assert clopper_pearson_upper(n, n) == 1.0
    assert 0.5 < clopper_pearson_upper(500, 1000) < 0.55


@pytest.mark.parametrize(
    "hits,trials",
    [(-1, 100), (101, 100), (3.5, 100), (True, 10), (0, 0), (5, 100.0)],
    ids=["negative", "above-trials", "float-hits", "bool-hits", "no-trials", "float-trials"],
)
def test_clopper_pearson_refuses_invalid_counts(hits, trials):
    # these returned nan, 1.0, 0.104 and 0.504 instead of raising
    with pytest.raises(DomainError):
        clopper_pearson_upper(hits, trials)


@pytest.mark.parametrize("n", [10**4, 10**5 + 1, 10**6, 10**9])
def test_clopper_pearson_equals_scipy_stats_beta_ppf(n):
    # The pinned bounds reports (test_report_matches_pinned_digest and
    # test_cli.py's TestPinnedReports::test_bounds_text_and_json) hold only
    # while this equality does: the limit comes from scipy.special, and the
    # reports were pinned when it came from scipy.stats.beta.ppf.
    rng = np.random.default_rng(22)
    grid = [*range(200), *range(n - 200, n), *(int(h) for h in rng.integers(0, n, 200))]
    for h in grid:
        assert clopper_pearson_upper(h, n) == float(scipy_stats.beta.ppf(0.99, h + 1, n - h)), h
