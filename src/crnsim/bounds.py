"""Closed-form tail bounds, the staged-production constant calculus, and
Monte Carlo dominance validation.

Each target's ``log2_bound()`` is the base-2 log of its probability bound:

* decay:       Pr[D(t) < delta*N]           < (2*delta*e^(lam*t))^(delta*N-1)
* poisson:     Pr[P(lam) >=/<= n]           <= e^(-lam) * (e*lam/n)^n
* walk:        Pr[U(t) < (1-eps)(f-r)t]     < 2*exp(-eps^2 (f-r)^2 t / (8f))
* reflecting:  Pr[max W over [0,1] < dr*N]  < 2^(-df*N/22 + 1)

``compute_theorem_constants`` chains these into the constants governing
staged production from a dense initial configuration. The delta ladder it
produces is doubly exponentially small in the species count, so every
delta/epsilon value is carried in log2 space; the plain values would
underflow any float almost immediately.

``monte_carlo_validate`` samples the matching process and checks that a
99% Clopper-Pearson upper confidence limit on the empirical tail
frequency stays below the analytic bound. The limit is a beta quantile
from ``scipy.special``: run-time code imports ``scipy.special`` only,
and scipy's ``stats`` subpackage is for tests. ``TARGETS`` is the one
table of validatable bounds, and the CLI builds its ``bounds``
subcommands from it. It maps each target name to its parameter
dataclass, which checks its point once, evaluates the bound
(``log2_bound()``) and counts the draws in the tail
(``hits(rng, size)``). The decay and walk classes extend the
``processes`` ones by the tail threshold alone, so they are handed to the
sampler as they are. Counters sample only what decides the tail event: a
reflecting draw stops at the first passage of its running maximum to the
level ceil(delta_r*N), after which ``max W < delta_r*N`` is settled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import processes
from .analysis import finite_density_status, stage_decomposition
from .errors import DomainError, HypothesisViolationError, check_integer
from .model import Configuration, Crn
from .parallel import map_chunks

LOG2_E = math.log2(math.e)

# draws per substream chunk in Monte Carlo validation; fixed so that
# results are independent of thread count
_CHUNK = 8192


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _check_bound(params, target: str) -> None:
    """Refuse a point whose ``log2_bound()`` is not finite: JSON cannot write it."""
    if not math.isfinite(params.log2_bound()):
        raise DomainError(f"the {target} bound leaves the float range at this point")


@dataclass(frozen=True)
class DecayBoundParams(processes.DecayParams):
    """Pr[D(t) < delta*N], with delta in (0, 1)."""

    delta: float

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.delta < 1:
            raise DomainError("delta must lie in (0, 1)")
        _check_bound(self, "decay")

    def log2_bound(self) -> float:
        """log2 of (2*delta*e^(lam*t))^(delta*N - 1)."""
        log2_base = 1.0 + math.log2(self.delta) + self.lam * self.t * LOG2_E
        return (self.delta * self.N - 1.0) * log2_base

    def hits(self, rng: np.random.Generator, size: int) -> int:
        vals = processes.sample_decay_batch(self, size, rng)
        return int((vals < self.delta * self.N).sum())


@dataclass(frozen=True)
class PoissonBoundParams:
    """Pr[P(lam) >= n] (``side`` "upper", needs n > lam) or Pr[P(lam) <= n]
    (``side`` "lower", needs 0 < n < lam); ``side`` is stored lower-case."""

    lam: float
    n: float
    side: str = field(metadata={"choices": ("upper", "lower")})

    def __post_init__(self):
        processes.python_numbers(self)
        _check_finite(lam=self.lam, n=self.n)
        if not self.lam > 0:
            raise DomainError("lam must be positive")
        side = self.side.lower() if isinstance(self.side, str) else self.side
        if side not in ("upper", "lower"):
            raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
        object.__setattr__(self, "side", side)
        if self.side == "upper" and not self.n > self.lam:
            raise DomainError("upper tail requires n > lam")
        if self.side == "lower" and not 0 < self.n < self.lam:
            raise DomainError("lower tail requires 0 < n < lam")
        _check_bound(self, "poisson")

    def log2_bound(self) -> float:
        """log2 of e^(-lam) * (e*lam/n)^n."""
        return (-self.lam + self.n * (1.0 + math.log(self.lam) - math.log(self.n))) * LOG2_E

    def hits(self, rng: np.random.Generator, size: int) -> int:
        processes.check_poisson_rate(self.lam, "lam")
        vals = rng.poisson(self.lam, size)
        tail = vals >= self.n if self.side == "upper" else vals <= self.n
        return int(tail.sum())


@dataclass(frozen=True)
class WalkBoundParams(processes.WalkParams):
    """Pr[U(t) < (1-eps_hat)(f_hat-r_hat)t], with f_hat > r_hat and eps_hat > 0."""

    eps_hat: float

    def __post_init__(self):
        super().__post_init__()
        if not self.f_hat > self.r_hat:
            raise DomainError("requires f_hat > r_hat > 0")
        if not 0 < self.eps_hat < math.inf:
            raise DomainError(f"eps_hat must be finite and positive, got {self.eps_hat}")
        _check_bound(self, "walk_z")

    def log2_bound(self) -> float:
        """log2 of 2*exp(-eps_hat^2 * (f_hat-r_hat)^2 * t / (8*f_hat))."""
        # products, not **, which raises OverflowError where a product reaches inf
        eps, gap = self.eps_hat, self.f_hat - self.r_hat
        exponent = (eps * eps) * (gap * gap) * self.t / (8.0 * self.f_hat)
        return 1.0 - LOG2_E * exponent

    def hits(self, rng: np.random.Generator, size: int) -> int:
        thr = (1.0 - self.eps_hat) * (self.f_hat - self.r_hat) * self.t
        vals = processes.sample_walk_z_batch(self, size, rng)
        return int((vals < thr).sum())


@dataclass(frozen=True)
class ReflectingBoundParams:
    """Pr[max W over [0,1] < delta_r*N], under the lemma's hypotheses."""

    delta_f: float
    lambda_r: float
    delta_r: float
    N: int

    def __post_init__(self):
        processes.python_numbers(self)
        _check_finite(delta_f=self.delta_f, lambda_r=self.lambda_r, delta_r=self.delta_r)
        object.__setattr__(self, "N", check_integer(self.N, "N"))
        delta_f, lambda_r, delta_r, N = self.delta_f, self.lambda_r, self.delta_r, self.N
        if not lambda_r >= 1:
            raise HypothesisViolationError(f"requires lambda_r >= 1, got {lambda_r}")
        if not (delta_f > 0 and delta_r > 0):
            raise DomainError("delta_f and delta_r must be positive")
        if not delta_r <= delta_f / (4.0 * lambda_r):
            raise HypothesisViolationError(
                f"requires delta_r <= delta_f/(4*lambda_r) = {delta_f / (4 * lambda_r)}, "
                f"got {delta_r}"
            )
        if not N >= 6.0 / delta_f:
            raise HypothesisViolationError(f"requires N >= 6/delta_f = {6.0 / delta_f}, got {N}")
        _check_bound(self, "reflecting")

    def log2_bound(self) -> float:
        """log2 of 2^(-delta_f*N/22 + 1)."""
        return -self.delta_f * self.N / 22.0 + 1.0

    def hits(self, rng: np.random.Generator, size: int) -> int:
        # the reflecting bound is stated for the unit horizon. The running max
        # is an integer, so it stays below thr exactly when the walk never
        # reaches ceil(thr); a draw that gets there is out of the tail and stops.
        proc = processes.ReflectingParams(self.N, self.delta_f, self.lambda_r, 1.0)
        thr = self.delta_r * self.N
        _, vmax = processes.sample_walk_reflecting_batch(proc, size, rng, stop_at=math.ceil(thr))
        return int((vmax < thr).sum())


TARGETS: dict[str, type] = {
    "decay": DecayBoundParams,
    "poisson": PoissonBoundParams,
    "walk_z": WalkBoundParams,
    "reflecting": ReflectingBoundParams,
}


# ---------------------------------------------------------------------------
# Constant calculus


@dataclass(frozen=True)
class TheoremConstants:
    """Constants of the staged-production guarantee for one network.

    With K_hat the sum and k_hat the minimum of the rate constants,
    lam = c_hat*K_hat bounds per-unit consumption rates, and
    c = 4*e^(lam*(m+1)) converts decay horizons into survival fractions.
    The ladder starts at delta_0 = alpha/c and contracts through
    delta_{i+1} = k_hat*delta_i^2/(16*lam*c), one rung per stage; stage i
    keeps every stage-i species above delta_i * n for the whole horizon
    t = m+1. The guarantee holds with probability 1 - 2^(-epsilon*n) once
    n clears every threshold in ``n_thresholds``.
    """

    alpha: float
    c_hat_input: float
    c_hat: float
    K_hat: float
    k_hat: float
    lam: float
    m: int
    n_species: int
    log2_c: float
    log2_delta: tuple[float, ...]
    log2_delta_m_lower: float
    log2_epsilon_prime: float
    log2_epsilon: float
    t: float
    n_thresholds: tuple[tuple[str, float], ...]  # (description, log2 of min n)
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        """Every field by name, tuples as lists; ``lam`` is keyed "lambda"."""
        d = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        d["lambda"] = d.pop("lam")
        d["n_thresholds"] = [
            {"description": desc, "log2_n_min": v} for desc, v in self.n_thresholds
        ]
        return d


def compute_theorem_constants(
    crn: Crn,
    init: Configuration,
    alpha: float,
    c_hat: float | None = None,
) -> TheoremConstants:
    """Evaluate the full constant chain for ``crn`` started from the
    support of ``init``.

    ``c_hat`` bounds per-species counts by c_hat*n; when omitted it is
    taken from the finite-density classification (1 for population
    protocols, the certificate ratio for mass-conserving networks) and it
    is an error if neither applies. Whatever the input, c_hat is adjusted
    up to max(c_hat, 1, 1/K_hat) so that lam >= 1 as the reflecting-walk
    bound requires.
    """
    if not crn.reactions:
        raise DomainError("the network must contain at least one reaction")
    if not 0 < alpha <= 1:
        raise DomainError("alpha must lie in (0, 1]")
    if init is None:
        raise DomainError(
            "an initial configuration support is required to determine the stages"
        )
    if c_hat is None:
        status = finite_density_status(crn)
        if status.c_hat is None:
            raise DomainError(
                "count growth is unclassified for this network; pass c_hat explicitly"
            )
        c_hat = float(status.c_hat)
    c_hat_input = c_hat
    if not 0 < c_hat < math.inf:
        raise DomainError("c_hat must be positive and finite")

    m = stage_decomposition(crn, init).m
    size = crn.n_species
    out_of_range = f"the theorem constants leave the float range for this network ({size} species)"

    try:  # math.fsum and the powers of two raise where the other steps reach inf
        K_hat = math.fsum(rx.rate_constant for rx in crn.reactions)
        k_hat = min(rx.rate_constant for rx in crn.reactions)
        c_hat_adj = max(c_hat, 1.0, 1.0 / K_hat)
        lam = c_hat_adj * K_hat

        log2_c = 2.0 + lam * (m + 1) * LOG2_E
        # ladder: log2 delta_{i+1} = 2*log2 delta_i + log2(k_hat/(16*lam*c))
        step_term = math.log2(k_hat) - (4.0 + math.log2(lam) + log2_c)
        ladder = [math.log2(alpha) - log2_c]
        for _ in range(m):
            ladder.append(2.0 * ladder[-1] + step_term)

        # closed-form floor: (alpha*k_hat/(16*lam*c^2))^(2^(size-1))
        log2_base = math.log2(alpha) + math.log2(k_hat) - (4.0 + math.log2(lam) + 2.0 * log2_c)
        log2_delta_m_lower = (2.0 ** (size - 1)) * log2_base

        # epsilon' = (k_hat/88) * (alpha*k_hat / (256*lam*e^(2*lam*size)))^(2^size)
        log2_inner = (
            math.log2(alpha)
            + math.log2(k_hat)
            - (8.0 + math.log2(lam) + 2.0 * lam * size * LOG2_E)
        )
        log2_epsilon_prime = math.log2(k_hat) - math.log2(88.0) + (2.0**size) * log2_inner
    except OverflowError:
        raise DomainError(out_of_range) from None
    log2_epsilon = log2_epsilon_prime - 1.0

    thresholds = [
        (f"stage {i}: n >= 2/delta_{i}^2", 1.0 - 2.0 * l2d)
        for i, l2d in enumerate(ladder)
    ]
    thresholds.append(
        (
            "union bound: n >= (2 + 2*log2(n_species))/epsilon_prime",
            math.log2(2.0 + 2.0 * math.log2(size)) - log2_epsilon_prime,
        )
    )
    # finite thresholds imply a finite ladder, epsilon' and lambda
    if not all(math.isfinite(v) for v in [log2_delta_m_lower, *(v for _, v in thresholds)]):
        raise DomainError(out_of_range)
    warnings = (
        "the source derivation also states a large-n threshold equal to the "
        "delta_m floor itself, a quantity below 1 and therefore vacuous; its "
        f"reciprocal reading would be log2(n) >= {-log2_delta_m_lower}",
        "the second decay-bound application in the source derivation carries "
        "an extra lam factor in its threshold; the ladder here follows the "
        "definition delta_{i+1} = delta_r / c",
    )

    return TheoremConstants(
        alpha=float(alpha),
        c_hat_input=float(c_hat_input),
        c_hat=float(c_hat_adj),
        K_hat=K_hat,
        k_hat=k_hat,
        lam=lam,
        m=m,
        n_species=size,
        log2_c=log2_c,
        log2_delta=tuple(ladder),
        log2_delta_m_lower=log2_delta_m_lower,
        log2_epsilon_prime=log2_epsilon_prime,
        log2_epsilon=log2_epsilon,
        t=float(m + 1),
        n_thresholds=tuple(thresholds),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Monte Carlo dominance validation


def clopper_pearson_upper(hits: int, trials: int) -> float:
    """One-sided exact 99% upper confidence limit on a binomial proportion:
    the 0.99 quantile of Beta(hits + 1, trials - hits), or 1 when every
    trial hit. ``trials`` must be an integer of at least 1 and ``hits`` an
    integer in [0, trials]; anything else raises ``DomainError``."""
    trials = check_integer(trials, "trials")
    hits = check_integer(hits, "hits", 0)
    if hits > trials:
        raise DomainError(f"hits must be at most trials = {trials}, got {hits}")
    if hits == trials:
        return 1.0
    # run-time code imports scipy.special only, and only here, where
    # validation needs it; scipy's stats subpackage, which costs about
    # 0.75 s and 46 MB more, is for tests. betaincinv is the Boost inverse
    # incomplete beta that stats.beta.ppf calls, so the two agree bit for bit
    from scipy.special import betaincinv

    return float(betaincinv(hits + 1, trials - hits, 0.99))


@dataclass(frozen=True)
class BoundReport:
    """Analytic bound vs empirical tail frequency for one parameter point.

    ``verdict`` is "inconclusive" when the analytic bound sits below the
    Monte Carlo resolution 10/trials, otherwise "dominates" when the 99%
    upper confidence limit on the tail probability is at most the bound
    and "violated" when it exceeds it. A bound of 1 or more is flagged
    ``vacuous`` (it dominates trivially).
    """

    target: str
    params: dict
    log2_bound: float
    empirical_hits: int
    trials: int
    upper_confidence: float
    verdict: str
    vacuous: bool

    @property
    def empirical_rate(self) -> float:
        return self.empirical_hits / self.trials

    def to_dict(self) -> dict:
        """Every field by name, plus ``empirical_rate``."""
        return {**asdict(self), "empirical_rate": self.empirical_rate}


def monte_carlo_validate(
    target: str,
    params,
    trials: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> BoundReport:
    """Estimate the tail probability a bound constrains and compare.

    Draws ``trials`` samples of the target process through
    ``parallel.map_chunks`` in chunks of ``_CHUNK``, chunk c from
    ``substream(seed, c)``, so thread count cannot change the result;
    counts tail events exactly as the bound states them, and classifies
    the outcome per :class:`BoundReport`.
    """
    trials = check_integer(trials, "trials", 10_000)
    target = target.lower()
    cls = TARGETS.get(target)
    if cls is None:
        raise DomainError(f"unknown target {target!r}; expected one of {', '.join(TARGETS)}")
    if not isinstance(params, cls):
        raise DomainError(f"target {target!r} takes {cls.__name__}, got {type(params).__name__}")
    log2_bound = params.log2_bound()

    hits = int(sum(map_chunks(params.hits, trials, _CHUNK, seed, threads=threads)))
    upper = clopper_pearson_upper(hits, trials)
    vacuous = log2_bound >= 0.0
    bound_prob = 2.0**log2_bound if log2_bound < 1024 else math.inf
    if bound_prob < 10.0 / trials:
        verdict = "inconclusive"
    elif upper <= bound_prob:
        verdict = "dominates"
    else:
        verdict = "violated"
    return BoundReport(
        target=target,
        params=asdict(params),
        log2_bound=log2_bound,
        empirical_hits=hits,
        trials=trials,
        upper_confidence=upper,
        verdict=verdict,
        vacuous=vacuous,
    )
