"""Closed-form tail bounds, the staged-production constant calculus, and
Monte Carlo dominance validation.

Evaluators return base-2 logarithms of probability bounds:

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
frequency stays below the analytic bound. ``TARGETS`` is the one table of
validatable bounds: each entry holds the parameter dataclass, the log2
evaluator and the tail hit counter, and the CLI builds its ``bounds``
subcommands from it. The decay and walk parameter classes extend the
``processes`` ones by the tail threshold alone, so their counters hand
them to the sampler as they are. Counters sample only what decides the
tail event: a reflecting draw stops at the first passage of its running
maximum to the level ceil(delta_r*N), after which ``max W < delta_r*N``
is settled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

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


def log_bound_decay(N: int, lam: float, t: float, delta: float) -> float:
    """log2 of the decay tail bound (2*delta*e^(lam*t))^(delta*N - 1)."""
    processes.DecayParams(N, lam, t)
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    log2_base = 1.0 + math.log2(delta) + lam * t * LOG2_E
    return (delta * N - 1.0) * log2_base


def log_bound_poisson(lam: float, n: float, side: str) -> float:
    """log2 of e^(-lam) * (e*lam/n)^n.

    ``side`` is "upper" for the right tail Pr[P(lam) >= n] (needs n > lam)
    or "lower" for the left tail Pr[P(lam) <= n] (needs 0 < n < lam).
    """
    _check_finite(lam=lam, n=n)
    if not lam > 0:
        raise DomainError("lam must be positive")
    side = side.lower()
    if side == "upper":
        if not n > lam:
            raise DomainError("upper tail requires n > lam")
    elif side == "lower":
        if not 0 < n < lam:
            raise DomainError("lower tail requires 0 < n < lam")
    else:
        raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
    return (-lam + n * (1.0 + math.log(lam) - math.log(n))) * LOG2_E


def log_bound_walk(f_hat: float, r_hat: float, t: float, eps_hat: float) -> float:
    """log2 of 2*exp(-eps_hat^2 * (f_hat-r_hat)^2 * t / (8*f_hat))."""
    processes.WalkParams(f_hat, r_hat, t)
    if not f_hat > r_hat:
        raise DomainError("requires f_hat > r_hat > 0")
    if not 0 < eps_hat < math.inf:
        raise DomainError(f"eps_hat must be finite and positive, got {eps_hat}")
    exponent = eps_hat**2 * (f_hat - r_hat) ** 2 * t / (8.0 * f_hat)
    return 1.0 - LOG2_E * exponent


def log_bound_reflecting(delta_f: float, lambda_r: float, delta_r: float, N: int) -> float:
    """log2 of 2^(-delta_f*N/22 + 1) after checking the lemma hypotheses."""
    _check_finite(delta_f=delta_f, lambda_r=lambda_r, delta_r=delta_r)
    check_integer(N, "N")
    if not lambda_r >= 1:
        raise HypothesisViolationError(f"requires lambda_r >= 1, got {lambda_r}")
    if not (delta_f > 0 and delta_r > 0):
        raise DomainError("delta_f and delta_r must be positive")
    if not delta_r <= delta_f / (4.0 * lambda_r):
        raise HypothesisViolationError(
            f"requires delta_r <= delta_f/(4*lambda_r) = {delta_f / (4 * lambda_r)}, got {delta_r}"
        )
    if not N >= 6.0 / delta_f:
        raise HypothesisViolationError(f"requires N >= 6/delta_f = {6.0 / delta_f}, got {N}")
    return -delta_f * N / 22.0 + 1.0


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
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d = {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}
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
    c_hat_input = c_hat
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

    K_hat = math.fsum(rx.rate_constant for rx in crn.reactions)
    k_hat = min(rx.rate_constant for rx in crn.reactions)
    c_hat_adj = max(c_hat, 1.0, 1.0 / K_hat)
    lam = c_hat_adj * K_hat

    stages = stage_decomposition(crn, init)
    m = stages.m
    size = crn.n_species

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


@dataclass(frozen=True)
class DecayBoundParams(processes.DecayParams):
    delta: float


@dataclass(frozen=True)
class PoissonBoundParams:
    lam: float
    n: float
    side: str = field(metadata={"choices": ("upper", "lower")})


@dataclass(frozen=True)
class WalkBoundParams(processes.WalkParams):
    eps_hat: float


@dataclass(frozen=True)
class ReflectingBoundParams:
    delta_f: float
    lambda_r: float
    delta_r: float
    N: int

    def __post_init__(self):
        check_integer(self.N, "N")


def clopper_pearson_upper(hits: int, trials: int) -> float:
    """One-sided exact 99% upper confidence limit on a binomial proportion."""
    if hits >= trials:
        return 1.0
    # imported here: scipy.stats takes about a second to import, and only
    # validation needs it
    from scipy.stats import beta

    return float(beta.ppf(0.99, hits + 1, trials - hits))


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
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["empirical_rate"] = self.empirical_rate
        return d


def _decay_hits(params: DecayBoundParams, rng: np.random.Generator, size: int) -> int:
    vals = processes.sample_decay_batch(params, size, rng)
    return int((vals < params.delta * params.N).sum())


def _poisson_hits(params: PoissonBoundParams, rng: np.random.Generator, size: int) -> int:
    vals = rng.poisson(params.lam, size)
    tail = vals >= params.n if params.side.lower() == "upper" else vals <= params.n
    return int(tail.sum())


def _walk_z_hits(params: WalkBoundParams, rng: np.random.Generator, size: int) -> int:
    thr = (1.0 - params.eps_hat) * (params.f_hat - params.r_hat) * params.t
    vals = processes.sample_walk_z_batch(params, size, rng)
    return int((vals < thr).sum())


def _reflecting_hits(params: ReflectingBoundParams, rng: np.random.Generator, size: int) -> int:
    # the reflecting bound is stated for the unit horizon. The running max
    # is an integer, so it stays below thr exactly when the walk never
    # reaches ceil(thr); a draw that gets there is out of the tail and stops.
    proc = processes.ReflectingParams(params.N, params.delta_f, params.lambda_r, 1.0)
    thr = params.delta_r * params.N
    _, vmax = processes.sample_walk_reflecting_batch(proc, size, rng, stop_at=math.ceil(thr))
    return int((vmax < thr).sum())


@dataclass(frozen=True)
class BoundTarget:
    """One validatable bound.

    ``command`` names the CLI subcommand; ``params`` is the parameter
    dataclass, whose field names are also the keyword arguments of the
    ``log2_bound`` evaluator; ``hits(params, rng, size)`` draws ``size``
    samples of the process and counts those in the bounded tail.
    """

    command: str
    params: type
    log2_bound: Callable[..., float]
    hits: Callable[..., int]


TARGETS: dict[str, BoundTarget] = {
    "decay": BoundTarget("decay", DecayBoundParams, log_bound_decay, _decay_hits),
    "poisson": BoundTarget("poisson", PoissonBoundParams, log_bound_poisson, _poisson_hits),
    "walk_z": BoundTarget("walk", WalkBoundParams, log_bound_walk, _walk_z_hits),
    "reflecting": BoundTarget(
        "reflecting", ReflectingBoundParams, log_bound_reflecting, _reflecting_hits
    ),
}


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
    check_integer(trials, "trials", 10_000)
    target = target.lower()
    entry = TARGETS.get(target)
    if entry is None:
        raise DomainError(f"unknown target {target!r}; expected one of {', '.join(TARGETS)}")
    if not isinstance(params, entry.params):
        raise DomainError(
            f"target {target!r} takes {entry.params.__name__}, got {type(params).__name__}"
        )
    values = {f.name: getattr(params, f.name) for f in fields(params)}
    log2_bound = entry.log2_bound(**values)

    hits = int(sum(map_chunks(partial(entry.hits, params), trials, _CHUNK, seed, threads=threads)))
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
        params=values,
        log2_bound=log2_bound,
        empirical_hits=hits,
        trials=trials,
        upper_confidence=upper,
        verdict=verdict,
        vacuous=vacuous,
    )
