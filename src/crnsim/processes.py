"""Batch samplers for three continuous-time Markov processes.

* ``sample_decay_batch``: pure-death chain from N where the j-th surviving
  unit count decays at total rate lam*j; equivalently, each unit survives
  to time t independently with probability exp(-lam*t).
* ``sample_walk_z_batch``: biased walk on the integers with constant
  forward rate f_hat and reverse rate r_hat; its value at t is the
  difference of two independent Poisson event counts.
* ``sample_walk_reflecting_batch``: walk on the nonnegative integers from
  0 with constant forward rate delta_f*N and reverse rate lambda_r*j out of
  state j, tracked together with its running maximum.

Each sampler is called as ``(params, size, rng)`` and vectorizes across
``size`` draws; ``size=1`` gives one draw. Every draw is exact: decay and
the integer walk draw their value from its exact law (binomial survivors,
a difference of Poisson event counts) in O(size), and only the reflecting
walk is simulated event by event, since its running maximum needs the
path. The reflecting sampler can also stop each draw at the first passage
to a level, which is all a tail event on the running maximum needs to
know.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, check_integer

_INT64_MAX = int(np.iinfo(np.int64).max)
# numpy's Poisson sampler refuses a mean above the int64 maximum less ten
# of its square roots, since draws must fit an int64
POISSON_RATE_MAX = float(_INT64_MAX) - math.sqrt(_INT64_MAX) * 10


def check_poisson_rate(rate: float, name: str) -> None:
    """Refuse a Poisson mean that numpy's sampler cannot draw from, before any draw."""
    if rate > POISSON_RATE_MAX:
        raise DomainError(
            f"the Poisson rate {name} = {rate:.6g} exceeds the sampler's limit of "
            f"{POISSON_RATE_MAX:.6g}"
        )


def python_numbers(params) -> None:
    """Store each numpy scalar field of ``params`` as its ``.item()``, which JSON can write."""
    for f in fields(params):
        if isinstance(value := getattr(params, f.name), np.generic):
            object.__setattr__(params, f.name, value.item())


@dataclass(frozen=True)
class DecayParams:
    """Integer initial value N below 2^63, decay constant lam, horizon t (all
    positive and finite)."""

    N: int
    lam: float
    t: float

    def __post_init__(self):
        python_numbers(self)
        object.__setattr__(self, "N", check_integer(self.N, "N"))
        if self.N > _INT64_MAX:  # numpy's binomial sampler takes N as a C long
            raise DomainError(f"N must be at most {_INT64_MAX}, got {self.N}")
        if not all(0 < x < math.inf for x in (self.lam, self.t)):
            raise DomainError("lam and t must be finite and positive")


@dataclass(frozen=True)
class WalkParams:
    """Forward rate f_hat, reverse rate r_hat, horizon t (all positive and finite)."""

    f_hat: float
    r_hat: float
    t: float

    def __post_init__(self):
        python_numbers(self)
        if not all(0 < x < math.inf for x in (self.f_hat, self.r_hat, self.t)):
            raise DomainError("f_hat, r_hat and t must be finite and positive")


@dataclass(frozen=True)
class ReflectingParams:
    """Integer scale N, forward coefficient delta_f, reverse coefficient lambda_r,
    horizon t (all positive and finite)."""

    N: int
    delta_f: float
    lambda_r: float
    t: float

    def __post_init__(self):
        python_numbers(self)
        object.__setattr__(self, "N", check_integer(self.N, "N"))
        if not all(0 < x < math.inf for x in (self.delta_f, self.lambda_r, self.t)):
            raise DomainError("delta_f, lambda_r and t must be finite and positive")


def sample_decay_batch(p: DecayParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Values of the decay process at time t for ``size`` independent draws.

    Each of the N units survives to t on its own with probability
    exp(-lam*t), so the value is Binomial(N, exp(-lam*t)); one exact
    binomial draw per sample replaces the N-event chain, in O(size).
    """
    return rng.binomial(p.N, math.exp(-p.lam * p.t), size).astype(np.int64)


def sample_walk_z_batch(p: WalkParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Walk values at time t: forward events minus reverse events.

    Both rates are state-independent, so the counts of forward and
    reverse events over [0, t] are independent Poisson variables with
    means f_hat*t and r_hat*t; the walk value is their difference. A mean
    above ``POISSON_RATE_MAX`` raises ``DomainError``.
    """
    check_poisson_rate(p.f_hat * p.t, "f_hat*t")
    check_poisson_rate(p.r_hat * p.t, "r_hat*t")
    fwd = rng.poisson(p.f_hat * p.t, size).astype(np.int64)
    rev = rng.poisson(p.r_hat * p.t, size).astype(np.int64)
    return fwd - rev


def sample_walk_reflecting_batch(
    p: ReflectingParams, size: int, rng: np.random.Generator, stop_at: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(value at t, running max over [0, t]) for ``size`` draws.

    Event-driven in lockstep: every active draw advances one event per
    sweep; a draw retires once its next event would land past the
    horizon, freezing its value. From state 0 the reverse rate is zero,
    so the selection uniform (strictly below 1) always steps forward and
    the barrier needs no special casing. The sweep works on compacted
    arrays of the active draws (output id, state, running max, time): a
    retiring draw writes its results once and leaves them.

    With an integer level ``stop_at >= 1``, a draw also retires in the
    sweep where its state first reaches that level, so both results are
    those of the walk stopped at min(t, first passage): a stopped draw
    reads ``stop_at`` for value and running max, and every draw has
    running max at most ``stop_at``. Whether the running max over [0, t]
    stays below the level is unchanged in law; the draws consume less
    randomness, so individual values differ from an unstopped call. With
    ``stop_at=None`` every draw runs to the horizon.
    """
    if stop_at is not None and not (stop_at >= 1 and float(stop_at).is_integer()):
        raise DomainError(f"stop_at must be an integer level >= 1, got {stop_at}")
    fwd = p.delta_f * p.N
    state = np.zeros(size, dtype=np.int64)
    vmax = np.zeros(size, dtype=np.int64)
    ids = np.arange(size)
    cur = np.zeros(size, dtype=np.int64)
    top = np.zeros(size, dtype=np.int64)
    tnow = np.zeros(size)
    while ids.size:
        rates = fwd + p.lambda_r * cur
        tnow += rng.exponential(1.0, ids.size) / rates
        done = tnow > p.t
        if done.any():
            state[ids[done]] = cur[done]
            vmax[ids[done]] = top[done]
            keep = ~done
            ids, cur, top, tnow, rates = ids[keep], cur[keep], top[keep], tnow[keep], rates[keep]
            if not ids.size:
                break
        cur += np.where(rng.random(ids.size) * rates < fwd, 1, -1)
        np.maximum(top, cur, out=top)
        if stop_at is not None:
            done = cur >= stop_at
            if done.any():
                state[ids[done]] = stop_at
                vmax[ids[done]] = stop_at
                keep = ~done
                ids, cur, top, tnow = ids[keep], cur[keep], top[keep], tnow[keep]
    return state, vmax
