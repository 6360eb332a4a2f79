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
``size`` draws; ``size=1`` gives one draw, and a ``size`` that is not an
integer of at least 0 raises ``DomainError``. Every draw is exact: decay and
the integer walk draw their value from its exact law (binomial survivors,
a difference of Poisson event counts) in O(size), and only the reflecting
walk is simulated event by event, since its running maximum needs the
path. Its sweep makes few passes over its arrays: the rates, waits and
selection products are computed in place, numpy's ``standard_exponential``
fill loop draws the waits (bit for bit what ``exponential(1.0, m)``
draws), a step of +-1 is the sign of one float subtraction, and retiring
draws leave the compacted arrays through one index and a ``take`` per
array. The reflecting sampler can also stop each draw at the first
passage to a level, which is all a tail event on the running maximum
needs to know; since a state rises by at most 1 per sweep, the level is
not tested before the sweep that could first reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, check_integer, check_real

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


_FIELD_CHECKS = {"int": check_integer, "float": check_real}


def check_fields(params) -> None:
    """Store each ``int`` field of ``params`` (its annotation, a string here)
    through ``check_integer`` and each ``float`` one through ``check_real``."""
    for f in fields(params):
        if check := _FIELD_CHECKS.get(f.type):
            object.__setattr__(params, f.name, check(getattr(params, f.name), f.name))


@dataclass(frozen=True)
class DecayParams:
    """Integer initial value N below 2^63, decay constant lam, horizon t (all
    positive and finite)."""

    N: int
    lam: float
    t: float

    def __post_init__(self):
        check_fields(self)
        if self.N > _INT64_MAX:  # numpy's binomial sampler takes N as a C long
            raise DomainError(f"N must be at most {_INT64_MAX}, got {self.N}")


@dataclass(frozen=True)
class WalkParams:
    """Forward rate f_hat, reverse rate r_hat, horizon t (all positive and finite)."""

    f_hat: float
    r_hat: float
    t: float

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class ReflectingParams:
    """Integer scale N, forward coefficient delta_f, reverse coefficient lambda_r,
    horizon t (all positive and finite)."""

    N: int
    delta_f: float
    lambda_r: float
    t: float

    def __post_init__(self):
        check_fields(self)


def sample_decay_batch(p: DecayParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Values of the decay process at time t for ``size`` independent draws.

    Each of the N units survives to t on its own with probability
    exp(-lam*t), so the value is Binomial(N, exp(-lam*t)); one exact
    binomial draw per sample replaces the N-event chain, in O(size).
    """
    size = check_integer(size, "size", 0)
    return rng.binomial(p.N, math.exp(-p.lam * p.t), size).astype(np.int64)


def sample_walk_z_batch(p: WalkParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Walk values at time t: forward events minus reverse events.

    Both rates are state-independent, so the counts of forward and
    reverse events over [0, t] are independent Poisson variables with
    means f_hat*t and r_hat*t; the walk value is their difference. A mean
    above ``POISSON_RATE_MAX`` raises ``DomainError``.
    """
    size = check_integer(size, "size", 0)
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
    draw that passes the horizon writes its results once and leaves them,
    and the rest are gathered with one ``np.flatnonzero`` index and a
    ``take`` per array. Each sweep computes its rates, waits and selection
    products in place, with the IEEE operations of ``fwd + lambda_r *
    state``, ``standard_exponential / rate`` and ``uniform * rate``. States
    are held as floats, which hold these small integers exactly, and a
    draw steps up exactly when ``uniform * rate < fwd``: the step is the
    negated sign of ``uniform * rate - fwd``, which is +0.0 only on
    equality.

    With an integer level ``stop_at >= 1``, a draw also retires in the
    sweep where its state first reaches that level, so both results are
    those of the walk stopped at min(t, first passage): a stopped draw
    reads ``stop_at`` for value and running max (the outputs start at that
    value, so a stopped draw writes nothing), and every draw has running
    max at most ``stop_at``. The state rises by at most 1 per sweep, so
    the level is tested only from sweep ``stop_at`` on. Whether
    the running max over [0, t] stays below the level is unchanged in
    law; the draws consume less randomness, so individual values differ
    from an unstopped call. With ``stop_at=None`` every draw runs to the
    horizon. A level that is not an integer of at least 1 (a bool or an
    integral float included) raises ``DomainError``.
    """
    size = check_integer(size, "size", 0)
    if stop_at is not None:
        stop_at = check_integer(stop_at, "stop_at", 1)
    fwd, lr, horizon = p.delta_f * p.N, p.lambda_r, p.t
    # every draw either passes the horizon, and writes its results then, or
    # stops at the level, whose results are stop_at: those need no write
    fill = 0 if stop_at is None else stop_at
    state = np.full(size, fill, dtype=np.int64)
    vmax = np.full(size, fill, dtype=np.int64)
    ids = np.arange(size)
    # small integers, held exactly as floats: the rate needs no conversion
    cur = np.zeros(size)
    top = np.zeros(size)
    tnow = np.zeros(size)
    # a state rises by at most 1 per sweep, so none reaches the level before sweep stop_at
    test_from = _INT64_MAX if stop_at is None else stop_at
    sweep = 0
    while ids.size:
        rates = cur * lr
        rates += fwd
        wait = rng.standard_exponential(ids.size)
        wait /= rates
        tnow += wait
        late = tnow > horizon
        if late.any():
            gone = np.flatnonzero(late)
            out = ids[gone]
            state[out] = cur[gone]
            vmax[out] = top[gone]
            if gone.size == ids.size:
                break
            keep = np.flatnonzero(~late)
            ids, cur, top, tnow, rates = (
                ids.take(keep), cur.take(keep), top.take(keep), tnow.take(keep), rates.take(keep)
            )
        # a draw steps up when uniform * rate < fwd, else down. The
        # difference of two unequal doubles is never zero, and that of two
        # equal ones is +0.0, so copysign(1, uniform * rate - fwd) is -1
        # for a step up and +1 for a step down, exactly
        u = rng.random(ids.size)
        u *= rates
        u -= fwd
        np.copysign(1.0, u, out=u)
        cur -= u
        np.maximum(top, cur, out=top)
        sweep += 1
        if sweep >= test_from:
            hit = cur >= stop_at
            if hit.any():
                keep = np.flatnonzero(~hit)
                ids, cur, top, tnow = ids.take(keep), cur.take(keep), top.take(keep), tnow.take(keep)
    return state, vmax
