"""Tail bounds and their Monte Carlo validation.

Three auxiliary processes back the production-time analysis: exponential
decay, a biased walk on the integers, and a reflecting walk whose pull
toward zero grows with its height. Each has a closed-form tail bound,
and one parameter class per bound checks a point once, evaluates its
bound in log2 space (``log2_bound()``) and counts tail draws
(``hits``); here we sample each process and check that a 99% upper
confidence limit on the empirical tail stays below the bound.
"""

from crnsim.bounds import (
    DecayBoundParams,
    PoissonBoundParams,
    ReflectingBoundParams,
    WalkBoundParams,
    monte_carlo_validate,
)
from crnsim.processes import (
    DecayParams,
    ReflectingParams,
    WalkParams,
    sample_decay_batch,
    sample_walk_reflecting_batch,
    sample_walk_z_batch,
)
from crnsim.streams import substream


def main():
    # the samplers on their own
    rng = substream(0)
    decay = sample_decay_batch(DecayParams(N=1000, lam=1.0, t=1.0), 5, rng)
    print("decay draws (N=1000, lam=1, t=1):", decay.tolist(), " — mean is n/e")
    walk = sample_walk_z_batch(WalkParams(f_hat=10.0, r_hat=2.0, t=3.0), 5, rng)
    print("biased-walk draws (drift (f-r)t = 24):", walk.tolist())
    value, peak = sample_walk_reflecting_batch(
        ReflectingParams(N=200, delta_f=0.5, lambda_r=1.0, t=1.0), 1, rng
    )
    print(f"reflecting walk: value {value[0]}, running max {peak[0]}")

    # closed-form bounds, log2 scale
    print("\nlog2 tail bounds:")
    bounds = [
        ("decay   Pr[D(1) < 0.1*100]   ", DecayBoundParams(N=100, lam=1, t=1, delta=0.1)),
        ("walk    Pr[U(1) < (1/3)*75]  ", WalkBoundParams(f_hat=100, r_hat=25, t=1, eps_hat=2 / 3)),
        ("reflect Pr[max W < 0.05*1000]",
         ReflectingBoundParams(delta_f=0.22, lambda_r=1, delta_r=0.05, N=1000)),
    ]
    for event, params in bounds:
        print(f"  {event}      < 2^{params.log2_bound():.2f}")

    # empirical dominance at 10^5 trials per point
    cases = [
        ("decay", DecayBoundParams(N=80, lam=1.0, t=0.5, delta=0.1)),
        ("poisson", PoissonBoundParams(lam=10.0, n=20.0, side="upper")),
        ("walk_z", WalkBoundParams(f_hat=100.0, r_hat=25.0, t=1.0, eps_hat=2 / 3)),
        ("reflecting", ReflectingBoundParams(delta_f=0.1, lambda_r=1.0, delta_r=0.025, N=1000)),
    ]
    print("\nMonte Carlo validation (100000 trials per point):")
    for target, params in cases:
        rep = monte_carlo_validate(target, params, trials=100_000, seed=11)
        print(
            f"  {target:10s} bound 2^{rep.log2_bound:7.2f}  "
            f"hits {rep.empirical_hits:4d}  99% upper {rep.upper_confidence:.2e}  "
            f"-> {rep.verdict}"
        )


if __name__ == "__main__":
    main()
