"""Prebuilt experiments over growing population sizes.

Three scenarios:

* leader election via L + L -> L + N from n candidates, timed against the
  closed form 2(n-1) for the expected time to a single leader;
* the doubling chain (X_i decays, X_i + X_i -> X_{i+1}) where each extra
  stage makes the final species dramatically harder to produce at small n;
* a generic scan measuring, for every species the stage closure adds over
  the initial support, how its first-production time behaves as the
  initial configuration is scaled up. Bounded (non-increasing) medians
  are the signature of constant-time production.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .analysis import check_alpha, is_alpha_dense, stage_decomposition
from .errors import DomainError, check_integer, check_real
from .kinetics import (
    FirstProductionStats,
    StopCondition,
    csv_time,
    first_production_times,
    json_time,
    run_trials,
)
from .model import Configuration, Crn, parse_crn, support


def leader_election_crn() -> Crn:
    """The one-reaction network L + L -> L + N with unit rate."""
    crn, _ = parse_crn("L + L -> L + N ; k=1\n")
    return crn


def chain_crn(m: int) -> Crn:
    """The 2m-reaction doubling chain over species X1..X(m+1).

    Every X_i for i <= m decays (X_i -> 0) and merges (X_i + X_i ->
    X_{i+1}), all at unit rate, so reaching X_{m+1} needs 2^m initial
    copies to survive the decays.
    """
    check_integer(m, "m")
    lines = [f"species: {' '.join(f'X{i}' for i in range(1, m + 2))}"]
    lines += [f"X{i} -> 0 ; k=1" for i in range(1, m + 1)]
    lines += [f"X{i} + X{i} -> X{i + 1} ; k=1" for i in range(1, m + 1)]
    crn, _ = parse_crn("\n".join(lines) + "\n")
    return crn


@dataclass
class LeaderElectionResult:
    """Per-trial times to reach a single leader, plus summary statistics."""

    n: int
    seed: int
    times: np.ndarray

    @property
    def trials(self) -> int:
        return self.times.size

    @property
    def analytic_mean(self) -> float:
        return 2.0 * (self.n - 1)

    @property
    def mean(self) -> float:
        return float(self.times.mean())

    @property
    def ci95_halfwidth(self) -> float:
        """Normal-approximation half width; NaN for a single trial."""
        if self.trials < 2:
            return math.nan
        return 1.96 * float(self.times.std(ddof=1)) / math.sqrt(self.trials)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "mean": self.mean,
            "ci95_halfwidth": json_time(self.ci95_halfwidth),
            "analytic_mean": self.analytic_mean,
        }

    CSV_HEADER = ("n", "trial", "time")

    def csv_rows(self):
        return ([self.n, i, csv_time(t)] for i, t in enumerate(self.times.tolist()))


def leader_election_experiment(
    n: int, trials: int, seed: int, threads: int = 1
) -> LeaderElectionResult:
    """Time until one leader remains, from n candidates in volume n.

    The j-leaders state fires at rate j(j-1)/(2n); summing expected holds
    from j=n down to 2 telescopes to the reference mean 2(n-1).
    """
    n, trials = check_integer(n, "n", 2), check_integer(trials, "trials")
    seed = check_integer(seed, "seed", 0)
    crn = leader_election_crn()
    times = run_trials(
        crn, crn.config({"L": n}), StopCondition(reaches=[("L", "<=", 1)]), trials, seed,
        threads=threads,
    )[0]
    return LeaderElectionResult(n=n, seed=seed, times=times)


@dataclass
class ChainResult:
    """First-production outcome for the last chain species X_{m+1}."""

    m: int
    n: int
    stats: FirstProductionStats

    @property
    def t_cap(self) -> float:
        return self.stats.t_cap

    @property
    def seed(self) -> int:
        return self.stats.seed

    @property
    def produced_fraction(self) -> float:
        return self.stats.produced_fraction

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "t_cap": self.t_cap,
            "seed": self.seed,
            "produced_fraction": self.produced_fraction,
            "first_production": self.stats.to_dict(),
        }

    CSV_HEADER = ("m", "n", *FirstProductionStats.CSV_HEADER)

    def csv_rows(self):
        return ([self.m, self.n, *row] for row in self.stats.csv_rows())


def chain_experiment(
    m: int, n: int, trials: int, t_cap: float, seed: int, threads: int = 1
) -> ChainResult:
    """Produce X_{m+1} from n copies of X1 in volume n, or censor at t_cap."""
    m, n = check_integer(m, "m"), check_integer(n, "n", 2)
    crn = chain_crn(m)
    init = crn.config({"X1": n})
    stats = first_production_times(crn, init, f"X{m + 1}", t_cap, trials, seed, threads=threads)
    return ChainResult(m=m, n=n, stats=stats)


def scale_configuration(template: Configuration, n: int) -> Configuration:
    """Scale ``template`` to total count n, keeping proportions.

    Counts are floored from exact products; the leftover goes to the
    species with the largest proportion (lowest id on ties).
    """
    total = template.total
    if total == 0:
        raise DomainError("template configuration must be nonzero")
    check_integer(n, "n")
    tmpl = template.counts.tolist()
    scaled = [c * n // total for c in tmpl]
    remainder = n - sum(scaled)
    if remainder:
        scaled[max(range(len(tmpl)), key=lambda i: (tmpl[i], -i))] += remainder
    return Configuration(scaled)


@dataclass
class ScanRow:
    n: int
    species: str
    trials: int
    produced_count: int
    median: float
    p90: float
    mean_uncensored: float

    def values(self, time) -> list:
        """The fields in order, each float (a time) through ``time``."""
        return [time(v) if isinstance(v, float) else v for v in astuple(self)]


@dataclass
class ScanResult:
    """First-production summaries over an n-grid.

    One row per (n, species beyond the initial support); additionally the
    per-n fraction of trials in which every closure species had appeared
    by the time cap.
    """

    crn_digest: str
    alpha: float
    t_cap: float
    seed: int
    n_grid: tuple[int, ...]
    targets: tuple[str, ...]
    rows: list[ScanRow] = field(default_factory=list)
    all_produced_fraction: dict[int, float] = field(default_factory=dict)

    def rows_for(self, species: str) -> list[ScanRow]:
        return [r for r in self.rows if r.species == species]

    def to_dict(self) -> dict:
        return {
            "crn_digest": self.crn_digest,
            "alpha": self.alpha,
            "t_cap": self.t_cap,
            "seed": self.seed,
            "n_grid": list(self.n_grid),
            "targets": list(self.targets),
            "all_produced_fraction": {str(k): v for k, v in self.all_produced_fraction.items()},
            "rows": [dict(zip(self.CSV_HEADER, r.values(json_time))) for r in self.rows],
        }

    CSV_HEADER = tuple(f.name for f in fields(ScanRow))

    def csv_rows(self):
        return (r.values(csv_time) for r in self.rows)


def constant_time_scan(
    crn: Crn,
    init_template: Configuration,
    alpha,
    n_grid,
    trials: int,
    seed: int,
    t_cap: float | None = None,
    threads: int = 1,
) -> ScanResult:
    """First-production behaviour of every closure species across n.

    For each n the template is rescaled (and re-verified alpha-dense, with
    the species support unchanged), each trial runs in volume n watching
    all target species, and the per-species summaries plus the per-n
    all-produced fraction are collected. The grid must not repeat a size.
    The time cap defaults to m+1 and must be finite and positive.
    ``alpha`` goes through ``analysis.check_alpha`` before anything else.
    """
    alpha = check_alpha(alpha)
    trials, seed = check_integer(trials, "trials"), check_integer(seed, "seed", 0)
    n_grid = [check_integer(n, "n") for n in n_grid]
    if not n_grid:
        raise DomainError("n_grid must be nonempty")
    if len(set(n_grid)) < len(n_grid):
        raise DomainError("n_grid must not repeat a size")
    stages = stage_decomposition(crn, init_template)
    t_cap = float(stages.m + 1) if t_cap is None else check_real(t_cap, "t_cap")
    base_support = support(init_template)
    target_ids = sorted(stages.closure - base_support)
    targets = tuple(crn.species.name_of(i) for i in target_ids)

    result = ScanResult(
        crn_digest=crn.digest(),
        alpha=float(alpha),
        t_cap=t_cap,
        seed=seed,
        n_grid=tuple(n_grid),
        targets=targets,
    )
    for gi, n in enumerate(n_grid):
        init_n = scale_configuration(init_template, n)
        if support(init_n) != base_support:
            raise DomainError(
                f"scaling to n={n} changed the species support; n is too small"
            )
        if not is_alpha_dense(init_n, alpha):
            raise DomainError(f"scaled configuration at n={n} is not alpha-dense")
        if not targets:
            result.all_produced_fraction[n] = 1.0
            continue
        stop = StopCondition(t_max=t_cap, reaches=[(name, ">=", 1) for name in targets])
        per_target = run_trials(crn, init_n, stop, trials, seed, threads=threads,
                                stream_key=(gi,))[1]
        produced_all = np.ones(trials, dtype=bool)
        for name, times in zip(targets, per_target.T):
            stats = FirstProductionStats(target=name, t_cap=t_cap, times=times, seed=seed)
            result.rows.append(
                ScanRow(
                    n=n,
                    species=name,
                    trials=trials,
                    produced_count=trials - stats.censored,
                    median=stats.median,
                    p90=stats.quantile(0.9),
                    mean_uncensored=stats.mean,
                )
            )
            produced_all &= ~np.isnan(stats.times)
        result.all_produced_fraction[n] = float(produced_all.mean())
    return result
