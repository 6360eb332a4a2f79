"""Acceptance suite: every criterion runs at its stated scale and
tolerance and prints one PASS/FAIL line (visible with ``pytest -v -s``).

Criteria 1-3 and 6 write their results to files twice, once serially and
once on a four-thread pool, and criterion 8 checks the bytes agree.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from crnsim.analysis import closure_vs_oracle, reachable_set, stage_decomposition
from crnsim.bounds import (
    DecayBoundParams,
    PoissonBoundParams,
    ReflectingBoundParams,
    WalkBoundParams,
    compute_theorem_constants,
    monte_carlo_validate,
)
from crnsim.harness import (
    chain_crn,
    constant_time_scan,
    leader_election_crn,
    leader_election_experiment,
)
from crnsim.kinetics import StopCondition, simulate, write_csv
from crnsim.model import Configuration, parse_crn
from crnsim.parallel import map_ordered

from conftest import random_config, random_crn

SEED = 20120815
LOG2E = math.log2(math.e)
BOUND_WINDOW = (math.log2(10 / 100_000), -1.0)  # analytic bounds in [1e-4, 0.5]


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# pipelines for criteria 1-3 and 6 (shared with the determinism check)


def _run_criterion1(threads, outdir):
    crn, _ = parse_crn("X -> 0 ; k=1\n")
    init = crn.config({"X": 1000})
    trials = 10_000
    t0 = time.perf_counter()

    def one(trial):
        tr = simulate(crn, init, StopCondition(t_max=1.0), seed=SEED, stream_key=(trial,))
        return tr.terminal[0]

    counts = map_ordered(one, range(trials), threads)
    elapsed = time.perf_counter() - t0
    path = Path(outdir) / "criterion1_terminal_counts.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["trial", "count"])
        w.writerows(enumerate(counts))
    arr = np.array(counts, dtype=float)
    return {
        "files": [path],
        "elapsed": elapsed,
        "mean": float(arr.mean()),
        "variance": float(arr.var(ddof=1)),
        "trials": trials,
    }


def _run_criterion2(threads, outdir):
    t0 = time.perf_counter()
    results = {
        n: leader_election_experiment(n, trials=1000, seed=SEED + n, threads=threads)
        for n in (10, 100, 1000)
    }
    elapsed = time.perf_counter() - t0
    csv_path = Path(outdir) / "criterion2_leader.csv"
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n", "trial", "time"])
        for n, res in results.items():
            for i, t in enumerate(res.times.tolist()):
                w.writerow([n, i, repr(t)])
    json_path = Path(outdir) / "criterion2_summary.json"
    json_path.write_text(
        json.dumps({str(n): r.to_dict() for n, r in results.items()}, sort_keys=True, indent=2)
    )
    return {"files": [csv_path, json_path], "elapsed": elapsed, "results": results}


def _run_criterion3(threads, outdir):
    leader = leader_election_crn()
    convert, _ = parse_crn("X -> Y ; k=1\n")
    grid = [100, 1000, 10_000]
    t0 = time.perf_counter()
    scans = {
        "leader": constant_time_scan(
            leader, Configuration([10, 0]), alpha=1.0, n_grid=grid,
            trials=1000, seed=SEED, threads=threads,
        ),
        "convert": constant_time_scan(
            convert, convert.config({"X": 10}), alpha=1.0, n_grid=grid,
            trials=1000, seed=SEED + 1, threads=threads,
        ),
    }
    elapsed = time.perf_counter() - t0
    files = []
    for name, scan in scans.items():
        p = Path(outdir) / f"criterion3_scan_{name}.csv"
        with open(p, "w", newline="") as f:
            write_csv(f, scan)
        pj = Path(outdir) / f"criterion3_scan_{name}.json"
        pj.write_text(json.dumps(scan.to_dict(), sort_keys=True, indent=2))
        files += [p, pj]
    return {"files": files, "elapsed": elapsed, "scans": scans}


def _decay_grid():
    pts = []
    for t in (0.5, 0.75, 1.0):
        for delta in (0.05, 0.1, 0.15):
            base = 1.0 + math.log2(delta) + t * LOG2E
            if base >= -0.05:
                continue
            for target in (-2.0, -6.0, -11.0):
                n = max(2, round((target / base + 1.0) / delta))
                p = DecayBoundParams(n, 1.0, t, delta)
                if BOUND_WINDOW[0] <= p.log2_bound() <= BOUND_WINDOW[1]:
                    pts.append(p)
    return pts


def _poisson_grid():
    pts = []
    for lam in (5.0, 10.0, 20.0, 40.0):
        for gamma in (1.3, 1.6, 2.0, 2.6):
            p = PoissonBoundParams(lam, gamma * lam, "upper")
            if BOUND_WINDOW[0] <= p.log2_bound() <= BOUND_WINDOW[1]:
                pts.append(p)
        for gamma in (0.3, 0.5, 0.6):
            p = PoissonBoundParams(lam, gamma * lam, "lower")
            if BOUND_WINDOW[0] <= p.log2_bound() <= BOUND_WINDOW[1]:
                pts.append(p)
    return pts


def _walk_grid():
    pts = []
    combos = [(f, f / 4.0, eps) for f in (20.0, 50.0, 100.0) for eps in (0.5, 2.0 / 3.0)]
    combos += [(200.0, 50.0, 0.5)]
    for f, r, eps in combos:
        for target_exp in (2.0, 5.0, 8.0):
            t = 8.0 * f * target_exp / (eps**2 * (f - r) ** 2)
            p = WalkBoundParams(f, r, t, eps)
            if BOUND_WINDOW[0] <= p.log2_bound() <= BOUND_WINDOW[1]:
                pts.append(p)
    return pts


def _reflecting_grid():
    pts = []
    families = [
        (1.0, 0.1, 0.025, (500, 1000, 2000, 3000)),
        (2.0, 0.2, 0.025, (250, 500, 1000, 1500)),
        (1.5, 0.15, 0.02, (400, 800, 1600, 2000)),
        (1.0, 0.3, 0.075, (150, 300, 600, 1000)),
        (3.0, 0.6, 0.045, (80, 160, 320, 500)),
    ]
    for lambda_r, delta_f, delta_r, ns in families:
        for n in ns:
            p = ReflectingBoundParams(delta_f, lambda_r, delta_r, n)
            if BOUND_WINDOW[0] <= p.log2_bound() <= BOUND_WINDOW[1]:
                pts.append(p)
    return pts


def _run_criterion6(threads, outdir):
    grids = {
        "decay": _decay_grid(),
        "poisson": _poisson_grid(),
        "walk_z": _walk_grid(),
        "reflecting": _reflecting_grid(),
    }
    t0 = time.perf_counter()
    reports = []
    idx = 0
    for target, pts in grids.items():
        for params in pts:
            reports.append(
                monte_carlo_validate(
                    target, params, trials=100_000, seed=SEED + idx, threads=threads
                )
            )
            idx += 1
    elapsed = time.perf_counter() - t0
    path = Path(outdir) / "criterion6_reports.json"
    path.write_text(
        json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
    )
    return {
        "files": [path],
        "elapsed": elapsed,
        "reports": reports,
        "grid_sizes": {k: len(v) for k, v in grids.items()},
    }


@pytest.fixture(scope="session")
def artifacts_serial(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_t1")
    return {
        "dir": out,
        "c1": _run_criterion1(1, out),
        "c2": _run_criterion2(1, out),
        "c3": _run_criterion3(1, out),
        "c6": _run_criterion6(1, out),
    }


@pytest.fixture(scope="session")
def artifacts_threaded(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_t4")
    return {
        "dir": out,
        "c1": _run_criterion1(4, out),
        "c2": _run_criterion2(4, out),
        "c3": _run_criterion3(4, out),
        "c6": _run_criterion6(4, out),
    }


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_kinetic_model_exactness(artifacts_serial):
    art = artifacts_serial["c1"]
    n, p = 1000, math.exp(-1.0)
    mean_ref = n * p
    var_ref = n * p * (1 - p)
    mean_tol = 4 * math.sqrt(var_ref / art["trials"])
    mean_ok = abs(art["mean"] - mean_ref) < mean_tol
    var_ok = abs(art["variance"] - var_ref) / var_ref < 0.15
    time_ok = art["elapsed"] < 30.0
    _report(
        1,
        "kinetic-model exactness",
        mean_ok and var_ok and time_ok,
        f"mean {art['mean']:.3f} vs {mean_ref:.3f} (tol {mean_tol:.3f}), "
        f"variance {art['variance']:.1f} vs {var_ref:.1f} (15%), "
        f"runtime {art['elapsed']:.1f}s < 30s",
    )


def test_criterion_2_leader_election_timing(artifacts_serial):
    art = artifacts_serial["c2"]
    details = []
    ok = art["elapsed"] < 120.0
    for n, res in art["results"].items():
        rel = abs(res.mean - res.analytic_mean) / res.analytic_mean
        details.append(f"n={n}: mean {res.mean:.2f} vs {res.analytic_mean} ({rel:.1%})")
        ok = ok and rel < 0.05
    _report(
        2,
        "leader-election timing",
        ok,
        "; ".join(details) + f"; runtime {art['elapsed']:.1f}s < 120s",
    )


def test_criterion_3_first_production_medians_nonincreasing(artifacts_serial):
    art = artifacts_serial["c3"]
    ok = art["elapsed"] < 180.0
    details = []
    for name, scan in art["scans"].items():
        for species in scan.targets:
            meds = [r.median for r in scan.rows_for(species)]
            mono = all(b <= a * 1.1 for a, b in zip(meds, meds[1:]))
            ok = ok and mono and all(math.isfinite(m) for m in meds)
            details.append(f"{name}/{species}: medians {['%.2e' % m for m in meds]}")
    _report(
        3,
        "constant-time production signature",
        ok,
        "; ".join(details) + f"; runtime {art['elapsed']:.1f}s < 180s",
    )


def test_criterion_4_chain_stage_decomposition():
    crn = chain_crn(3)
    st = stage_decomposition(crn, crn.config({"X1": 1000}))
    ok = len(st.stages) == 4 and st.m == 3 == crn.n_species - 1
    _report(
        4,
        "stage decomposition worst case",
        ok,
        f"stages {st.to_dict(crn)['stages']}, m={st.m}, species={crn.n_species}",
    )


def test_criterion_5_bfs_subset_of_closure():
    rng = np.random.default_rng(SEED)
    violations = 0
    checked = 0
    for _ in range(220):
        crn = random_crn(rng, max_species=4, max_reactions=5, max_side_total=2)
        init = random_config(rng, crn, max_count=3)
        closure = stage_decomposition(crn, init).closure
        rep = reachable_set(crn, init, max_configs=4000, max_count=64)
        checked += 1
        if not rep.producible <= closure:
            violations += 1
    pair, _ = parse_crn("X + X -> Y\n")
    cmp = closure_vs_oracle(pair, pair.config({"X": 1}), scale_limit=3)
    scale_ok = cmp.least_equal_scale == 2
    _report(
        5,
        "closure vs oracle",
        violations == 0 and scale_ok,
        f"{checked} random networks, {violations} subset violations; "
        f"pairing network coincides first at scale {cmp.least_equal_scale}",
    )


def test_criterion_6_bound_dominance(artifacts_serial):
    art = artifacts_serial["c6"]
    ok = art["elapsed"] < 600.0
    sizes_ok = all(v >= 20 for v in art["grid_sizes"].values())
    violated = [r for r in art["reports"] if r.verdict == "violated"]
    out_of_window = [
        r
        for r in art["reports"]
        if not (BOUND_WINDOW[0] <= r.log2_bound <= BOUND_WINDOW[1])
    ]
    inconclusive = [r for r in art["reports"] if r.verdict == "inconclusive"]
    ok = ok and sizes_ok and not violated and not out_of_window and not inconclusive
    _report(
        6,
        "bound dominance",
        ok,
        f"grid sizes {art['grid_sizes']}, {len(art['reports'])} points, "
        f"{len(violated)} violated, {len(inconclusive)} inconclusive, "
        f"runtime {art['elapsed']:.1f}s < 600s",
    )


def test_criterion_7_constant_calculator_self_consistency():
    rng = np.random.default_rng(SEED + 7)
    worst_rel = 0.0
    for _ in range(50):
        crn = random_crn(rng, max_species=5, max_reactions=6)
        init = random_config(rng, crn)
        alpha = float(rng.uniform(0.05, 1.0))
        c_hat = float(rng.uniform(1.0, 3.0))
        tc = compute_theorem_constants(crn, init, alpha=alpha, c_hat=c_hat)
        step = math.log2(tc.k_hat) - (4.0 + math.log2(tc.lam) + tc.log2_c)
        base = (
            math.log2(alpha)
            + math.log2(tc.k_hat)
            - (4.0 + math.log2(tc.lam) + 2.0 * tc.log2_c)
        )
        l0 = tc.log2_delta[0]
        for i, got in enumerate(tc.log2_delta):
            closed = (2.0**i) * l0 + (2.0**i - 1.0) * step
            rel = abs(got - closed) / abs(closed)
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-9
            assert got > (2.0**i) * base
    _report(
        7,
        "constant calculator self-consistency",
        True,
        f"50 networks; worst recurrence-vs-closed-form relative error {worst_rel:.2e}; "
        "all ladder values above the closed-form floor",
    )


def test_criterion_8_determinism_across_threads(artifacts_serial, artifacts_threaded):
    mismatched = []
    for key in ("c1", "c2", "c3", "c6"):
        for f1 in artifacts_serial[key]["files"]:
            f4 = artifacts_threaded["dir"] / f1.name
            if f1.read_bytes() != Path(f4).read_bytes():
                mismatched.append(f1.name)
    _report(
        8,
        "determinism across thread counts",
        not mismatched,
        "criteria 1-3 and 6 outputs byte-identical at threads=1 and threads=4"
        if not mismatched
        else f"mismatched files: {mismatched}",
    )
