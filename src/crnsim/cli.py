"""Command-line frontend.

Subcommands: validate, analyze, constants, simulate, first-production,
reachable, bounds (decay|poisson|walk|reflecting), demo (leader|chain|scan).
Each ``_cmd_*`` takes the parsed arguments and the loaded network and
initial configuration (None for a command without a file) and returns its
report and text lines; it neither loads a file nor prints. ``main`` loads
the network, runs the command and prints the report once, as text lines
or, with --format json, as one JSON document. Exit codes: 0 success,
1 domain or file error, 2 usage error. Identical arguments and seed always yield
byte-identical outputs: multi-trial commands draw one substream per chunk
of trials and Monte Carlo validation one per chunk of draws, so --threads
only caps parallelism. Bulk results go to CSV files in --out-dir, which
defaults to $CRNSIM_OUTDIR, else ".". ``main`` builds its parser once per
process, on its first call (importing this module builds none), and reads
$CRNSIM_OUTDIR on each call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import typing
from pathlib import Path

from . import analysis, bounds, harness, kinetics, model
from .errors import CrnError, check_integer

DEFAULT_SEED = 2012


def _parse(kind, text: str, message: str):
    """``kind(text)``, with a ``ValueError`` reported as a ``CrnError`` (exit 1)."""
    try:
        return kind(text)
    except ValueError:
        raise CrnError(message) from None


def _load_crn(args):
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as e:
        raise CrnError(f"{args.file}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise CrnError(f"{args.file}: {e}") from None
    crn, init = model.parse_crn(text)
    if args.init:
        counts = {}
        for part in args.init.replace(",", " ").split():
            if "=" not in part:
                raise CrnError(f"bad --init entry {part!r}; expected NAME=COUNT")
            name, _, value = part.partition("=")
            count = _parse(int, value, f"bad --init count {value!r} for {name!r}")
            name = name.strip()
            if name in counts:
                raise CrnError(f"duplicate species {name!r} in --init")
            counts[name] = check_integer(count, f"--init count of {name}", 0)
        init = crn.config(counts)
    if args.require_init and init is None:
        raise CrnError(f"{args.file} declares no init: lines; pass --init \"NAME=COUNT ...\"")
    return crn, init


def _write(args, name: str, write) -> Path:
    """Create --out-dir, open ``name`` in it, pass the file to ``write`` and
    return its path."""
    base = Path(args.out_dir)
    path = base / name
    try:
        base.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            write(f)
    except OSError as e:  # the file, or the directory when it cannot be made
        raise CrnError(f"{e.filename or path}: {e.strerror or e}") from None
    return path


def _density_line(status) -> str:
    c_hat = "" if status.c_hat is None else f" (c_hat = {status.c_hat})"
    return f"finite density: {status.kind}{c_hat}"


def _cmd_validate(args, crn, init):
    status = analysis.finite_density_status(crn)
    report = {
        "file": args.file,
        "species": list(crn.species.names),
        "reactions": len(crn.reactions),
        "finite_density": status.to_dict(crn),
        "init_total": None if init is None else init.total,
    }
    lines = [
        f"{args.file}: {crn.n_species} species, {len(crn.reactions)} reactions",
        _density_line(status),
    ]
    if init is not None:
        lines.append(f"init total: {init.total}")
    return report, lines


def _cmd_analyze(args, crn, init):
    stages = analysis.stage_decomposition(crn, init)
    status = analysis.finite_density_status(crn)
    cert = status.certificate
    dense = None if args.alpha is None else analysis.is_alpha_dense(init, args.alpha)
    report = {
        "stages": stages.to_dict(crn),
        "finite_density": status.to_dict(crn),
        "mass_certificate": cert.to_dict(crn),
        "alpha": args.alpha,
        "alpha_dense": dense,
    }
    lines = [f"stages (m = {stages.m}):"]
    for i, stage in enumerate(stages.to_dict(crn)["stages"]):
        lines.append(f"  stage {i}: {{{', '.join(stage)}}}")
    lines.append(_density_line(status))
    lines.append(
        "mass certificate: "
        + (f"mass = {cert.to_dict(crn)['mass']}, ratio = {cert.ratio}" if cert.exists else "none")
    )
    if dense is not None:
        lines.append(f"alpha-dense at alpha={args.alpha}: {dense}")
    return report, lines


def _cmd_constants(args, crn, init):
    tc = bounds.compute_theorem_constants(crn, init, args.alpha, args.c_hat)
    report = tc.to_dict()
    lines = [
        f"K_hat = {tc.K_hat}, k_hat = {tc.k_hat}, c_hat = {tc.c_hat}, lambda = {tc.lam}",
        f"m = {tc.m}, t = {tc.t}, log2(c) = {tc.log2_c:.6g}",
        "log2(delta_i): " + ", ".join(f"{v:.6g}" for v in tc.log2_delta),
        f"log2(delta_m) floor: {tc.log2_delta_m_lower:.6g}",
        f"log2(epsilon') = {tc.log2_epsilon_prime:.6g}, log2(epsilon) = {tc.log2_epsilon:.6g}",
        "n thresholds (log2):",
    ]
    lines += [f"  {d}: {v:.6g}" for d, v in tc.n_thresholds]
    lines += [f"warning: {w}" for w in tc.warnings]
    return report, lines


def _parse_stop(args) -> kinetics.StopCondition:
    species = frozenset(args.stop_species) if args.stop_species else None
    count_reaches = None
    if args.stop_count:
        name, _, value = args.stop_count.partition("=")
        message = f"bad --stop-count {args.stop_count!r}; expected NAME=COUNT"
        count_reaches = (name.strip(), _parse(int, value, message))
    return kinetics.StopCondition(
        t_max=args.t_max,
        species_appears=species,
        count_reaches=count_reaches,
        max_events=args.max_events,
    )


def _cmd_simulate(args, crn, init):
    stop = _parse_stop(args)
    checkpoints = None
    if args.checkpoints:
        checkpoints = [_parse(float, x, f"bad --checkpoints entry {x!r}")
                       for x in args.checkpoints.split(",")]
    trace = kinetics.simulate(
        crn, init, stop, seed=args.seed, volume=args.volume, checkpoint_times=checkpoints
    )
    trace_path = _write(args, args.trace_out, lambda f: trace.to_csv(crn, f))
    cp_path = None
    if trace.checkpoints:
        cp_path = _write(args, args.checkpoints_out, lambda f: trace.checkpoints_to_csv(crn, f))
    report = {
        "status": trace.status,
        "time": trace.time,
        "events": len(trace.events),
        "terminal": trace.terminal.to_dict(crn.species),
        "trace_csv": str(trace_path),
        "checkpoints_csv": None if cp_path is None else str(cp_path),
    }
    lines = [
        f"status: {trace.status} at t = {trace.time:.6g} after {len(trace.events)} events",
        f"terminal: {trace.terminal.to_dict(crn.species)}",
        f"trace written to {trace_path}",
    ]
    if cp_path is not None:
        lines.append(f"checkpoints written to {cp_path}")
    return report, lines


def _cmd_first_production(args, crn, init):
    stats = kinetics.first_production_times(
        crn,
        init,
        args.target,
        args.t_cap,
        args.trials,
        seed=args.seed,
        volume=args.volume,
        threads=args.threads,
    )
    out = _write(args, args.out, lambda f: kinetics.write_csv(f, stats))
    d = stats.to_dict()
    report = dict(d, csv=str(out))
    lines = [
        f"target {args.target}: {stats.trials} trials, {stats.censored} censored at t_cap={args.t_cap}",
        f"mean = {d['mean']}, median = {d['median']}, p90 = {d['p90']}",
        f"per-trial times written to {out}",
    ]
    return report, lines


def _cmd_reachable(args, crn, init):
    if args.compare_closure:
        cmp = analysis.closure_vs_oracle(
            crn, init, args.scale_limit, args.max_configs, args.max_count
        )
        report = cmp.to_dict(crn)
        lines = [f"closure: {{{', '.join(report['closure'])}}}"]
        for sc in report["scales"]:
            rel = "inconclusive" if sc["inconclusive"] else ("equal" if sc["equal"] else "proper subset")
            lines.append(f"  scale {sc['scale']}: {{{', '.join(sc['producible'])}}} ({rel})")
        lines.append(f"least coinciding scale: {report['least_equal_scale']}")
        return report, lines
    rep = analysis.reachable_set(crn, init, args.max_configs, args.max_count)
    report = rep.to_dict(crn)
    lines = [
        f"producible: {{{', '.join(report['producible'])}}}",
        f"visited {rep.visited} configurations" + (" (truncated)" if rep.truncated else ""),
    ]
    return report, lines


def _cmd_bounds(args, crn, init):
    cls = bounds.TARGETS[args.bound]
    params = cls(*(getattr(args, f.name) for f in dataclasses.fields(cls)))
    log2_bound = params.log2_bound()
    vacuous = log2_bound >= 0
    report = {"process": args.process, "log2_bound": log2_bound, "vacuous": vacuous}
    lines = [f"log2 bound = {log2_bound:.6g}" + (" (vacuous: bound >= 1)" if vacuous else "")]
    if args.validate:
        rep = bounds.monte_carlo_validate(args.bound, params, trials=args.trials,
                                          seed=args.seed, threads=args.threads)
        report["validation"] = rep.to_dict()
        lines.append(
            f"validation: {rep.verdict} (hits {rep.empirical_hits}/{rep.trials}, "
            f"99% upper {rep.upper_confidence:.3g} vs bound 2^{rep.log2_bound:.4g})"
        )
    return report, lines


def _cmd_demo(args, crn, init):
    # each experiment refuses a bad size before it simulates, and the files
    # are written only once it has returned
    if args.scenario == "scan":
        n_grid = [_parse(int, x, f"bad --n-grid entry {x!r}") for x in args.n_grid.split(",")]
        result = harness.constant_time_scan(crn, init, args.alpha, n_grid, args.trials,
                                            args.seed, t_cap=args.t_cap, threads=args.threads)
        name, summary, lines = "scan", result.to_dict(), []
        for row in summary["rows"]:
            med = "censored" if row["median"] is None else f"{row['median']:.6g}"
            lines.append(
                f"  n={row['n']} {row['species']}: produced "
                f"{row['produced_count']}/{row['trials']}, median {med}"
            )
    else:
        n_grid = [args.n]
        if args.scenario == "leader":
            result = harness.leader_election_experiment(args.n, args.trials, args.seed,
                                                        threads=args.threads)
            name = "leader"
            lines = [f"  n={args.n}: mean time {result.mean:.4g} "
                     f"(analytic {result.analytic_mean:.4g})"]
        else:
            t_cap = float(args.m + 1) if args.t_cap is None else args.t_cap
            result = harness.chain_experiment(args.m, args.n, args.trials, t_cap, args.seed,
                                              threads=args.threads)
            name = f"chain_m{args.m}"
            lines = [f"  n={args.n}: produced fraction {result.produced_fraction:.1%}"]
        summary = {str(args.n): result.to_dict()}
    csv_path = _write(args, f"{name}.csv", lambda f: kinetics.write_csv(f, result))
    report = {"scenario": args.scenario, "results": summary, "csv": str(csv_path)}
    json_path = _write(args, f"{name}.json",
                       lambda f: f.write(json.dumps(report, indent=2, sort_keys=True) + "\n"))
    report["json"] = str(json_path)
    lines = [f"{args.scenario} experiment over n in {n_grid}:", *lines,
             f"rows written to {csv_path}", f"summary written to {json_path}"]
    return report, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnsim",
        description="Stochastic reaction-network simulation, analysis and bound validation.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"random seed (default {DEFAULT_SEED})")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallelism cap; never changes results")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--out-dir", default=None,
                        help="directory for bulk outputs (default $CRNSIM_OUTDIR or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p, require_init=True):
        p.add_argument("file", help="CRN text file")
        p.add_argument("--init", default=None,
                       help="override or supply initial counts, e.g. \"X=1000 Y=5\"")
        p.set_defaults(require_init=require_init)

    p = sub.add_parser("validate", help="parse a file and classify count growth")
    add_file(p, require_init=False)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("analyze", help="stages, density, conservation certificate")
    add_file(p)
    p.add_argument("--alpha", type=float, default=None, help="check alpha-density of init")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("constants", help="staged-production constant calculus")
    add_file(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--c-hat", type=float, default=None,
                   help="per-species count inflation bound (default: classify)")
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("simulate", help="run one trajectory")
    add_file(p)
    p.add_argument("--volume", type=float, default=None, help="default: total initial count")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--max-events", type=int, default=None)
    p.add_argument("--stop-species", action="append", default=None,
                   help="stop once this species appears (repeatable: all must appear)")
    p.add_argument("--stop-count", default=None, help="NAME=COUNT stop threshold")
    p.add_argument("--checkpoints", default=None, help="comma-separated sample times")
    p.add_argument("--trace-out", default="trace.csv")
    p.add_argument("--checkpoints-out", default="checkpoints.csv")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("first-production", help="first-production time statistics")
    add_file(p)
    p.add_argument("--target", required=True)
    p.add_argument("--t-cap", type=float, default=10.0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--volume", type=float, default=None)
    p.add_argument("--out", default="first_production.csv")
    p.set_defaults(fn=_cmd_first_production)

    p = sub.add_parser("reachable", help="exact reachability oracle (capped BFS)")
    add_file(p)
    p.add_argument("--max-configs", type=int, default=100_000)
    p.add_argument("--max-count", type=int, default=1_000_000)
    p.add_argument("--compare-closure", action="store_true",
                   help="compare producible sets against the stage closure across scales")
    p.add_argument("--scale-limit", type=int, default=8)
    p.set_defaults(fn=_cmd_reachable)

    p = sub.add_parser("bounds", help="closed-form tail bounds, optionally validated")
    bsub = p.add_subparsers(dest="process", required=True)

    for name, cls in bounds.TARGETS.items():
        bp = bsub.add_parser(name.removesuffix("_z"))  # the walk_z target is `bounds walk`
        types = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            bp.add_argument("--" + f.name.replace("_", "-"), type=types[f.name], required=True,
                            choices=f.metadata.get("choices"))
        bp.add_argument("--validate", action="store_true", help="Monte Carlo dominance check")
        bp.add_argument("--trials", type=int, default=100_000)
        bp.set_defaults(fn=_cmd_bounds, bound=name)

    p = sub.add_parser("demo", help="prebuilt experiments")
    dsub = p.add_subparsers(dest="scenario", required=True)
    dp = dsub.add_parser("leader")
    dp.add_argument("--n", type=int, default=100)
    dp.add_argument("--trials", type=int, default=1000)
    dp.set_defaults(fn=_cmd_demo)
    dp = dsub.add_parser("chain")
    dp.add_argument("--m", type=int, default=3)
    dp.add_argument("--n", type=int, default=1000)
    dp.add_argument("--trials", type=int, default=200)
    dp.add_argument("--t-cap", type=float, default=None, help="default: m+1")
    dp.set_defaults(fn=_cmd_demo)
    dp = dsub.add_parser("scan")
    add_file(dp)
    dp.add_argument("--alpha", type=float, default=0.5)
    dp.add_argument("--n-grid", default="100,1000,10000")
    dp.add_argument("--trials", type=int, default=1000)
    dp.add_argument("--t-cap", type=float, default=None)
    dp.set_defaults(fn=_cmd_demo)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then reused."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    if args.out_dir is None:  # read on every call, so a later change takes effect
        args.out_dir = os.environ.get("CRNSIM_OUTDIR", ".")
    try:
        check_integer(args.threads, "threads")
        crn, init = _load_crn(args) if "file" in args else (None, None)
        report, lines = args.fn(args, crn, init)
    except CrnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True) if args.format == "json"
          else "\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
