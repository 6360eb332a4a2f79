"""crnsim benchmark: one workload per run, checked outputs, one JSON result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {trials,traces,bounds,oracle,all} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

``--workload all`` runs the four workloads in turn, each in a process of
its own, and prints all their metrics.

The run first times set-up in fresh processes (interpreter start, imports
of the crnsim modules the workload uses, building its inputs) and reports
the median as ``setup_s``. Every reported time is scaled to a reference
host speed, sampled with a fixed loop next to the measured work (see
``hostspeed.py``), and measured on one CPU unless the workload fans out
over threads. It then builds the same inputs in this process
and repeats the workload's fixed batch until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced batches, reports per-layer
metrics (medians over traced batches) and the tracing overhead, and
finishes with the threads probe, which times the workload's fan-out calls
at threads=1 and threads=2 on the same inputs.

Every batch is checked: the first one in full, later ones by comparing
their output digest with the first. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name with its
unit, ``fail_frac`` and the provenance. Spans and the full result are
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p95_ms": "ms",
}
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "wall_s": "s", "import_s": "s",
                   "inputs_s": "s", "events_per_busy_s": "1/s", "produced_frac": "ratio",
                   "bytes": "bytes", "bytes_computed": "bytes", "speedup_t2": "ratio",
                   "overhead_frac": "ratio"}

# set-up probes: at least the first number, more while the probes have
# taken less than SETUP_PROBE_S seconds, at most the second number
SETUP_PROBES = {"full": (5, 9), "tiny": (2, 2)}
SETUP_PROBE_S = 2.5
SETUP_SPEED_SAMPLES = 3  # reference-loop samples before and after each set-up probe
MIN_BATCHES = 3
TRACED_SHARE = 0.65  # of --seconds; the threads probe gets the rest


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving it; "unknown" if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, wl, digest, batches) -> dict:
    import crnsim
    import numpy

    return {
        "crnsim": crnsim.__version__,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": args.seed,
        "workload_seeds": wl.seeds,
        "size": args.size,
        "batches": batches,
        "output_digest": digest,
    }


# ---------------------------------------------------------------------------
# set-up


@contextlib.contextmanager
def one_cpu(enabled: bool = True):
    """Keep this process, and the processes it starts, on one of its allowed
    CPUs. On a shared host two CPUs can differ in speed by 1.5x at the same
    moment, so the reference samples track the measured work only if both
    run on the same CPU. Yields the CPU, or None when not pinned."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed) if enabled else None
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            cpu = None
    try:
        yield cpu
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, allowed)


def setup_probe(args) -> int:
    """Child side: import, build the inputs, report when ready."""
    _, import_s, inputs_s = workloads.prepare(args.workload, ROOT, args.seed, args.size)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s, "inputs_s": inputs_s}))
    return 0


def measure_setup(args) -> dict:
    """Median over fresh processes of spawn-to-ready time, scaled to the
    reference host speed sampled around each process, and its raw parts.
    The processes run on the CPU the samples are taken on."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    totals, raws, imports, inputs = [], [], [], []
    probe = hostspeed.SpeedProbe("interpreter")
    least, most = SETUP_PROBES[args.size]
    with one_cpu():
        while len(totals) < least or (sum(raws) < SETUP_PROBE_S and len(totals) < most):
            probe.start(SETUP_SPEED_SAMPLES)
            t0 = time.monotonic()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise RuntimeError("set-up probe failed")
            rep = json.loads(done.stdout.strip().splitlines()[-1])
            probe.finish(SETUP_SPEED_SAMPLES)
            raws.append(rep["ready"] - t0)
            totals.append(raws[-1] * probe.factor())
            imports.append(rep["import_s"])
            inputs.append(rep["inputs_s"])
    return {"setup_s": statistics.median(totals),
            "raw.setup_s": statistics.median(raws),
            "setup.import_s": statistics.median(imports),
            "setup.inputs_s": statistics.median(inputs)}


# ---------------------------------------------------------------------------
# measuring


class Tally:
    """Output checks: the first batch in full, later batches by digest."""

    def __init__(self, wl):
        self.wl, self.attempted, self.failed, self.digest = wl, 0, 0, None
        self.failures: list[str] = []

    def record(self, b):
        results = [(f"call raised: {label}", False) for label in b.errors]
        digest = self.wl.digest(b)
        if self.digest is None:
            self.digest = digest
            results += self.wl.checks(b)
        else:
            results.append(("output identical to the first batch", digest == self.digest))
        for label, ok in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(label)


def checked_batch(wl, scratch, tally, tracer=None, probe=None):
    """Time one batch (traced if a tracer is given) that writes into a fresh
    directory, check its outputs, then remove the directory.

    Returns the batch, its time and its raw time. With a speed probe, the
    probe samples the host between unit calls; both times leave the
    samples out, and the first one and the batch's unit latencies are
    scaled to the reference host speed."""
    out = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if tracer:
            tracer.reset()
            tracer.install()
        if probe:
            probe.start()
            workloads.speed_probe = probe
        try:
            t0 = time.perf_counter()
            b = wl.batch(out)
            wall = time.perf_counter() - t0
            t1 = t0 + wall
        finally:
            workloads.speed_probe = None
            if probe:
                probe.finish()
            if tracer:
                tracer.uninstall()
        raw = wall
        if probe:
            raw = probe.scale(t0, t1, weighted=False)
            wall = probe.scale(t0, t1)
            b.units = [probe.scale(s, s + u) for s, u in zip(b.starts, b.units)]
        tally.record(b)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return b, wall, raw


def run_untraced(wl, seconds, scratch, tally) -> dict:
    """Repeat the batch for ``seconds``; every time is scaled to the
    reference host speed sampled during its own batch."""
    probe = hostspeed.SpeedProbe(wl.reference)
    walls, raws, rates, units, samples = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_BATCHES or time.perf_counter() < deadline:
        b, wall, raw = checked_batch(wl, scratch, tally, probe=probe)
        walls.append(wall)
        raws.append(raw)
        rates.append(b.work / wall)
        units += b.units
        samples += [e - s for s, e in zip(probe.starts, probe.ends)]
    ventiles = statistics.quantiles(units, n=20, method="inclusive")
    return {
        "raw": {"raw.wall_s": statistics.median(raws),
                "raw.reference_s": statistics.median(samples)},
        "per_batch": {"raw_s": raws, "wall_s": walls},
        "metrics": {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput_per_s": statistics.median(rates),
            "call_p50_ms": ventiles[9] * 1e3,
            "call_p95_ms": ventiles[18] * 1e3,
        },
        "batches": len(walls),
        "samples": len(units),
    }


def run_traced(wl, seconds, scratch, tally):
    """Alternate untraced and traced batches, then the threads probe."""
    tr = tracing.Tracer()
    plain, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() < start + TRACED_SHARE * seconds:
        plain.append(checked_batch(wl, scratch, tally)[1])
        traced.append(checked_batch(wl, scratch, tally, tr)[1])
        layers.append(tracing.layer_metrics(tr))
        spans.append(tr.spans)
    t_by_threads = {1: [], 2: []}
    while len(t_by_threads[2]) < 2 or time.perf_counter() < start + seconds:
        for threads in (1, 2):
            t0 = time.perf_counter()
            wl.fanout(threads)
            t_by_threads[threads].append(time.perf_counter() - t0)
    metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    metrics["parallel.speedup_t2"] = (statistics.median(t_by_threads[1])
                                      / statistics.median(t_by_threads[2]))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return {"metrics": metrics, "batches": len(plain) + len(traced), "spans": spans}


def write_spans(path: Path, batches):
    with gzip.open(path, "wt") as f:
        for i, spans in enumerate(batches):
            for sid, name, t0, t1, parent in spans:
                f.write(json.dumps({"batch": i, "id": sid, "name": name, "start": t0,
                                    "end": t1, "parent": parent}) + "\n")


def measure(args) -> dict:
    """Run one workload as the arguments say; return metrics and check tallies."""
    setup = measure_setup(args)
    wl, _, _ = workloads.prepare(args.workload, ROOT, args.seed, args.size)
    tally = Tally(wl)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        if args.trace:
            run = run_traced(wl, args.seconds, scratch, tally)
            run["metrics"]["setup.import_s"] = setup["setup.import_s"]
            run["metrics"]["setup.inputs_s"] = setup["setup.inputs_s"]
            metrics = {k: (v, per_layer_unit(k)) for k, v in sorted(run["metrics"].items())}
        else:
            with one_cpu(wl.single_cpu) as cpu:
                run = run_untraced(wl, args.seconds, scratch, tally)
            run["raw"]["pinned_cpu"] = cpu
            run["metrics"]["setup_s"] = setup["setup_s"]
            run["raw"]["raw.setup_s"] = setup["raw.setup_s"]
            metrics = {k: (run["metrics"][k], u) for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "workload": wl,
        "metrics": metrics,
        "batches": run["batches"],
        "samples": run.get("samples", 0),
        "raw": run.get("raw", {}),
        "per_batch": run.get("per_batch"),
        "spans": run.get("spans"),
        "tally": tally,
        "provenance": provenance(args, wl, tally.digest, run["batches"]),
    }


def report(args, result) -> dict:
    """Print every metric by name with its unit, fail_frac and provenance;
    write the spans and the full result; return the result line."""
    wl, tally = result["workload"], result["tally"]
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{result['batches']} batches")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for name, value in result["raw"].items():
        print(f"  {'(' + name + ')':34s} {value}")
    if not args.trace:
        print(f"  {'(' + wl.alias + ')':34s} = throughput_per_s, counting {wl.work_unit}")
        print(f"  {'(latency unit)':34s} {wl.unit}; {result['samples']} samples")
    print(f"  {'fail_frac':34s} {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} checks)")
    for label in tally.failures[:10]:
        print(f"  failed: {label}")
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result["spans"]:
        write_spans(OUT / f"spans-{stem}.jsonl.gz", result["spans"])
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        dict(line, raw=result["raw"], per_batch=result["per_batch"],
             provenance=result["provenance"]), indent=1, sort_keys=True))
    return line


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own so that its peak
    memory is its own; the result line names metrics ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "crnsim" / "__init__.py").is_file():
        print(f"error: no crnsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(report(args, measure(args))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
