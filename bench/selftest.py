"""Self-test of the benchmark, at tiny sizes. Run from the root of a checkout:

    python3 bench/selftest.py

It checks that
* for every workload, ``--trace 0`` emits exactly the end-to-end metrics
  of BENCHMARK.json and ``--trace 1`` exactly its per-layer metrics, each
  with its unit, and that the outputs pass their checks;
* a deliberately wrong output, and a call that raises, are counted as
  failed checks (and so in ``fail_frac``) rather than passed;
* host-speed scaling weights each gap between two reference samples by
  the reference time over their mean, and leaves the samples out;
* in a directory holding only BENCHMARK.json and the benchmark, the
  command exits non-zero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / ".bench_out"
failures: list[str] = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_emitted():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in SPEC["workloads"]:
            done = bench(ROOT, "--workload", w["name"], "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny")
            try:
                res = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{w['name']} trace {trace}: result line\n{done.stderr}")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(done.returncode == 0 and set(res) == {"correct", "attempted", "failed",
                                                         "metrics"},
                   f"{w['name']} trace {trace}: exit 0 and result keys")
            expect(got == want, f"{w['name']} trace {trace}: every {key} metric with its unit"
                   + ("" if got == want else f" (missing {set(want) - set(got)}, "
                      f"extra {set(got) - set(want)}, units {got.items() - want.items()})"))
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{w['name']} trace {trace}: outputs pass their checks")
            names = [line.split()[0] for line in done.stdout.splitlines()[1:]
                     if line.startswith("  ")]
            expect("fail_frac" in names and set(want) <= set(names),
                   f"{w['name']} trace {trace}: every metric and fail_frac printed by name")


def _wrong(name, b):
    """Corrupt one output of a batch so that a correct check must reject it."""
    r = b.results
    if name == "trials":
        for res in r["leader"]:
            res.times = res.times * 3.0
    elif name == "traces":
        r["decay"] = [(c + 100, n, s, t) for c, n, s, t in r["decay"]]
    elif name == "bounds":
        r["reports"][0] = dataclasses.replace(r["reports"][0], verdict="violated")
    else:
        rep, closure = r["nets"][0]
        r["nets"][0] = (dataclasses.replace(rep, producible=rep.producible | {99}), closure)


def check_failures_counted():
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in workloads.WORKLOADS:
            wl, _, _ = workloads.prepare(name, ROOT, 5, "tiny")
            good = run.Tally(wl)
            good.record(wl.batch(Path(tmp)))
            expect(good.failed == 0 and good.attempted > 0, f"{name}: correct batch passes")
            bad = run.Tally(wl)
            b = wl.batch(Path(tmp))
            _wrong(name, b)
            bad.record(b)
            expect(bad.failed > 0, f"{name}: wrong output counted in fail_frac")
            later = wl.batch(Path(tmp))
            _wrong(name, later)
            good.record(later)
            expect(good.failed == 1, f"{name}: later batch with other output counted failed")

        wl, _, _ = workloads.prepare("trials", ROOT, 5, "tiny")
        orig = wl.harness.chain_experiment

        def broken(*args, **kwargs):
            raise RuntimeError("deliberate failure")

        wl.harness.chain_experiment = broken
        try:
            tally = run.Tally(wl)
            tally.record(wl.batch(Path(tmp)))
        finally:
            wl.harness.chain_experiment = orig
        expect(tally.failed == 2, "trials: each call that raises counts as failed")


def check_scaling():
    p = hostspeed.SpeedProbe("interpreter")
    p.ref_s = 0.1
    # samples of 0.1, 0.3 and 0.1 s: both gaps run at half the reference speed
    p.starts, p.ends = [0.0, 1.0, 3.0], [0.1, 1.3, 3.1]
    expect(abs(p.scale(0.0, 3.1) - (0.9 + 1.7) * 0.5) < 1e-9
           and abs(p.scale(0.0, 3.1, weighted=False) - 2.6) < 1e-9
           and abs(p.scale(1.5, 2.5) - 0.5) < 1e-9,
           "host-speed scaling of a span and of a unit call inside it")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, Path(tmp) / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(Path(tmp), "--workload", "trials", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        expect(done.returncode != 0 and '"metrics"' not in done.stdout,
               "without the sources: non-zero exit and no result")


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    check_scaling()
    check_failures_counted()
    check_refuses_without_sources()
    check_emitted()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
