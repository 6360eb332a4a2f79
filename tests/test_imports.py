import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import crnsim

SRC = Path(crnsim.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _load_bench(name: str):
    """A module of the benchmark, loaded by path from ``bench/``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_module_imports_private_names_of_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert not found


def test_no_module_imports_csv():
    # every CSV file goes through kinetics._write_csv; a module that imports
    # csv would be a second writer
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: import {a.name}" for a in node.names
                          if a.name.partition(".")[0] == "csv"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").partition(".")[0] == "csv":
                    found.append(f"{path.name}: from {node.module} import ...")
    assert not found


def test_no_module_starts_a_thread():
    # parallel.map_chunks forks worker processes and every other map runs in
    # the calling thread; a thread pool or a Thread would be a second fan-out
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: import {a.name}" for a in node.names
                          if a.name.partition(".")[0] == "concurrent"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").partition(".")[0] == "concurrent" or (
                        node.module == "threading" and any(a.name == "Thread" for a in node.names)):
                    found.append(f"{path.name}: from {node.module} import ...")
            elif (isinstance(node, ast.Attribute) and node.attr == "Thread"
                  and isinstance(node.value, ast.Name) and node.value.id == "threading"):
                found.append(f"{path.name}:{node.lineno}: threading.Thread")
    assert not found


def test_every_benchmark_probe_names_an_attribute_of_crnsim():
    # the traced benchmark wraps these names; renaming one would silently
    # drop its per-layer rows
    tracer = _load_bench("tracer")
    missing = []
    for where, attr, *_ in tracer.PROBES:
        modname, _, clsname = where.partition(":")
        owner = importlib.import_module(modname)
        if clsname:
            owner = getattr(owner, clsname, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{where}.{attr}")
    assert not missing


def test_closure_vs_oracle_searches_through_the_probed_attribute(monkeypatch):
    # the traced benchmark counts analysis.reachable.calls by wrapping the
    # module attribute; a per-scale search that bypassed it would drop
    # those counts without a word
    from crnsim import analysis
    from crnsim.model import parse_crn

    calls = []
    search = analysis.reachable_set
    monkeypatch.setattr(analysis, "reachable_set",
                        lambda *args, **kw: calls.append(args) or search(*args, **kw))
    crn, _ = parse_crn("X + X -> Y\n")
    analysis.closure_vs_oracle(crn, crn.config({"X": 1}), scale_limit=3)
    assert len(calls) == 3


def test_every_benchmark_workload_builds(tmp_path):
    # workloads call public signatures positionally, e.g.
    # ReflectingBoundParams(0.1, 1.0, 0.025, 1000); a change to one would
    # otherwise break only when the benchmark runs, as a failed run or a
    # failed output check
    workloads = _load_bench("workloads")
    for name in workloads.WORKLOADS:
        # the traces checks test the decay law on its trajectories; on the
        # tiny size's 10 of them the variance check fails for 7-9% of seeds
        # with a correct kernel, so that workload runs at its full size
        size = "full" if name == "traces" else "tiny"
        wl, _, _ = workloads.prepare(name, ROOT, 5, size)
        assert wl.name == name
        out_dir = tmp_path / name
        out_dir.mkdir()
        b = wl.batch(out_dir)
        assert b.errors == []
        assert [label for label, ok in wl.checks(b) if not ok] == []


def test_benchmark_tracer_reads_run_core_results():
    # the traced benchmark unpacks _run_core's 6-tuple and reads its
    # watch keyword; a change to either would silently skew its counts.
    # No reaction makes W, so the trial is censored and stopped by t_max
    # on every stream, and its first event comes before t_max but on one
    # stream in 3e6
    from crnsim import kinetics
    from crnsim.model import parse_crn

    crn, _ = parse_crn("species: X Y Z W\nX -> Y ; k=1\nY -> Z ; k=1\nZ -> X ; k=1\n")
    stop = kinetics.StopCondition(t_max=3.0, reaches=[("Z", ">=", 1), ("W", ">=", 1)])
    tracer = _load_bench("tracer").Tracer()
    tracer.install()
    try:
        trace = kinetics.simulate(crn, crn.config({"X": 5}), stop, seed=5,
                                  checkpoint_times=[0.1, 0.2, 5.0])
    finally:
        tracer.uninstall()
    w = crn.species.id_of("W")
    assert tracer.counts["kinetics.events"] == len(trace.events) > 0
    assert tracer.counts[f"kinetics.trials.{trace.status}"] == 1
    assert tracer.counts["kinetics.trials.stopped"] == 1
    assert tracer.counts["kinetics.checkpoint_rows"] == len(trace.checkpoints) == 2
    assert tracer.counts["kinetics.trials.censored"] == int(trace.terminal[w] == 0) == 1


def test_pool_machinery_is_imported_on_the_first_fan_out_only():
    # the process pool costs about 15 ms of imports, which every
    # CLI call paid although most never fan out
    code = ("import sys, crnsim.cli\n"
            "print(*[m for m in ('concurrent.futures', 'multiprocessing', 'logging')"
            " if m in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.split() == []
