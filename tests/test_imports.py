import ast
import importlib.util
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
        wl, _, _ = workloads.prepare(name, ROOT, 5, "tiny")
        assert wl.name == name
        out_dir = tmp_path / name
        out_dir.mkdir()
        b = wl.batch(out_dir)
        assert b.errors == []
        assert [label for label, ok in wl.checks(b) if not ok] == []


def test_benchmark_tracer_reads_run_core_results():
    # the traced benchmark unpacks _run_core's 6-tuple and reads its
    # watch keyword; a change to either would silently skew its counts.
    # At this seed Z has not appeared by t_max, so the trial is censored
    from crnsim import kinetics
    from crnsim.model import parse_crn

    crn, _ = parse_crn("X -> Y ; k=1\nY -> Z ; k=1\n")
    stop = kinetics.StopCondition(t_max=0.3, species_appears=frozenset({"Z"}))
    tracer = _load_bench("tracer").Tracer()
    tracer.install()
    try:
        trace = kinetics.simulate(crn, crn.config({"X": 5}), stop, seed=5,
                                  checkpoint_times=[0.1, 0.2, 0.5])
    finally:
        tracer.uninstall()
    z = crn.species.id_of("Z")
    assert tracer.counts["kinetics.events"] == len(trace.events) > 0
    assert tracer.counts[f"kinetics.trials.{trace.status}"] == 1
    assert tracer.counts["kinetics.trials.stopped"] == 1
    assert tracer.counts["kinetics.checkpoint_rows"] == len(trace.checkpoints) == 2
    assert tracer.counts["kinetics.trials.censored"] == int(trace.terminal[z] == 0) == 1
