"""Spans and counts around calls into each crnsim module, for the traced run.

:meth:`Tracer.install` replaces each probed function with a wrapper at
every place a loaded ``crnsim`` module binds it: the defining module and
each ``from .x import name`` site, such as kinetics' ``substream`` and
``open_uniform_block`` and harness' ``_Compiled`` and ``_run_core``.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts the
originals back. A span is (id, name, start, end, parent id). Spans are
held in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict


def _run_core_counts(tr, args, kwargs, res, _):
    _, status, _, cp_rows, watch_times, n_events = res
    counts = {"kinetics.events": n_events, f"kinetics.trials.{status}": 1,
              "kinetics.checkpoint_rows": len(cp_rows)}
    watch = kwargs.get("watch")
    if watch:
        counts["kinetics.watch_trials"] = 1
        counts["kinetics.trials.censored"] = int(len(watch_times) < len(watch))
    tr.add(counts)


def _csv_before(args, kwargs):
    return args[2].tell()  # (trace, crn, fileobj)


def _csv_counts(tr, args, kwargs, res, start):
    tr.add({"kinetics.trace_csv.bytes": args[2].tell() - start})


def _decay_counts(tr, args, kwargs, res, _):
    p, size = args[0], args[1]
    # computed from array shapes, not measured: the float64 exponentials,
    # the float64 scaled waits, their float64 cumulative sum and the bool
    # comparison, each of shape (size, N)
    tr.add({"processes.decay.draws": size, "processes.decay.bytes_computed": size * p.N * 25})


def _draws(key):
    return lambda tr, args, kwargs, res, _: tr.add({key: args[1]})


def _verdict_counts(tr, args, kwargs, res, _):
    tr.add({f"bounds.verdict.{res.verdict}": 1})


def _reachable_counts(tr, args, kwargs, res, _):
    tr.add({"analysis.reachable.configs": res.visited,
            "analysis.reachable.truncated": int(res.truncated)})


# (defining module, attribute, span name, counts hook, before hook)
PROBES = [
    ("crnsim.streams", "substream", "streams.substream", None, None),
    ("crnsim.streams", "open_uniform_block", "streams.uniform_block", None, None),
    ("crnsim.kinetics", "_Compiled", "kinetics.compile", None, None),
    ("crnsim.kinetics", "simulate", "kinetics.simulate", None, None),
    ("crnsim.kinetics", "_run_core", "kinetics.run_core", _run_core_counts, None),
    ("crnsim.kinetics:Trace", "to_csv", "kinetics.trace_csv", _csv_counts, _csv_before),
    ("crnsim.kinetics:Trace", "checkpoints_to_csv", "kinetics.trace_csv", _csv_counts,
     _csv_before),
    ("crnsim.harness", "leader_election_experiment", "harness.leader", None, None),
    ("crnsim.harness", "chain_experiment", "harness.chain", None, None),
    ("crnsim.harness", "constant_time_scan", "harness.scan", None, None),
    ("crnsim.processes", "sample_decay_batch", "processes.decay", _decay_counts, None),
    ("crnsim.processes", "sample_walk_reflecting_batch", "processes.reflecting",
     _draws("processes.reflecting.draws"), None),
    ("crnsim.processes", "sample_walk_z_batch", "processes.walk_z",
     _draws("processes.walk_z.draws"), None),
    ("crnsim.bounds", "monte_carlo_validate", "bounds.validate", _verdict_counts, None),
    ("crnsim.bounds", "clopper_pearson_upper", "bounds.clopper_pearson", None, None),
    ("crnsim.bounds", "compute_theorem_constants", "bounds.constants", None, None),
    ("crnsim.parallel", "map_ordered", "parallel.map_ordered", None, None),
    ("crnsim.analysis", "stage_decomposition", "analysis.stages", None, None),
    ("crnsim.analysis", "check_mass_conserving", "analysis.simplex", None, None),
    ("crnsim.analysis", "reachable_set", "analysis.reachable", _reachable_counts, None),
    ("crnsim.analysis", "closure_vs_oracle", "analysis.closure_vs_oracle", None, None),
    ("crnsim.model", "parse_crn", "model.parse", None, None),
    ("crnsim.cli", "main", "cli.main", None, None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def reset(self):
        self.spans, self.counts = [], Counter()

    def add(self, counts: dict):
        with self._lock:  # hooks also run on the thread pool of map_ordered
            self.counts.update(counts)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, after=None, before=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            state = before(args, kwargs) if before else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent))
            if after:
                after(self, args, kwargs, res, state)
            return res

        return traced

    def _wrap_map(self, fn):
        """map_ordered's span; work items on pool threads take it as their parent."""

        def run(work, items, threads=1):
            items = list(items)
            self.add({"parallel.map_ordered.items": len(items)})
            parent = self._stack()[-1]  # the span the wrapper below opened

            def item(x):
                stack = self._stack()
                if stack:  # serial: already inside the span on this thread
                    return work(x)
                stack.append(parent)
                try:
                    return work(x)
                finally:
                    stack.pop()

            return fn(item, items, threads)

        return self.wrap("parallel.map_ordered", run)

    def install(self):
        """Wrap every probed function at each loaded crnsim module that binds it."""
        loaded = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "crnsim"]
        for where, attr, name, after, before in PROBES:
            modname, _, clsname = where.partition(":")
            mod = sys.modules.get(modname)
            if mod is None:  # the workload never imported it
                continue
            if clsname:
                owner = getattr(mod, clsname)
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, after, before))
                continue
            orig = getattr(mod, attr)
            wrapper = (self._wrap_map(orig) if name == "parallel.map_ordered"
                       else self.wrap(name, orig, after, before))
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []


def self_times(spans) -> tuple[dict, dict]:
    """(self seconds, total seconds) per span name.

    Self time is a span's duration minus the part of it covered by the
    union of its children, which may overlap when they ran on a pool.
    """
    children = defaultdict(list)
    for sid, _, t0, t1, parent in spans:
        if parent:
            children[parent].append((t0, t1))
    own, total = defaultdict(float), defaultdict(float)
    for sid, name, t0, t1, _ in spans:
        covered, reach = 0.0, t0
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, t1)
            if b > a:
                covered += b - a
                reach = b
        own[name] += (t1 - t0) - covered
        total[name] += t1 - t0
    return own, total


SPAN_METRICS = [
    "streams.substream", "streams.uniform_block", "kinetics.compile", "kinetics.simulate",
    "kinetics.run_core", "bounds.validate", "bounds.clopper_pearson", "bounds.constants",
    "analysis.stages", "analysis.simplex", "analysis.reachable", "model.parse", "cli.main",
]
SELF_ONLY = [
    "kinetics.trace_csv", "harness.leader", "harness.chain", "harness.scan",
    "processes.decay", "processes.reflecting", "processes.walk_z",
    "analysis.closure_vs_oracle",
]
COUNTS = [
    "kinetics.events", "kinetics.trials.stopped", "kinetics.trials.exhausted",
    "kinetics.trials.censored", "kinetics.checkpoint_rows", "kinetics.trace_csv.bytes",
    "processes.decay.draws", "processes.decay.bytes_computed", "processes.reflecting.draws",
    "processes.walk_z.draws", "bounds.verdict.dominates", "bounds.verdict.inconclusive",
    "bounds.verdict.violated", "parallel.map_ordered.items",
    "analysis.reachable.configs", "analysis.reachable.truncated",
]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values for the spans and counts recorded since the last reset."""
    own, total = self_times(tracer.spans)
    calls = Counter(name for _, name, _, _, _ in tracer.spans)
    c = tracer.counts
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = own[name]
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = own[name]
    for key in COUNTS:
        out[key] = c[key]
    busy = total["kinetics.run_core"]
    out["kinetics.events_per_busy_s"] = c["kinetics.events"] / busy if busy else 0.0
    watched = c["kinetics.watch_trials"]
    out["kinetics.produced_frac"] = (
        1.0 - c["kinetics.trials.censored"] / watched if watched else 0.0
    )
    out["parallel.map_ordered.calls"] = calls["parallel.map_ordered"]
    out["parallel.map_ordered.wall_s"] = total["parallel.map_ordered"]
    return out
