"""The four benchmark workloads: trials, traces, bounds and oracle.

Each workload is built from a seed and then runs one fixed batch of calls
into ``crnsim`` as a closed loop: every call starts after the previous one
returned. A batch records the latency of each unit call, the amount of
work done (trials, events, draws or configurations), the results the
output checks need, and the calls that raised.

This module imports only the standard library at load time. The crnsim
modules (and numpy with them) are imported by :func:`prepare`, so that
the set-up probe can time the import on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import random
import sys
import time
import traceback
from pathlib import Path

# A check fails when an estimate is more than Z standard errors from its
# reference. Z = 5 puts the false-alarm rate per check near 6e-7, so
# checks hold at any seed and under any change to how much randomness a
# trial consumes, while a genuinely wrong law still fails them.
Z = 5.0

# When set, samples the host's speed between unit calls (see hostspeed).
speed_probe = None


class Batch:
    """What one pass over a workload's fixed batch produced."""

    def __init__(self):
        self.units: list[float] = []  # seconds per unit call
        self.starts: list[float] = []  # perf_counter at the start of each unit call
        self.work = 0
        self.results: dict = {}
        self.errors: list[str] = []

    def call(self, label, fn, *args, **kwargs):
        """Time one unit call; a call that raises is recorded and yields None."""
        return self._invoke(True, label, fn, args, kwargs)

    def side_call(self, label, fn, *args, **kwargs):
        """A call outside the latency sample, recorded like a unit call if it raises."""
        return self._invoke(False, label, fn, args, kwargs)

    def _invoke(self, unit, label, fn, args, kwargs):
        if speed_probe is not None:
            speed_probe.maybe_sample()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # the benchmark keeps running and counts the failure
            if not self.errors:
                traceback.print_exc(file=sys.stderr)
            self.errors.append(label)
            return None
        if unit:
            self.units.append(time.perf_counter() - t0)
            self.starts.append(t0)
        return out


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()[:16]


def _subseeds(seed: int, names) -> dict:
    rng = random.Random(seed)
    return {name: rng.randrange(2**31) for name in names}


class Workload:
    name = ""
    modules: tuple[str, ...] = ()
    unit = ""  # what one latency sample is
    work_unit = ""  # what throughput_per_s counts
    alias = ""  # the workload-specific name of throughput_per_s
    reference = "interpreter"  # the hostspeed reference loop that tracks it
    single_cpu = True  # measured on one CPU (all but a thread fan-out)

    def batch(self, out_dir: Path) -> Batch:
        raise NotImplementedError

    def checks(self, b: Batch) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def digest(self, b: Batch) -> str:
        raise NotImplementedError

    def fanout(self, threads: int):
        """The workload's calls that fan out over threads, for the threads probe."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# trials: multi-trial kinetics through harness


class Trials(Workload):
    """Leader election, the doubling chain and two constant-time scans.

    This is the multi-trial path (watch and count stops, one substream per
    trial) that a batched event kernel would replace.
    """

    name = "trials"
    modules = ("crnsim.harness", "crnsim.model")
    unit = "one harness call"
    work_unit = "kinetic trials"
    alias = "trials_per_s"

    LEADER_N = 1000
    CHAIN_M, CHAIN_N, CHAIN_T_CAP = 3, 4096, 4.0
    SCAN_GRID = (100, 1000, 10_000)
    # trials per call: leader, chain, scan. Leader calls take clearly less
    # time than chain calls and more than scan calls, so the latency
    # median sits inside the leader calls rather than between two kinds.
    SIZES = {"full": (150, 30, 1000), "tiny": (20, 2, 50)}

    def __init__(self, mods, seed, size, root):
        self.harness, model = mods["crnsim.harness"], mods["crnsim.model"]
        self.leader_trials, self.chain_trials, self.scan_trials = self.SIZES[size]
        self.seeds = _subseeds(seed, ("leader0", "leader1", "chain0", "chain1", "scan0", "scan1"))
        leader = self.harness.leader_election_crn()
        convert, _ = model.parse_crn("X -> Y ; k=1\n")
        self.scans = (
            (leader, model.Configuration([10, 0]), self.seeds["scan0"]),
            (convert, convert.config({"X": 10}), self.seeds["scan1"]),
        )

    def batch(self, out_dir):
        h, b = self.harness, Batch()
        b.results = {"leader": [], "chain": [], "scan": []}
        for k in ("leader0", "leader1"):
            r = b.call(k, h.leader_election_experiment, self.LEADER_N, self.leader_trials,
                       self.seeds[k])
            if r is not None:
                b.results["leader"].append(r)
                b.work += r.trials
        for k in ("chain0", "chain1"):
            r = b.call(k, h.chain_experiment, self.CHAIN_M, self.CHAIN_N, self.chain_trials,
                       self.CHAIN_T_CAP, self.seeds[k])
            if r is not None:
                b.results["chain"].append(r)
                b.work += r.stats.trials
        for i, (crn, tmpl, seed) in enumerate(self.scans):
            r = b.call(f"scan{i}", h.constant_time_scan, crn, tmpl, 1.0, self.SCAN_GRID,
                       self.scan_trials, seed)
            if r is not None:
                b.results["scan"].append(r)
                b.work += self.scan_trials * len(self.SCAN_GRID)
        return b

    def checks(self, b):
        import numpy as np

        out = []
        if b.results["leader"]:
            # the mean time to one leader is 2(n-1); tolerance from the sample's own SE
            times = np.concatenate([r.times for r in b.results["leader"]])
            ref = 2.0 * (self.LEADER_N - 1)
            se = times.std(ddof=1) / math.sqrt(times.size)
            out.append(("leader mean vs 2(n-1)", abs(times.mean() - ref) <= Z * se))
        for r in b.results["chain"]:
            t = r.stats.times
            done = t[~np.isnan(t)]
            out.append(("chain times in (0, t_cap]",
                        bool(np.all((done > 0) & (done <= r.t_cap)))))
        for scan in b.results["scan"]:
            for species in scan.targets:
                meds = [row.median for row in scan.rows_for(species)]
                ok = all(math.isfinite(m) for m in meds) and all(
                    nxt <= prev * 1.1 for prev, nxt in zip(meds, meds[1:])
                )
                out.append((f"scan {species} medians finite and non-increasing", ok))
        return out

    def digest(self, b):
        parts = [r.times for r in b.results["leader"]]
        parts += [r.stats.times for r in b.results["chain"]]
        parts += [(row.n, row.species, row.produced_count, row.median, row.p90)
                  for s in b.results["scan"] for row in s.rows]
        return _digest(parts)

    def fanout(self, threads):
        self.harness.leader_election_experiment(self.LEADER_N, self.leader_trials // 2,
                                                self.seeds["leader0"], threads=threads)
        crn, tmpl, seed = self.scans[1]
        self.harness.constant_time_scan(crn, tmpl, 1.0, self.SCAN_GRID,
                                        self.scan_trials // 2, seed, threads=threads)


# ---------------------------------------------------------------------------
# traces: scalar simulate with event recording and checkpoints


class Traces(Workload):
    """Single recorded trajectories, one ``kinetics.simulate`` call each.

    Decay ``X -> 0`` from N=1000 to t=1 at four checkpoints (the law is
    Binomial(1000, e^-1)), and the three-stage doubling chain from the
    demo file run to exhaustion. Every tenth trajectory is written out as
    CSV, as ``crnsim simulate`` does.
    """

    name = "traces"
    modules = ("crnsim.kinetics", "crnsim.model", "crnsim.parallel")
    unit = "one simulate call"
    work_unit = "recorded reaction events"
    alias = "events_per_s"
    reference = "records"

    DECAY_N = 1000
    CHECKPOINTS = (0.25, 0.5, 0.75, 1.0)
    WRITE_EVERY = 10
    # decay and chain3 trajectories. A batch lasts about two seconds: the
    # host's speed flips on a scale of a second, and a shorter batch made
    # the median batch time jump between a fast and a slow mode.
    SIZES = {"full": (800, 160), "tiny": (10, 2)}

    def __init__(self, mods, seed, size, root):
        self.kinetics, model = mods["crnsim.kinetics"], mods["crnsim.model"]
        self.parallel = mods["crnsim.parallel"]
        n_decay, n_chain = self.SIZES[size]
        self.seeds = _subseeds(seed, ("decay", "chain3"))
        decay, _ = model.parse_crn("X -> 0 ; k=1\n")
        chain, _ = model.parse_crn((root / "demos" / "crn" / "chain3.crn").read_text())
        k = self.kinetics
        # (crn, init, stop, seed, trajectory index)
        self.runs = [
            (decay, decay.config({"X": self.DECAY_N}), k.StopCondition(t_max=1.0),
             self.seeds["decay"], i)
            for i in range(n_decay)
        ] + [
            # the chain always exhausts; the event cap only guards a broken kernel
            (chain, chain.config({"X1": 1000}), k.StopCondition(max_events=1_000_000),
             self.seeds["chain3"], i)
            for i in range(n_chain)
        ]
        self.decay_crn = decay

    def _simulate(self, run):
        crn, init, stop, seed, i = run
        return self.kinetics.simulate(crn, init, stop, seed, stream_key=(i,),
                                      checkpoint_times=self.CHECKPOINTS)

    def batch(self, out_dir):
        b = Batch()
        b.results = {"decay": [], "chain": [], "kept": []}
        for j, run in enumerate(self.runs):
            tr = b.call(f"simulate {j}", self._simulate, run)
            if tr is None:
                continue
            b.work += len(tr.events)
            crn = run[0]
            key = "decay" if crn is self.decay_crn else "chain"
            b.results[key].append((tr.terminal.counts, len(tr.events), tr.status, tr.time))
            if j % self.WRITE_EVERY == 0:
                path = out_dir / f"trace-{j}.csv"
                with open(path, "w", newline="") as f:
                    tr.to_csv(crn, f)
                with open(out_dir / f"checkpoints-{j}.csv", "w", newline="") as f:
                    tr.checkpoints_to_csv(crn, f)
                b.results["kept"].append((crn, tr, path))
        return b

    def checks(self, b):
        import numpy as np

        out = []
        x = np.array([c[0] for c, _, _, _ in b.results["decay"]], dtype=float)
        if x.size >= 2:
            p = math.exp(-1.0)
            mean_ref = self.DECAY_N * p
            var_ref = self.DECAY_N * p * (1 - p)
            mean, var = x.mean(), x.var(ddof=1)
            m4 = ((x - mean) ** 4).mean()
            out.append(("decay terminal mean vs Binomial(1000, 1/e)",
                        abs(mean - mean_ref) <= Z * math.sqrt(var / x.size)))
            out.append(("decay terminal variance vs Binomial(1000, 1/e)",
                        abs(var - var_ref) <= Z * math.sqrt(max(m4 - var**2, 0.0) / x.size)))
        if b.results["chain"]:
            out.append(("chain3 runs exhaust with X1..X3 gone", all(
                status == "exhausted" and not counts[:3].any()
                for counts, _, status, _ in b.results["chain"]
            )))
        for crn, tr, path in b.results["kept"]:
            *_, last = tr.replay(crn)
            with open(path) as f:
                rows = sum(1 for _ in f) - 1
            out.append(("replay reproduces terminal and CSV has every event",
                        last == tr.terminal and rows == len(tr.events)
                        and len(tr.checkpoints) == len(self.CHECKPOINTS)))
        return out

    def digest(self, b):
        return _digest(
            [counts for key in ("decay", "chain") for counts, _, _, _ in b.results[key]]
            + [(n, s, t) for key in ("decay", "chain") for _, n, s, t in b.results[key]]
        )

    def fanout(self, threads):
        decay_runs = self.runs[: len(self.runs) // 2]
        self.parallel.map_ordered(self._simulate, decay_runs, threads)


# ---------------------------------------------------------------------------
# bounds: Monte Carlo validation of the tail bounds


class Bounds(Workload):
    """``monte_carlo_validate`` over a fixed sub-grid of the criterion-6
    families, at threads=2.

    Reflecting points dominate the cost; poisson and walk_z are nearly
    free, so they expose the fixed per-chunk cost. Every point has its
    analytic bound at or above 1e-3 and its true tail far below the bound,
    so no seed makes a verdict inconclusive or violated.
    """

    name = "bounds"
    modules = ("crnsim.bounds",)
    unit = "one monte_carlo_validate call"
    work_unit = "Monte Carlo draws"
    alias = "draws_per_s"
    reference = "arrays"
    single_cpu = False
    THREADS = 2
    SIZES = {"full": 100_000, "tiny": 10_000}  # draws per point

    def __init__(self, mods, seed, size, root):
        bd = self.bounds = mods["crnsim.bounds"]
        self.trials = self.SIZES[size]

        def walk(f, r, eps, target_exp):  # horizon giving a bound of 2e^-target_exp
            return bd.WalkBoundParams(f, r, 8.0 * f * target_exp / (eps**2 * (f - r) ** 2), eps)

        # four decay points of similar cost hold the latency median, the two
        # reflecting points the 95th percentile
        self.points = [
            ("reflecting", bd.ReflectingBoundParams(0.1, 1.0, 0.025, 1000)),
            ("reflecting", bd.ReflectingBoundParams(0.6, 3.0, 0.045, 160)),
            ("decay", bd.DecayBoundParams(66, 1.0, 0.5, 0.05)),
            ("decay", bd.DecayBoundParams(74, 1.0, 0.75, 0.05)),
            ("decay", bd.DecayBoundParams(78, 1.0, 1.0, 0.1)),
            ("decay", bd.DecayBoundParams(84, 1.0, 1.0, 0.05)),
            ("poisson", bd.PoissonBoundParams(5.0, 8.0, "upper")),
            ("poisson", bd.PoissonBoundParams(40.0, 24.0, "lower")),
            ("walk_z", walk(20.0, 5.0, 0.5, 2.0)),
            ("walk_z", walk(100.0, 25.0, 2.0 / 3.0, 5.0)),
        ]
        self.seeds = _subseeds(seed, [f"point{i}" for i in range(len(self.points))])

    def batch(self, out_dir):
        b = Batch()
        b.results = {"reports": []}
        for i, (target, params) in enumerate(self.points):
            rep = b.call(f"{target} {i}", self.bounds.monte_carlo_validate, target, params,
                         trials=self.trials, seed=self.seeds[f"point{i}"],
                         threads=self.THREADS)
            if rep is not None:
                b.results["reports"].append(rep)
                b.work += rep.trials
        return b

    def checks(self, b):
        return [(f"{r.target} {r.params}: verdict dominates", r.verdict == "dominates")
                for r in b.results["reports"]]

    def digest(self, b):
        return _digest([(r.empirical_hits, r.upper_confidence, r.verdict)
                        for r in b.results["reports"]])

    def fanout(self, threads):
        target, params = self.points[0]
        self.bounds.monte_carlo_validate(target, params, trials=self.trials,
                                         seed=self.seeds["point0"], threads=threads)


# ---------------------------------------------------------------------------
# oracle: static analysis and the CLI


def _random_network(rng: random.Random):
    """One network of the criterion-5 family: at most 4 species and 5
    reactions, each side holding at most 2 molecules, rate constants in
    [0.5, 2], and a nonzero initial configuration with counts at most 3."""
    ns, nr = rng.randint(1, 4), rng.randint(1, 5)
    reactions = []
    for _ in range(nr):
        while True:
            sides = []
            for _ in range(2):
                side = [0] * ns
                for _ in range(rng.randint(0, 2)):
                    side[rng.randrange(ns)] += 1
                sides.append(side)
            if sides[0] != sides[1]:
                break
        reactions.append((sides[0], sides[1], round(rng.uniform(0.5, 2.0), 3)))
    while True:
        init = [rng.randint(0, 3) for _ in range(ns)]
        if any(init):
            return ns, reactions, init


def _network_text(ns, reactions, species_order, reaction_order) -> str:
    def side(counts):
        terms = [(f"{c}" if c > 1 else "") + f"S{i}" for i, c in enumerate(counts) if c]
        return " + ".join(terms) or "0"

    lines = ["species: " + " ".join(f"S{i}" for i in species_order)]
    lines += [f"{side(reactions[j][0])} -> {side(reactions[j][1])} ; k={reactions[j][2]}"
              for j in reaction_order]
    return "\n".join(lines) + "\n"


class Oracle(Workload):
    """Stage decomposition, the exact simplex and capped BFS on random
    small networks; closure-vs-oracle comparisons; in-process CLI calls.

    The random networks are one fixed panel drawn from the criterion-5
    family; the seed relabels their species, reorders their reactions and
    shuffles the panel. BFS cost varies by a factor of several between
    networks, so drawing a fresh panel per seed moved the batch time by
    about 20% between seeds; relabelling keeps the work per seed the same
    while the inputs still change with the seed.
    """

    name = "oracle"
    modules = ("crnsim.analysis", "crnsim.model", "crnsim.cli", "crnsim.parallel")
    unit = "one network analysed"
    work_unit = "BFS configurations visited (random networks)"
    alias = "configs_per_s"

    PANEL_SEED = 20120815
    MAX_CONFIGS, MAX_COUNT = 4000, 64
    SIZES = {"full": 150, "tiny": 12}
    CHAIN3 = ("species: X1 X2 X3 X4\nX1 -> 0\nX2 -> 0\nX3 -> 0\n"
              "X1 + X1 -> X2\nX2 + X2 -> X3\nX3 + X3 -> X4\n")

    def __init__(self, mods, seed, size, root):
        self.analysis, model = mods["crnsim.analysis"], mods["crnsim.model"]
        self.cli, self.parallel = mods["crnsim.cli"], mods["crnsim.parallel"]
        self.root = root
        panel_rng, rng = random.Random(self.PANEL_SEED), random.Random(seed)
        self.seeds = {"relabel": seed}
        self.networks = []
        for _ in range(self.SIZES[size]):
            ns, reactions, init = _random_network(panel_rng)
            species = rng.sample(range(ns), ns)
            order = rng.sample(range(len(reactions)), len(reactions))
            crn, _ = model.parse_crn(_network_text(ns, reactions, species, order))
            self.networks.append((crn, crn.config({f"S{i}": c for i, c in enumerate(init)})))
        rng.shuffle(self.networks)
        pair, _ = model.parse_crn("X + X -> Y\n")
        chain, _ = model.parse_crn(self.CHAIN3)
        # (crn, init, scale limit, least scale at which BFS meets the closure)
        self.closures = [(pair, pair.config({"X": 1}), 3, 2),
                         (chain, chain.config({"X1": 1}), 8, 8)]
        demos = root / "demos" / "crn"
        self.cli_calls = []
        for stem, init, c_hat in (("leader", "L=2", ()), ("convert", "X=1", ()),
                                  ("chain3", "X1=1", ("--c-hat", "1"))):
            path = str(demos / f"{stem}.crn")
            if not Path(path).is_file():
                raise FileNotFoundError(path)
            self.cli_calls += [
                ["validate", path],
                ["analyze", path, "--init", init],
                ["constants", path, "--init", init, "--alpha", "0.5", *c_hat],
                ["reachable", path, "--init", init, "--compare-closure", "--scale-limit", "8"],
            ]

    def _analyse(self, net):
        crn, init = net
        a = self.analysis
        closure = a.stage_decomposition(crn, init).closure
        a.check_mass_conserving(crn)
        rep = a.reachable_set(crn, init, self.MAX_CONFIGS, self.MAX_COUNT)
        return rep, closure

    def _cli(self, argv, out_dir):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = self.cli.main(["--out-dir", str(out_dir), *argv])
        return code, buf.getvalue()

    def batch(self, out_dir):
        b = Batch()
        b.results = {"nets": [], "closures": [], "cli": []}
        for i, net in enumerate(self.networks):
            r = b.call(f"network {i}", self._analyse, net)
            if r is not None:
                b.results["nets"].append(r)
                b.work += r[0].visited
        for crn, init, limit, want in self.closures:
            cmp = b.side_call("closure_vs_oracle", self.analysis.closure_vs_oracle,
                              crn, init, limit)
            if cmp is not None:
                b.results["closures"].append((want, cmp.least_equal_scale))
        for argv in self.cli_calls:
            r = b.side_call(f"crnsim {argv[0]}", self._cli, argv, out_dir)
            if r is not None:
                b.results["cli"].append((argv, *r))
        return b

    def checks(self, b):
        out = [("BFS-producible within the stage closure", rep.producible <= closure)
               for rep, closure in b.results["nets"]]
        out += [(f"closure first coincides at scale {want}", got == want)
                for want, got in b.results["closures"]]
        out += [(f"crnsim {argv[0]} exits 0", code == 0) for argv, code, _ in b.results["cli"]]
        return out

    def digest(self, b):
        root = str(self.root)
        return _digest(
            [(rep.visited, rep.truncated, sorted(rep.producible)) for rep, _ in b.results["nets"]]
            + b.results["closures"]
            + [(code, text.replace(root, "")) for _, code, text in b.results["cli"]]
        )

    def fanout(self, threads):
        self.parallel.map_ordered(self._analyse, self.networks[:40], threads)


WORKLOADS = {w.name: w for w in (Trials, Traces, Bounds, Oracle)}


def prepare(name: str, root: Path, seed: int, size: str):
    """Import the modules a workload uses and build its inputs.

    Returns (workload, import seconds, input-building seconds).
    """
    cls = WORKLOADS[name]
    t0 = time.perf_counter()
    mods = {m: importlib.import_module(m) for m in cls.modules}
    t1 = time.perf_counter()
    wl = cls(mods, seed, size, root)
    return wl, t1 - t0, time.perf_counter() - t1
