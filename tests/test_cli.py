import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import crnsim
from crnsim import analysis, kinetics, model
from crnsim.cli import build_parser, main

LEADER = "L + L -> L + N ; k=1\ninit: L = 1000\n"
CHAIN3 = (
    "species: X1 X2 X3 X4\n"
    "X1 -> 0\nX2 -> 0\nX3 -> 0\n"
    "X1 + X1 -> X2\nX2 + X2 -> X3\nX3 + X3 -> X4\n"
)
CONVERT = "X -> Y ; k=1\ninit: X = 100\n"


@pytest.fixture
def leader_file(tmp_path):
    p = tmp_path / "leader.crn"
    p.write_text(LEADER)
    return str(p)


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain3.crn"
    p.write_text(CHAIN3)
    return str(p)


@pytest.fixture
def convert_file(tmp_path):
    p = tmp_path / "convert.crn"
    p.write_text(CONVERT)
    return str(p)


class TestReports:
    def test_validate_leader(self, leader_file, capsys):
        assert main(["validate", leader_file]) == 0
        out = capsys.readouterr().out
        assert "population_protocol" in out
        assert "c_hat = 1" in out

    def test_analyze_chain_stages(self, chain_file, capsys):
        assert main(["analyze", chain_file, "--init", "X1=1000"]) == 0
        out = capsys.readouterr().out
        assert "m = 3" in out
        assert "stage 3" in out

    def test_bounds_reflecting_worked_value(self, capsys):
        rc = main(
            [
                "bounds", "reflecting",
                "--delta-f", "0.22", "--lambda-r", "1", "--delta-r", "0.05", "--N", "1000",
            ]
        )
        assert rc == 0
        assert "-9" in capsys.readouterr().out

    def test_bounds_walk_validates_walk_z(self, capsys):
        rc = main(
            [
                "--format", "json", "bounds", "walk", "--f-hat", "100", "--r-hat", "25",
                "--t", "1", "--eps-hat", "0.6667", "--validate", "--trials", "10000",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["process"] == "walk"
        assert report["validation"]["target"] == "walk_z"
        assert report["validation"]["verdict"] == "dominates"

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("decay", "--N --lam --t --delta"),
            ("poisson", "--lam --n --side"),
            ("walk", "--f-hat --r-hat --t --eps-hat"),
            ("reflecting", "--delta-f --lambda-r --delta-r --N"),
        ],
    )
    def test_bounds_required_flags(self, capsys, command, flags):
        # the flags come from the parameter dataclass fields, so a change to
        # their order or inheritance would change them silently
        assert main(["bounds", command]) == 2
        err = capsys.readouterr().err
        assert err.split("required: ")[1].strip().split(", ") == flags.split()

    def test_constants_json(self, chain_file, capsys):
        rc = main(
            ["--format", "json", "constants", chain_file, "--init", "X1=8",
             "--alpha", "1.0", "--c-hat", "1.0"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["m"] == 3
        assert report["K_hat"] == 6.0
        assert len(report["log2_delta"]) == 4

    def test_reachable_compare_closure(self, tmp_path, capsys):
        p = tmp_path / "pair.crn"
        p.write_text("X + X -> Y\ninit: X = 1\n")
        assert main(["reachable", str(p), "--compare-closure", "--scale-limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "least coinciding scale: 2" in out

    def test_reachable_plain(self, convert_file, capsys):
        assert main(["reachable", convert_file]) == 0
        assert "producible" in capsys.readouterr().out

    def test_validate_json_format(self, leader_file, capsys):
        assert main(["--format", "json", "validate", leader_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["finite_density"]["kind"] == "population_protocol"


def _leaf_commands(parser, path=()):
    """Every runnable command path under ``parser``, e.g. ``("bounds", "decay")``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [path]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in _leaf_commands(sub, (*path, name))]


# small arguments for every command; a command missing here fails the test below
SMALL_INPUTS = {
    ("validate",): [["{leader}"]],
    ("analyze",): [["{chain}", "--init", "X1=8", "--alpha", "0.5"]],
    ("constants",): [["{chain}", "--init", "X1=8", "--alpha", "1", "--c-hat", "1"]],
    ("simulate",): [["{convert}", "--t-max", "0.5", "--checkpoints", "0.25"]],
    ("first-production",): [["{convert}", "--target", "Y", "--trials", "20", "--t-cap", "5"]],
    ("reachable",): [["{chain}", "--init", "X1=4"],
                     ["{chain}", "--init", "X1=1", "--compare-closure", "--scale-limit", "3"]],
    ("bounds", "decay"): [["--N", "80", "--lam", "1", "--t", "0.5", "--delta", "0.1",
                           "--validate", "--trials", "10000"]],
    ("bounds", "poisson"): [["--lam", "10", "--n", "14", "--side", "upper"]],
    ("bounds", "walk"): [["--f-hat", "100", "--r-hat", "25", "--t", "1", "--eps-hat", "0.6667"]],
    ("bounds", "reflecting"): [["--delta-f", "0.22", "--lambda-r", "1", "--delta-r", "0.05",
                                "--N", "1000"]],
    ("demo", "leader"): [["--n", "10", "--trials", "5"]],
    ("demo", "chain"): [["--m", "1", "--n", "16", "--trials", "4"]],
    ("demo", "scan"): [["{convert}", "--alpha", "1.0", "--n-grid", "20", "--trials", "5"]],
}


@pytest.mark.parametrize("leaf", _leaf_commands(build_parser()), ids=" ".join)
def test_every_command_prints_one_json_document(leaf, leader_file, chain_file, convert_file,
                                               tmp_path, capsys):
    # main is the one place that prints a report
    for tail in SMALL_INPUTS[leaf]:
        tail = [a.format(leader=leader_file, chain=chain_file, convert=convert_file)
                for a in tail]
        assert main(["--format", "json", "--out-dir", str(tmp_path), *leaf, *tail]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_small_inputs_name_only_commands():
    assert set(SMALL_INPUTS) == set(_leaf_commands(build_parser()))


DEMO_CRN = Path(__file__).resolve().parents[1] / "demos" / "crn"


def _stdout_digest(argvs, capsys) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        assert main(argv) == 0
        h.update(capsys.readouterr().out.encode())
    return h.hexdigest()[:16]


class TestPinnedReports:
    """sha256 prefixes of report output on the demo networks: a population
    protocol (leader), a mass-conserving one (convert) and one with no
    conservation certificate (chain3)."""

    @pytest.mark.parametrize(
        "stem, init, extra, digest",
        [
            ("chain3", "X1=1000", ["--c-hat", "1"], "19318b6cc434b117"),
            ("leader", "L=1000", [], "1b527a75ea26a094"),
            ("convert", "X=1000", [], "1b527a75ea26a094"),
        ],
    )
    def test_constants_json(self, stem, init, extra, digest, capsys):
        argv = ["--format", "json", "constants", str(DEMO_CRN / f"{stem}.crn"),
                "--init", init, "--alpha", "0.5", *extra]
        assert _stdout_digest([argv], capsys) == digest

    def test_analyze_text_and_json(self, capsys):
        argvs = [
            ["--format", fmt, "analyze", str(DEMO_CRN / f"{stem}.crn"), "--init", init,
             "--alpha", "0.5"]
            for stem, init in (("chain3", "X1=8"), ("leader", "L=8"), ("convert", "X=8"))
            for fmt in ("text", "json")
        ]
        assert _stdout_digest(argvs, capsys) == "63a3dc0376a517b8"

    def test_reachable_text_and_json(self, capsys):
        # default caps: chain3 closes at 3396 configurations, leader starts
        # above max_count and convert fills max_configs, so the last two
        # searches are truncated
        argvs = [
            ["--format", fmt, "reachable", str(DEMO_CRN / f"{stem}.crn"), "--init", init]
            for stem, init in (("chain3", "X1=40"), ("leader", "L=1000002"),
                               ("convert", "X=1000001"))
            for fmt in ("text", "json")
        ]
        assert _stdout_digest(argvs, capsys) == "a2f1e3d13dc9a9d3"

    def test_reachable_compare_closure_text_and_json(self, capsys):
        # the last three comparisons truncate at least one scale: by
        # max_configs at scale 1 and by max_count at scale 2 (leader,
        # convert), and by max_configs at scales 2 and 3 (chain3)
        argvs = [
            ["--format", fmt, "reachable", str(DEMO_CRN / f"{stem}.crn"), "--init", init,
             "--compare-closure", *extra]
            for stem, init, extra in (
                ("leader", "L=2", []),
                ("convert", "X=1", []),
                ("chain3", "X1=1", []),
                ("leader", "L=500001", ["--scale-limit", "2", "--max-configs", "1000"]),
                ("convert", "X=600000", ["--scale-limit", "2", "--max-configs", "1000"]),
                ("chain3", "X1=20", ["--scale-limit", "3", "--max-configs", "2000"]),
            )
            for fmt in ("text", "json")
        ]
        assert _stdout_digest(argvs, capsys) == "76338809913ba03d"

    def test_bounds_text_and_json(self, capsys):
        # every subcommand at a point with tail hits, each bare and validated
        points = [
            ["decay", "--N", "80", "--lam", "1", "--t", "0.5", "--delta", "0.5"],
            ["poisson", "--lam", "10", "--n", "14", "--side", "upper"],
            ["walk", "--f-hat", "10", "--r-hat", "5", "--t", "1", "--eps-hat", "0.5"],
            ["reflecting", "--delta-f", "0.1", "--lambda-r", "1", "--delta-r", "0.025",
             "--N", "100"],
        ]
        argvs = [
            ["--format", fmt, "--seed", "6101", "bounds", *point, *validate]
            for point in points
            for validate in ([], ["--validate", "--trials", "10000"])
            for fmt in ("text", "json")
        ]
        assert _stdout_digest(argvs, capsys) == "d9255c29cc5b270a"

    def test_compare_closure_json_reports_its_caps(self, capsys):
        # both searches truncate every scale, so only the caps tell them apart
        reports = []
        for cap in ("1000", "100000"):
            assert main(["--format", "json", "reachable", str(DEMO_CRN / "leader.crn"),
                         "--init", "L=500001", "--compare-closure", "--scale-limit", "2",
                         "--max-configs", cap]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert [r["caps"] for r in reports] == [
            {"max_configs": 1000, "max_count": 1_000_000},
            {"max_configs": 100_000, "max_count": 1_000_000},
        ]

    def test_analyze_solves_the_simplex_once(self, monkeypatch, capsys):
        calls = []
        solve = analysis.check_mass_conserving
        monkeypatch.setattr(analysis, "check_mass_conserving",
                            lambda crn: calls.append(crn) or solve(crn))
        assert main(["analyze", str(DEMO_CRN / "chain3.crn"), "--init", "X1=8"]) == 0
        assert len(calls) == 1


class TestBulkOutputs:
    def test_simulate_writes_trace_and_checkpoints(self, convert_file, tmp_path, capsys):
        rc = main(
            [
                "--out-dir", str(tmp_path / "out"),
                "simulate", convert_file,
                "--t-max", "1.0", "--checkpoints", "0.5,1.0",
            ]
        )
        assert rc == 0
        trace = (tmp_path / "out" / "trace.csv").read_text()
        assert trace.splitlines()[0] == "event_index,time,reaction_label"
        cps = (tmp_path / "out" / "checkpoints.csv").read_text()
        assert cps.splitlines()[0] == "time,X,Y"

    @pytest.mark.parametrize("text", ["X -> 0 ; k=1\n", "X -> Y ; k=1\nY -> X ; k=1\n"],
                             ids=["one-reaction", "two-reactions"])
    def test_checkpoint_of_minus_zero_is_written_as_zero(self, tmp_path, capsys, text):
        # -0 passed the nonnegative check and its row read -0.0,5
        p = tmp_path / "d.crn"
        p.write_text(text)
        argv = ["simulate", str(p), "--init", "X=5", "--t-max", "1", "--checkpoints=-0,0.5"]
        assert main(["--out-dir", str(tmp_path), *argv]) == 0
        rows = (tmp_path / "checkpoints.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["time", "0.0", "0.5"]
        assert rows[1].split(",")[1] == "5"

    def test_simulate_json_reports_an_infinite_time_as_null(self, tmp_path, capsys):
        # a propensity of 1e-320 makes the first wait overflow to inf, which
        # json.dumps printed as Infinity; the text report keeps t = inf
        p = tmp_path / "tiny.crn"
        p.write_text("X -> 0 ; k=1e-320\ninit: X = 1\n")
        argv = ["--out-dir", str(tmp_path), "simulate", str(p), "--max-events", "1"]
        assert main(["--format", "json", *argv]) == 0
        out = capsys.readouterr().out

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        report = {
            "status": "stopped",
            "time": None,
            "events": 1,
            "terminal": {},
            "trace_csv": str(tmp_path / "trace.csv"),
            "checkpoints_csv": None,
        }
        assert json.loads(out, parse_constant=refuse) == report
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("status: stopped at t = inf after 1 events\n")

    @pytest.mark.parametrize("text", ["X -> Y ; k=1e-320\n", "X -> Y ; k=1e-320\nY -> X ; k=1\n"],
                             ids=["one-reaction", "two-reactions"])
    def test_a_wait_that_overflows_warns_nowhere(self, tmp_path, capsys, text):
        # the first wait overflows to inf; run_trials and first-production
        # printed numpy's overflow warning, from _run_path and from the
        # sweep loop, where simulate stayed silent
        p = tmp_path / "tiny.crn"
        p.write_text(text + "init: X = 1\n")
        crn, init = model.parse_crn(p.read_text())
        stop = kinetics.StopCondition(t_max=5.0, reaches=[("Y", ">=", 1)])
        argv = ["--out-dir", str(tmp_path), "first-production", str(p), "--target", "Y",
                "--trials", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = kinetics.simulate(crn, init, kinetics.StopCondition(max_events=1), seed=3)
            times, first = kinetics.run_trials(crn, init, stop, 3, seed=3)
            assert main(argv) == 0
        assert trace.events.times.tolist() == [math.inf]
        assert times.tolist() == [5.0] * 3 and all(map(math.isnan, first[:, 0].tolist()))
        rows = (tmp_path / "first_production.csv").read_text().splitlines()
        assert rows[1:] == ["0,censored", "1,censored", "2,censored"]
        assert capsys.readouterr().err == ""

    def test_first_production_csv(self, convert_file, tmp_path, capsys):
        rc = main(
            [
                "--out-dir", str(tmp_path),
                "first-production", convert_file,
                "--target", "Y", "--trials", "50", "--t-cap", "5",
            ]
        )
        assert rc == 0
        rows = (tmp_path / "first_production.csv").read_text().strip().splitlines()
        assert rows[0] == "trial,time_or_censored"
        assert len(rows) == 51

    def test_demo_leader_writes_csv_and_json(self, tmp_path, capsys):
        rc = main(
            ["--out-dir", str(tmp_path), "demo", "leader", "--n", "10", "--trials", "20"]
        )
        assert rc == 0
        assert (tmp_path / "leader.csv").exists()
        summary = json.loads((tmp_path / "leader.json").read_text())
        assert summary["results"]["10"]["n"] == 10

    def test_demo_chain(self, tmp_path, capsys):
        rc = main(
            ["--out-dir", str(tmp_path), "demo", "chain",
             "--m", "1", "--n", "64", "--trials", "20"]
        )
        assert rc == 0
        rows = (tmp_path / "chain_m1.csv").read_text().strip().splitlines()
        assert rows[0] == "m,n,trial,time_or_censored"
        assert len(rows) == 21
        # the time cap defaults to m + 1
        assert json.loads((tmp_path / "chain_m1.json").read_text())["results"]["64"]["t_cap"] == 2.0

    def test_demo_scan(self, convert_file, tmp_path, capsys):
        rc = main(
            [
                "--out-dir", str(tmp_path),
                "demo", "scan", convert_file,
                "--alpha", "1.0", "--n-grid", "20,40", "--trials", "30",
            ]
        )
        assert rc == 0
        rows = (tmp_path / "scan.csv").read_text().strip().splitlines()
        assert len(rows) == 3

    def test_outputs_byte_identical_across_runs_and_threads(self, convert_file, tmp_path, capsys):
        outs = []
        for sub, threads in (("a", "1"), ("b", "4")):
            rc = main(
                [
                    "--out-dir", str(tmp_path / sub), "--threads", threads, "--seed", "42",
                    "first-production", convert_file,
                    "--target", "Y", "--trials", "64", "--t-cap", "5",
                ]
            )
            assert rc == 0
            outs.append((tmp_path / sub / "first_production.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_env_var_out_dir(self, convert_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CRNSIM_OUTDIR", str(tmp_path / "envout"))
        rc = main(["simulate", convert_file, "--t-max", "0.1"])
        assert rc == 0
        assert (tmp_path / "envout" / "trace.csv").exists()


class TestDemo:
    """``crnsim demo`` runs one experiment, then writes ``<name>.csv`` and
    ``<name>.json`` under ``--out-dir``."""

    @pytest.mark.parametrize(
        "argv, name, files_digest, stdout_digest",
        [
            (["--seed", "1", "demo", "leader", "--n", "12", "--trials", "6"], "leader",
             "21c3741e3a4642af", "ff393b4ce2ce7e78"),
            (["--seed", "2", "demo", "chain", "--m", "1", "--n", "16", "--trials", "8",
              "--t-cap", "0.6"], "chain_m1", "cdad5cb46eb7ffd5", "0b2fc84c74ab6cb0"),
            (["--seed", "2", "demo", "chain", "--m", "2", "--n", "16", "--trials", "6"],
             "chain_m2", "2b6c23b7c5edd9fc", "7a7913c6feb469c1"),
            (["--seed", "3", "demo", "scan", "net.crn", "--init", "X=5", "--alpha", "1.0",
              "--n-grid", "20,60", "--trials", "7", "--t-cap", "0.12"], "scan",
             "1f9b57920a4a6409", "98ac08e25aa70455"),
            # chain-default-t-cap censors every trial, so a kernel that never
            # made X3 would pass it; at n = 1024 all six trials make X3 (about
            # 98% of trials do by the default cap, so all six are censored on
            # about 1e-10 of streams)
            (["--seed", "2", "demo", "chain", "--m", "2", "--n", "1024", "--trials", "6"],
             "chain_m2", "f532ef16c4a83a02", "2ca51804b85c1cc3"),
        ],
        ids=["leader", "chain", "chain-default-t-cap", "scan", "chain-makes-last-species"],
    )
    def test_outputs_byte_identical_to_pinned_digest(
        self, argv, name, files_digest, stdout_digest, tmp_path, monkeypatch, capsys
    ):
        # sha256 prefixes of the CSV and JSON bytes, and of stdout in text
        # and JSON; every demo runs at --seed itself, and the chain's time
        # cap defaults to m + 1
        monkeypatch.chdir(tmp_path)
        (tmp_path / "net.crn").write_text("X -> Y ; k=1\nY -> Z ; k=2\n")
        stdout = hashlib.sha256()
        for fmt in ("text", "json"):
            assert main(["--format", fmt, "--out-dir", "out", *argv]) == 0
            out = capsys.readouterr().out
            stdout.update(out.encode())
        files = hashlib.sha256()
        for suffix in (".csv", ".json"):
            files.update((tmp_path / "out" / f"{name}{suffix}").read_bytes())
        assert (files.hexdigest()[:16], stdout.hexdigest()[:16]) == (files_digest, stdout_digest)
        if "1024" in argv:
            assert json.loads(out)["results"]["1024"]["produced_fraction"] > 0

    @pytest.mark.parametrize(
        "argv, key",
        [(["leader", "--n", "100", "--trials", "10"], "100"),
         (["chain", "--m", "1", "--n", "16", "--trials", "4"], "16")],
        ids=["leader", "chain"],
    )
    def test_runs_at_the_seed_itself(self, argv, key, tmp_path, capsys):
        assert main(["--format", "json", "--out-dir", str(tmp_path), "--seed", "2012",
                     "demo", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["results"][key]["seed"] == 2012

    def test_negative_seed_refused(self, tmp_path, capsys):
        argv = ["--out-dir", str(tmp_path / "out"), "--seed", "-1",
                "demo", "leader", "--n", "10", "--trials", "5"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be an integer of at least 0, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["leader", "--n", "1"], "n must be an integer of at least 2, got 1"),
            (["leader", "--trials", "0"], "trials must be an integer of at least 1, got 0"),
            (["chain", "--m", "0"], "m must be an integer of at least 1, got 0"),
            (["chain", "--n", "1"], "n must be an integer of at least 2, got 1"),
            (["scan", "{net}", "--n-grid", "100,0"], "n must be an integer of at least 1, got 0"),
        ],
        ids=["leader-n", "leader-trials", "chain-m", "chain-n", "scan-grid"],
    )
    def test_every_size_refused_before_running(self, argv, message, convert_file, tmp_path,
                                               monkeypatch, capsys):
        # the scan's grid is refused whole: n=100 is not simulated first
        def no_events(*args, **kwargs):
            raise AssertionError("the size should have been refused before simulating")

        monkeypatch.setattr(kinetics, "_run_batch", no_events)
        out = tmp_path / "out"
        argv = [a.format(net=convert_file) for a in argv]
        assert main(["--out-dir", str(out), "demo", *argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestErrorPaths:
    def test_usage_error_exits_2(self, capsys):
        assert main([]) == 2
        assert main(["bounds"]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["bounds", "poisson", "--lam", "10", "--n", "14", "--side", "sideways"]) == 2

    @pytest.mark.parametrize(
        "content,argv_tail",
        [
            ("A + -> B\n", ["validate"]),             # syntax error
            ("A -> A\n", ["validate"]),               # no-op reaction
            ("A -> B ; k=0\n", ["validate"]),         # nonpositive rate
        ],
    )
    def test_parse_errors_exit_1(self, tmp_path, capsys, content, argv_tail):
        p = tmp_path / "bad.crn"
        p.write_text(content)
        assert main(argv_tail + [str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "{net}", "--init", "X=-5"],
             "--init count of X must be an integer of at least 0, got -5"),
            (["simulate", "{net}", "--t-max", "1", "--checkpoints", "0.5,abc"],
             "bad --checkpoints entry 'abc'"),
            (["demo", "scan", "{net}", "--n-grid", "10,abc"], "bad --n-grid entry 'abc'"),
            (["--seed", "-1", "simulate", "{net}", "--t-max", "1"],
             "seed must be an integer of at least 0, got -1"),
            (["--threads", "0", "first-production", "{net}", "--target", "Y"],
             "threads must be an integer of at least 1, got 0"),
            (["--threads", "-3", "demo", "leader", "--n", "10", "--trials", "5"],
             "threads must be an integer of at least 1, got -3"),
            (["demo", "scan", "{noinit}", "--n-grid", "10"], "declares no init: lines"),
            (["--threads", "0", "simulate", "{net}", "--t-max", "1"],
             "threads must be an integer of at least 1, got 0"),
            (["--threads", "0", "analyze", "{net}"],
             "threads must be an integer of at least 1, got 0"),
            (["--threads", "0", "reachable", "{net}"],
             "threads must be an integer of at least 1, got 0"),
            (["demo", "scan", "{net}", "--t-cap", "0", "--n-grid", "10", "--trials", "5"],
             "t_cap must be finite and positive"),
            (["analyze", "{net}", "--init", "X=8", "--alpha", "0"], "alpha must lie in (0, 1]"),
            (["constants", "{leader}", "--init", "L=10", "--alpha", "1", "--c-hat", "nan"],
             "c_hat must be finite and positive"),
            (["constants", "{leader}", "--init", "L=10", "--alpha", "1", "--c-hat", "inf"],
             "c_hat must be finite and positive"),
            (["analyze", "{net}", "--init", "X=99999999999999999999"],
             "overflows the 64-bit count range"),
        ],
        ids=["negative-init", "checkpoint", "n-grid", "seed", "threads-0", "threads-neg",
             "scan-no-init", "threads-0-simulate", "threads-0-analyze", "threads-0-reachable",
             "scan-t-cap-0", "alpha-0", "c-hat-nan", "c-hat-inf", "init-beyond-int64"],
    )
    def test_malformed_input_exits_1_without_traceback(self, argv, message, convert_file,
                                                       tmp_path):
        # each of the first six ended in a Python traceback; --threads 0 on
        # a command that never fans out, and a scan capped at time 0, exited 0
        noinit = tmp_path / "noinit.crn"
        noinit.write_text("X -> Y\n")
        leader = DEMO_CRN / "leader.crn"
        argv = [a.format(net=convert_file, noinit=noinit, leader=leader) for a in argv]
        proc = _run_cli(["--out-dir", str(tmp_path / "out"), *argv])
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_repeated_grid_size_exits_1(self, convert_file, tmp_path, monkeypatch, capsys):
        # --n-grid 20,20 reported two rows for n=20 but one all-produced fraction
        def no_events(*args, **kwargs):
            raise AssertionError("the grid should have been refused before simulating")

        monkeypatch.setattr(kinetics, "_run_batch", no_events)
        out = tmp_path / "out"
        argv = ["--out-dir", str(out), "demo", "scan", convert_file, "--n-grid", "20,20",
                "--alpha", "1", "--trials", "5"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: n_grid must not repeat a size\n"
        assert not out.exists()

    def test_missing_file_exits_1(self, capsys):
        assert main(["validate", "does-not-exist.crn"]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", "{dir}"], "{dir}: Is a directory"),
            (["validate", "{latin1}"], "{latin1}: 'utf-8' codec can't decode byte 0xe9"),
            (["--out-dir", "{file}", "demo", "leader", "--n", "10", "--trials", "5"],
             "{file}: File exists"),
        ],
        ids=["directory", "not-utf8", "out-dir-is-a-file"],
    )
    def test_file_errors_exit_1_naming_the_path(self, argv, message, tmp_path, capsys):
        # each ended in a traceback: IsADirectoryError, UnicodeDecodeError
        # and FileExistsError
        latin1 = tmp_path / "latin1.crn"
        latin1.write_bytes("X -> Y\n# caf\u00e9\n".encode("latin-1"))
        (tmp_path / "file").write_text("")
        paths = {"dir": tmp_path, "latin1": latin1, "file": tmp_path / "file"}
        assert main([a.format(**paths) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(**paths)}") and err.count("\n") == 1

    @pytest.mark.parametrize("n_species", [1023, 1030])
    def test_constants_beyond_the_float_range_exit_1(self, n_species, tmp_path, capsys):
        # 1023 species printed -Infinity for log2_epsilon and 1030 died with
        # an OverflowError traceback
        p = tmp_path / "wide.crn"
        species = " ".join(f"S{i}" for i in range(n_species))
        p.write_text(f"species: {species}\nS0 -> S1\ninit: S0 = 10\n")
        argv = ["--format", "json", "constants", str(p), "--alpha", "0.5", "--c-hat", "1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: the theorem constants leave the float range for this network "
            f"({n_species} species)\n"
        )

    def test_unsupported_order_via_simulate(self, tmp_path, capsys):
        p = tmp_path / "ter.crn"
        p.write_text("A + 2B -> A + 3C\ninit: A = 1\ninit: B = 2\n")
        assert main(["--out-dir", str(tmp_path), "simulate", str(p), "--t-max", "1"]) == 1
        assert "orders 1 and 2" in capsys.readouterr().err

    def test_unknown_target_species(self, convert_file, tmp_path, capsys):
        rc = main(
            ["--out-dir", str(tmp_path), "first-production", convert_file, "--target", "Q"]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown species 'Q'\n"

    def test_internal_key_error_is_not_a_user_error(self, convert_file, monkeypatch):
        def broken(crn):
            raise KeyError("internal")

        monkeypatch.setattr(analysis, "finite_density_status", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["validate", convert_file])

    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["simulate", "--stop-species", "C"],
            ["simulate", "--stop-count", "A>=99"],
            ["first-production", "--target", "C", "--t-cap", "inf"],
            # the run stops once both watches are reached, and C never appears
            ["simulate", "--stop-species", "C", "--stop-count", "A<=0"],
        ],
    )
    def test_stop_that_can_never_fire_exits_1(self, tmp_path, capsys, monkeypatch, argv_tail):
        p = tmp_path / "cycle.crn"
        p.write_text("species: A B C\nA -> B\nB -> A\ninit: A = 5\n")

        def no_events(*args, **kwargs):
            raise AssertionError("the stop should have been refused before simulating")

        monkeypatch.setattr(kinetics, "_run_core", no_events)
        monkeypatch.setattr(kinetics, "_run_batch", no_events)
        rc = main(["--out-dir", str(tmp_path), argv_tail[0], str(p), *argv_tail[1:]])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_count_above_a_loose_certificate_exits_1(self, tmp_path, capsys, monkeypatch):
        # the conservation certificate lets C reach 250, but C stays at
        # most B = 200; this ran forever
        p = tmp_path / "loose.crn"
        p.write_text("A + B -> C\nX -> Y\nY -> X\n")

        def no_events(*args, **kwargs):
            raise AssertionError("the stop should have been refused before simulating")

        monkeypatch.setattr(kinetics, "_run_core", no_events)
        monkeypatch.setattr(kinetics, "_run_batch", no_events)
        rc = main(["--out-dir", str(tmp_path), "simulate", str(p), "--init", "A=300 B=200 X=1",
                   "--stop-count", "C>=250"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: the count of C stays at most 200 under masses that no reaction raises and "
            "can never reach 250; give the stop a t_max or max_events\n")

    @pytest.mark.parametrize("volume", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv_tail", [["simulate", "--t-max", "1"], ["first-production", "--target", "C"]]
    )
    def test_non_finite_volume_exits_1(self, tmp_path, capsys, monkeypatch, argv_tail, volume):
        p = tmp_path / "ab.crn"
        p.write_text("A + B -> C\nC -> A + B\ninit: A = 3\ninit: B = 2\n")

        def no_events(*args, **kwargs):
            raise AssertionError("the volume should have been refused before simulating")

        monkeypatch.setattr(kinetics, "_run_core", no_events)
        monkeypatch.setattr(kinetics, "_run_batch", no_events)
        argv = [argv_tail[0], str(p), *argv_tail[1:], "--volume", volume]
        assert main(["--out-dir", str(tmp_path), *argv]) == 1
        assert capsys.readouterr().err == f"error: volume must be finite and positive, got {volume}\n"

    def test_rate_that_can_overflow_exits_1(self, tmp_path, capsys):
        # the total propensity overflowed to inf and the run died with a
        # traceback when Y -> X fired at Y = 0
        p = tmp_path / "huge.crn"
        p.write_text("X -> Y ; k=1e308\nX -> Z ; k=1e308\nY -> X\ninit: X = 3\n")
        argv = ["simulate", str(p), "--max-events", "3"]
        assert main(["--out-dir", str(tmp_path), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rate constant 1e+308 at volume 3.0") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1.0"])
    def test_non_finite_checkpoint_exits_1(self, tmp_path, capsys, monkeypatch, bad):
        # a NaN checkpoint exited 0 and wrote no checkpoints file; a negative
        # one exited 0 and wrote a row of the initial counts at that time
        p = tmp_path / "ab.crn"
        p.write_text("A + B -> C\nC -> A + B\ninit: A = 3\ninit: B = 2\n")

        def no_events(*args, **kwargs):
            raise AssertionError("the checkpoints should have been refused before simulating")

        monkeypatch.setattr(kinetics, "_run_core", no_events)
        monkeypatch.setattr(kinetics, "_run_batch", no_events)
        # one token, or argparse reads a leading "-" as an option
        argv = ["simulate", str(p), "--t-max", "1", f"--checkpoints={bad},0.5"]
        assert main(["--out-dir", str(tmp_path), *argv]) == 1
        assert capsys.readouterr().err.startswith("error: checkpoint times must be finite")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command,options",
        [(["analyze"], []), (["demo", "scan"], ["--n-grid", "100", "--trials", "5"]),
         (["constants"], [])],
    )
    def test_non_finite_alpha_exits_1(self, convert_file, tmp_path, capsys, command, options):
        argv = [*command, convert_file, *options, "--alpha", "nan"]
        assert main(["--out-dir", str(tmp_path), *argv]) == 1
        assert capsys.readouterr().err == "error: alpha must be finite, got nan\n"

    def test_stop_that_conservation_rules_out_exits_1(self, tmp_path, capsys, monkeypatch):
        # A + B = 1 is conserved, so A + A -> C never fires; this looped forever
        p = tmp_path / "pair.crn"
        p.write_text("A -> B\nB -> A\nA + A -> C\ninit: A = 1\n")

        def no_events(*args, **kwargs):
            raise AssertionError("the stop should have been refused before simulating")

        monkeypatch.setattr(kinetics, "_run_core", no_events)
        rc = main(["--out-dir", str(tmp_path), "simulate", str(p), "--stop-species", "C"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: species C can never appear from this initial configuration; "
            "give the stop a t_max or max_events\n"
        )

    def test_stop_whose_every_trigger_can_fire_runs(self, tmp_path):
        p = tmp_path / "cycle.crn"
        p.write_text("species: A B C\nA -> B\nB -> A\ninit: A = 5\n")
        argv = ["simulate", str(p), "--stop-species", "B", "--stop-count", "A<=0"]
        assert main(["--out-dir", str(tmp_path), *argv]) == 0

    def test_reflecting_hypothesis_violation(self, capsys):
        rc = main(
            [
                "bounds", "reflecting",
                "--delta-f", "0.2", "--lambda-r", "1", "--delta-r", "0.06", "--N", "1000",
            ]
        )
        assert rc == 1
        assert "delta_r" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "walk", "--f-hat", "2", "--r-hat", "1", "--t", "inf", "--eps-hat", "0.5"],
            ["bounds", "poisson", "--lam", "inf", "--n", "3", "--side", "lower",
             "--validate", "--trials", "10000"],
        ],
    )
    def test_non_finite_bound_parameter(self, argv, capsys):
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_decay_N_beyond_int64_exits_1(self, capsys):
        # the binomial sampler takes N as a C long: 2^63 ended in an
        # OverflowError traceback from Generator.binomial
        argv = ["bounds", "decay", "--N", str(2**63), "--lam", "1", "--t", "1",
                "--delta", "0.5", "--validate", "--trials", "10000"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: N must be at most {2**63 - 1}, got {2**63}\n"

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["bounds", "walk", "--f-hat", "1e300", "--r-hat", "1", "--t", "1e300",
              "--eps-hat", "0.5"], "walk_z"),
            (["--format", "json", "bounds", "decay", "--N", "1000000000", "--lam", "1e300",
              "--t", "1e300", "--delta", "0.5", "--validate", "--trials", "10000"], "decay"),
            (["--format", "json", "bounds", "poisson", "--lam", "1e300", "--n", "1.7e308",
              "--side", "upper"], "poisson"),
            (["--format", "json", "bounds", "reflecting", "--delta-f", "1e300",
              "--lambda-r", "1", "--delta-r", "0.5", "--N", "1000000000"], "reflecting"),
        ],
        ids=["walk", "decay", "poisson", "reflecting"],
    )
    def test_bound_outside_the_float_range_exits_1(self, argv, target, capsys):
        # walk ended in an OverflowError traceback; the others printed a
        # log2_bound of Infinity or -Infinity, which is not JSON, and decay
        # validated to "dominates"
        assert main(argv) == 1
        message = f"the {target} bound leaves the float range at this point"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, rate",
        [
            (["bounds", "walk", "--f-hat", "1e10", "--r-hat", "1", "--t", "1e10",
              "--eps-hat", "0.5"], "f_hat*t = 1e+20"),
            (["bounds", "poisson", "--lam", "1e19", "--n", "2e19", "--side", "upper"],
             "lam = 1e+19"),
        ],
        ids=["walk", "poisson"],
    )
    def test_poisson_rate_beyond_the_sampler_exits_1(self, argv, rate, capsys):
        # numpy's Poisson sampler refuses a mean above 9.2e18: validation
        # ended in a "ValueError: lam value too large" traceback
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("log2 bound = ")
        assert main([*argv, "--validate", "--trials", "10000"]) == 1
        assert capsys.readouterr() == (
            "", f"error: the Poisson rate {rate} exceeds the sampler's limit of 9.22337e+18\n")

    def test_constants_without_init(self, tmp_path, capsys):
        p = tmp_path / "noinit.crn"
        p.write_text("X -> Y\n")
        assert main(["constants", str(p), "--alpha", "0.5"]) == 1
        assert "init" in capsys.readouterr().err

    def test_scan_alpha_density_failure(self, tmp_path, capsys):
        p = tmp_path / "thin.crn"
        p.write_text("A -> B\ninit: A = 99\ninit: B = 1\n")
        rc = main(
            ["--out-dir", str(tmp_path), "demo", "scan", str(p),
             "--alpha", "0.3", "--n-grid", "100", "--trials", "5"]
        )
        assert rc == 1

    def test_bad_init_spec(self, convert_file, capsys):
        assert main(["analyze", convert_file, "--init", "X:5"]) == 1
        assert main(["analyze", convert_file, "--init", "Q=5"]) == 1

    @pytest.mark.parametrize("init", ["X=1 X=2", "X=1,X=1"])
    def test_repeated_init_name_exits_1(self, init, capsys):
        # "X=1 X=2" kept the last count and reported init total 2; a file
        # that repeats a species in its init refuses it
        assert main(["validate", str(DEMO_CRN / "convert.crn"), "--init", init]) == 1
        assert capsys.readouterr() == ("", "error: duplicate species 'X' in --init\n")

    def test_bad_stop_count(self, convert_file, tmp_path, capsys):
        rc = main(
            ["--out-dir", str(tmp_path), "simulate", convert_file, "--stop-count", "Xfive"]
        )
        assert rc == 1

    def test_old_stop_count_form_is_refused(self, convert_file, tmp_path, capsys):
        # NAME=COUNT took its side from the initial count; a watch now states it
        rc = main(["--out-dir", str(tmp_path), "simulate", convert_file, "--stop-count", "Y=3"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: bad --stop-count 'Y=3'; expected NAME>=COUNT or NAME<=COUNT\n")

    def test_count_past_the_int64_range_exits_1(self, tmp_path, capsys):
        # X passes 2**63 - 1 at its third event; this printed a traceback
        # of a bare OverflowError
        p = tmp_path / "double.crn"
        p.write_text(f"X -> X + X\ninit: X = {2**63 - 3}\n")
        rc = main(["--out-dir", str(tmp_path), "simulate", str(p), "--t-max", "1",
                   "--volume", "1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: a count overflows the 64-bit count range\n"

    def test_unknown_stop_species(self, convert_file, tmp_path, capsys):
        rc = main(
            ["--out-dir", str(tmp_path), "simulate", convert_file,
             "--t-max", "1", "--stop-species", "Nope"]
        )
        assert rc == 1
        assert "Nope" in capsys.readouterr().err


def _fresh_interpreter(args, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` with this checkout's package importable."""
    src = str(Path(crnsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)


def _run_cli(argv) -> subprocess.CompletedProcess:
    return _fresh_interpreter(["-m", "crnsim.cli", *argv], capture_output=True, text=True)


def test_cli_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter: this test session has imported scipy.stats already
    code = "import sys, crnsim.cli; sys.exit('scipy.stats' in sys.modules)"
    assert _fresh_interpreter(["-c", code]).returncode == 0


_VALIDATE_ALL_TARGETS = """
import sys
from crnsim import bounds, cli
points = {
    "decay": bounds.DecayBoundParams(80, 1.0, 0.5, 0.1),
    "poisson": bounds.PoissonBoundParams(10.0, 14.0, "upper"),
    "walk_z": bounds.WalkBoundParams(10.0, 5.0, 1.0, 0.5),
    "reflecting": bounds.ReflectingBoundParams(0.1, 1.0, 0.025, 100),
}
assert points.keys() == bounds.TARGETS.keys()
for target, params in points.items():
    bounds.monte_carlo_validate(target, params, trials=10_000, seed=1)
argv = ["bounds", "decay", "--N", "80", "--lam", "1", "--t", "0.5", "--delta", "0.1",
        "--validate", "--trials", "10000"]
assert cli.main(argv) == 0
sys.exit('scipy.stats' in sys.modules)
"""


def test_validation_leaves_scipy_stats_unloaded():
    # every target's Monte Carlo check and a CLI --validate run, in a fresh
    # interpreter: the confidence limit needs scipy.special only
    proc = _fresh_interpreter(["-c", _VALIDATE_ALL_TARGETS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_PARSER_ONCE = """
import argparse, contextlib, io, json, os, sys

built = 0
init = argparse.ArgumentParser.__init__


def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting_init
from crnsim import cli


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return [code, out.getvalue()]


counts = {"import": built}
net, out_a, out_b = sys.argv[1:]
run(["validate", net])
counts["first"] = built
for _ in range(4):
    run(["validate", net])
counts["five"] = built
runs = [run(["bounds", "poisson", "--lam", "1", "--n", "3", "--side", "UPPER"]), run(["--help"])]
os.environ["CRNSIM_OUTDIR"] = out_a
runs.append(run(["simulate", net, "--t-max", "0.1"]))
landed = [os.listdir(out_a), os.path.exists(out_b)]
os.environ["CRNSIM_OUTDIR"] = out_b
runs.append(run(["simulate", net, "--t-max", "0.1"]))
landed.append(os.listdir(out_b))
runs.append(run(["--format", "json", "analyze", net]))
print(json.dumps({"counts": counts, "runs": runs, "landed": landed}))
"""


def test_main_builds_its_parser_once(convert_file, tmp_path, monkeypatch):
    # a fresh interpreter counts every ArgumentParser built, from the import on
    out_a, out_b = str(tmp_path / "A"), str(tmp_path / "B")
    proc = _fresh_interpreter(["-c", _PARSER_ONCE, convert_file, out_a, out_b],
                              capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    counts = got["counts"]
    assert counts["import"] == 0 and counts["first"] > 0
    assert counts["five"] == counts["first"]
    # each trace lands where $CRNSIM_OUTDIR pointed when its call began
    assert got["landed"] == [["trace.csv"], False, ["trace.csv"]]
    # exit codes and stdout equal those of a fresh process per call
    argvs = [
        (["bounds", "poisson", "--lam", "1", "--n", "3", "--side", "UPPER"], None),
        (["--help"], None),
        (["simulate", convert_file, "--t-max", "0.1"], out_a),
        (["simulate", convert_file, "--t-max", "0.1"], out_b),
        (["--format", "json", "analyze", convert_file], None),
    ]
    want = []
    for argv, out_dir in argvs:
        if out_dir is not None:
            monkeypatch.setenv("CRNSIM_OUTDIR", out_dir)
        proc = _run_cli(argv)
        want.append([proc.returncode, proc.stdout])
    assert [code for code, _ in want] == [2, 0, 0, 0, 0]
    assert got["runs"] == want
