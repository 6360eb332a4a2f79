"""Run tier-1 once per stream salt and print the salts each failing test failed on.

Usage, from the root of the repository:

    python3 tools/salt_sweep.py [--salts N]

Each salt s (1, 2, ..., N; N is 8 by default) reruns the suite
on a copy of the tree in a temporary directory. In that copy ``s`` is
mixed into the key of every ``streams.substream`` generator and into
``conftest.RNG_SEED``, the seed of the ``rng`` fixture, by text
replacements that must each match exactly once; the working tree is never
edited. The digest pins (every test whose name holds "digest" or
"pinned", case aside) are deselected, since any salt moves them. A run
that takes longer than TIMEOUT seconds is stopped, and its salt is listed
against "(suite timed out)".

With a correct kernel, a test that fails on some salts and passes on
others has a premise or a gate that its stream meets by chance; one that
fails on every salt depends on the exact streams, as a pin does. The
table printed at the end gives, per failing test, the salts it failed on.
"""

from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (file, pattern, replacement); {salt} is filled in per run
SALTS = [
    ("src/crnsim/streams.py", r"spawn_key=tuple\(", "spawn_key=({salt},) + tuple("),
    ("tests/conftest.py", r"(?m)^RNG_SEED = (\d+)", r"RNG_SEED = [\1, {salt}]"),
]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_out",
                                ".bench_build")
TIMEOUT = 1800.0  # seconds allowed per suite run


def salted(text: str, pattern: str, replacement: str, salt: int, name: str) -> str:
    """``text`` with the one match of ``pattern`` replaced, the salt filled in."""
    out, n = re.subn(pattern, replacement.replace("{salt}", str(salt)), text)
    if n != 1:
        raise SystemExit(f"{name}: {pattern!r} matched {n} times, not once")
    return out


def run_salt(tree: Path, originals: dict, salt: int):
    """The ids of the tests that failed or erred on ``salt``, and pytest's
    exit code; None for both if the run timed out."""
    for name, pattern, replacement in SALTS:
        (tree / name).write_text(salted(originals[name], pattern, replacement, salt, name))
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "-k", "not digest and not pinned"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, None
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--salts", type=int, default=8, help="number of salts (default 8)")
    args = parser.parse_args(argv)
    salts = range(1, args.salts + 1)
    originals = {name: (ROOT / name).read_text() for name, _, _ in SALTS}
    failures: dict[str, list[int]] = {}
    with tempfile.TemporaryDirectory(prefix="salt_sweep_") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        for salt in salts:
            t0 = time.perf_counter()
            failed, code = run_salt(tree, originals, salt)
            if failed is None:
                print(f"salt {salt}: timed out after {TIMEOUT:.0f} s", flush=True)
                failures.setdefault("(suite timed out)", []).append(salt)
                continue
            print(f"salt {salt}: {len(failed)} failed, pytest exit {code}, "
                  f"{time.perf_counter() - t0:.0f} s", flush=True)
            if code not in (0, 1):
                print(f"salt {salt}: pytest did not finish its run (exit {code})", flush=True)
            for test in failed:
                failures.setdefault(test, []).append(salt)
    print(f"\n| test | failed on salts | of {len(salts)} |\n| --- | --- | --- |")
    for test, on in sorted(failures.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        print(f"| `{test}` | {', '.join(map(str, on))} | {len(on)} |")
    if not failures:
        print("| (none) | | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
