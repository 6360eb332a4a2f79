import ast
import importlib.util
from pathlib import Path

import crnsim

SRC = Path(crnsim.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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


def test_every_benchmark_probe_names_an_attribute_of_crnsim():
    # the traced benchmark wraps these names; renaming one would silently
    # drop its per-layer rows
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for where, attr, *_ in tracer.PROBES:
        modname, _, clsname = where.partition(":")
        owner = importlib.import_module(modname)
        if clsname:
            owner = getattr(owner, clsname, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{where}.{attr}")
    assert not missing
