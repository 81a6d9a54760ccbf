"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps nilbound functions by name.

A rename or deletion in `nilbound` would break that run without failing any
other test, so every name it wraps must still resolve, and every hook that
reads a traced call's arguments or result must still read a real one.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

from nilbound.cli import main
from nilbound.families import make_heisenberg
from nilbound.liealg import representation_to_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(monkeypatch):
    tracing = _tracing(monkeypatch)
    missing = []
    for name, module, attr in tracing.TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module}.{attr}")
    assert not missing


def _run(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


def test_every_hook_reads_a_real_call(monkeypatch, tmp_path):
    tracing = _tracing(monkeypatch)
    path = tmp_path / "heis.representation.json"
    path.write_text(json.dumps(representation_to_json(make_heisenberg(1)[1])))
    tracer = tracing.Tracer()
    tracer.install_all(set(tracing.HOOKS))
    try:
        dec = _run("decompose", str(path))  # span, decompose and both certificates
        sol = _run("solve", "--p", "2", "--p0", "2", "--dims", "3,1")
    finally:
        tracer.uninstall()
    assert all(tracer.calls[name] > 0 for name in tracing.HOOKS), dict(tracer.calls)
    counters = tracer.counters
    assert counters["linalg.span.entries_in"] > 0
    assert counters["bounds.solve_exact.nodes"] == sol["nodes_explored"]
    assert counters["bounds.solve_exact.sums_tried"] >= 1
    assert counters["decomposition.split_rounds"] == dec["partition"][0]
    assert counters["decomposition.verify_block_structure.checked"] > 0
    assert counters["decomposition.certificate_failures"] == 0
