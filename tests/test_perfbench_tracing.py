"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps nilbound functions by name.

A rename or deletion in `nilbound` would break that run without failing any
other test, so every name it wraps must still resolve.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = []
    for name, module, attr in tracing.TRACED:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module}.{attr}")
    assert not missing
