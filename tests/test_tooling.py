"""The benchmark harness under ``perfbench/`` still finds what it wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_perfbench_patch_targets_exist(monkeypatch):
    # A renamed target makes the harness skip its patch and report the
    # layer's metrics as missing, so each (module, attribute) must resolve.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.PATCHES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
