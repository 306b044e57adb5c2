"""Packaging and harness checks: capcycle imports numpy alone, and the
benchmark harness under ``perfbench/`` still finds what it wraps."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from capcycle import AcquisitionConfig, CycleSpec, cli, preset

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; a fresh interpreter shows whether
    # anything on the CLI's import path pulls it in.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, capcycle.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_perfbench_patch_targets_exist(tracing):
    # A renamed target makes the harness skip its patch and report the
    # layer's metrics as missing, so each (module, attribute) must resolve.
    assert tracing.PATCHES
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.PATCHES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_perfbench_reads_kernel_counts(tracing):
    # The harness names kernel spans from run_phase's mode argument and counts
    # steps from its result, by position; a moved argument or result slot
    # would file the counts under the wrong metric.  Each phase takes one
    # step a sample, and the rests and ramps here take different counts.
    spec = CycleSpec(i_c=3.95, v_min=0.5, v_max=2.7, rest_after_charge=20.0,
                     rest_after_discharge=10.0, max_cycles=2)
    tracer = tracing.Tracer()
    with tracing.Patches(tracer) as patches:
        # the harness wraps run_protocol under the attribute the CLI calls
        trace = cli.run_protocol(preset("50F"), spec, AcquisitionConfig(sample_period=1.0))
    steps = {"ramp": 0, "fixed": 0}
    for b in trace.meta["boundaries"]:
        kind = "fixed" if b.phase.startswith("rest") else "ramp"
        steps[kind] += round((b.t_end - b.t_start) / trace.sample_period)
    assert steps["ramp"] != steps["fixed"]
    values = tracing.layer_values(tracer, patches.missing)
    expected = {
        "kernels.fixed_steps": steps["fixed"],
        "kernels.ramp_steps": steps["ramp"],
        "kernels.calls": len(trace.meta["boundaries"]),
        "simulator.samples": trace.t.size,
    }
    assert {name: values[name] for name in expected} == expected


def test_perfbench_counts_analyzer_and_map_layers(tracing, tmp_path):
    # The analyzer's counts come from segment() and cycle_metrics() results,
    # the map's from build_grid() and the run_phase calls, of which a
    # simulated map makes none.  analyze_trace calls its stages through the
    # analyzer's module globals, where the harness wraps them; a stage called
    # any other way would read 0 s, its time filed under analyze_trace's own.
    csv_path, report = tmp_path / "t.csv", tmp_path / "r.json"
    assert cli.main(["simulate", "--device", "10F", "--cycles", "2", "--rest", "10",
                     "--out", str(csv_path)]) == 0
    tracer = tracing.Tracer()
    with tracing.Patches(tracer) as patches:
        assert cli.main(["analyze", str(csv_path), "--out", str(report)]) == 0
    values = tracing.layer_values(tracer, patches.missing)
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert (values["analyzer.cycles"], values["analyzer.segments"]) == (
        len(doc["cycles"]), len(doc["segments"]))
    stages = ("analyze_trace", "segment", "identify", "cycle_metrics", "detect_steady")
    assert [s for s in stages if not values[f"analyzer.{s}_s"] > 0] == []

    tracer = tracing.Tracer()
    with tracing.Patches(tracer) as patches:
        assert cli.main(["map", "--device", "10F", "--method", "simulated",
                         "--levels", "0,0.5,1", "--out", str(tmp_path / "m")]) == 0
    values = tracing.layer_values(tracer, patches.missing)
    assert (values["kernels.calls"], values["effmap.cells"]) == (0, 3)
