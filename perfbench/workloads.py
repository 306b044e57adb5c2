"""The four workloads: their CLI calls, their generated input, their checks.

Every reference below is computed here, apart from the program: device
constants are restated from the campaign's definitions (test current, 95%
full-window efficiency, 2.7 V rating), closed forms are written out, and the
glitched current is integrated directly.  A check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

V_RATED = 2.7
ETA_TARGET = 0.95
DT = 0.1
"""Acquisition sample period of every workload (the CLI default)."""
I_QUANTUM = 0.93e-3
"""Current quantum of ``--quantize`` (the CLI default)."""
RENDER_ETA = 5e-5
"""Worst rounding of an efficiency in the map CSV (percent to 4 digits)."""

DEVICES = {"50F": (50.0, 3.95), "100F": (100.0, 4.7)}
"""Capacitance (F) and test current (A) of the campaign devices used here."""

CYCLES = 8
FINE_LEVELS = ",".join(f"{k / 20:g}" for k in range(21))

GLITCHES = 4000
GLITCH_GUARD_S = 2.0
"""No glitch lands this close to a phase boundary (see README)."""


def series_r(i_c: float) -> float:
    """Series resistance for which ``i_c`` gives 95% full-window efficiency."""
    return V_RATED * (1 - ETA_TARGET) / (2 * i_c * (1 + ETA_TARGET))


def eta_no_rest(i_c: float, vm_pu: float, vM_pu: float) -> float:
    """Closed-form efficiency of a rest-free steady cycle of a series-RC device."""
    drop = 2 * i_c * series_r(i_c)
    vsum = (vm_pu + vM_pu) * V_RATED
    return (vsum - drop) / (vsum + drop)


def _op(name: str, calls: list[list[str]], timed: bool = True) -> dict:
    return {"name": name, "calls": calls, "timed": timed}


def _simulated_map(device: str, out: str) -> list[str]:
    return ["map", "--device", device, "--ideal", "--method", "simulated",
            "--levels", FINE_LEVELS, "--out", out]


ROUNDS = {
    "campaign": [_op("campaign", [
        ["simulate", "--device", "50F", "--rest", "1800", "--cycles", str(CYCLES),
         "--quantize", "--out", "{out}/run.csv"],
        ["analyze", "{out}/run.csv", "--out", "{out}/report.json"],
    ])],
    "simmap": [_op("simmap", [
        ["map", "--device", "50F", "--method", "simulated", "--rest", "1800",
         "--out", "{out}/map"],
    ])],
    # The 50F fine map fails on every run today (see README); it is attempted
    # in every round, counted as failed, and kept out of op_cal.
    "rampmap": [
        _op("rampmap", [_simulated_map("100F", "{out}/map")]),
        _op("rampmap-50F", [_simulated_map("50F", "{out}/map")], timed=False),
    ],
    "glitchy": [_op("glitchy", [
        ["analyze", "{input}/glitchy.csv", "--out", "{out}/report.json"],
    ])],
}
"""The operations of one round, per workload."""


# --- generated input --------------------------------------------------------


def _read_sidecar(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def make_glitchy(input_dir: Path, env: dict, seed: int) -> dict:
    """Write ``glitchy.csv``: the campaign trace with seeded current glitches.

    The base trace comes from the CLI's ``simulate`` in a child process.  Each
    glitch replaces one sample's current: a rest sample gets the full test
    current with a random sign, an active sample drops to zero.  Returns the
    ground truth the check needs.
    """
    input_dir.mkdir(parents=True, exist_ok=True)
    base = input_dir / "base.csv"
    subprocess.run(
        [sys.executable, "-m", "capcycle.cli", "simulate", "--device", "50F",
         "--rest", "1800", "--cycles", str(CYCLES), "--quantize", "--out", str(base)],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    t, v, i = np.loadtxt(base, delimiter=",", skiprows=1).T
    phases = _read_sidecar(input_dir / "base.cycles.csv")
    t_end = np.array([float(p["t_end_s"]) for p in phases])
    edges = np.concatenate(([0.0], t_end))
    phase_of = np.searchsorted(t_end, t - 1e-6)  # t_start < t <= t_end
    active = np.isin(np.array([p["phase"] for p in phases]), ("charge", "discharge"))
    pos = np.searchsorted(edges, t).clip(1, edges.size - 1)
    near = np.minimum(t - edges[pos - 1], edges[pos] - t) <= GLITCH_GUARD_S

    rng = np.random.default_rng(seed)
    where = np.sort(rng.choice(np.flatnonzero(~near), GLITCHES, replace=False))
    sign = rng.choice((-1.0, 1.0), GLITCHES)
    in_active = active[phase_of[where]]
    i_g = i.copy()
    i_g[where] = np.where(in_active, 0.0, sign * np.abs(i).max())
    np.savetxt(input_dir / "glitchy.csv", np.column_stack((t, v, i_g)), fmt="%.9g",
               delimiter=",", header="t_s,v_V,i_A", comments="")
    base.unlink()

    charge = [j for j, p in enumerate(phases) if p["phase"] == "charge"]
    return {
        "phases": [(p["phase"], float(p["t_end_s"])) for p in phases],
        "q_in": [float(i_g[phase_of == j].sum() * DT) for j in charge],
        "i_c": float(np.abs(i).max()),
        "glitches": GLITCHES,
        "in_active": int(in_active.sum()),
        "in_rests": int((~in_active).sum()),
    }


# --- checks -----------------------------------------------------------------


def _segments(report: dict, truth: list[tuple[str, float]], tol: float) -> list[str]:
    segs = report["segments"]
    if len(segs) != len(truth):
        return [f"{len(segs)} segments, expected {len(truth)}"]
    return [
        f"segment {k} ({s['kind']}, ends {s['t_end_s']}) vs truth ({phase}, {t_end})"
        for k, (s, (phase, t_end)) in enumerate(zip(segs, truth))
        if s["kind"] != phase or abs(s["t_end_s"] - t_end) > tol
    ]


def _resistance(report: dict, i_c: float) -> list[str]:
    r = (report["identification"]["r_series_ohm"] or {}).get("value")
    if r is None or abs(r / series_r(i_c) - 1) > 0.05:
        return [f"R {r} not within 5% of {series_r(i_c):.6g}"]
    return []


def check_campaign(out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    side = _read_sidecar(out / "run.cycles.csv")
    mem = Path(str(out) + ".mem")
    meta = json.loads((mem / "meta.json").read_text(encoding="utf-8"))
    c_main, i_c = DEVICES["50F"]
    truth = [(p["phase"], float(p["t_end_s"])) for p in side]
    problems = [] if len(truth) == 4 * CYCLES else [f"sidecar has {len(truth)} phases"]
    problems += _segments(report, truth, DT + 1e-9)

    cycles = report["cycles"]
    if len(cycles) != CYCLES:
        problems.append(f"{len(cycles)} cycles, expected {CYCLES}")
    for c, q_in, q_out in zip(cycles, meta["q_in"], meta["q_out"]):
        for got, want, t in ((c["q_in_C"], q_in, c["t_charge_s"]),
                             (c["q_out_C"], q_out, c["t_discharge_s"])):
            tol = i_c * DT + (t / DT) * DT * I_QUANTUM / 2
            if abs(got - want) > tol:
                problems.append(f"cycle {c['cycle_index']}: charge {got} vs {want}")
        losses = c["loss_charge_J"] + c["loss_rest_J"] + c["loss_discharge_J"]
        if abs(c["e_in_J"] - c["e_out_J"] - losses) > 1e-9 * c["e_in_J"]:
            problems.append(f"cycle {c['cycle_index']}: losses do not balance")
    problems += _resistance(report, i_c)
    cap = (report["identification"]["c_main_F"] or {}).get("value")
    if cap is None or abs(cap / c_main - 1) > 0.10:
        problems.append(f"C {cap} not within 10% of {c_main}")

    written = np.loadtxt(out / "run.csv", delimiter=",", skiprows=1).T
    in_memory = np.load(mem / "tvi.npy")
    if written.shape != in_memory.shape or not np.all(
        np.abs(written - in_memory) <= 5.000001e-9 * np.abs(in_memory)
    ):
        problems.append("trace CSV differs from the in-memory trace beyond 9 digits")
    return problems


def _read_map(path: Path) -> dict[tuple[float, float], float | None]:
    """Map CSV cells keyed by (vm, vM) per unit, as efficiency (None: undefined)."""
    rows = path.read_text(encoding="utf-8").splitlines()
    vms = [float(x) for x in rows[0].split(",")[1:]]
    cells = {}
    for row in rows[1:]:
        vM, *values = row.split(",")
        for vm, value in zip(vms, values):
            if vm < float(vM):
                cells[(vm, float(vM))] = float(value) / 100 if value else None
    return cells


def _svg(out: Path) -> list[str]:
    if not (out / "map.svg").read_text(encoding="utf-8").startswith("<svg"):
        return ["map.svg is not an SVG document"]
    return []


def check_simmap(out: Path) -> list[str]:
    cells = _read_map(out / "map.csv")
    _, i_c = DEVICES["50F"]
    problems = [] if len(cells) == 15 else [f"{len(cells)} cells, expected 15"]
    for (vm, vM), eta in sorted(cells.items()):
        # A rest only adds loss, so the rest-free closed form is a strict ceiling.
        if eta is None or not 0 < eta < 1 or not eta < eta_no_rest(i_c, vm, vM):
            problems.append(f"cell ({vm}, {vM}) = {eta}")
    return problems + _svg(out)


def check_fine_map(out: Path, device: str) -> list[str]:
    """Every cell of the ideal fine-level map against the closed form.

    With ``dV = i*dt/C`` (one sample's capacitor step) and ``S = (vM - vm)*V
    - 2*i*R`` (the capacitor swing), the simulated efficiency lies within
    ``[eta, eta + dV/S]`` of the closed form ``eta``; README derives it.
    """
    c_main, i_c = DEVICES[device]
    cells = _read_map(out / "map.csv")
    problems = [] if len(cells) == 210 else [f"{len(cells)} cells, expected 210"]
    d_v = i_c * DT / c_main
    for (vm, vM), eta in sorted(cells.items()):
        swing = (vM - vm) * V_RATED - 2 * i_c * series_r(i_c)
        ref = eta_no_rest(i_c, vm, vM)
        if eta is None or not -RENDER_ETA <= eta - ref <= d_v / swing + RENDER_ETA:
            problems.append(f"cell ({vm}, {vM}) = {eta}, closed form {ref:.6g}")
    return problems + _svg(out)


def check_glitchy(out: Path, truth: dict) -> list[str]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = _segments(report, truth["phases"], 1.0)
    cycles = report["cycles"]
    if len(cycles) != CYCLES:
        problems.append(f"{len(cycles)} cycles, expected {CYCLES}")
    for c, want in zip(cycles, truth["q_in"]):
        if abs(c["q_in_C"] - want) > truth["i_c"] * DT + 1e-9:
            problems.append(f"cycle {c['cycle_index']}: q_in {c['q_in_C']} vs {want}")
    return problems + _resistance(report, DEVICES["50F"][1])


def check(op: str, out: Path, truth: dict | None) -> list[str]:
    """Problems with round 0's outputs of one operation."""
    if op == "campaign":
        return check_campaign(out)
    if op == "simmap":
        return check_simmap(out)
    if op == "rampmap":
        return check_fine_map(out, "100F")
    if op == "rampmap-50F":
        return check_fine_map(out, "50F")
    return check_glitchy(out, truth)


def child_env(src: Path) -> dict:
    """Environment of every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env
