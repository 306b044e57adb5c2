"""Top-level acceptance checks.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (run pytest with
``-rA`` to see them for passing tests too).  Criterion 5 is expected to
fail: the rebound-voltage regression's coefficient of determination is
0.9778, below the 0.98 gate, and no defensible reading of the data closes
that gap (the correlation coefficient would pass at 0.9888, but the gate
is defined on the coefficient of determination).
"""

import json
import math
import time

import numpy as np
import pytest

from capcycle import (
    AcquisitionConfig,
    ClosedFormObjective,
    CycleSpec,
    DeviceParams,
    RestVoltages,
    analyze_trace,
    build_grid,
    charge_duration,
    derived_resistance,
    efficiency_no_rest,
    efficiency_with_rest,
    energy_in,
    energy_out,
    fit_self_discharge,
    load_current_sweep,
    load_rest_voltage_rows,
    measured_grid,
    preset,
    quantize_trace,
    run_protocol,
)
from capcycle.cli import main
from capcycle.simulator import I_QUANTUM, V_QUANTUM


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_closed_form_vs_integration():
    """Trapezoidal integration of ideal-model traces vs the closed forms."""
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst = 0.0
    n_cases = 0
    while n_cases < 100:
        c = rng.uniform(5.0, 120.0)
        r = rng.uniform(0.005, 0.12)
        i = rng.uniform(0.1, 4.0)
        vmin = rng.uniform(0.0, 1.2)
        vmax = rng.uniform(vmin + 2 * i * r + 0.05, 2.7)
        if not vmin + 2 * i * r + 0.05 < 2.7:
            continue
        d = DeviceParams(c_main=c, r_series=r, v_rated=2.7)
        s = CycleSpec(i_c=i, v_min=vmin, v_max=vmax)
        dt = charge_duration(d, s)
        if not 0.5 < dt < 600.0:
            continue
        sp = dt / 400.0
        tr = run_protocol(d, s, AcquisitionConfig(sample_period=sp))
        kinds = np.sign(tr.i).astype(int)
        b = int(np.flatnonzero(kinds > 0)[-1])  # last charge sample
        # charge: analytic first interval (terminal starts at vmin + 2iR),
        # then trapezoids between samples
        v0 = vmin + 2 * i * r
        e_in_hat = i * (v0 + tr.v[0]) / 2 * sp
        e_in_hat += float(np.sum((tr.v[:b] + tr.v[1 : b + 1]) / 2 * i * sp))
        # discharge: terminal restarts at vmax - 2iR after the current flip
        z = tr.v.size - 1
        v1 = vmax - 2 * i * r
        e_out_hat = i * (v1 + tr.v[b + 1]) / 2 * sp
        e_out_hat += float(
            np.sum((tr.v[b + 1 : z] + tr.v[b + 2 : z + 1]) / 2 * i * sp)
        )
        for got, want in (
            (e_in_hat, energy_in(d, s)),
            (e_out_hat, energy_out(d, s)),
            (e_out_hat / e_in_hat, efficiency_no_rest(d, s)),
        ):
            worst = max(worst, abs(got - want) / want)
        n_cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 10.0
    _report(
        1,
        ok,
        f"{n_cases} random devices, worst relative error {worst:.3e} "
        f"(tolerance 1e-3), runtime {elapsed:.2f} s (limit 10 s)",
    )
    assert worst < 1e-3
    assert elapsed < 10.0


def test_criterion_2_roundtrip_identification():
    """simulate -> analyze recovers R, C, and eta; quantization stays bounded."""
    i = 1.0
    q_v, q_i = V_QUANTUM, I_QUANTUM
    sp = AcquisitionConfig().sample_period
    worst = {"r": 0.0, "c": 0.0, "eta": 0.0}
    quant_ok = True
    for c_true in (10.0, 50.0, 100.0):
        for r_true in (0.010, 0.050, 0.100):
            d = DeviceParams(c_main=c_true, r_series=r_true, v_rated=2.7)
            s = CycleSpec(
                i_c=i, v_min=0.5, v_max=2.5,
                rest_after_charge=20.0, rest_after_discharge=20.0, max_cycles=3,
            )
            tr = run_protocol(d, s)
            rep = analyze_trace(tr)
            eta_cf = efficiency_no_rest(d, s)
            worst["r"] = max(worst["r"], abs(rep.r_series.value - r_true) / r_true)
            worst["c"] = max(worst["c"], abs(rep.c_main.value - c_true) / c_true)
            worst["eta"] = max(worst["eta"], abs(rep.steady.mean.eta - eta_cf))

            rep_q = analyze_trace(quantize_trace(tr))
            # propagated first-order quantum bounds
            bound_r = (q_v + r_true * q_i / 2) / (i - q_i / 2)
            t_fit = 0.8 * rep.steady.mean.t_charge
            m = max(10, int(t_fit / sp))
            x = np.arange(m) * sp
            dslope = (q_v / 2) * float(np.sum(np.abs(x - x.mean()))) / float(
                np.sum((x - x.mean()) ** 2)
            )
            slope = i / c_true
            bound_c = c_true * (q_i / (2 * i) + dslope / slope)
            v_hi = float(np.max(np.abs(tr.v)))
            per_s = (q_v / 2 * i + v_hi * q_i / 2 + q_v * q_i / 4)
            de_in = per_s * rep.steady.mean.t_charge
            de_out = per_s * rep.steady.mean.t_discharge
            bound_eta = (de_out + eta_cf * de_in) / rep.steady.mean.e_in
            quant_ok = quant_ok and (
                abs(rep_q.r_series.value - rep.r_series.value) <= bound_r
                and abs(rep_q.c_main.value - rep.c_main.value) <= bound_c
                and abs(rep_q.steady.mean.eta - rep.steady.mean.eta) <= bound_eta
            )
    ok = (
        worst["r"] < 0.02 and worst["c"] < 0.01 and worst["eta"] < 0.002
        and quant_ok
    )
    _report(
        2,
        ok,
        f"worst errors over 3x3 grid: R {worst['r']*100:.3f}% (limit 2%), "
        f"C {worst['c']*100:.3f}% (limit 1%), eta {worst['eta']*100:.4f} points "
        f"(limit 0.2); quantized deltas within propagated bounds: {quant_ok}",
    )
    assert worst["r"] < 0.02
    assert worst["c"] < 0.01
    assert worst["eta"] < 0.002
    assert quant_ok


def test_criterion_3_current_sweep_consistency_band():
    """R from the 0.4 A row predicts the low-current rows; trend elsewhere."""
    rows = dict(load_current_sweep())
    r = 3.0 * (1 - rows[0.4]) / (2 * 0.4 * (1 + rows[0.4]))
    d = DeviceParams(c_main=10.0, r_series=r, v_rated=2.7)

    def pred(i):
        return efficiency_no_rest(d, CycleSpec(i_c=i, v_min=0.5, v_max=2.5))

    err_05 = abs(pred(0.5) - rows[0.5])
    err_075 = abs(pred(0.75) - rows[0.75])
    trend = pred(0.75) > pred(2.0) > pred(4.0)
    gap_2 = abs(pred(2.0) - rows[2.0])
    gap_4 = abs(pred(4.0) - rows[4.0])
    ok = err_05 < 0.02 and err_075 < 0.02 and trend
    _report(
        3,
        ok,
        f"R={r:.4f} ohm; 0.5 A off by {err_05*100:.2f} points, 0.75 A by "
        f"{err_075*100:.2f} (limit 2); high-current rows monotone={trend} with "
        f"single-R gaps of {gap_2*100:.1f} and {gap_4*100:.1f} points at 2 A/4 A "
        f"(documented model limitation)",
    )
    assert err_05 < 0.02
    assert err_075 < 0.02
    assert trend


def test_criterion_4_fixture_surface_properties():
    """Measured no-rest surface is monotone; rest surface sits strictly below."""
    monotone = True
    peak_at_full = True
    rest_below = True
    for device in ("10F", "50F", "100F"):
        g0 = measured_grid(device, rest=False)
        g1 = measured_grid(device, rest=True)
        for rr, vM in enumerate(g0.levels):
            row = [g0.eta[rr, j] for j, vm in enumerate(g0.levels) if vm < vM]
            row = [x for x in row if not math.isnan(x)]
            monotone = monotone and row == sorted(row)
        for j in range(len(g0.levels)):
            col = g0.eta[:, j]
            if (~np.isnan(col)).any():
                peak_at_full = peak_at_full and int(np.nanargmax(col)) == 5
        mask = g0.defined_mask()
        rest_below = rest_below and bool(np.all(g1.eta[mask] < g0.eta[mask]))
    ok = monotone and peak_at_full and rest_below
    _report(
        4,
        ok,
        f"no-rest surface non-decreasing in vm: {monotone}; maximum at vM=1: "
        f"{peak_at_full}; with-rest surface strictly below cell-wise: {rest_below}",
    )
    assert monotone and peak_at_full and rest_below


def test_criterion_5_self_discharge_fit_quality():
    """Least-squares fit of the rest-drift table against pinned constants.

    The v_sc clause is expected to fail: the best attainable coefficient of
    determination for the rebound regression is 0.977772 under every
    defensible reading of the data (table span column, recomputed span, or
    per-unit span), which is below the 0.98 gate.  The corresponding
    correlation coefficient is 0.98882, which suggests the gate conflated
    r with r^2; the fit itself matches the independently pinned regression
    to the last digit.
    """
    m = fit_self_discharge(load_rest_voltage_rows())
    pinned = (
        abs(m.slope_sd - 54.421228) < 1e-6
        and abs(m.intercept_sd - 13.147634) < 1e-6
        and abs(m.slope_sc - 45.944467) < 1e-6
        and abs(m.intercept_sc - 6.382082) < 1e-6
    )
    ok = pinned and m.fit_quality_sd >= 0.98 and m.fit_quality_sc >= 0.98
    _report(
        5,
        ok,
        f"pinned regression reproduced: {pinned}; fit quality v_sd "
        f"{m.fit_quality_sd:.6f} (>=0.98: {m.fit_quality_sd >= 0.98}), v_sc "
        f"{m.fit_quality_sc:.6f} (>=0.98: {m.fit_quality_sc >= 0.98}; "
        f"correlation coefficient would be {math.sqrt(m.fit_quality_sc):.5f})",
    )
    assert pinned
    assert m.fit_quality_sd >= 0.98
    assert m.fit_quality_sc >= 0.98  # expected honest failure: 0.977772


def test_criterion_6_rest_efficiency_spot_check():
    d = DeviceParams(c_main=50.0, r_series=0.0, v_rated=2.7)
    s = CycleSpec(i_c=3.95, v_min=0.0, v_max=2.7)
    eta = efficiency_with_rest(d, s, RestVoltages(v_sd=0.156, v_sc=0.130))
    expect = (2.7 - 0.156) / (2.7 + 0.130)
    ok = abs(eta - 0.8989) <= 1e-4
    _report(
        6,
        ok,
        f"full-window rest efficiency {eta:.6f} vs 0.8989 +/- 1e-4 "
        f"(exact arithmetic {expect:.6f})",
    )
    assert abs(eta - 0.8989) <= 1e-4


def test_criterion_7_two_branch_steady_state():
    """Stabilization campaign: continuous cycling of the calibrated preset.

    Long rests are deliberately absent here: the calibrated rest-drift
    asymmetry (156 vs 130 mV over a full-window cycle) fixes the leak
    branch, and that leak necessarily drains about 1.1% of the cycle
    charge when every half-cycle parks 30 minutes at the rails — the
    balance criterion can only be reached while cycling continuously.
    The with-rest behaviour is pinned separately in the preset tests.
    """
    d = preset("50F")
    s = CycleSpec(i_c=3.95, v_min=0.5, v_max=2.5, max_cycles=20)
    tr = run_protocol(d, s)
    # Ground truth: the analyzer's steady rule (the first cycle from which
    # every cycle balances its charge within 1%) applied to the simulator's
    # exact per-cycle charges rather than to the sampled trace.
    exact = [
        abs(q_in - q_out) / q_in < 0.01
        for q_in, q_out in zip(tr.meta["q_in"], tr.meta["q_out"])
    ]
    internal = next((c + 1 for c in range(len(exact)) if all(exact[c:])), None)
    rep = analyze_trace(tr)
    analyzed = rep.steady.steady_from_cycle
    balanced = analyzed is not None and all(
        0.99 < m.q_out / m.q_in < 1.01
        for m in rep.steady.per_cycle
        if m.cycle_index >= analyzed
    )
    ok = (
        internal is not None and internal <= 10
        and analyzed is not None and abs(analyzed - internal) <= 1
        and balanced
        and rep.steady.window_rule == "cycles-17-20"
    )
    _report(
        7,
        ok,
        f"exact charges balance within 1% from cycle {internal} (limit 10); "
        f"analyzer steady_from_cycle {analyzed} (agreement limit +/- 1); "
        f"charge ratio in [0.99, 1.01] for every later cycle: {balanced}; "
        f"averaging window rule: {rep.steady.window_rule}",
    )
    assert internal is not None and internal <= 10
    assert analyzed is not None and abs(analyzed - internal) <= 1
    assert balanced
    assert rep.steady.window_rule == "cycles-17-20"


def test_criterion_8_derived_parameter_claims():
    d = preset("100F", ideal=True)
    i = 4.7
    g0 = build_grid(ClosedFormObjective(d, i))
    model = fit_self_discharge(load_rest_voltage_rows())
    g1 = build_grid(ClosedFormObjective(d, i, model))
    vals = {
        "no-rest (0.7,1)": (g0.value(0.7, 1.0), 0.93),
        "no-rest (0.5,1)": (g0.value(0.5, 1.0), 0.90),
        "rest (0.7,1)": (g1.value(0.7, 1.0), 0.91),
        "rest (0.5,1)": (g1.value(0.5, 1.0), 0.88),
    }
    ok = all(v > floor for v, floor in vals.values())
    detail = "; ".join(
        f"{k} = {v*100:.2f}% (> {floor*100:.0f}%)" for k, (v, floor) in vals.items()
    )
    _report(8, ok, detail)
    for k, (v, floor) in vals.items():
        assert v > floor, k


def test_criterion_9_cli_determinism(tmp_path, capsys):
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0, argv
        return out

    results = []
    for tag in ("x", "y"):
        base = tmp_path / tag
        base.mkdir()
        trace = base / "t.csv"
        blobs = {}
        blobs["simulate"] = run(
            "simulate", "--device", "50F", "--vmin", "1.0", "--vmax", "2.0",
            "--cycles", "2", "--rest", "5", "--quantize", "--out", str(trace),
        ).replace(str(base), "<out>")
        blobs["trace"] = trace.read_bytes()
        blobs["sidecar"] = (base / "t.cycles.csv").read_bytes()
        blobs["analyze"] = run("analyze", str(trace))
        run("map", "--fixture", "table2", "--device", "100F",
            "--out", str(base / "m"))
        blobs["map_csv"] = (base / "m.csv").read_bytes()
        blobs["map_svg"] = (base / "m.svg").read_bytes()
        blobs["optimize"] = run("optimize", "--min-energy", "0.75")
        blobs["fit"] = run("fit-selfdischarge")
        blobs["iec"] = run("iec-current", "--r", "0.0306")
        run("fixtures", str(base / "fx"))
        blobs["fixtures"] = (base / "fx" / "table3.csv").read_bytes()
        results.append(blobs)
    mismatched = [k for k in results[0] if results[0][k] != results[1][k]]
    ok = not mismatched
    _report(
        9,
        ok,
        "all seven subcommands byte-identical across repeated runs"
        if ok else f"outputs differ: {mismatched}",
    )
    assert not mismatched
