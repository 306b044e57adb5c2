"""Protocol simulator: exact stepping, conservation, and sampling contracts."""

import dataclasses
import decimal
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capcycle import (
    AcquisitionConfig,
    ClosedFormObjective,
    ConfigError,
    CycleSpec,
    DeviceParams,
    DynamicsDiverged,
    PeriodicObjective,
    Redistribution,
    analyze_trace,
    charge_duration,
    efficiency_no_rest,
    preset,
    quantize_trace,
    run_protocol,
    simulator,
    write_sidecar_csv,
    write_trace_csv,
)
from capcycle.simulator import (
    I_QUANTUM,
    MODE_CHARGE,
    MODE_DISCHARGE,
    MODE_FIXED,
    RAMP_BLOCK,
    TABLE_CAP,
    V_QUANTUM,
    run_phase,
)

DEV = DeviceParams(c_main=10.0, r_series=0.0922, v_rated=2.7)
SPEC = CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5)

TWO_BRANCH = DeviceParams(
    c_main=52.0,
    r_series=0.0088,
    v_rated=2.7,
    redistribution=Redistribution(c_branch=5.2, r_branch=4.0),
    r_leak=9000.0,
)


# A two-branch device whose branch relaxes in 0.026 s, 1/1,943 of a 1-s sample.
FAST_BRANCH = DeviceParams(c_main=52.0, r_series=0.0088, v_rated=2.7,
                           redistribution=Redistribution(c_branch=0.52, r_branch=0.05),
                           r_leak=9000.0)


def _phase_args(p, v_main, v_branch, i, dt, mode, v_stop, max_steps):
    """``run_phase``'s arguments for a phase of ``p`` at current ``i`` from ``(v_main, v_branch)``."""
    m = simulator._modes(p)
    y0, y1 = (m.inv @ (v_main, v_branch)).tolist()
    return (y0, y1, *m.lam, i * m.beta[0], i * m.beta[1], *m.vec[0].tolist(), dt,
            i * p.r_series, mode, v_stop, 1e-9, max_steps)


def _volts(p, y0, y1):
    """``(v_main, v_branch)`` of the modal state ``(y0, y1)`` of ``p``."""
    return tuple((simulator._modes(p).vec @ (y0, y1)).tolist())


def _step(p, v_main, v_branch, i_applied, dt, steps=1):
    """``(v_main, v_branch)`` after ``steps`` samples ``dt`` apart, as ``run_phase`` gives it."""
    got = run_phase(*_phase_args(p, v_main, v_branch, i_applied, dt, MODE_FIXED, 0.0, steps))
    return _volts(p, *got[:2])


D = decimal.Decimal
EPS = np.finfo(float).eps


def _exact(p, v_main, v_branch, phases):
    """``(v_main, v_branch)`` after ``phases`` of ``(current, seconds)``, to 40 digits, and bounds.

    The modal solution of ``simulator._continuous_system``'s matrix, taken
    as its float entries exactly, in stdlib ``decimal``: a reference for the
    propagator's rounding alone.  The slow rate is ``det A`` over the fast
    one, so it is exactly 0 without a leak.  Durations are exact decimals.

    Each voltage's bound is ``ε·Σ_phases (11 + m·T)·S``, on how far the
    propagator may be from it (see below), with ``S = Σ_k |w_k|·(|y_k| +
    |i β_k|·T)``, ``w`` the basis row that reads the voltage, ``y`` the modal
    state at the phase's start, and ``m = min(|A_00|, |A_11|)``.
    """
    with decimal.localcontext(decimal.Context(prec=40)):
        a_matrix, b_vector = simulator._continuous_system(p)
        (a, b), (c, d) = [[D(x) for x in row] for row in a_matrix.tolist()]
        if b == 0:
            lam, vec = (a, d), ((D(1), D(0)), (D(0), D(1)))
        else:
            fast = (a + d - ((a - d) ** 2 + 4 * b * c).sqrt()) / 2
            lam = (fast, (a * d - b * c) / fast)
            vec = ((b, b), (lam[0] - a, lam[1] - a))
        det = vec[0][0] * vec[1][1] - vec[0][1] * vec[1][0]
        inv = ((vec[1][1] / det, -vec[0][1] / det), (-vec[1][0] / det, vec[0][0] / det))
        beta = [inv[k][0] * D(b_vector[0]) for k in (0, 1)]  # the input enters v_main only
        y = [inv[k][0] * D(v_main) + inv[k][1] * D(v_branch) for k in (0, 1)]
        bound = [D(0), D(0)]
        for i, t in phases:
            drive = [D(i) * beta[k] for k in (0, 1)]
            for r in (0, 1):
                scale = sum(abs(vec[r][k]) * (abs(y[k]) + abs(drive[k]) * t) for k in (0, 1))
                bound[r] += D(EPS) * (11 + min(abs(a), abs(d)) * t) * scale
            for k in (0, 1):
                e = (lam[k] * t).exp()
                y[k] = e * y[k] + drive[k] * (t if lam[k] == 0 else (e - 1) / lam[k])
        return [vec[r][0] * y[0] + vec[r][1] * y[1] for r in (0, 1)], bound


# The bound of one phase.  With u = ε/2, mode k's y_k(t) = (expm1(z) + 1)·y_k
# + d_k·t·expm1(z)/z, z = λ·fl(k·dt): rounding t and z costs 2u relative in
# z, and |z|·e^z stays within 1/e for z <= 0, so the first term is off by at
# most 4u·|y_k| (expm1 within 1u, the sum and the product 1u each) and the
# second by 8u·|d_k|·t (t, expm1, the quotient's sensitivity to z, the
# quotient, two products and d_k = fl(i·β_k)); their sum adds u·|y_k(t)|.
# Reading a voltage off the modes adds 2u·Σ|w_k|·|y_k(t)|: 11u·S in all.  The
# float basis, β and fast rate each sit a few roundings from the exact ones,
# which at most doubles that: 11ε·S.  The slow rate is det A / λ_fast, and
# det A = A_00·A_11 − A_01·A_10 cancels, so it is off by up to 2u·|A_00·A_11|
# / |λ_fast| <= 2u·m (λ_fast <= min(A_00, A_11) for an RC network); that moves
# the slow mode by up to 2u·m·T·S = ε·m·T·S over T seconds.  A phase starts
# where the last one ended, in modal coordinates, and |e^{λt}| <= 1, so the
# phases' bounds add.


def _within(got, ref):
    """Whether each voltage of ``got`` is within its bound of the reference ``ref``."""
    return all(abs(D(g) - r) <= bound for g, r, bound in zip(got, *ref))


class TestStepDynamics:
    """The propagator against the circuit's analytic and 40-digit solutions."""

    def test_pure_integrator_without_branch(self):
        # dv/dt = i/C exactly, for any step size
        v, _ = _step(DEV, 1.0, 1.0, 0.4, 25.0)
        assert v == pytest.approx(1.0 + 0.4 * 25.0 / 10.0, rel=1e-14)

    def test_leak_only_analytic(self):
        d = DeviceParams(c_main=10.0, r_series=0.0, v_rated=2.7, r_leak=100.0)
        tau = 100.0 * 10.0
        v, _ = _step(d, 2.0, 2.0, 0.0, 37.0)
        assert v == pytest.approx(2.0 * math.exp(-37.0 / tau), rel=1e-14)
        v, _ = _step(d, 2.0, 2.0, 0.0, 0.1, steps=20_000)
        assert v == pytest.approx(2.0 * math.exp(-2000.0 / tau), rel=1e-14)

    def test_two_step_composition_equals_one_big_step(self):
        a = _step(TWO_BRANCH, *_step(TWO_BRANCH, 1.5, 1.5, 2.0, 7.0), 2.0, 7.0)
        b = _step(TWO_BRANCH, 1.5, 1.5, 2.0, 14.0)
        assert a[0] == pytest.approx(b[0], rel=1e-14)
        assert a[1] == pytest.approx(b[1], rel=1e-14)

    def test_branch_relaxation_matches_closed_form(self):
        # no leak: two capacitors through r_branch relax exponentially to the
        # charge-weighted equilibrium with tau = r*c1*c2/(c1+c2)
        d = DeviceParams(
            c_main=50.0,
            r_series=0.01,
            v_rated=2.7,
            redistribution=Redistribution(c_branch=5.0, r_branch=4.0),
        )
        tau = 4.0 * 50 * 5 / 55
        v0, vb0 = 2.7, 2.2
        v_eq = (50 * v0 + 5 * vb0) / 55
        for t in (0.5, 3.0, 20.0, 120.0):
            v, _ = _step(d, v0, vb0, 0.0, t)
            expect = v_eq + (v0 - v_eq) * math.exp(-t / tau)
            assert v == pytest.approx(expect, rel=1e-14)
            v, _ = _step(d, v0, vb0, 0.0, t / 1000, steps=1000)
            assert v == pytest.approx(expect, rel=1e-14)

    def test_matches_scipy_expm(self):
        # One step from each unit state, and from rest at 1 A, gives the
        # columns of the zero-order-hold exponential of the augmented matrix.
        expm = pytest.importorskip("scipy.linalg").expm
        devices = [preset(n, ideal=ideal) for n in ("10F", "50F", "100F")
                   for ideal in (True, False)]
        devices += [DeviceParams(c_main=10.0, r_series=0.0, v_rated=2.7, r_leak=100.0),
                    TWO_BRANCH]
        for p in devices:
            a, b = simulator._continuous_system(p)
            for dt in np.logspace(-3, math.log10(1800.0), 40):
                m = np.zeros((3, 3))
                m[:2, :2] = a * dt
                m[:2, 2] = b * dt
                ref = expm(m)[:2]
                got = np.column_stack([_step(p, *x, i, dt) for *x, i in
                                       ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))])
                dev = np.max(np.abs(got - ref))
                assert dev <= 1e-12 * np.max(np.abs(ref)), (p, dt)

    def test_ideal_integrator_is_exact(self):
        # Without a branch or a leak both rates are zero: after k steps v_main
        # has gained exactly fl(i/C)·fl(k·dt), from any state, and the dummy
        # branch has not moved.
        for name in ("10F", "50F", "100F"):
            p = preset(name, ideal=True)
            for dt in np.logspace(-3, math.log10(1800.0), 40):
                for steps in (1, 1000):
                    got = _step(p, 1.25, 0.5, 3.0, dt, steps)
                    assert got == (1.25 + 3.0 * (1.0 / p.c_main) * (steps * dt), 0.5)

    def test_charge_conserved_during_redistribution(self):
        d = DeviceParams(
            c_main=50.0,
            r_series=0.01,
            v_rated=2.7,
            redistribution=Redistribution(c_branch=5.0, r_branch=4.0),
        )
        q0 = 50 * 2.7 + 5 * 1.0
        for dt, steps in ((300.0, 1), (0.1, 3000)):
            v, vb = _step(d, 2.7, 1.0, 0.0, dt, steps)
            assert 50 * v + 5 * vb == pytest.approx(q0, rel=1e-14)

    @pytest.mark.parametrize("p", [preset("50F"), TWO_BRANCH], ids=["50F", "two-branch"])
    def test_matches_the_decimal_reference(self, p):
        # A few points, each within the one-phase bound of the 40-digit
        # modal solution: a long rest, a charge, a discharge of a few long
        # steps, and one 1800-s step from rest.
        for v_main, v_branch, i, dt, steps in ((2.66, 2.5, 0.0, 0.1, 18_000),
                                               (0.5, 0.9, 3.95, 0.1, 400),
                                               (1.2, 1.2, -3.95, 7.0, 3),
                                               (2.0, 1.0, 0.0, 1800.0, 1)):
            got = _step(p, v_main, v_branch, i, dt, steps)
            assert _within(got, _exact(p, v_main, v_branch, [(i, steps * D(dt))]))


class TestRunProtocolIdeal:
    def test_trace_shape_and_time_base(self):
        tr = run_protocol(DEV, SPEC)
        assert tr.t[0] == pytest.approx(tr.sample_period)
        assert np.allclose(np.diff(tr.t), tr.sample_period)
        assert tr.v.shape == tr.t.shape == tr.i.shape

    def test_charge_balance_is_exact_from_cycle_one(self):
        tr = run_protocol(DEV, SPEC)
        q_in, q_out = tr.meta["q_in"], tr.meta["q_out"]
        assert len(q_in) == 1
        assert q_in[0] == pytest.approx(q_out[0], rel=1e-9)

    def test_durations_within_one_sample_of_closed_form(self):
        tr = run_protocol(DEV, SPEC)
        ideal = charge_duration(DEV, SPEC)
        assert abs(tr.meta["t_charge"][0] - ideal) <= tr.sample_period + 1e-12
        assert abs(tr.meta["t_discharge"][0] - ideal) <= tr.sample_period + 1e-12

    def test_terminal_voltage_excursion_bounded(self):
        tr = run_protocol(DEV, SPEC)
        drop = 2 * SPEC.i_c * DEV.r_series
        assert tr.v.max() <= SPEC.v_max + drop + 1e-9
        assert tr.v.min() >= SPEC.v_min - drop - 1e-9

    def test_recovered_efficiency_near_closed_form(self):
        spec = CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5, max_cycles=3)
        tr = run_protocol(DEV, spec)
        dt = tr.sample_period
        e_in = e_out = 0.0
        k = np.arange(1, tr.t.size)
        mid = 0.5 * (tr.v[k - 1] + tr.v[k]) * tr.i[k] * dt
        e_in = mid[mid > 0].sum()
        e_out = -mid[mid < 0].sum()
        eta = e_out / e_in
        assert eta == pytest.approx(efficiency_no_rest(DEV, SPEC), abs=2e-3)

    def test_phase_order_and_count(self):
        spec = CycleSpec(
            i_c=0.4, v_min=0.5, v_max=2.5,
            rest_after_charge=5.0, rest_after_discharge=5.0, max_cycles=2,
        )
        tr = run_protocol(DEV, spec)
        bounds = tr.meta["boundaries"]
        assert [b.phase for b in bounds] == [
            "charge", "rest_high", "discharge", "rest_low",
        ] * 2
        assert [b.cycle for b in bounds] == [1, 1, 1, 1, 2, 2, 2, 2]
        # boundaries tile the trace contiguously as half-open intervals
        for prev, cur in zip(bounds, bounds[1:]):
            assert cur.t_start == pytest.approx(prev.t_end)

    def test_runs_exactly_max_cycles(self):
        spec = CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5, max_cycles=4)
        tr = run_protocol(DEV, spec)
        assert len(tr.meta["q_in"]) == 4
        assert tr.meta["boundaries"][-1].cycle == 4

    def test_steady_from_first_cycle_when_ideal(self):
        # periodic from cycle 1: every cycle returns exactly what it took
        spec = CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5, max_cycles=3)
        tr = run_protocol(DEV, spec)
        assert tr.meta["q_in"] == tr.meta["q_out"]

    def test_infeasible_window_raises_before_running(self):
        from capcycle import WindowTooNarrow

        with pytest.raises(WindowTooNarrow):
            run_protocol(
                DeviceParams(c_main=10.0, r_series=0.5, v_rated=2.7),
                CycleSpec(i_c=3.0, v_min=0.5, v_max=2.5),
            )


class TestRunProtocolTwoBranch:
    def test_rest_phases_show_sag_and_rebound(self):
        spec = CycleSpec(
            i_c=3.95, v_min=0.0, v_max=2.7,
            rest_after_charge=1800.0, rest_after_discharge=1800.0, max_cycles=3,
        )
        tr = run_protocol(TWO_BRANCH, spec)
        bounds = tr.meta["boundaries"]
        dt = tr.sample_period

        def seg(idx):
            b = bounds[idx]
            a = int(round(b.t_start / dt)) - 1
            z = int(round(b.t_end / dt)) - 1
            return tr.v[a], tr.v[z]

        v_hi_start, v_hi_end = seg(1)  # first rest_high
        v_lo_start, v_lo_end = seg(3)  # first rest_low
        assert v_hi_start - v_hi_end > 0.01  # sags by more than 10 mV
        assert v_lo_end - v_lo_start > 0.01  # rebounds by more than 10 mV

    def test_charge_balance_stabilizes_within_ten_cycles(self):
        spec = CycleSpec(
            i_c=3.95, v_min=0.0, v_max=2.7,
            rest_after_charge=300.0, rest_after_discharge=300.0,
            max_cycles=10,
        )
        tr = run_protocol(TWO_BRANCH, spec)
        q_in, q_out = tr.meta["q_in"], tr.meta["q_out"]
        # the analyzer's rule on the exact charges: the first cycle from
        # which every cycle balances within 1%
        balanced = [abs(qi - qo) / qi < 0.01 for qi, qo in zip(q_in, q_out)]
        steady = next((c + 1 for c in range(10) if all(balanced[c:])), None)
        assert steady is not None and steady <= 10
        assert abs(q_in[-1] - q_out[-1]) / q_in[-1] < 0.01

    def test_longer_rest_sags_more(self):
        def sag(rest):
            spec = CycleSpec(
                i_c=3.95, v_min=0.0, v_max=2.7,
                rest_after_charge=rest, rest_after_discharge=rest, max_cycles=2,
            )
            tr = run_protocol(TWO_BRANCH, spec)
            b = tr.meta["boundaries"][5]  # cycle 2 rest_high
            dt = tr.sample_period
            a = int(round(b.t_start / dt)) - 1
            z = int(round(b.t_end / dt)) - 1
            return tr.v[a] - tr.v[z]

        assert sag(60.0) < sag(600.0) < sag(3600.0)


class TestAcquisition:
    def test_quantize_idempotent(self):
        tr = run_protocol(DEV, SPEC)
        q1 = quantize_trace(tr)
        q2 = quantize_trace(q1)
        assert np.array_equal(q1.v, q2.v)
        assert np.array_equal(q1.i, q2.i)

    def test_quantize_bounds(self):
        tr = run_protocol(DEV, SPEC)
        q = quantize_trace(tr)
        assert np.max(np.abs(q.v - tr.v)) <= V_QUANTUM / 2 + 1e-15
        assert np.max(np.abs(q.i - tr.i)) <= I_QUANTUM / 2 + 1e-15

    def test_run_protocol_applies_quantization(self):
        tr = run_protocol(DEV, SPEC, AcquisitionConfig(quantize=True))
        scaled = tr.v / V_QUANTUM
        assert np.allclose(scaled, np.round(scaled), atol=1e-6)
        assert tr.meta["quantized"] is True

    def test_quantized_run_peaks_at_two_traces(self, traced_peak):
        # At the peak the unquantized trace's three columns and the quantized
        # trace's three are live: 2x the result's bytes.  The allowance is for
        # the meta lists and the Trace objects; no column-sized temporary or
        # phase sample array may stay alive (the first run fills the cache of
        # the device's modes).
        spec = CycleSpec(i_c=3.95, v_min=0.0, v_max=2.7, rest_after_charge=300.0,
                         rest_after_discharge=300.0, max_cycles=2)
        acq = AcquisitionConfig(quantize=True)
        run_protocol(preset("50F"), spec, acq)
        tr, peak = traced_peak(run_protocol, preset("50F"), spec, acq)
        nbytes = tr.t.nbytes + tr.v.nbytes + tr.i.nbytes
        assert len(tr) > 10_000
        assert peak <= 2 * nbytes + 16 * 1024, peak / nbytes

    def test_sample_period_respected(self):
        acq = AcquisitionConfig(sample_period=0.5)
        tr = run_protocol(DEV, SPEC, acq)
        assert tr.sample_period == 0.5
        assert tr.t[0] == pytest.approx(0.5)

    def test_bad_config_rejected(self):
        from capcycle import ConfigError

        with pytest.raises(ConfigError):
            AcquisitionConfig(sample_period=0.0)


def _scalar_cell(
    y0, y1, lam0, lam1, drive0, drive1, w0, w1, dt, v_offset, mode,
    v_stop, eps, max_steps,
):
    """Reference recurrence: ``run_phase``'s contract, one modal step a sample.

    Each step multiplies mode ``k`` by ``e^{λ_k dt}`` and adds ``drive_k·φ1(dt)``
    in scalar ``math``, sharing no arithmetic with ``simulator._flow``; its
    rounding accumulates step by step, about ε a step.
    """
    (e0, f0), (e1, f1) = [
        (math.exp(lam * dt), drive * (math.expm1(lam * dt) / lam if lam else dt))
        for lam, drive in ((lam0, drive0), (lam1, drive1))
    ]
    samples = []
    steps = 0
    crossed = False
    while steps < max_steps:
        y0, y1 = e0 * y0 + f0, e1 * y1 + f1
        steps += 1
        vt = w0 * y0 + w1 * y1 + v_offset
        samples.append(vt)
        if mode == MODE_CHARGE and vt >= v_stop - eps:
            crossed = True
            break
        if mode == MODE_DISCHARGE and vt <= v_stop + eps:
            crossed = True
            break
    return y0, y1, steps, np.array(samples), crossed


def _assert_phases_agree(got, exp, p):
    """A phase of ``p`` against the reference: counts exact, voltages to 1e-10."""
    assert type(got[2]) is int and got[2] == exp[2]
    assert got[4] == exp[4]  # crossed
    np.testing.assert_allclose(_volts(p, *got[:2]), _volts(p, *exp[:2]), rtol=0, atol=1e-10)
    assert got[3].shape == exp[3].shape
    assert np.max(np.abs(got[3] - exp[3]), initial=0.0) <= 1e-10


class TestBlockedPropagation:
    """``run_phase``'s blocks against a modal recurrence that takes one step at a time."""

    CASES = {
        "50F-rests": (
            preset("50F"),
            CycleSpec(i_c=3.95, v_min=0.0, v_max=2.7, rest_after_charge=1800.0,
                      rest_after_discharge=1800.0, max_cycles=3),
            None,
        ),
        "two-branch-0.5-s": (
            TWO_BRANCH,
            CycleSpec(i_c=3.95, v_min=0.0, v_max=2.7, rest_after_charge=60.0,
                      rest_after_discharge=60.0, max_cycles=3),
            AcquisitionConfig(sample_period=0.5),
        ),
        "100F-narrow-ideal": (
            preset("100F", ideal=True),
            CycleSpec(i_c=4.7, v_min=0.0, v_max=0.05 * 2.7, max_cycles=20),
            None,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_scalar_recurrence(self, case, monkeypatch):
        p, s, acq = self.CASES[case]
        blocked = run_protocol(p, s, acq)
        monkeypatch.setattr(simulator, "run_phase", _scalar_cell)
        ref = run_protocol(p, s, acq)
        assert blocked.meta["boundaries"] == ref.meta["boundaries"]
        for key in ("q_in", "q_out", "t_charge", "t_discharge"):
            assert blocked.meta[key] == ref.meta[key]
        assert np.array_equal(blocked.t, ref.t)
        assert np.array_equal(blocked.i, ref.i)
        assert np.max(np.abs(blocked.v - ref.v)) <= 1e-10

    def test_rest_longer_than_one_table_block(self):
        # A rest past the block cap runs as several blocks, which must join
        # without a sample lost or repeated.
        steps = TABLE_CAP + 1000
        args = _phase_args(TWO_BRANCH, 2.5, 2.0, 0.0, 0.05, MODE_FIXED, 0.0, steps)
        got = run_phase(*args)
        _assert_phases_agree(got, _scalar_cell(*args), TWO_BRANCH)
        assert got[3].shape == (steps,)

    @pytest.mark.parametrize("p, dt, max_steps", [
        (TWO_BRANCH, 0.05, 2 * TABLE_CAP + 1000),  # several table blocks
        (TWO_BRANCH, 0.05, 7),
        (FAST_BRANCH, 1.0, 100),
    ], ids=["blocks", "one-block", "fast-branch"])
    def test_rest_evaluates_only_its_samples_and_last_step(self, monkeypatch, p, dt,
                                                           max_steps):
        # A rest has no crossing to find, so each block is evaluated at its
        # samples alone, the last of which is the end state, and gives the
        # bits of one flow over the whole rest.
        args = _phase_args(p, 2.5, 2.0, 0.0, dt, MODE_FIXED, 0.0, max_steps)
        t = np.arange(1.0, max_steps + 1.0)
        t *= dt
        (y0, y1), _ = simulator._flow(args[2:4], args[4:6], args[:2], t)
        every = args[6] * y0 + args[7] * y1 + args[9]
        flow, points = simulator._flow, []
        monkeypatch.setattr(simulator, "_flow", lambda *a: (points.append(a[3].size), flow(*a))[1])
        got = run_phase(*args)
        assert got[2] == max_steps and (got[0], got[1]) == (y0[-1], y1[-1])
        assert np.array_equal(got[3], every)
        assert len(points) == -(-max_steps // TABLE_CAP) and sum(points) == got[3].size

    _REST_DEVICES = {
        "ideal": DEV,  # both modes at λ = 0
        "leaky": dataclasses.replace(DEV, r_leak=900.0),
        "two-branch": dataclasses.replace(TWO_BRANCH, r_leak=None),
        "two-branch-leaky": TWO_BRANCH,
        "fast-branch": FAST_BRANCH,
    }

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(sorted(_REST_DEVICES)),
        volts=st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 2.7))] * 2),
        dt=st.sampled_from([0.05, 0.1, 1.0, 1.0 / 1943, 7.3]),
        max_steps=st.one_of(st.integers(1, 50), st.sampled_from(
            [TABLE_CAP - 1, TABLE_CAP, TABLE_CAP + 1, 2 * TABLE_CAP + 3])),
    )
    def test_rest_without_phi1_keeps_the_bits(self, kind, volts, dt, max_steps):
        # A rest has no drive, so its flow skips φ1; every sample and the end
        # state keep the bits of the flow that computes φ1 and adds drive·φ1,
        # a zero of the drive's sign (run_protocol's rest drive is 0.0·β).
        p = self._REST_DEVICES[kind]
        args = _phase_args(p, *volts, 0.0, dt, MODE_FIXED, 0.0, max_steps)
        t = np.arange(1.0, max_steps + 1.0)
        t *= dt
        with np.errstate(invalid="ignore"):  # 0/0 in the λ = 0 lanes, discarded
            (y0, y1), phi1 = simulator._flow(args[2:4], args[4:6], args[:2], t)
        assert all(p1 is not None for p1 in phi1)
        every = args[6] * y0 + args[7] * y1 + args[9]
        got = run_phase(*args)
        assert np.array(got[:2]).tobytes() == np.array([y0[-1], y1[-1]]).tobytes()
        assert got[3].tobytes() == every.tobytes()

    # Three cells, each starting elsewhere, and four phases, each giving
    # every cell its own limit and sample budget, so the cells cross, run out
    # or rest apart.
    _CELLS = [(2.5, 2.0), (2.3, 2.3), (2.45, 2.1)]  # v_main, v_branch
    _PHASES = {
        # mode, current, each cell's (sample budget, limit)
        "rest-several-table-blocks": (MODE_FIXED, 0.0, [(TABLE_CAP + 1000, 0.0)] * 3),
        "rest-one-block": (MODE_FIXED, 0.0, [(7, 0.0), (2, 0.0), (1, 0.0)]),
        "charge": (MODE_CHARGE, 1.0, [(10_000, 2.6), (10_000, 2.55), (300, 2.6)]),
        # more than one ramp block; the last cell never reaches its limit
        "discharge": (MODE_DISCHARGE, -1.0, [(10_000, 2.2), (9_000, 2.0), (400, 0.5)]),
    }

    @pytest.mark.parametrize("cell", range(3), ids=["cell0", "cell1", "cell2"])
    @pytest.mark.parametrize("phase", list(_PHASES))
    def test_kernel_matches_scalar_recurrence(self, phase, cell):
        # The blocked kernel ends each phase in the state and sample count
        # of the step-by-step recurrence, with the same samples.
        mode, i, budgets = self._PHASES[phase]
        max_steps, v_stop = budgets[cell]
        args = _phase_args(TWO_BRANCH, *self._CELLS[cell], i, 0.05, mode, v_stop, max_steps)
        got = run_phase(*args)
        _assert_phases_agree(got, _scalar_cell(*args), TWO_BRANCH)
        if mode == MODE_DISCHARGE:
            assert got[4] == (cell != 2)
            if cell == 0:
                assert got[2] > RAMP_BLOCK

    @pytest.mark.parametrize("mode, i, max_steps, v_stop", [
        (MODE_FIXED, 0.0, TABLE_CAP + 1000, 0.0),  # several table blocks
        (MODE_FIXED, 0.0, 7, 0.0),
        (MODE_CHARGE, 1.0, 10_000, 2.6),
        (MODE_DISCHARGE, -1.0, 10_000, 2.2),  # more than one ramp block
    ])
    def test_orbit_phase_matches_scalar_recurrence(self, mode, i, max_steps, v_stop):
        # The periodic orbit solves a phase in closed form on the
        # circuit's modes.  It passes through every sample the recurrence
        # yields and ends in the same state, and Newton puts a ramp's end
        # within the recurrence's crossing sample.
        dt, r = 0.05, TWO_BRANCH.r_series
        exp = _scalar_cell(*_phase_args(TWO_BRANCH, 2.5, 2.0, i, dt, mode, v_stop, max_steps))
        steps = exp[2]
        m = simulator._modes(TWO_BRANCH)
        y = [np.array([m.inv[k] @ (2.5, 2.0)]) for k in (0, 1)]
        if mode != MODE_FIXED:
            t, _, _, empty, failed = simulator._phase(m, y, i, np.array([v_stop - i * r]),
                                                      simulator.ORBIT_TOL * TWO_BRANCH.v_rated)
            assert not empty[0] and not failed[0]
            assert (steps - 1) * dt < t[0] <= steps * dt
        times = np.arange(1, steps + 1) * dt
        x, _ = simulator._flow(m.lam, [i * b for b in m.beta],
                               [np.repeat(yk, times.size) for yk in y], times)
        v_main, v_branch = m.vec @ np.array(x)
        np.testing.assert_allclose(v_main + i * r, exp[3], rtol=0, atol=1e-10)
        np.testing.assert_allclose([v_main[-1], v_branch[-1]], _volts(TWO_BRANCH, *exp[:2]),
                                   rtol=0, atol=1e-10)
        if mode == MODE_DISCHARGE:
            assert steps > RAMP_BLOCK

    def test_leaky_charge_that_never_reaches_v_max_diverges(self):
        # Leakage settles the capacitor at i*R_leak = 2.0 V, below v_max:
        # the charge phase scans many blocks up to its step budget and stops.
        leaky = DeviceParams(c_main=1.0, r_series=0.01, v_rated=2.7, r_leak=5.0)
        spec = CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5)
        with pytest.raises(DynamicsDiverged) as err:
            run_protocol(leaky, spec)
        assert str(err.value) == (
            "charge phase did not reach 2.5 V within 3500 samples; the applied "
            "current cannot overcome leakage near the voltage limit")

    def test_divergence_prints_an_int_limit_as_a_float(self):
        # CycleSpec keeps an int v_max as it is; the message prints it as 2.0.
        leaky = DeviceParams(c_main=1.0, r_series=0.01, v_rated=2.7, r_leak=4.0)
        spec = CycleSpec(i_c=0.4, v_min=0.5, v_max=2)
        assert type(spec.v_max) is int
        with pytest.raises(DynamicsDiverged) as err:
            run_protocol(leaky, spec)
        assert str(err.value) == (
            "charge phase did not reach 2.0 V within 2900 samples; the applied "
            "current cannot overcome leakage near the voltage limit")

    def test_check_messages_and_order(self, monkeypatch):
        # The rating check comes before the charge's length in samples, that
        # before the sample cap, and a phase's state is checked for
        # finiteness before the guard band.
        fine, coarse = AcquisitionConfig(sample_period=1e-7), AcquisitionConfig(sample_period=25.0)
        for acq in (fine, coarse):
            with pytest.raises(ConfigError) as err:
                run_protocol(DEV, dataclasses.replace(SPEC, v_max=3.0), acq)
            assert str(err.value) == "spec.v_max 3.0 exceeds device.v_rated 2.7"
        # DEV's charge lasts 48.16 s, under two 25-s samples, and 1e9-s rests
        # would take 80 million of them.
        with pytest.raises(ConfigError) as err:
            run_protocol(DEV, dataclasses.replace(SPEC, rest_after_charge=1e9), coarse)
        assert str(err.value) == (
            "the charge takes 48.156 s, fewer than 2 samples at a sample period of 25.0 s, "
            "so a ramp could end up to 1 V past its limit; use a shorter sample period or "
            "a smaller current")
        with pytest.raises(ConfigError) as err:
            run_protocol(DEV, SPEC, fine)
        assert str(err.value) == (
            "the run needs about 963,120,064 samples, more than the 16,777,216 cap; use a "
            "longer sample period, shorter rests or fewer cycles")
        real = simulator.run_phase
        for shift, message in (
            (math.nan, "non-finite state after charge phase"),
            (10.0, "state left the guard band after charge phase: v_main=12.46488, "
                   "v_branch=0.53688"),
        ):
            def shifted(*args, shift=shift):  # the phase ends with v_main moved
                v_main, *rest = real(*args)
                return (v_main + shift, *rest)

            monkeypatch.setattr(simulator, "run_phase", shifted)
            with pytest.raises(DynamicsDiverged) as err:
                run_protocol(DEV, SPEC)
            assert str(err.value) == message

    # One 1-s sample moves this capacitor by i*dt/C = 0.51 V, so a discharge to
    # 0 V can end at -0.28 V, past the -0.1*v_rated band of the voltage rating.
    _COARSE = (DeviceParams(c_main=1.0, r_series=0.0625, v_rated=2.7, r_leak=2000.0),
               CycleSpec(i_c=0.5121951219512195, v_min=0.0, v_max=2.625,
                         rest_after_charge=3.0, max_cycles=24),
               AcquisitionConfig(sample_period=1.0))

    def test_guard_band_allows_one_step_past_the_limit(self):
        trace = run_protocol(*self._COARSE)
        assert len(trace.meta["boundaries"]) == 3 * 24
        assert trace.v.min() < -0.1 * 2.7

    def test_orbit_guard_band_allows_one_step_past_the_limit(self):
        # The same protocol, rests equal, as a map cell: its sampled run
        # still steps past the band, and the orbit, whose discharge ends on
        # the limit, defines the cell within the sampled-vs-orbit bound of
        # test_sampled_cycles_approach_the_orbit.
        p, s, acq = self._COARSE
        s = dataclasses.replace(s, rest_after_discharge=s.rest_after_charge)
        trace = run_protocol(p, s, acq)
        assert trace.v.min() < -0.1 * 2.7
        traced = analyze_trace(trace, min_segment=1.0).steady.mean.eta
        orbit = PeriodicObjective(p, s.i_c, s.rest_after_charge).eta(
            s.v_min / p.v_rated, s.v_max / p.v_rated)
        swing = s.v_max - s.v_min - 2 * s.i_c * p.r_series
        assert 0 < orbit < 1
        assert abs(traced - orbit) <= (s.i_c * 1.0 / p.c_main) / swing


class TestOrbitSecant:
    """The secant on the branch voltage ends where its residual stops moving."""

    # A slow branch, and windows whose capacitor swing is s volts.
    _P = DeviceParams(c_main=10.0, r_series=0.0025, v_rated=2.7,
                      redistribution=Redistribution(c_branch=2.8, r_branch=15.0))

    def _eta(self, s):
        window = (0.9, 0.9 + (2 * 0.15 * self._P.r_series + s) / 2.7)
        return simulator.periodic_etas(self._P, 0.15, 0.0, [window])[0]

    @pytest.mark.parametrize("s", [1e-7, 3e-7, 1e-5])
    def test_repeated_residual_is_converged(self, s):
        # On these windows the fixed-point residual reaches rounding level
        # and repeats exactly, so the secant has no slope: the cell has
        # converged, with the η of the cycle evaluated last, and lies with
        # its neighbour at s = 1e-6 V.
        eta = self._eta(s)
        assert type(eta) is float
        assert abs(eta - self._eta(1e-6)) <= 1e-6


class TestLongPhases:
    """Long phases within the derived bound of the 40-digit solution.

    A stepped propagator, ``x+ = M x``, gains about ε of error a step: about
    3.6e-12 V over the 50F preset's 1800-s rest, and 1.4e-10 V over a
    fast-branch charge sampled a million times.  Each sample and end state here is the flow from its
    phase's start, so the bound is per phase, not per step (``PHASE_ERROR``);
    it is about 1e-14 V on 50F and 1e-13 V on the fast branch.
    """

    CASES = {
        "50F-rest": (preset("50F"), (2.66, 2.5), 0.0, 0.1, MODE_FIXED, 0.0, 18_000),
        "fast-branch-charge": (FAST_BRANCH, (0.0, 0.0), 0.275, 1.0 / 1943, MODE_CHARGE, 2.7,
                               2_000_000),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_end_state_matches_the_decimal_reference(self, case):
        p, start, i, dt, mode, v_stop, max_steps = self.CASES[case]
        got = run_phase(*_phase_args(p, *start, i, dt, mode, v_stop, max_steps))
        assert got[4] == (mode == MODE_CHARGE) and got[2] >= 18_000
        assert _within(_volts(p, *got[:2]), _exact(p, *start, [(i, got[2] * D(dt))]))

    @pytest.mark.parametrize("case", ["50F-rest", "fast-branch-charge"])
    def test_samples_match_the_decimal_reference(self, case):
        # The last sample of each phase of one cycle, from the protocol's
        # start: sample j sits at (j + 1)·dt, and each phase's last sample
        # is its end state.
        if case == "50F-rest":
            p, acq = preset("50F"), AcquisitionConfig()
            s = CycleSpec(i_c=3.95, v_min=0.0, v_max=2.7, rest_after_charge=1800.0)
        else:
            p, acq = FAST_BRANCH, AcquisitionConfig(sample_period=1.0)
            s = CycleSpec(i_c=0.275, v_min=0.0, v_max=2.7)
        trace = run_protocol(p, s, acq)
        dt = trace.sample_period
        v_start = s.v_min + s.i_c * p.r_series
        current = {"charge": s.i_c, "discharge": -s.i_c}
        phases = []
        for b in trace.meta["boundaries"]:
            i = current.get(b.phase, 0.0)
            phases.append((i, round((b.t_end - b.t_start) / dt)))
            j = sum(k for _, k in phases) - 1  # the phase's last sample
            (v, _), (bound, _) = _exact(p, v_start, v_start,
                                        [(c, k * D(dt)) for c, k in phases])
            assert abs(D(trace.v[j]) - v - D(i) * D(p.r_series)) <= bound, b


@st.composite
def _protocols(draw, cycles=st.integers(1, 3), kinds=("ideal", "leaky", "two-branch")):
    """A device (ideal, leaky or two-branch), a feasible cycling spec, an acquisition."""
    kind = draw(st.sampled_from(kinds))
    c_main = draw(st.floats(1.0, 20.0))
    r_series = draw(st.floats(0.005, 0.1))
    r_leak = None if kind == "ideal" else draw(st.floats(2000.0, 20000.0))
    branch = None
    if kind == "two-branch":
        branch = Redistribution(c_branch=0.1 * c_main, r_branch=draw(st.floats(0.5, 20.0)))
    p = DeviceParams(c_main=c_main, r_series=r_series, v_rated=2.7,
                     redistribution=branch, r_leak=r_leak)
    v_min = draw(st.floats(0.0, 1.5))
    v_max = draw(st.floats(v_min + 1.0, 2.7))
    # The current that gives an ideal charge of `duration` seconds.
    duration = draw(st.floats(5.0, 60.0))
    i_c = c_main * (v_max - v_min) / (duration + 2 * r_series * c_main)
    s = CycleSpec(
        i_c=i_c, v_min=v_min, v_max=v_max,
        rest_after_charge=draw(st.floats(0.0, 120.0)),
        rest_after_discharge=draw(st.floats(0.0, 120.0)),
        max_cycles=draw(cycles),
    )
    acq = AcquisitionConfig(sample_period=draw(st.sampled_from([0.1, 0.5, 1.0])))
    return p, s, acq


@st.composite
def _ideal_protocols(draw):
    """An ideal device with a no-rest window of at least 14 samples per phase."""
    p = DeviceParams(c_main=draw(st.floats(1.0, 100.0)),
                     r_series=draw(st.floats(0.005, 0.1)), v_rated=2.7)
    acq = AcquisitionConfig(sample_period=draw(st.sampled_from([0.1, 0.5, 1.0])))
    v_min = draw(st.floats(0.0, 2.5))
    v_max = draw(st.floats(v_min + 0.05, 2.7))
    # The current whose ideal phase lasts `samples` sample periods.
    samples = draw(st.integers(14, 300))
    i_c = p.c_main * (v_max - v_min) / (samples * acq.sample_period + 2 * p.r_series * p.c_main)
    s = CycleSpec(i_c=i_c, v_min=v_min, v_max=v_max,
                  max_cycles=draw(st.integers(2, 3)))
    return p, s, acq


@st.composite
def _blocks(draw):
    """A device, a current, a rest and 1-12 per-unit windows of mixed widths."""
    kind = draw(st.sampled_from(["ideal", "leaky", "two-branch"]))
    c_main = draw(st.floats(1.0, 20.0))
    r_leak = None if kind == "ideal" else draw(st.floats(2000.0, 20000.0))
    branch = None
    if kind == "two-branch":
        branch = Redistribution(c_branch=0.1 * c_main, r_branch=draw(st.floats(0.5, 20.0)))
    p = DeviceParams(c_main=c_main, r_series=draw(st.floats(0.005, 0.1)), v_rated=2.7,
                     redistribution=branch, r_leak=r_leak)
    # The current that charges a full window in `duration` seconds, ideally.
    i_c = c_main * 2.7 / draw(st.floats(20.0, 120.0))
    windows = []
    for _ in range(draw(st.integers(1, 12))):
        vm = draw(st.floats(0.0, 0.89))
        windows.append((vm, draw(st.floats(vm + 0.11, 1.0))))
    return p, i_c, draw(st.floats(0.0, 120.0)), windows


@st.composite
def _ideal_windows(draw):
    """An ideal device, a per-unit window and a current, down to swings near zero."""
    p = DeviceParams(c_main=draw(st.floats(0.1, 1000.0)), r_series=draw(st.floats(0.005, 0.5)),
                     v_rated=draw(st.floats(1.0, 5.0)))
    vm = draw(st.floats(0.0, 0.99))
    vM = draw(st.floats(vm + 0.01, 1.0))
    # A fraction of the current whose resistive drops fill the window.
    i_c = draw(st.floats(1e-6, 1.0 - 1e-9)) * (vM - vm) * p.v_rated / (2 * p.r_series)
    return p, i_c, (vm, vM)


class TestProtocolProperties:
    @settings(max_examples=25, deadline=None)
    @given(case=_blocks())
    @example(case=(TWO_BRANCH, 3.95, 30.0, [(v_min / 2.7, 1.0) for v_min in (0.0, 1.35, 2.4, 2.6)]))
    def test_windows_solved_together_equal_windows_alone(self, case):
        # Cells solved together give each cell's own η bit for bit, and a
        # cell that fails alone fails with the same error among others.
        p, i_c, rest, windows = case
        objective = PeriodicObjective(p, i_c, rest)
        block = objective.etas(windows)
        assert len(block) == len(windows)
        for window, got in zip(windows, block):
            (alone,) = objective.etas([window])
            if isinstance(alone, Exception):
                assert (type(got), str(got)) == (type(alone), str(alone))
            else:
                assert got.hex() == alone.hex()

    @settings(max_examples=25, deadline=None)
    @given(case=_protocols())
    def test_deterministic(self, case):
        a, b = run_protocol(*case), run_protocol(*case)
        for x, y in ((a.t, b.t), (a.v, b.v), (a.i, b.i)):
            assert np.array_equal(x, y)
        assert a.meta == b.meta
        # and so are the trace, sidecar and report bytes written from them
        with tempfile.TemporaryDirectory() as tmp:
            written = []
            for name, trace in (("a", a), ("b", b)):
                csv, side = Path(tmp) / f"{name}.csv", Path(tmp) / f"{name}.cycles.csv"
                write_trace_csv(trace, csv)
                write_sidecar_csv(trace.meta["boundaries"], side)
                report = analyze_trace(trace).to_json().encode()
                written.append((csv.read_bytes(), side.read_bytes(), report))
        assert written[0] == written[1]

    @settings(max_examples=25, deadline=None)
    @given(case=_protocols())
    def test_matches_scalar_recurrence(self, case):
        blocked = run_protocol(*case)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "run_phase", _scalar_cell)
            ref = run_protocol(*case)
        assert np.array_equal(blocked.t, ref.t)
        assert np.array_equal(blocked.i, ref.i)
        for key in ("boundaries", "q_in", "q_out"):
            assert blocked.meta[key] == ref.meta[key]
        assert np.max(np.abs(blocked.v - ref.v)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(case=_protocols())
    def test_analyzed_losses_balance_energy(self, case):
        report = analyze_trace(run_protocol(*case))
        for m in report.steady.per_cycle:
            losses = m.loss_charge + m.loss_rest + m.loss_discharge
            assert abs(losses - (m.e_in - m.e_out)) <= 1e-9 * m.e_in

    @settings(max_examples=50, deadline=None)
    @given(case=_ideal_windows(), rest=st.floats(0.0, 1800.0))
    def test_orbit_of_an_ideal_device_is_the_closed_form(self, case, rest):
        # Without a branch or a leak each phase is a ramp that Newton's
        # linear guess lands on, so the orbit's η is the closed form's up to
        # rounding.  The phase durations carry the residual's rounding,
        # about ε·v_max, over the swing S; the difference e_out = i∫v − i²R·t
        # magnifies its rounding by about 1/η, as does the closed form's
        # numerator.  Hypothesis, hunting over 3,000 cases for the largest
        # multiple of ε·(v_max/S + 1/η), found 1.5; the test allows 4.
        p, i_c, (vm, vM) = case
        closed_form = ClosedFormObjective(p, i_c).eta(vm, vM)
        eta = PeriodicObjective(p, i_c, rest).eta(vm, vM)
        swing = (vM - vm) * p.v_rated - 2 * i_c * p.r_series
        eps = np.finfo(float).eps
        assert abs(eta - closed_form) <= 4 * eps * (vM * p.v_rated / swing + 1 / closed_form)

    @settings(max_examples=20, deadline=None)
    @given(case=_protocols(kinds=("leaky", "two-branch")))
    @example(case=(TWO_BRANCH, CycleSpec(i_c=3.95, v_min=0.0, v_max=2.7,
                                         rest_after_charge=60.0), None))
    def test_sampled_cycles_approach_the_orbit(self, case):
        # The sampled steady-window mean differs from the orbit by the
        # sampling term ΔV/S, with ΔV = i·Δt/C and S the capacitor swing: a
        # phase ends on the first sample past its limit, up to one sample's
        # swing past it (perfbench/README.md derives ¾·ΔV/S on ideal
        # devices).  Every phase ends on a sample, so no sample interval
        # spans a phase end, and the term that interval used to add,
        # 2·v_max/(v_min + v_max)·ΔV/S, is gone.  The term shrinks with the
        # sample period.  A targeted hypothesis hunt for the largest
        # multiple of ΔV/S, over 1,500 and 6,000 draws of this strategy,
        # found 0.59 and 0.64 (2.70 when phases could end between samples).
        p, s, _ = case
        s = dataclasses.replace(s, rest_after_discharge=s.rest_after_charge, max_cycles=20)
        vm, vM = s.v_min / p.v_rated, s.v_max / p.v_rated
        orbit = PeriodicObjective(p, s.i_c, s.rest_after_charge).eta(vm, vM)
        swing = s.v_max - s.v_min - 2 * s.i_c * p.r_series
        min_segment = min(1.0, 0.5 * charge_duration(p, s))
        for dt in (0.1, 0.01):
            trace = run_protocol(p, s, AcquisitionConfig(sample_period=dt))
            eta = analyze_trace(trace, min_segment=min_segment).steady.mean.eta
            assert abs(eta - orbit) <= (s.i_c * dt / p.c_main) / swing, dt

    @settings(max_examples=25, deadline=None)
    @given(case=_protocols())
    @example(case=(TWO_BRANCH, CycleSpec(i_c=3.95, v_min=1.35, v_max=2.7,
                                         rest_after_charge=30.0), None))
    def test_orbit_equals_repeated_closed_form_cycling(self, case):
        # Once cycling settles, each cycle is a copy of the periodic orbit.
        # Cycling the closed-form cycle map from rest, one cycle after
        # another until the branch voltage stops moving, reaches the orbit's
        # η, or the error that ends it.
        p, s, _ = case
        rest = s.rest_after_charge
        vm, vM = s.v_min / p.v_rated, s.v_max / p.v_rated
        s = dataclasses.replace(s, v_min=vm * p.v_rated, v_max=vM * p.v_rated,
                                rest_after_discharge=rest)
        (orbit,) = simulator.periodic_etas(p, s.i_c, rest, [(vm, vM)])
        m, drop = simulator._modes(p), s.i_c * p.r_series
        v_lo, v_hi = np.array([s.v_min + drop]), np.array([s.v_max - drop])
        tol = simulator.ORBIT_TOL * p.v_rated
        vb = v_lo
        with np.errstate(all="ignore"):  # a failed phase ends with a code
            for _ in range(10_000):
                g, eta, code = simulator._cycle(p, m, s.i_c, rest, v_lo, v_hi, vb, tol)
                if code[0] != simulator._FINE or abs(g[0] - vb[0]) <= 1e-3 * tol:
                    break
                vb = g
            else:
                raise AssertionError("cycling did not settle")
        if isinstance(orbit, Exception):
            assert code[0] != simulator._FINE
            assert str(simulator._orbit_error(int(code[0]), p, s)) == str(orbit)
        else:
            assert code[0] == simulator._FINE
            assert eta[0] == pytest.approx(orbit, rel=0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(case=_ideal_protocols())
    def test_ideal_efficiency_within_closed_form_bound(self, case):
        # perfbench/README.md, "The rampmap bound": the discrete phases and the
        # trapezoid across each current reversal put the simulated efficiency
        # of an ideal device between the closed form and ΔV/S above it.
        p, s, acq = case
        trace = run_protocol(p, s, acq)
        min_segment = min(1.0, 0.5 * charge_duration(p, s))
        eta = analyze_trace(trace, min_segment=min_segment).steady.mean.eta
        dv = s.i_c * acq.sample_period / p.c_main
        swing = s.v_max - s.v_min - 2 * s.i_c * p.r_series
        assert 0.0 <= eta - efficiency_no_rest(p, s) <= dv / swing + 1e-12

