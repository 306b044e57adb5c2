"""Constant-current cycling protocol simulator.

The circuit is linear, so each sample is the exact solution of the two-state
system (main capacitor + optional redistribution branch, optional leakage)
at its time: the only discretization artifact left is that a charge or
discharge ends on the first sample that reaches its limit, as a cycler that
checks its limits at its sampling rate stops, so at most one sample past it.

Sampling convention: the emitted trace has no t=0 sample; sample k sits at
``t = k * sample_period`` and carries the applied current of the interval
that ends there, with terminal voltage ``v_main + i * r_series``.  A phase's
boundary sample therefore still carries the active current, which is what a
real acquisition chain integrating over the preceding interval reports, and
what makes the interruption voltage jump cleanly visible to the analyzer.

Phase propagation evaluates the circuit's exact solution.  Within one phase
the current is constant and the circuit linear, and on its modes (computed
once per device by :func:`_modes`) each mode moves on its own: mode ``k`` is
``y_k(t) = e^{λt} y_k + i β_k φ1`` with ``φ1 = expm1(λt) / λ``
(:func:`_flow`).  The state ``k`` samples into a phase is that solution at
``t = k·T`` from the phase's start state, so no sample's rounding carries
into the next.  Rest phases are evaluated in blocks of up to ``TABLE_CAP``
samples, and without ``φ1``, which their zero drive would multiply; charge
and discharge phases in ``RAMP_BLOCK``-sample blocks, stopping at the first
sample whose terminal voltage crosses the limit.

:func:`run_phase` advances one state through one phase, and
:func:`run_protocol` drives it one phase at a time, checks each phase's end
state and collects the samples into a :class:`~capcycle.trace.Trace`.

Simulated maps do not step at all.  :func:`periodic_etas` solves the cycle
that repeated cycling settles into: the same modal solution gives each
phase's state and ``∫v_main dt`` in closed form, Newton's method finds each
phase's end, and the secant method the cycle map's fixed point.

The modal form is Moler and Van Loan's "method 14" (eigenvectors), in
"Nineteen dubious ways to compute the exponential of a matrix, twenty-five
years later", SIAM Review 45(1), 2003: the 2×2 matrix of an RC network has
real eigenvalues, in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    CapcycleError,
    ConfigError,
    DynamicsDiverged,
    LossesExceedDelivery,
    NumericError,
)
from .model import (
    CycleSpec,
    DeviceParams,
    charge_duration,
    window_error,
    window_gate,
    window_label,
)
from .trace import CycleBoundary, Trace

TERMINATION_EPS = 1e-9
"""Absolute voltage tolerance on phase-termination comparisons."""

MAX_SAMPLES = 1 << 24
"""Sample cap of :func:`run_protocol`, checked before simulating (~400 MB of t, v, i)."""

MIN_CHARGE_SAMPLES = 2
"""Fewest sample periods ``T`` that the ideal charge may last, checked before simulating.

A ramp ends on the first sample past its limit, up to one sample's swing
``δ = i·T/C`` past it.  The ideal charge lasts ``t_c = C·S/i``, with ``S``
the capacitor's swing, so ``δ/S = T/t_c``.  At ``t_c >= 2T`` each end
overshoots by at most ``S/2``: the capacitor cycles over at most twice
the window it was asked for, and an ideal ramp takes at least
``⌈t_c/T⌉ = 2`` samples.  A shorter charge lets a single sample cross more
than half the window, beyond it at ``t_c <= T``.
"""

# Phase-loop modes of :func:`run_phase`.
MODE_CHARGE = 0      # terminate when terminal voltage rises to v_stop
MODE_DISCHARGE = 1   # terminate when terminal voltage falls to v_stop
MODE_FIXED = 2       # take exactly max_steps samples (rest phases)

TABLE_CAP = 1 << 15
"""Most samples of one rest block, which bounds its arrays (256 kB each); longer rests loop over blocks."""

RAMP_BLOCK = 256
"""Samples of one charge or discharge block, which bounds the samples evaluated past a crossing."""

V_QUANTUM = 0.093e-3
"""Voltage resolution of the emulated acquisition chain, in V."""

I_QUANTUM = 0.93e-3
"""Current resolution of the emulated acquisition chain, in A."""

ORBIT_STEPS = 50
"""Most Newton steps that locate one phase end, and most secant steps of one orbit."""

ORBIT_TOL = 1e-12
"""Tolerance of the orbit's Newton residuals and secant steps, as a fraction of ``v_rated``."""

_PHI2_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(17, -1, -1))
"""Taylor coefficients of ``(expm1(z) − z) / z²``, highest order first; the tail past 17 is below 1e-17."""

_PHASE_SAFETY_FACTOR = 50
_GUARD_LOW = -0.1
_GUARD_HIGH = 1.2


class Phase(Enum):
    CHARGE = "charge"
    REST_HIGH = "rest_high"
    DISCHARGE = "discharge"
    REST_LOW = "rest_low"


@dataclass(frozen=True)
class AcquisitionConfig:
    """Sampling and quantization of the emulated acquisition chain."""

    sample_period: float = 0.1
    quantize: bool = False

    def __post_init__(self) -> None:
        if not self.sample_period > 0:
            raise ConfigError(
                f"acquisition.sample_period must be > 0, got {self.sample_period}"
            )


def _continuous_system(p: DeviceParams) -> tuple[np.ndarray, np.ndarray]:
    """State matrices for x = (v_main, v_branch), input = applied current.

    Absent elements enter as zero conductances (with a dummy 1 F branch), so a
    single code path covers the ideal series-RC device as the special case.
    """
    g_b = 1.0 / p.redistribution.r_branch if p.redistribution else 0.0
    c_b = p.redistribution.c_branch if p.redistribution else 1.0
    g_l = 1.0 / p.r_leak if p.r_leak is not None else 0.0
    a = np.array(
        [
            [-(g_b + g_l) / p.c_main, g_b / p.c_main],
            [g_b / c_b, -g_b / c_b],
        ]
    )
    b = np.array([1.0 / p.c_main, 0.0])
    return a, b


class _Modes(NamedTuple):
    """Modal form ``A = vec · diag(lam) · inv`` of one device's circuit."""

    lam: tuple[float, float]
    vec: np.ndarray  # row 0 reads v_main off the modes, row 1 v_branch
    inv: np.ndarray
    beta: tuple[float, float]  # each mode's input per ampere, ``inv @ b``


@functools.lru_cache(maxsize=16)
def _modes(p: DeviceParams) -> _Modes:
    """The modal form of :func:`_continuous_system`'s circuit, in closed form.

    The circuit is an RC network, so ``A = [[a, b], [c, d]]`` has ``b·c >= 0``
    and real eigenvalues ``(a + d ± √((a − d)² + 4bc)) / 2``, distinct when
    ``b·c > 0``.  The one nearer zero is ``det A`` over the other, which
    keeps it exact (zero without a leak) where the sum would cancel.  With
    ``b = c = 0`` (no branch) ``A`` is already diagonal.
    """
    (a, b), (c, d) = _continuous_system(p)[0].tolist()
    b_main = 1.0 / p.c_main  # the input enters v_main only
    if b == 0.0:
        return _Modes((a, d), np.eye(2), np.eye(2), (b_main, 0.0))
    fast = (a + d - math.sqrt((a - d) ** 2 + 4.0 * b * c)) / 2.0
    lam = (fast, (a * d - b * c) / fast)
    # eigenvector k is (b, λ_k − a); the inverse of that 2×2 basis by hand
    vec = np.array([[b, b], [lam[0] - a, lam[1] - a]])
    det = b * (lam[1] - lam[0])
    inv = np.array([[lam[1] - a, -b], [a - lam[0], b]]) / det
    return _Modes(lam, vec, inv, (inv[0, 0] * b_main, inv[1, 0] * b_main))


def _flow(lam, drive, y, t: np.ndarray, want_phi1: bool = True):
    """The modal state ``t`` seconds after ``y``, and each mode's ``φ1``.

    Mode ``k`` has rate ``lam[k]`` and drive ``drive[k]``, the constant
    current times ``β_k``, and moves as ``y_k(t) = e^{λt} y_k + drive_k φ1``
    with ``φ1 = expm1(λt) / λ``, which is ``t`` at ``λ = 0``.  Unless
    ``want_phi1``, a mode without drive (a rest's) skips its ``φ1``, which is
    None in the list.
    """
    out, phi1 = [], []
    for lam_k, drive_k, yk in zip(lam, drive, y):
        z = lam_k * t
        em = np.expm1(z)
        if not want_phi1 and drive_k == 0.0:
            # φ1 > 0 at t > 0, so drive_k * φ1 is drive_k, a zero of its sign
            out.append((em + 1.0) * yk + drive_k)
            phi1.append(None)
            continue
        p1 = t * np.where(z == 0.0, 1.0, em / z)
        out.append((em + 1.0) * yk + drive_k * p1)
        phi1.append(p1)
    return out, phi1


def run_phase(
    y0,
    y1,
    lam0,
    lam1,
    drive0,
    drive1,
    w0,
    w1,
    dt,
    v_offset,
    mode,
    v_stop,
    eps,
    max_steps,
):
    """Advance one modal state through one protocol phase, one sample every ``dt``.

    The state ``k`` samples into the phase is :func:`_flow` at ``t = k·dt``
    from the phase's start state ``(y0, y1)``, in the device's modal
    coordinates: coordinate ``j`` has rate ``lamj`` and drive ``drivej``, the
    phase current times ``β_j``.  A sample is the terminal voltage ``v_main +
    i*R``, that is ``w0·y0(t) + w1·y1(t) + v_offset`` with ``(w0, w1)`` the
    basis row that reads ``v_main``.  A charge or discharge ends on the first
    sample that reaches ``v_stop``, so at most one sample past its limit, as
    a cycler that checks its limits at its sampling rate stops; a rest takes
    exactly ``max_steps`` samples.  ``max_steps`` must be positive.

    Returns ``(y0, y1, steps, samples, crossed)``: the modal end state, the
    int count of samples taken, the sampled terminal voltages in order, and
    whether the phase reached ``v_stop``.
    """
    block = TABLE_CAP if mode == MODE_FIXED else RAMP_BLOCK
    limit = v_stop - eps if mode == MODE_CHARGE else v_stop + eps
    parts = []
    steps, crossed = 0, False
    while steps < max_steps and not crossed:
        end = min(block, max_steps - steps)  # the samples taken in this block
        t = np.arange(end) + (steps + 1.0)
        t *= dt
        with np.errstate(invalid="ignore"):  # at λ = 0, _flow divides 0 by 0 in lanes it discards
            (y0_t, y1_t), _ = _flow((lam0, lam1), (drive0, drive1), (y0, y1), t, False)
        vt = w0 * y0_t + w1 * y1_t + v_offset
        if mode != MODE_FIXED:
            hit = vt >= limit if mode == MODE_CHARGE else vt <= limit
            first = int(hit.argmax())
            if hit[first]:
                end, crossed = first + 1, True
        parts.append(vt[:end])
        steps += end
    return float(y0_t[end - 1]), float(y1_t[end - 1]), steps, np.concatenate(parts), crossed


def run_protocol(
    p: DeviceParams, s: CycleSpec, acq: AcquisitionConfig | None = None
) -> Trace:
    """Simulate ``s.max_cycles`` full cycles and return the sampled trace.

    Each cycle is charge, optional high rest, discharge, optional low rest,
    and :func:`run_phase` advances the state through one phase at a time.
    The capacitor starts at ``v_min + i*R`` (the steady-cycle charge entry
    point), so the ideal device is periodic from the first cycle while a
    device with a redistribution branch stabilizes over several cycles.

    The spec is checked against the device, the window's feasibility, the
    charge's length in samples and the sample cap before any step, and each
    phase's end state for termination, finiteness and the guard band; the
    first failing check raises.  A charge or discharge ends on the first
    sample past its limit, up to one sample's swing ``i·T/C`` past it, so an
    ideal charge must last at least :data:`MIN_CHARGE_SAMPLES` sample
    periods.  Every charge and discharge yields at least its crossing
    sample, so a trace has at least two.

    Trace ``meta`` carries ground truth: per-phase boundaries
    (``boundaries``, a list of :class:`~capcycle.trace.CycleBoundary`),
    per-cycle supplied and extracted charge (exact internal accounting) and
    charge/discharge durations.  Whether a cycle is steady is the analyzer's
    judgement, made on the samples; the simulator makes none.
    """
    if acq is None:
        acq = AcquisitionConfig()
    dt = acq.sample_period
    m = _modes(p)
    (w0, w1), (u0, u1) = m.vec.tolist()
    rest_high_steps = round(s.rest_after_charge / dt)
    rest_low_steps = round(s.rest_after_discharge / dt)

    s.validate_against(p)
    ideal_duration = charge_duration(p, s)  # also validates window feasibility
    swing = s.i_c * dt / p.c_main  # how far past its limit a ramp may end
    if ideal_duration < MIN_CHARGE_SAMPLES * dt:
        raise ConfigError(
            f"the charge takes {ideal_duration:.6g} s, fewer than {MIN_CHARGE_SAMPLES} "
            f"samples at a sample period of {dt!r} s, so a ramp could end up to "
            f"{swing:.6g} V past its limit; use a shorter sample period or a smaller "
            "current"
        )
    ideal_steps = math.ceil(ideal_duration / dt)
    est_samples = s.max_cycles * (2 * ideal_steps + rest_high_steps + rest_low_steps) + 64
    if est_samples > MAX_SAMPLES:
        raise ConfigError(
            f"the run needs about {est_samples:,} samples, more than the "
            f"{MAX_SAMPLES:,} cap; use a longer sample period, shorter rests "
            "or fewer cycles"
        )
    max_active_steps = _PHASE_SAFETY_FACTOR * ideal_steps + 1000

    guard_low = _GUARD_LOW * p.v_rated - swing
    guard_high = _GUARD_HIGH * p.v_rated + swing
    plan = (
        (Phase.CHARGE, MODE_CHARGE, s.i_c, s.v_max, max_active_steps),
        (Phase.REST_HIGH, MODE_FIXED, 0.0, 0.0, rest_high_steps),
        (Phase.DISCHARGE, MODE_DISCHARGE, -s.i_c, s.v_min, max_active_steps),
        (Phase.REST_LOW, MODE_FIXED, 0.0, 0.0, rest_low_steps),
    )
    v_start = s.v_min + s.i_c * p.r_series
    y0, y1 = (m.inv @ (v_start, v_start)).tolist()
    global_step = 0

    boundaries: list[CycleBoundary] = []
    phase_v: list[np.ndarray] = []
    phase_i: list[float] = []
    q_in: list[float] = []
    q_out: list[float] = []
    t_charge: list[float] = []
    t_discharge: list[float] = []
    for cycle in range(1, s.max_cycles + 1):
        for phase, mode, i_sig, v_stop, max_steps in plan:
            if max_steps <= 0:  # a rest of zero length
                continue
            y0, y1, steps, samples, crossed = run_phase(
                y0,
                y1,
                *m.lam,
                i_sig * m.beta[0],
                i_sig * m.beta[1],
                w0,
                w1,
                dt,
                i_sig * p.r_series,
                mode,
                v_stop,
                TERMINATION_EPS,
                max_steps,
            )
            if mode != MODE_FIXED and not crossed:
                raise DynamicsDiverged(
                    f"{phase.value} phase did not reach {float(v_stop)!r} V "
                    f"within {max_steps} samples; the applied "
                    "current cannot overcome leakage near the voltage limit"
                )
            v_main, v_branch = w0 * y0 + w1 * y1, u0 * y0 + u1 * y1
            if not (math.isfinite(v_main) and math.isfinite(v_branch)):
                raise DynamicsDiverged(f"non-finite state after {phase.value} phase")
            if not (guard_low <= v_main <= guard_high and guard_low <= v_branch <= guard_high):
                raise DynamicsDiverged(
                    f"state left the guard band after {phase.value} phase: "
                    f"v_main={v_main!r}, v_branch={v_branch!r}"
                )
            t_start = global_step * dt
            global_step += steps
            boundaries.append(
                CycleBoundary(cycle, phase.value, t_start, global_step * dt)
            )
            phase_v.append(samples)
            phase_i.append(i_sig)
            if phase is Phase.CHARGE:
                q_in.append(s.i_c * steps * dt)
                t_charge.append(steps * dt)
            elif phase is Phase.DISCHARGE:
                q_out.append(s.i_c * steps * dt)
                t_discharge.append(steps * dt)

    # From here on the trace's columns are the only sample arrays alive.
    sizes = [a.size for a in phase_v]
    v = np.concatenate(phase_v)
    del phase_v, samples
    t = np.arange(1.0, v.size + 1.0)  # whole numbers below 2**53 are exact
    t *= dt
    trace = Trace(
        t=t,
        v=v,
        i=np.repeat(phase_i, sizes),
        sample_period=acq.sample_period,
        meta={
            "boundaries": boundaries,
            "q_in": q_in,
            "q_out": q_out,
            "t_charge": t_charge,
            "t_discharge": t_discharge,
            "quantized": acq.quantize,
        },
    )
    if acq.quantize:
        trace = quantize_trace(trace)
    return trace


def quantize_trace(trace: Trace) -> Trace:
    """Round voltage and current to ``V_QUANTUM`` and ``I_QUANTUM`` (idempotent).

    Returns a new trace; each column is one new array, rounded in place.
    """
    v = _quantized(trace.v, V_QUANTUM)
    i = _quantized(trace.i, I_QUANTUM)
    meta = dict(trace.meta)
    meta["quantized"] = True
    return Trace(
        t=trace.t.copy(), v=v, i=i, sample_period=trace.sample_period, meta=meta
    )


def _quantized(x: np.ndarray, q: float) -> np.ndarray:
    """``np.round(x / q) * q`` in one new array: the same operations and bits."""
    y = x / q
    np.round(y, out=y)
    y *= q
    return y


# ---------------------------------------------------------------------------
# The periodic steady state


def _phi2(z: np.ndarray) -> np.ndarray:
    """``(expm1(z) − z) / z²``, by its Taylor series where ``|z| < 1``."""
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)
    series = np.zeros_like(z)
    for c in _PHI2_SERIES:
        series = series * zs + c
    return np.where(small, series, (np.expm1(z) - z) / (z * z))


def _phase(m: _Modes, y, i: float, target: np.ndarray, tol: float):
    """A phase of constant current ``i`` from modal state ``y`` until ``v_main`` reaches ``target``.

    Newton's method on ``v_main(t) = target`` starts from the linear guess,
    and each cell leaves it at the step whose residual is within ``tol``
    volts, so that its arithmetic does not depend on the other cells.  A
    cell that starts at or past its limit has an empty phase.

    Returns ``(t, y, w, empty, failed)``: the duration, the end state,
    ``∫v_main dt`` (closed form: mode ``k`` integrates to ``φ1 y_k + i β_k
    φ2`` with ``φ2 = (expm1(λt) − λt) / λ²``), and whether the phase was
    empty or Newton failed to converge within :data:`ORBIT_STEPS` steps.
    """
    (w0, w1), (l0, l1) = m.vec[0], m.lam
    drive = d0, d1 = i * m.beta[0], i * m.beta[1]
    gap = target - (w0 * y[0] + w1 * y[1])
    empty = gap * i <= 0
    slope = w0 * (l0 * y[0] + d0) + w1 * (l1 * y[1] + d1)
    t = np.where(empty, 0.0, gap / slope)
    todo = np.flatnonzero(~empty)
    for _ in range(ORBIT_STEPS):
        if not todo.size:
            break
        (v0, v1), _ = _flow(m.lam, drive, (y[0][todo], y[1][todo]), t[todo])
        residual = w0 * v0 + w1 * v1 - target[todo]
        t[todo] -= residual / (w0 * (l0 * v0 + d0) + w1 * (l1 * v1 + d1))
        todo = todo[~(np.abs(residual) <= tol)]
    failed = np.zeros(t.size, dtype=bool)
    failed[todo] = True
    failed |= ~empty & ~(t > 0)  # Newton found no later crossing
    end, phi1 = _flow(m.lam, drive, y, t)
    w = sum(wk * (p1 * yk + dk * t * t * _phi2(lam * t))
            for wk, p1, yk, lam, dk in zip(m.vec[0], phi1, y, m.lam, drive))
    return t, end, w, empty, failed


# What ended a cell's orbit: _cycle's codes, then _orbit's.
_FINE, _EMPTY_CHARGE, _EMPTY_DISCHARGE, _STUCK_CHARGE, _STUCK_DISCHARGE, _NO_ORBIT = range(6)


def _cycle(p: DeviceParams, m: _Modes, i: float, rest: float, v_lo, v_hi, vb, tol: float):
    """One cycle from a discharge's end, where ``v_main = v_lo`` and ``v_branch = vb``.

    Low rest, charge to ``v_hi``, high rest, discharge to ``v_lo``.  Returns
    the branch voltage at the next discharge's end, the cycle's η and a code
    per cell: ``_FINE``, or the first of an empty or a failed phase.
    """
    y = [m.inv[k, 0] * v_lo + m.inv[k, 1] * vb for k in (0, 1)]
    ends = []
    for current, target in ((i, v_hi), (-i, v_lo)):
        if rest:
            y = [math.exp(lam * rest) * yk for lam, yk in zip(m.lam, y)]
        t, y, w, empty, failed = _phase(m, y, current, target, tol)
        ends.append((t, w, empty, failed))
    (t_c, w_c, empty_c, failed_c), (t_d, w_d, empty_d, failed_d) = ends
    ohmic = i * i * p.r_series
    eta = (i * w_d - ohmic * t_d) / (i * w_c + ohmic * t_c)
    code = np.select([failed_c, failed_d, empty_c, empty_d],
                     [_STUCK_CHARGE, _STUCK_DISCHARGE, _EMPTY_CHARGE, _EMPTY_DISCHARGE],
                     _FINE)
    return m.vec[1, 0] * y[0] + m.vec[1, 1] * y[1], eta, code


def _orbit(p: DeviceParams, i: float, rest: float, v_lo: np.ndarray, v_hi: np.ndarray):
    """η of each cell's periodic cycle, and the code of what ended it.

    A discharge ends at ``v_main = v_lo``, so the cycle map has one unknown,
    the branch voltage there, and without a branch it has none: one cycle
    from anywhere is the orbit.  Otherwise the secant method solves ``G(vb)
    = vb``, starting from the rest equilibrium ``vb = v_lo`` and one cycle
    on.  A cell leaves once its secant step is within the tolerance, or its
    residual repeats exactly, with the η of the cycle evaluated last, or
    once a phase fails.
    """
    m, tol = _modes(p), ORBIT_TOL * p.v_rated
    with np.errstate(all="ignore"):  # failed cells end with a code, not a value
        g, eta, code = _cycle(p, m, i, rest, v_lo, v_hi, v_lo, tol)
        if p.redistribution is None:
            return eta, code
        live = np.flatnonzero(code < _STUCK_CHARGE)
        code[live] = _NO_ORBIT
        x_prev, h_prev, x = v_lo[live], (g - v_lo)[live], g[live]
        for _ in range(ORBIT_STEPS):
            if not live.size:
                break
            g, eta_n, code_n = _cycle(p, m, i, rest, v_lo[live], v_hi[live], x, tol)
            h = g - x
            step = np.where((h == 0) | (h == h_prev), 0.0, h * (x - x_prev) / (h - h_prev))
            done = (np.abs(step) <= tol) | (code_n >= _STUCK_CHARGE)
            eta[live[done]], code[live[done]] = eta_n[done], code_n[done]
            keep = ~done
            live, x_prev, h_prev, x = live[keep], x[keep], h[keep], (x - step)[keep]
    return eta, code


def _orbit_error(code: int, p: DeviceParams, v_min: float, v_max: float) -> CapcycleError:
    window = window_label(p, v_min, v_max)
    phase = "charge" if code in (_EMPTY_CHARGE, _STUCK_CHARGE) else "discharge"
    if code in (_EMPTY_CHARGE, _EMPTY_DISCHARGE):
        return LossesExceedDelivery(
            f"{window}: the rest before the {phase} carries the capacitor past its "
            "limit, so the cycle has an empty phase and delivers nothing"
        )
    if code == _NO_ORBIT:
        return NumericError(f"{window}: the periodic cycle was not found within "
                            f"{ORBIT_STEPS} secant steps")
    return NumericError(f"{window}: Newton did not locate the {phase}'s end within "
                        f"{ORBIT_STEPS} steps")


def periodic_etas(p: DeviceParams, i_c: float, rest: float, windows) -> list:
    """η of each per-unit ``(vm, vM)`` window's periodic steady cycle, or the error that ends it.

    Each window is cycled at ``i_c`` with ``rest`` seconds of rest after
    each phase.  The stabilized cycle that repeated cycling settles into is
    the fixed point of a cycle map, solved directly (Aprille and Trick,
    "Steady-state analysis of nonlinear circuits with periodic inputs",
    Proc. IEEE 60(1), 1972) instead of by stepping through cycles.  η is
    ``e_out / e_in`` of that cycle, with ``e_in = i∫v_main dt + i²R·t_c`` and
    ``e_out = i∫v_main dt − i²R·t_d``, each integral in closed form on the
    circuit's modes.  On an ideal device it is the closed form.

    The windows are solved together, elementwise, so a window's η does not
    depend on the others.  A window that :func:`~capcycle.model.window_gate`
    refuses gets :func:`~capcycle.model.window_error`'s error: narrower than
    the resistive drops, :class:`WindowTooNarrow`; a charge limit that the
    leakage never lets the capacitor reach, :class:`DynamicsDiverged`.  One
    whose rest empties a phase is :class:`LossesExceedDelivery`, and a
    Newton or secant iteration that does not converge, :class:`NumericError`.
    Each message names the window.
    """
    windows = list(windows)
    vm, vM = np.array(windows, dtype=float).reshape(-1, 2).T
    v_min, v_max, ok = window_gate(p, i_c, vm, vM, rest)
    out = [None if k else window_error(p, i_c, *w, rest)
           for w, k in zip(windows, ok.tolist())]
    cells = np.flatnonzero(ok)
    if cells.size:
        drop = i_c * p.r_series
        v_min, v_max = v_min[cells], v_max[cells]
        eta, code = _orbit(p, i_c, rest, v_min + drop, v_max - drop)
        for c, value, k, lo, hi in zip(cells.tolist(), eta.tolist(), code.tolist(),
                                       v_min.tolist(), v_max.tolist()):
            out[c] = value if k == _FINE else _orbit_error(k, p, lo, hi)
    return out
