"""Constant-current cycling protocol simulator.

The circuit is linear, so each internal step uses the exact zero-order-hold
update of the two-state system (main capacitor + optional redistribution
branch, optional leakage): the only discretization artifact left is phase
termination landing on an internal-step boundary, an excursion of at most one
step beyond the voltage limit.

Sampling convention: the emitted trace has no t=0 sample; sample k sits at
``t = k * sample_period`` and carries the applied current of the internal step
that ends there, with terminal voltage ``v_main + i * r_series``.  A phase's
boundary sample therefore still carries the active current, which is what a
real acquisition chain integrating over the preceding interval reports, and
what makes the interruption voltage jump cleanly visible to the analyzer.

Phase propagation evaluates the circuit's exact solution.  Within one phase
the current is constant and the circuit linear, and on its modes (computed
once per device by :func:`_modes`) each mode moves on its own: mode ``k`` is
``y_k(t) = e^{λt} y_k + i β_k φ1`` with ``φ1 = expm1(λt) / λ``
(:func:`_flow`).  The state after ``k`` internal steps is that solution at
``t = k·dt`` from the phase's start state, so no step's rounding carries into
the next.  Rest phases are evaluated in blocks of up to ``TABLE_CAP`` steps;
charge and discharge phases in ``RAMP_BLOCK``-step blocks, stopping at the
first step whose terminal voltage crosses the limit.

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
from .model import CycleSpec, DeviceParams, charge_duration
from .trace import CycleBoundary, Trace

TERMINATION_EPS = 1e-9
"""Absolute voltage tolerance on phase-termination comparisons."""

BRANCH_STEPS_PER_TAU = 50
"""Minimum internal steps per redistribution time constant."""

MAX_SAMPLES = 1 << 24
"""Sample cap of :func:`run_protocol`, checked before simulating (~400 MB of t, v, i)."""

MAX_STEPS = 1 << 25
"""Internal-step cap of :func:`run_protocol`, checked before simulating.

A fast redistribution branch takes ``n_sub`` internal steps per sample, so
the sample cap alone does not bound the work.  Charge and discharge phases
run about 6 million steps a second and rests about 36 million (2 vCPUs), so
a run at the cap takes 1 to 6 seconds.  It is at least :data:`MAX_SAMPLES`,
so without a branch (one step per sample) the sample cap is met first.
"""

# Phase-loop modes of :func:`run_phase`.
MODE_CHARGE = 0      # terminate when terminal voltage rises to v_stop
MODE_DISCHARGE = 1   # terminate when terminal voltage falls to v_stop
MODE_FIXED = 2       # run exactly max_steps (rest phases)

TABLE_CAP = 1 << 15
"""Most steps of one rest block, which bounds its arrays (256 kB each); longer rests loop over blocks."""

RAMP_BLOCK = 256
"""Steps of one charge or discharge block, which bounds the steps evaluated past a crossing."""

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


def _flow(lam, drive, y, t: np.ndarray):
    """The modal state ``t`` seconds after ``y``, and each mode's ``φ1``.

    Mode ``k`` has rate ``lam[k]`` and drive ``drive[k]``, the constant
    current times ``β_k``, and moves as ``y_k(t) = e^{λt} y_k + drive_k φ1``
    with ``φ1 = expm1(λt) / λ``, which is ``t`` at ``λ = 0``.
    """
    out, phi1 = [], []
    for lam_k, drive_k, yk in zip(lam, drive, y):
        z = lam_k * t
        em = np.expm1(z)
        p1 = t * np.where(z == 0.0, 1.0, em / z)
        out.append((em + 1.0) * yk + drive_k * p1)
        phi1.append(p1)
    return out, phi1


def branch_time_constant(p: DeviceParams) -> float | None:
    """Relaxation time constant of the redistribution branch, if present."""
    if p.redistribution is None:
        return None
    r = p.redistribution
    return r.r_branch * p.c_main * r.c_branch / (p.c_main + r.c_branch)


def _internal_substeps(p: DeviceParams, sample_period: float) -> int:
    tau = branch_time_constant(p)
    if tau is None:
        return 1
    finest = min(sample_period, tau / BRANCH_STEPS_PER_TAU)
    return max(1, math.ceil(sample_period / finest))


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
    n_sub,
    countdown,
):
    """Advance one modal state through one protocol phase, sampling every ``n_sub`` internal steps.

    The state ``k`` internal steps into the phase is :func:`_flow` at ``t =
    k·dt`` from the phase's start state ``(y0, y1)``, in the device's modal
    coordinates: coordinate ``j`` has rate ``lamj`` and drive ``drivej``, the
    phase current times ``β_j``.  A sample is the terminal voltage
    ``v_main + i*R``, that is ``w0·y0(t) + w1·y1(t) + v_offset`` with ``(w0,
    w1)`` the basis row that reads ``v_main``, at the end of an internal
    step; the termination test applies to every step (sample or not), and
    the crossing step still yields its sample when one falls due.
    ``countdown`` is the number of steps until the next sample.
    ``max_steps`` must be positive.

    Returns ``(y0, y1, steps, samples, countdown, crossed)``: the modal end
    state, the int count of internal steps taken, the sampled terminal
    voltages in order, the countdown to the next sample, and whether the
    phase reached ``v_stop``.
    """
    block = TABLE_CAP if mode == MODE_FIXED else RAMP_BLOCK
    limit = v_stop - eps if mode == MODE_CHARGE else v_stop + eps
    parts = []
    steps, crossed = 0, False
    while steps < max_steps and not crossed:
        end = min(block, max_steps - steps)  # the steps taken in this block
        t = np.arange(steps + 1.0, steps + end + 1.0)
        t *= dt
        with np.errstate(invalid="ignore"):  # at λ = 0, _flow divides 0 by 0 in lanes it discards
            (y0_t, y1_t), _ = _flow((lam0, lam1), (drive0, drive1), (y0, y1), t)
        vt = w0 * y0_t + w1 * y1_t + v_offset
        if mode != MODE_FIXED:
            hit = vt >= limit if mode == MODE_CHARGE else vt <= limit
            first = int(hit.argmax())
            if hit[first]:
                end, crossed = first + 1, True
        # Samples fall on steps countdown, countdown + n_sub, ... up to end.
        parts.append(vt[countdown - 1 : end : n_sub])
        countdown = (countdown - end - 1) % n_sub + 1
        steps += end
    return (float(y0_t[end - 1]), float(y1_t[end - 1]), steps, np.concatenate(parts),
            countdown, crossed)


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
    sample cap and the step cap before any step, each phase's end state for
    termination, finiteness and the guard band, and the run for at least 2
    samples; the first failing check raises.

    Trace ``meta`` carries ground truth: per-phase boundaries
    (``boundaries``, a list of :class:`~capcycle.trace.CycleBoundary`),
    per-cycle supplied and extracted charge (exact internal accounting) and
    charge/discharge durations.  Whether a cycle is steady is the analyzer's
    judgement, made on the samples; the simulator makes none.
    """
    if acq is None:
        acq = AcquisitionConfig()
    n_sub = _internal_substeps(p, acq.sample_period)
    dt_int = acq.sample_period / n_sub
    m = _modes(p)
    (w0, w1), (u0, u1) = m.vec.tolist()
    rest_high_steps = round(s.rest_after_charge / dt_int)
    rest_low_steps = round(s.rest_after_discharge / dt_int)

    s.validate_against(p)
    ideal_duration = charge_duration(p, s)  # also validates window feasibility
    ideal_steps = max(1, math.ceil(ideal_duration / dt_int))
    est_steps = s.max_cycles * (2 * ideal_steps + rest_high_steps + rest_low_steps)
    est_samples = est_steps // n_sub + 64
    if est_samples > MAX_SAMPLES:
        raise ConfigError(
            f"the run needs about {est_samples:,} samples, more than the "
            f"{MAX_SAMPLES:,} cap; use a longer sample period, shorter rests "
            "or fewer cycles"
        )
    if est_steps > MAX_STEPS:
        raise ConfigError(
            f"the run needs about {est_steps:,} internal steps, {n_sub:,} a sample "
            f"for the redistribution branch, more than the {MAX_STEPS:,} cap; use "
            "shorter rests, a larger current or fewer cycles"
        )
    max_active_steps = _PHASE_SAFETY_FACTOR * ideal_steps + 1000

    # A phase may end one internal step past its limit.
    swing = s.i_c * dt_int / p.c_main
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
    countdown = n_sub
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
            y0, y1, steps, samples, countdown, crossed = run_phase(
                y0,
                y1,
                *m.lam,
                i_sig * m.beta[0],
                i_sig * m.beta[1],
                w0,
                w1,
                dt_int,
                i_sig * p.r_series,
                mode,
                v_stop,
                TERMINATION_EPS,
                max_steps,
                n_sub,
                countdown,
            )
            if mode != MODE_FIXED and not crossed:
                raise DynamicsDiverged(
                    f"{phase.value} phase did not reach {float(v_stop)!r} V "
                    f"within {max_steps} internal steps; the applied "
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
            t_start = global_step * dt_int
            global_step += steps
            boundaries.append(
                CycleBoundary(cycle, phase.value, t_start, global_step * dt_int)
            )
            phase_v.append(samples)
            phase_i.append(i_sig)
            if phase is Phase.CHARGE:
                q_in.append(s.i_c * steps * dt_int)
                t_charge.append(steps * dt_int)
            elif phase is Phase.DISCHARGE:
                q_out.append(s.i_c * steps * dt_int)
                t_discharge.append(steps * dt_int)

    # From here on the trace's columns are the only sample arrays alive.
    sizes = [a.size for a in phase_v]
    v = np.concatenate(phase_v)
    del phase_v, samples
    if v.size < 2:
        raise ConfigError(
            f"the run gives {v.size} sample(s) at a sample period of "
            f"{acq.sample_period!r} s, and a trace needs at least 2; use a "
            "shorter sample period or more cycles"
        )
    t = np.arange(1.0, v.size + 1.0)  # whole numbers below 2**53 are exact
    t *= acq.sample_period
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
            "dt_internal": dt_int,
            "n_sub": n_sub,
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
    on.  A cell leaves once its secant step is within the tolerance, with
    the η of the cycle evaluated last, or once a phase fails.
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
            step = np.where(h == 0, 0.0, h * (x - x_prev) / (h - h_prev))
            done = (np.abs(step) <= tol) | (code_n >= _STUCK_CHARGE)
            eta[live[done]], code[live[done]] = eta_n[done], code_n[done]
            keep = ~done
            live, x_prev, h_prev, x = live[keep], x[keep], h[keep], (x - step)[keep]
    return eta, code


def _orbit_error(code: int, p: DeviceParams, s: CycleSpec) -> CapcycleError:
    window = _window(p, s)
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


def _window(p: DeviceParams, s: CycleSpec) -> str:
    return f"window ({s.v_min / p.v_rated:g}, {s.v_max / p.v_rated:g}) p.u."


def periodic_etas(p: DeviceParams, i_c: float, rest: float, windows) -> list:
    """η of each ``(v_min, v_max)`` window's periodic steady cycle, or the error that ends it.

    Each window is cycled at ``i_c`` with ``rest`` seconds of rest after
    each phase.  The stabilized cycle that repeated cycling settles into is
    the fixed point of a cycle map, solved directly (Aprille and Trick,
    "Steady-state analysis of nonlinear circuits with periodic inputs",
    Proc. IEEE 60(1), 1972) instead of by stepping through cycles.  η is
    ``e_out / e_in`` of that cycle, with ``e_in = i∫v_main dt + i²R·t_c`` and
    ``e_out = i∫v_main dt − i²R·t_d``, each integral in closed form on the
    circuit's modes.  On an ideal device it is the closed form.

    The windows are solved together, elementwise, so a window's η does not
    depend on the others.  A window narrower than the resistive drops is
    :class:`WindowTooNarrow`; one whose rest empties a phase,
    :class:`LossesExceedDelivery`; a charge limit that the leakage never
    lets the capacitor reach, :class:`DynamicsDiverged`; and a Newton or
    secant iteration that does not converge, :class:`NumericError`.  Each
    message names the window.
    """
    out: list = []
    for v_min, v_max in windows:
        try:
            s = CycleSpec(i_c=i_c, v_min=v_min, v_max=v_max, rest_after_charge=rest,
                          rest_after_discharge=rest)
            s.validate_against(p)
            charge_duration(p, s)  # refuses a window narrower than 2*i*R
            if p.r_leak is not None and not i_c * p.r_leak > v_max - i_c * p.r_series:
                raise DynamicsDiverged(
                    f"{_window(p, s)}: the charge never reaches {v_max!r} V; the "
                    f"leakage takes the whole {i_c!r}-A current once the capacitor "
                    f"is at {i_c * p.r_leak!r} V"
                )
            out.append(s)
        except CapcycleError as exc:
            out.append(exc)
    cells = [c for c, s in enumerate(out) if isinstance(s, CycleSpec)]
    if cells:
        drop = i_c * p.r_series
        v_lo = np.array([out[c].v_min for c in cells]) + drop
        v_hi = np.array([out[c].v_max for c in cells]) - drop
        eta, code = _orbit(p, i_c, rest, v_lo, v_hi)
        for c, value, k in zip(cells, eta.tolist(), code.tolist()):
            out[c] = value if k == _FINE else _orbit_error(k, p, out[c])
    return out
