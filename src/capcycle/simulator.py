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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.linalg import expm

from ._kernels import MODE_CHARGE, MODE_DISCHARGE, MODE_FIXED, run_phase
from .errors import ConfigError, DynamicsDiverged
from .model import CycleSpec, DeviceParams, charge_duration
from .trace import CycleBoundary, Trace

TERMINATION_EPS = 1e-9
"""Absolute voltage tolerance on phase-termination comparisons."""

BRANCH_STEPS_PER_TAU = 50
"""Minimum internal steps per redistribution time constant."""

MAX_SAMPLES = 1 << 24
"""Sample cap of :func:`run_protocol`, checked before allocating (~320 MB of buffers)."""

_PHASE_SAFETY_FACTOR = 50
_GUARD_LOW = -0.1
_GUARD_HIGH = 1.2


class Phase(Enum):
    CHARGE = "charge"
    REST_HIGH = "rest_high"
    DISCHARGE = "discharge"
    REST_LOW = "rest_low"


@dataclass(frozen=True)
class SimState:
    """Instantaneous circuit state during a protocol run."""

    v_main: float
    v_branch: float
    t: float
    phase: Phase
    cycle_index: int


@dataclass(frozen=True)
class AcquisitionConfig:
    """Sampling and quantization of the emulated acquisition chain."""

    sample_period: float = 0.1
    v_quantum: float = 0.093e-3
    i_quantum: float = 0.93e-3
    quantize: bool = False

    def __post_init__(self) -> None:
        if not self.sample_period > 0:
            raise ConfigError(
                f"acquisition.sample_period must be > 0, got {self.sample_period}"
            )
        if not self.v_quantum > 0 or not self.i_quantum > 0:
            raise ConfigError("acquisition quanta must be > 0")


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


def _discretize(p: DeviceParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization over one step of length dt.

    Exponentiates the (A, b) pair on an augmented matrix, which handles
    singular A (the ideal integrator) without special-casing.
    """
    a, b = _continuous_system(p)
    m = np.zeros((3, 3))
    m[:2, :2] = a * dt
    m[:2, 2] = b * dt
    phi = expm(m)
    return phi[:2, :2], phi[:2, 2]


def branch_time_constant(p: DeviceParams) -> float | None:
    """Relaxation time constant of the redistribution branch, if present."""
    if p.redistribution is None:
        return None
    r = p.redistribution
    return r.r_branch * p.c_main * r.c_branch / (p.c_main + r.c_branch)


def step_dynamics(
    p: DeviceParams, state: SimState, i_applied: float, dt: float
) -> SimState:
    """Advance the circuit state by one exact step under constant current."""
    if not dt > 0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    ad, bd = _discretize(p, dt)
    x = np.array([state.v_main, state.v_branch])
    x_new = ad @ x + bd * i_applied
    if not np.all(np.isfinite(x_new)):
        raise DynamicsDiverged(
            f"state became non-finite after step from t={state.t!r}"
        )
    return replace(
        state, v_main=float(x_new[0]), v_branch=float(x_new[1]), t=state.t + dt
    )


def _internal_substeps(p: DeviceParams, sample_period: float) -> int:
    tau = branch_time_constant(p)
    if tau is None:
        return 1
    finest = min(sample_period, tau / BRANCH_STEPS_PER_TAU)
    return max(1, math.ceil(sample_period / finest))


def _grow(buf: np.ndarray, used: int, needed: int) -> np.ndarray:
    if buf.size >= needed:
        return buf
    new = np.empty(int(needed * 1.25) + 64)
    new[:used] = buf[:used]
    return new


def run_protocol(
    p: DeviceParams, s: CycleSpec, acq: AcquisitionConfig | None = None
) -> Trace:
    """Simulate ``s.max_cycles`` full cycles and return the sampled trace.

    Each cycle is charge, optional high rest, discharge, optional low rest.
    The initial capacitor voltage is ``v_min + i*R`` (the steady-cycle charge
    entry point), so the ideal device is periodic from the first cycle while a
    device with a redistribution branch stabilizes over several cycles.

    Trace ``meta`` carries ground truth: per-phase boundaries (``boundaries``,
    a list of :class:`~capcycle.trace.CycleBoundary`), per-cycle supplied and
    extracted charge (exact internal accounting), charge/discharge durations,
    and ``steady_cycle_internal`` — the first cycle from which the charge
    balance criterion held for two consecutive cycles (never truncates the
    run; all ``max_cycles`` cycles are always simulated).
    """
    if acq is None:
        acq = AcquisitionConfig()
    s.validate_against(p)
    ideal_duration = charge_duration(p, s)  # also validates window feasibility

    n_sub = _internal_substeps(p, acq.sample_period)
    dt_int = acq.sample_period / n_sub
    ad, bd = _discretize(p, dt_int)
    a11, a12 = float(ad[0, 0]), float(ad[0, 1])
    a21, a22 = float(ad[1, 0]), float(ad[1, 1])
    bd0, bd1 = float(bd[0]), float(bd[1])

    ideal_steps = max(1, math.ceil(ideal_duration / dt_int))
    max_active_steps = _PHASE_SAFETY_FACTOR * ideal_steps + 1000
    rest_high_steps = round(s.rest_after_charge / dt_int)
    rest_low_steps = round(s.rest_after_discharge / dt_int)

    est_samples = (
        s.max_cycles
        * (2 * ideal_steps + rest_high_steps + rest_low_steps)
        // n_sub
        + 64
    )
    if est_samples > MAX_SAMPLES:
        raise ConfigError(
            f"the run needs about {est_samples:,} samples, more than the "
            f"{MAX_SAMPLES:,} cap; use a longer sample period, shorter rests "
            "or fewer cycles"
        )
    out_v = np.empty(int(est_samples * 1.2))
    out_i = np.empty_like(out_v)

    v_main = s.v_min + s.i_c * p.r_series
    v_branch = v_main
    countdown = n_sub
    out_next = 0
    global_step = 0
    guard_low = _GUARD_LOW * p.v_rated
    guard_high = _GUARD_HIGH * p.v_rated

    boundaries: list[CycleBoundary] = []
    q_in: list[float] = []
    q_out: list[float] = []
    t_charge: list[float] = []
    t_discharge: list[float] = []

    def run_one(phase: Phase, mode: int, i_sig: float, v_stop: float, max_steps: int) -> int:
        nonlocal v_main, v_branch, countdown, out_next, global_step, out_v, out_i
        if max_steps <= 0:
            return 0
        need = out_next + max_steps // n_sub + 2
        out_v = _grow(out_v, out_next, need)
        out_i = _grow(out_i, out_next, need)
        t_start = global_step * dt_int
        v_main, v_branch, steps, out_next, countdown, crossed = run_phase(
            v_main,
            v_branch,
            a11,
            a12,
            a21,
            a22,
            bd0 * i_sig,
            bd1 * i_sig,
            i_sig,
            p.r_series,
            mode,
            v_stop,
            TERMINATION_EPS,
            max_steps,
            n_sub,
            countdown,
            out_v,
            out_i,
            out_next,
        )
        global_step += steps
        if mode != MODE_FIXED and not crossed:
            raise DynamicsDiverged(
                f"{phase.value} phase did not reach {v_stop!r} V within "
                f"{max_steps} internal steps; the applied current cannot "
                "overcome leakage near the voltage limit"
            )
        if not (math.isfinite(v_main) and math.isfinite(v_branch)):
            raise DynamicsDiverged(f"non-finite state after {phase.value} phase")
        if not (guard_low <= v_main <= guard_high and guard_low <= v_branch <= guard_high):
            raise DynamicsDiverged(
                f"state left the guard band after {phase.value} phase: "
                f"v_main={v_main!r}, v_branch={v_branch!r}"
            )
        boundaries.append(
            CycleBoundary(cycle, phase.value, t_start, global_step * dt_int)
        )
        return steps

    for cycle in range(1, s.max_cycles + 1):
        n_c = run_one(Phase.CHARGE, MODE_CHARGE, s.i_c, s.v_max, max_active_steps)
        run_one(Phase.REST_HIGH, MODE_FIXED, 0.0, 0.0, rest_high_steps)
        n_d = run_one(Phase.DISCHARGE, MODE_DISCHARGE, -s.i_c, s.v_min, max_active_steps)
        run_one(Phase.REST_LOW, MODE_FIXED, 0.0, 0.0, rest_low_steps)
        q_in.append(s.i_c * n_c * dt_int)
        q_out.append(s.i_c * n_d * dt_int)
        t_charge.append(n_c * dt_int)
        t_discharge.append(n_d * dt_int)

    steady_internal = None
    ratios = [abs(qi - qo) / qi for qi, qo in zip(q_in, q_out)]
    for c in range(len(ratios) - 1):
        if ratios[c] < s.steady_tolerance and ratios[c + 1] < s.steady_tolerance:
            steady_internal = c + 1  # 1-based cycle index
            break

    n = out_next
    trace = Trace(
        t=np.arange(1, n + 1) * acq.sample_period,
        v=out_v[:n].copy(),
        i=out_i[:n].copy(),
        sample_period=acq.sample_period,
        meta={
            "boundaries": boundaries,
            "q_in": q_in,
            "q_out": q_out,
            "t_charge": t_charge,
            "t_discharge": t_discharge,
            "steady_cycle_internal": steady_internal,
            "dt_internal": dt_int,
            "n_sub": n_sub,
            "device": {
                "c_main": p.c_main,
                "r_series": p.r_series,
                "v_rated": p.v_rated,
                "c_branch": p.redistribution.c_branch if p.redistribution else None,
                "r_branch": p.redistribution.r_branch if p.redistribution else None,
                "r_leak": p.r_leak,
            },
            "spec": {
                "i_c": s.i_c,
                "v_min": s.v_min,
                "v_max": s.v_max,
                "rest_after_charge": s.rest_after_charge,
                "rest_after_discharge": s.rest_after_discharge,
                "max_cycles": s.max_cycles,
                "steady_tolerance": s.steady_tolerance,
            },
            "quantized": acq.quantize,
        },
    )
    if acq.quantize:
        trace = quantize_trace(trace, acq)
    return trace


def quantize_trace(trace: Trace, acq: AcquisitionConfig) -> Trace:
    """Round voltage and current to the acquisition quanta (idempotent)."""
    v = np.round(trace.v / acq.v_quantum) * acq.v_quantum
    i = np.round(trace.i / acq.i_quantum) * acq.i_quantum
    meta = dict(trace.meta)
    meta["quantized"] = True
    return Trace(
        t=trace.t.copy(), v=v, i=i, sample_period=trace.sample_period, meta=meta
    )
