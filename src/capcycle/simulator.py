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

Phase propagation uses blocked exact powers.  Within one phase the circuit is
linear and time-invariant, so on the augmented state
``z = (v_main, v_branch, 1)`` one internal step is ``z+ = M z`` with

    M = [[a11, a12, b1],
         [a21, a22, b2],
         [  0,   0,  1]]

and the state after ``k`` steps is ``M^k z``.  A table of ``M^1 .. M^B``
(built by doubling, cached per coefficient tuple) turns a block of ``B`` steps
into one matrix-vector product: only the two state rows of each power are
kept, stacked into a ``(2B, 3)`` array, so ``table[:2b] @ z`` yields the
``b`` successive states interleaved.  Rest phases run in blocks of up to
``TABLE_CAP`` steps; charge and discharge phases run in ``RAMP_BLOCK``-step
blocks and stop at the first step whose terminal voltage crosses the limit.
See Van Loan (1978), "Computing integrals involving the matrix exponential".

One driver, :func:`run_phases`, serves two consumers: :func:`run_protocol`
collects the samples into a :class:`~capcycle.trace.Trace`, and a simulated
map cell has each phase folded into its sufficient statistics, so that a
rest takes no samples at all.

``M`` is the exponential of the augmented continuous-time matrix, computed
in numpy by scaling and squaring of a truncated Taylor series: Moler and Van
Loan, "Nineteen dubious ways to compute the exponential of a matrix,
twenty-five years later", SIAM Review 45(1), 2003; Higham, "The scaling and
squaring method for the matrix exponential revisited", SIAM J. Matrix Anal.
Appl. 26(4), 2005.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DynamicsDiverged
from .model import CycleSpec, DeviceParams, charge_duration
from .trace import CycleBoundary, Trace

TERMINATION_EPS = 1e-9
"""Absolute voltage tolerance on phase-termination comparisons."""

BRANCH_STEPS_PER_TAU = 50
"""Minimum internal steps per redistribution time constant."""

MAX_SAMPLES = 1 << 24
"""Sample cap of :func:`run_protocol`, checked before simulating (~400 MB of t, v, i)."""

# Phase-loop modes of :func:`run_phase`.
MODE_CHARGE = 0      # terminate when terminal voltage rises to v_stop
MODE_DISCHARGE = 1   # terminate when terminal voltage falls to v_stop
MODE_FIXED = 2       # run exactly max_steps (rest phases)

TABLE_CAP = 1 << 15
"""Most powers kept in one table (1.5 MB); longer phases loop over blocks."""

RAMP_BLOCK = 256
"""Block length of charge and discharge phases, which stop at a crossing."""

V_QUANTUM = 0.093e-3
"""Voltage resolution of the emulated acquisition chain, in V."""

I_QUANTUM = 0.93e-3
"""Current resolution of the emulated acquisition chain, in A."""

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


def _discretize(p: DeviceParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization over one step of length dt.

    Exponentiates the (A, b) pair on an augmented matrix, which handles
    singular A (the ideal integrator) without special-casing.  The exponential
    is scaling and squaring: ``m / 2**s`` has ∞-norm below 0.5 (never 0, since
    ``b·dt > 0``), where the order-18 Taylor sum is exact to double precision,
    and ``s`` squarings undo the scaling.
    """
    a, b = _continuous_system(p)
    m = np.zeros((3, 3))
    m[:2, :2] = a * dt
    m[:2, 2] = b * dt
    s = max(0, math.frexp(np.linalg.norm(m, np.inf))[1] + 1)
    x = m / 2.0**s
    phi = term = np.eye(3)
    for k in range(1, 19):
        term = term @ x / k
        phi = phi + term
    for _ in range(s):
        phi = phi @ phi
    return phi[:2, :2], phi[:2, 2]


@functools.lru_cache(maxsize=16)
def _step_coefficients(p: DeviceParams, dt: float) -> tuple[float, ...]:
    """``(a11, a12, a21, a22, b1, b2)`` of :func:`_discretize`, cached per device and step."""
    ad, bd = _discretize(p, dt)
    return (*map(float, ad.ravel()), *map(float, bd))


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


@functools.lru_cache(maxsize=8)
def _power_table(coeffs: tuple[float, ...], n: int) -> np.ndarray:
    """State rows of ``M^1 .. M^n`` as a read-only ``(2n, 3)`` array."""
    a11, a12, a21, a22, b1, b2 = coeffs
    # The last row of every power is (0, 0, 1), so the state rows of M^j
    # times the whole of M^k give the state rows of M^(j+k).
    rows = np.empty((n, 2, 3))
    rows[0] = ((a11, a12, b1), (a21, a22, b2))
    k = 1
    while k < n:  # rows[:k] holds M^1..M^k
        c = min(k, n - k)
        rows[k : k + c] = rows[:c] @ np.vstack((rows[k - 1], (0.0, 0.0, 1.0)))
        k += c
    table = rows.reshape(2 * n, 3)
    table.flags.writeable = False
    return table


def _advance(table: np.ndarray, z: np.ndarray, k: int) -> None:
    """Set ``z`` to ``M^k z`` in place, one table power per ``TABLE_CAP`` steps."""
    cap = table.shape[0] // 2
    while k > 0:
        b = min(cap, k)
        z[:2] = table[2 * b - 2 : 2 * b] @ z
        k -= b


def run_phase(
    v_main,
    v_branch,
    a11,
    a12,
    a21,
    a22,
    b1,
    b2,
    i_applied,
    r_series,
    mode,
    v_stop,
    eps,
    max_steps,
    n_sub,
    countdown,
    *,
    fold=False,
):
    """Advance one protocol phase, sampling every ``n_sub`` internal steps.

    The state update is ``x+ = Ad x + bd`` with ``bd`` already scaled by the
    phase current.  A sample is the terminal voltage ``v_main + i*R`` at the
    end of an internal step; the termination test applies to every step
    (sample or not), and the crossing step still yields its sample when one
    falls due.  ``countdown`` is the number of steps until the next sample.

    Returns ``(v_main, v_branch, steps, samples, countdown, crossed)``, where
    ``samples`` holds the phase's sampled terminal voltages in order.
    ``max_steps`` must be positive.

    With ``fold``, ``samples`` is the phase's sufficient statistics
    ``(n, v_first, v_last, v_sum)`` instead: the sample count, the first and
    last samples (NaN when ``n`` is 0) and their sum.  A folded fixed-length
    phase takes no samples: powers of ``M`` from the table carry the state to
    its last sample and on to its end, and its ``v_first`` and ``v_sum`` are
    NaN.  Rests carry no current, so that last sample is all the analyzer's
    trapezoid reads of them.
    """
    block = min(TABLE_CAP, max_steps) if mode == MODE_FIXED else RAMP_BLOCK
    table = _power_table((a11, a12, a21, a22, b1, b2), block)
    z = np.array([v_main, v_branch, 1.0])
    v_offset = i_applied * r_series
    if fold and mode == MODE_FIXED:
        n = (max_steps - countdown) // n_sub + 1
        last = countdown + (n - 1) * n_sub if n else 0  # the last sample's step
        _advance(table, z, last)
        v_last = float(z[0]) + v_offset if n else math.nan
        _advance(table, z, max_steps - last)
        countdown = (countdown - max_steps - 1) % n_sub + 1
        stats = (n, math.nan, v_last, math.nan)
        return float(z[0]), float(z[1]), max_steps, stats, countdown, False
    parts = []
    steps = 0
    crossed = False
    while steps < max_steps and not crossed:
        b = min(block, max_steps - steps)
        states = (table[: 2 * b] @ z).reshape(b, 2)
        vt = states[:, 0] + v_offset
        if mode != MODE_FIXED:
            hit = vt >= v_stop - eps if mode == MODE_CHARGE else vt <= v_stop + eps
            first = int(np.argmax(hit))
            if hit[first]:
                b = first + 1
                crossed = True
        # Samples fall on this block's steps countdown, countdown + n_sub, ...
        parts.append(vt[countdown - 1 : b : n_sub])
        countdown = (countdown - b - 1) % n_sub + 1
        steps += b
        z[:2] = states[b - 1]
    samples = np.concatenate(parts)
    if fold:
        ends = (float(samples[0]), float(samples[-1])) if samples.size else (math.nan,) * 2
        samples = (samples.size, *ends, float(samples.sum()))
    return float(z[0]), float(z[1]), steps, samples, countdown, crossed


def run_phases(p: DeviceParams, s: CycleSpec, acq: AcquisitionConfig, fold: bool = False):
    """Run ``s.max_cycles`` full cycles phase by phase; the driver of both paths.

    Each cycle is charge, optional high rest, discharge, optional low rest.
    The initial capacitor voltage is ``v_min + i*R`` (the steady-cycle charge
    entry point), so the ideal device is periodic from the first cycle while a
    device with a redistribution branch stabilizes over several cycles.

    Yields ``(cycle, phase, i_applied, steps, samples)`` for every phase that
    takes at least one internal step, where ``samples`` is what
    :func:`run_phase` returns for it (its statistics with ``fold``).  The
    sample cap, termination, finiteness and guard-band checks apply to both
    paths alike.
    """
    s.validate_against(p)
    ideal_duration = charge_duration(p, s)  # also validates window feasibility

    n_sub = _internal_substeps(p, acq.sample_period)
    dt_int = acq.sample_period / n_sub
    a11, a12, a21, a22, bd0, bd1 = _step_coefficients(p, dt_int)

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

    v_main = s.v_min + s.i_c * p.r_series
    v_branch = v_main
    countdown = n_sub
    guard_low = _GUARD_LOW * p.v_rated
    guard_high = _GUARD_HIGH * p.v_rated
    plan = (
        (Phase.CHARGE, MODE_CHARGE, s.i_c, s.v_max, max_active_steps),
        (Phase.REST_HIGH, MODE_FIXED, 0.0, 0.0, rest_high_steps),
        (Phase.DISCHARGE, MODE_DISCHARGE, -s.i_c, s.v_min, max_active_steps),
        (Phase.REST_LOW, MODE_FIXED, 0.0, 0.0, rest_low_steps),
    )
    for cycle in range(1, s.max_cycles + 1):
        for phase, mode, i_sig, v_stop, max_steps in plan:
            if max_steps <= 0:
                continue
            v_main, v_branch, steps, samples, countdown, crossed = run_phase(
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
                fold=fold,
            )
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
            yield cycle, phase, i_sig, steps, samples


def run_protocol(
    p: DeviceParams, s: CycleSpec, acq: AcquisitionConfig | None = None
) -> Trace:
    """Simulate ``s.max_cycles`` full cycles and return the sampled trace.

    The phases come from :func:`run_phases`.  Trace ``meta`` carries ground
    truth: per-phase boundaries (``boundaries``, a list of
    :class:`~capcycle.trace.CycleBoundary`), per-cycle supplied and extracted
    charge (exact internal accounting) and charge/discharge durations.
    Whether a cycle is steady is the analyzer's judgement, made on the
    samples; the simulator makes none.
    """
    if acq is None:
        acq = AcquisitionConfig()
    n_sub = _internal_substeps(p, acq.sample_period)
    dt_int = acq.sample_period / n_sub
    global_step = 0

    boundaries: list[CycleBoundary] = []
    phase_v: list[np.ndarray] = []
    phase_i: list[float] = []
    q_in: list[float] = []
    q_out: list[float] = []
    t_charge: list[float] = []
    t_discharge: list[float] = []
    for cycle, phase, i_sig, steps, samples in run_phases(p, s, acq):
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

    v = np.concatenate(phase_v)
    trace = Trace(
        t=np.arange(1, v.size + 1) * acq.sample_period,
        v=v,
        i=np.repeat(phase_i, [a.size for a in phase_v]),
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
    """Round voltage and current to ``V_QUANTUM`` and ``I_QUANTUM`` (idempotent)."""
    v = np.round(trace.v / V_QUANTUM) * V_QUANTUM
    i = np.round(trace.i / I_QUANTUM) * I_QUANTUM
    meta = dict(trace.meta)
    meta["quantized"] = True
    return Trace(
        t=trace.t.copy(), v=v, i=i, sample_period=trace.sample_period, meta=meta
    )
