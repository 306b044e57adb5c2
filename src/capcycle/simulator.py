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
into one matrix product: only the two state rows of each power are kept,
stacked into a ``(2B, 3)`` array, so ``table[:2b] @ z`` yields the ``b``
successive states interleaved.  Rest phases run in blocks of up to
``TABLE_CAP`` steps; charge and discharge phases run in ``RAMP_BLOCK``-step
blocks and stop at the first step whose terminal voltage crosses the limit.
See Van Loan (1978), "Computing integrals involving the matrix exponential".

The state is a block: ``Z`` is ``(3, m)``, one column per cell of a
simulated map, and ``table[:2b] @ Z`` steps every cell at once.  The cells
share the device, the step, the current, the rests and the cycle count;
each column keeps its own limit, step budget, sample countdown and crossing
step, and leaves the block's live set when its phase ends.  One phase
loop, :func:`run_phases`, serves two consumers.  :func:`run_protocol` is the
one-column case: it collects the samples into a
:class:`~capcycle.trace.Trace`.  A simulated map has each phase of each
column folded into its sufficient statistics instead, so that a rest takes
no samples at all: each column jumps by its own power of ``M``, computed by
repeated squaring and cached.  A folded column's arithmetic never depends
on the other columns, so a map cell's result does not depend on the cells
that share its block.

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

from .errors import CapcycleError, ConfigError, DynamicsDiverged
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
"""Most powers kept in one table (1.5 MB); longer sampled rests loop over blocks."""

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


@functools.lru_cache(maxsize=8)
def _sample_sums(coeffs: tuple[float, ...], n: int, n_sub: int) -> np.ndarray:
    """Sums of the ``v_main`` rows of ``M^j, M^(j - n_sub), ...`` for ``j = 0 .. n``.

    Row 0 is zero.  Times a state, row ``j`` is the sum of the samples that
    end on steps ``j, j - n_sub, ...`` of a block, less their ``i*R``
    offsets.
    """
    sums = np.zeros((n + 1, 3))
    main = _power_table(coeffs, n)[0::2]
    for r in range(min(n_sub, n)):
        np.cumsum(main[r::n_sub], axis=0, out=sums[1 + r :: n_sub])
    sums.flags.writeable = False
    return sums


@functools.lru_cache(maxsize=64)
def _power(coeffs: tuple[float, ...], k: int) -> np.ndarray:
    """State rows of ``M^k`` as a read-only ``(2, 3)`` array, by repeated squaring."""
    a11, a12, a21, a22, b1, b2 = coeffs
    m = np.array(((a11, a12, b1), (a21, a22, b2), (0.0, 0.0, 1.0)))
    rows = np.linalg.matrix_power(m, k)[:2]
    rows.flags.writeable = False
    return rows


def _advance(coeffs: tuple[float, ...], z: np.ndarray, k: np.ndarray) -> None:
    """Set each column of ``z`` to ``M^k z`` in place, ``k`` per column.

    A column reads its own power's rows, so its arithmetic does not depend
    on the other columns.
    """
    if (k == k[0]).all():  # a rest's usual case: one power serves every column
        rows = _power(coeffs, int(k[0]))[None]
    else:
        rows = np.stack([_power(coeffs, j) for j in k.tolist()])  # (columns, 2, 3)
    z[:2] = (rows[:, :, 0] * z[0, :, None] + rows[:, :, 1] * z[1, :, None]
             + rows[:, :, 2]).T


def _per_cell(value, m: int) -> np.ndarray:
    """``value`` with an entry per cell; a scalar serves every cell."""
    return value if isinstance(value, np.ndarray) else np.full(m, value)


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
    """Advance a block of cells through one protocol phase, sampling every ``n_sub`` internal steps.

    The block holds one column per cell: ``v_main``, ``v_branch`` and
    ``countdown`` are arrays with an entry per cell, and so may be ``v_stop``
    and ``max_steps`` (a scalar serves every cell).  The cells share the
    step coefficients, the current and the mode.  The state update is
    ``x+ = Ad x + bd`` with ``bd`` already scaled by the phase current.  A
    sample is the terminal voltage ``v_main + i*R`` at the end of an internal
    step; the termination test applies to every step (sample or not), and the
    crossing step still yields its sample when one falls due.  ``countdown``
    is the number of steps until a cell's next sample.  ``max_steps`` must be
    positive.

    Returns ``(v_main, v_branch, total, samples, countdown, crossed, steps)``:
    arrays with an entry per cell, apart from ``total``, the int sum of
    ``steps`` over the block, and ``samples``, a list holding each cell's
    sampled terminal voltages in order.

    With ``fold``, ``samples`` is the phase's sufficient statistics
    ``(n, v_first, v_last, v_sum)`` instead, an array each: the sample count,
    the first and last samples (NaN when ``n`` is 0) and their sum.  A folded
    fixed-length phase takes no samples: powers of ``M`` carry each cell to
    its last sample and to its end, and its ``v_first`` and ``v_sum`` are
    NaN.  Rests carry no current, so that last sample is all the
    analyzer's trapezoid reads of them.  A folded cell's result does not
    depend on the other cells of its block.
    """
    m = len(v_main)
    max_steps = _per_cell(max_steps, m)
    countdown = _per_cell(countdown, m).copy()
    coeffs = (a11, a12, a21, a22, b1, b2)
    z = np.empty((3, m))
    z[0], z[1], z[2] = v_main, v_branch, 1.0
    v_offset = i_applied * r_series
    if fold and mode == MODE_FIXED:
        n = (max_steps - countdown) // n_sub + 1
        last = np.where(n > 0, countdown + (n - 1) * n_sub, 0)  # the last sample's step
        at_last = z.copy()
        _advance(coeffs, at_last, last)
        v_last = np.where(n > 0, at_last[0] + v_offset, np.nan)
        _advance(coeffs, z, max_steps)
        countdown = (countdown - max_steps - 1) % n_sub + 1
        stats = (n, np.full(m, np.nan), v_last, np.full(m, np.nan))
        steps = max_steps.copy()
        return z[0], z[1], int(steps.sum()), stats, countdown, np.zeros(m, bool), steps
    block = min(TABLE_CAP, int(max_steps.max())) if mode == MODE_FIXED else RAMP_BLOCK
    table = _power_table(coeffs, block)
    crossed = np.zeros(m, dtype=bool)
    steps = max_steps.copy()  # less the steps a cell leaves untaken
    parts = [[] for _ in range(m)]
    # The cells still running, and their states, steps left, countdowns,
    # limits and statistics so far; a cell leaves when it ends its phase.
    live, x, rem, cd = np.arange(m), z.copy(), max_steps, countdown
    limit = _per_cell(v_stop, m) + (-eps if mode == MODE_CHARGE else eps)
    if fold:
        sums = _sample_sums(coeffs, block, n_sub)
        stats = (np.zeros(m, dtype=int), np.full(m, np.nan), np.full(m, np.nan), np.zeros(m))
        n, v_first, v_last, v_sum = (a.copy() for a in stats)
    while live.size:
        b = min(block, int(rem.max()))
        if fold and live.size == 1:
            # numpy hands a single column to gemv, which rounds unlike gemm:
            # a folded cell must not depend on whether it outlasts the others.
            states = (table[: 2 * b] @ np.repeat(x, 2, axis=1))[:, :1]
        else:
            states = table[: 2 * b] @ x
        vt = states[0::2] + v_offset  # (step, cell)
        k = np.arange(live.size)
        end = np.minimum(rem, b)  # the steps each cell takes in this block
        done = rem == end
        if mode != MODE_FIXED:
            hit = vt >= limit if mode == MODE_CHARGE else vt <= limit
            first = hit.argmax(axis=0)
            stop = hit[first, k] & (first < end)
            end = np.where(stop, first + 1, end)
            done |= stop
        # Samples fall on each cell's steps cd, cd + n_sub, ... up to its end.
        if fold:
            count = np.maximum((end - cd) // n_sub + 1, 0)
            last = np.maximum(cd + (count - 1) * n_sub, 0)  # its last sample's step, or 0
            some = count > 0
            v_last = np.where(some, vt[last - 1, k], v_last)
            if not n.all():
                v_first = np.where(some & (n == 0), vt[np.minimum(cd, b) - 1, k], v_first)
            v_sum = v_sum + (sums[last] * x.T).sum(axis=1) + count * v_offset
            n = n + count
        else:
            for j, c in enumerate(live):
                parts[c].append(vt[cd[j] - 1 : end[j] : n_sub, j])
        cd = (cd - end - 1) % n_sub + 1
        rem = rem - end
        x[:2] = states.reshape(b, 2, -1)[end - 1, :, k].T
        if done.any():
            cells = live[done]
            z[:, cells], countdown[cells], steps[cells] = x[:, done], cd[done], steps[cells] - rem[done]
            if mode != MODE_FIXED:
                crossed[cells] = stop[done]
            keep = ~done
            live, x, rem, cd, limit = live[keep], x[:, keep], rem[keep], cd[keep], limit[keep]
            if fold:
                for a, v in zip(stats, (n, v_first, v_last, v_sum)):
                    a[cells] = v[done]
                n, v_first, v_last, v_sum = n[keep], v_first[keep], v_last[keep], v_sum[keep]
    samples = stats if fold else [np.concatenate(p) for p in parts]
    return z[0], z[1], int(steps.sum()), samples, countdown, crossed, steps


def run_phases(p: DeviceParams, specs, acq: AcquisitionConfig, errors: dict, fold: bool = False,
               stopped: set | frozenset = frozenset()):
    """Run every spec's ``max_cycles`` full cycles in lockstep, phase by phase.

    Each cycle is charge, optional high rest, discharge, optional low rest.
    The specs may differ only in their window, and each is one column of the
    block that :func:`run_phase` advances.  A capacitor starts at
    ``v_min + i*R`` (the steady-cycle charge entry point), so the ideal
    device is periodic from the first cycle while a device with a
    redistribution branch stabilizes over several cycles.

    ``errors`` maps a spec's index to its error, and a spec found there or
    in ``stopped`` takes no further part.  This loop enters each spec that
    fails one of its checks (the sample cap, termination, finiteness and the
    guard band), and a consumer may enter specs in either between two phases
    to drop them: in ``errors`` when they failed, in ``stopped`` when it
    needs no more of their cycles.  Each spec meets its checks in the order
    that it alone would.

    Yields ``(cycle, phase, i_applied, cols, steps, samples, state)`` for
    every phase that takes at least one internal step: ``cols`` indexes the
    specs still running, ``steps`` and ``samples`` are theirs as
    :func:`run_phase` returns them (statistics with ``fold``), and
    ``state`` is their ``(v_main, v_branch, countdown)`` at the phase's end.
    """
    s0 = specs[0]
    shared = (s0.i_c, s0.rest_after_charge, s0.rest_after_discharge, s0.max_cycles)
    if any((s.i_c, s.rest_after_charge, s.rest_after_discharge, s.max_cycles) != shared
           for s in specs):
        raise ConfigError("the specs of one block may differ only in their window")
    n_sub = _internal_substeps(p, acq.sample_period)
    dt_int = acq.sample_period / n_sub
    a11, a12, a21, a22, bd0, bd1 = _step_coefficients(p, dt_int)
    rest_high_steps = round(s0.rest_after_charge / dt_int)
    rest_low_steps = round(s0.rest_after_discharge / dt_int)

    max_active_steps = np.zeros(len(specs), dtype=int)
    for c, s in enumerate(specs):
        if c in errors:
            continue
        try:
            s.validate_against(p)
            ideal_duration = charge_duration(p, s)  # also validates window feasibility
            ideal_steps = max(1, math.ceil(ideal_duration / dt_int))
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
        except CapcycleError as exc:
            errors[c] = exc
            continue
        max_active_steps[c] = _PHASE_SAFETY_FACTOR * ideal_steps + 1000

    v_min = np.array([s.v_min for s in specs])
    v_max = np.array([s.v_max for s in specs])
    # A phase may end one internal step past its limit.
    swing = s0.i_c * dt_int / p.c_main
    guard_low = _GUARD_LOW * p.v_rated - swing
    guard_high = _GUARD_HIGH * p.v_rated + swing
    plan = (
        (Phase.CHARGE, MODE_CHARGE, s0.i_c, v_max, max_active_steps),
        (Phase.REST_HIGH, MODE_FIXED, 0.0, None, rest_high_steps),
        (Phase.DISCHARGE, MODE_DISCHARGE, -s0.i_c, v_min, max_active_steps),
        (Phase.REST_LOW, MODE_FIXED, 0.0, None, rest_low_steps),
    )
    # The specs still running and their states, in step with each other.
    live = np.array([c for c in range(len(specs)) if c not in errors], dtype=int)
    v_main = (v_min + s0.i_c * p.r_series)[live]
    v_branch = v_main.copy()
    countdown = np.full(live.size, n_sub)
    for cycle in range(1, s0.max_cycles + 1):
        for phase, mode, i_sig, v_stop, max_steps in plan:
            if not live.size:
                return
            if mode == MODE_FIXED:
                if max_steps <= 0:
                    continue
                v_stop_live, max_steps_live = 0.0, max_steps
            else:
                v_stop_live, max_steps_live = v_stop[live], max_steps[live]
            v_main, v_branch, _, samples, countdown, crossed, steps = run_phase(
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
                v_stop_live,
                TERMINATION_EPS,
                max_steps_live,
                n_sub,
                countdown,
                fold=fold,
            )
            # NaN fails every comparison, so the band passes finite states only.
            bounds = (v_main.min(), v_main.max(), v_branch.min(), v_branch.max())
            if not ((mode == MODE_FIXED or crossed.all())
                    and all(guard_low <= v <= guard_high for v in bounds)):
                ok = np.ones(live.size, dtype=bool)
                for j, c in enumerate(live.tolist()):
                    vm, vb = float(v_main[j]), float(v_branch[j])
                    if mode != MODE_FIXED and not crossed[j]:
                        errors[c] = DynamicsDiverged(
                            f"{phase.value} phase did not reach {float(v_stop[c])!r} V "
                            f"within {int(max_steps[c])} internal steps; the applied "
                            "current cannot overcome leakage near the voltage limit"
                        )
                    elif not (math.isfinite(vm) and math.isfinite(vb)):
                        errors[c] = DynamicsDiverged(f"non-finite state after {phase.value} phase")
                    elif not (guard_low <= vm <= guard_high and guard_low <= vb <= guard_high):
                        errors[c] = DynamicsDiverged(
                            f"state left the guard band after {phase.value} phase: "
                            f"v_main={vm!r}, v_branch={vb!r}"
                        )
                    else:
                        continue
                    ok[j] = False
                live, v_main, v_branch, countdown, steps = (
                    a[ok] for a in (live, v_main, v_branch, countdown, steps))
                if fold:
                    samples = tuple(a[ok] for a in samples)
                else:
                    samples = [a for a, keep in zip(samples, ok) if keep]
                if not live.size:
                    continue
            dropped = len(errors) + len(stopped)
            yield cycle, phase, i_sig, live, steps, samples, (v_main, v_branch, countdown)
            if len(errors) + len(stopped) > dropped:  # the consumer dropped some
                ok = np.array([c not in errors and c not in stopped for c in live])
                live, v_main, v_branch, countdown = (
                    a[ok] for a in (live, v_main, v_branch, countdown))


def run_protocol(
    p: DeviceParams, s: CycleSpec, acq: AcquisitionConfig | None = None
) -> Trace:
    """Simulate ``s.max_cycles`` full cycles and return the sampled trace.

    The phases come from :func:`run_phases`, driving a block of one column.
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
    global_step = 0

    boundaries: list[CycleBoundary] = []
    phase_v: list[np.ndarray] = []
    phase_i: list[float] = []
    q_in: list[float] = []
    q_out: list[float] = []
    t_charge: list[float] = []
    t_discharge: list[float] = []
    errors: dict = {}
    for cycle, phase, i_sig, _, steps, samples, _ in run_phases(p, [s], acq, errors):
        steps = int(steps[0])
        t_start = global_step * dt_int
        global_step += steps
        boundaries.append(
            CycleBoundary(cycle, phase.value, t_start, global_step * dt_int)
        )
        phase_v.append(samples[0])
        phase_i.append(i_sig)
        if phase is Phase.CHARGE:
            q_in.append(s.i_c * steps * dt_int)
            t_charge.append(steps * dt_int)
        elif phase is Phase.DISCHARGE:
            q_out.append(s.i_c * steps * dt_int)
            t_discharge.append(steps * dt_int)
    if errors:
        raise errors[0]

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
