"""Equivalent-circuit types and closed-form cycle energetics.

The base model is an ideal capacitor ``c_main`` behind a series resistance
``r_series``.  A cycle charges at constant current ``i_c`` until the terminal
voltage reaches ``v_max``, discharges at ``-i_c`` down to ``v_min``, with
optional open-circuit rests in between.  Because the terminal voltage includes
the resistive drop, the capacitor itself swings between ``v_min + i*R`` and
``v_max - i*R``; every formula below follows from that picture.

All voltages are absolute volts; per-unit windows are converted explicitly, by
:func:`window_to_volts` or, into a cycle spec, by :func:`window_spec`.
:func:`window_gate` decides which of many per-unit windows every window rule
admits, on arrays, and :func:`window_error` names the rule a refused one breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapcycleError,
    ConfigError,
    DynamicsDiverged,
    LossesExceedDelivery,
    UnboundedCurrent,
    WindowTooNarrow,
)


@dataclass(frozen=True)
class Redistribution:
    """Parallel RC branch modelling charge redistribution in the electrode pores."""

    c_branch: float
    r_branch: float

    def __post_init__(self) -> None:
        if not self.c_branch > 0:
            raise ConfigError(f"redistribution.c_branch must be > 0, got {self.c_branch}")
        if not self.r_branch > 0:
            raise ConfigError(f"redistribution.r_branch must be > 0, got {self.r_branch}")


@dataclass(frozen=True)
class DeviceParams:
    """Equivalent-circuit parameters of one device.

    ``redistribution`` and ``r_leak`` extend the base series-RC model; both are
    optional and only exercised by the simulator (the closed forms are blind to
    them by construction).
    """

    c_main: float
    r_series: float
    v_rated: float
    redistribution: Redistribution | None = None
    r_leak: float | None = None

    def __post_init__(self) -> None:
        if not self.c_main > 0:
            raise ConfigError(f"device.c_main must be > 0, got {self.c_main}")
        if self.r_series < 0:
            raise ConfigError(f"device.r_series must be >= 0, got {self.r_series}")
        if not self.v_rated > 0:
            raise ConfigError(f"device.v_rated must be > 0, got {self.v_rated}")
        if self.r_leak is not None and not self.r_leak > 0:
            raise ConfigError(f"device.r_leak must be > 0 if present, got {self.r_leak}")

    def ideal(self) -> DeviceParams:
        """The device without redistribution and leakage: what the closed forms see."""
        return DeviceParams(self.c_main, self.r_series, self.v_rated)


@dataclass(frozen=True)
class CycleSpec:
    """One test protocol: constant-current cycling over a voltage window."""

    i_c: float
    v_min: float
    v_max: float
    rest_after_charge: float = 0.0
    rest_after_discharge: float = 0.0
    max_cycles: int = 1

    def __post_init__(self) -> None:
        if not self.i_c > 0:
            raise ConfigError(f"spec.i_c must be > 0, got {self.i_c}")
        if self.v_min < 0:
            raise ConfigError(f"spec.v_min must be >= 0, got {self.v_min}")
        if not self.v_min < self.v_max:
            raise ConfigError(
                f"spec.v_min must be < spec.v_max, got {self.v_min} >= {self.v_max}"
            )
        rests = (self.rest_after_charge, self.rest_after_discharge)
        if not all(0 <= r < float("inf") for r in rests):  # NaN fails too
            raise ConfigError("spec rest durations must be finite and >= 0")
        if self.max_cycles < 1:
            raise ConfigError(f"spec.max_cycles must be >= 1, got {self.max_cycles}")

    def validate_against(self, device: DeviceParams) -> None:
        """Cross-check the window against the device rating."""
        if self.v_max > device.v_rated:
            raise ConfigError(
                f"spec.v_max {self.v_max} exceeds device.v_rated {device.v_rated}"
            )


@dataclass(frozen=True)
class RestVoltages:
    """Open-circuit voltage movement during the two rests of a cycle.

    ``v_sd`` is the drop during the post-charge rest (self-discharge), ``v_sc``
    the rebound during the post-discharge rest (self-charge).
    """

    v_sd: float
    v_sc: float

    def __post_init__(self) -> None:
        if self.v_sd < 0 or self.v_sc < 0:
            raise ConfigError(
                f"rest voltages must be >= 0, got v_sd={self.v_sd}, v_sc={self.v_sc}"
            )


@dataclass(frozen=True)
class OperatingWindow:
    """Per-unit working-voltage window (fractions of the rated voltage)."""

    vm_pu: float
    vM_pu: float

    def __post_init__(self) -> None:
        if not 0 <= self.vm_pu < self.vM_pu <= 1:
            raise ConfigError(
                f"window must satisfy 0 <= vm_pu < vM_pu <= 1, got ({self.vm_pu}, {self.vM_pu})"
            )


def window_to_volts(window: OperatingWindow, v_rated: float) -> tuple[float, float]:
    """Convert a per-unit window to absolute (v_min, v_max) volts."""
    return window.vm_pu * v_rated, window.vM_pu * v_rated


def window_spec(p: DeviceParams, i_c: float, vm_pu: float, vM_pu: float,
                rest: float = 0.0) -> CycleSpec:
    """The spec cycling a per-unit window at ``i_c``, with ``rest`` s after each phase.

    A window whose ends give the same volts has no width: it is too narrow.
    """
    v_min, v_max = vm_pu * p.v_rated, vM_pu * p.v_rated
    if v_min == v_max:
        raise WindowTooNarrow(
            f"window ({vm_pu!r}, {vM_pu!r}) p.u. has no width in volts",
            min_window=2.0 * i_c * p.r_series,
        )
    return CycleSpec(i_c=i_c, v_min=v_min, v_max=v_max,
                     rest_after_charge=rest, rest_after_discharge=rest)


SWING_EPS = 4 * 2.0**-52
"""Share of ``v_max`` that the capacitor's swing must exceed, see :func:`_fits_drops`."""


def _fits_drops(v_min, v_max, i_r):
    """Whether windows fit both resistive jumps of ``i_r`` volts; floats or arrays.

    The window must exceed ``2*i*R``, and the capacitor's swing, from
    ``v_min + i*R`` up to ``v_max - i*R``, must exceed :data:`SWING_EPS`
    times ``v_max``, 4 to 8 ulps of it.  Each end of the swing is rounded
    once, by at most half an ulp of ``v_max``, and their difference is
    exact, so a computed swing of an ulp may stand for none.  The orbit of
    :func:`~capcycle.simulator.periodic_etas` reads ``v_main`` back from a
    two-branch device's modal coordinates, off by up to 3 ulps on the
    presets; on a swing within that, a cycle moves nothing it can resolve,
    its secant residuals repeat and the secant step divides by zero.
    """
    swing = (v_max - i_r) - (v_min + i_r)
    return (v_max - v_min > 2.0 * i_r) & (swing > SWING_EPS * v_max)


def window_gate(p: DeviceParams, i_c: float, vm_pu: np.ndarray, vM_pu: np.ndarray,
                rest: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(v_min, v_max, ok)`` of per-unit windows cycled at ``i_c``, ``rest`` s after each phase.

    ``ok`` holds where a window passes every window rule, which
    :func:`window_error` checks one window at a time in this order: ends
    that give distinct volts (:func:`window_spec`), a valid
    :class:`CycleSpec`, the rating (:meth:`CycleSpec.validate_against`),
    both resistive jumps (:func:`_fits_drops`), and a charge that the
    leakage lets reach ``v_max``.
    """
    v_min, v_max = vm_pu * p.v_rated, vM_pu * p.v_rated
    spec_ok = i_c > 0 and 0 <= rest < math.inf  # CycleSpec's checks of the protocol
    with np.errstate(invalid="ignore"):
        ok = ((0 <= v_min) & (v_min < v_max) & (v_max <= p.v_rated)
              & _fits_drops(v_min, v_max, i_c * p.r_series))
        if p.r_leak is not None:  # the leakage must let the charge reach v_max
            ok &= i_c * p.r_leak > v_max - i_c * p.r_series
    return v_min, v_max, ok & spec_ok


def window_label(p: DeviceParams, v_min: float, v_max: float) -> str:
    """How messages name the window ``(v_min, v_max)`` volts."""
    return f"window ({v_min / p.v_rated:g}, {v_max / p.v_rated:g}) p.u."


def window_error(p: DeviceParams, i_c: float, vm_pu: float, vM_pu: float,
                 rest: float = 0.0, v_sd: float = 0.0) -> CapcycleError:
    """The error of a window that :func:`window_gate` refuses, or that delivers nothing.

    That is the error of the first rule the window breaks, in the gate's
    order; whether anything is delivered after a sag of ``v_sd`` volts is
    checked right after the resistive jumps, by :func:`_delivered`.
    """
    try:
        s = window_spec(p, i_c, vm_pu, vM_pu, rest)
        s.validate_against(p)
        _delivered(p, s, v_sd)
    except CapcycleError as exc:
        return exc
    # the one rule left
    return DynamicsDiverged(
        f"{window_label(p, s.v_min, s.v_max)}: the charge never reaches {s.v_max!r} V; "
        f"the leakage takes the whole {i_c!r}-A current once the capacitor is at "
        f"{i_c * p.r_leak!r} V"
    )


def _require_feasible_window(p: DeviceParams, s: CycleSpec) -> float:
    """Return 2*i*R after checking the window can fit both resistive jumps."""
    drop = 2.0 * s.i_c * p.r_series
    if not _fits_drops(s.v_min, s.v_max, s.i_c * p.r_series):
        raise WindowTooNarrow(
            f"window {s.v_max - s.v_min:.6g} V cannot exceed the resistive drop "
            f"budget 2*i*R = {drop:.6g} V; widen the window or lower the current",
            min_window=drop,
        )
    return drop


def charge_duration(p: DeviceParams, s: CycleSpec) -> float:
    """Duration of the constant-current charge phase, in seconds.

    The capacitor runs from ``v_min + i*R`` to ``v_max - i*R`` at slope
    ``i/C``, hence ``C*(v_max - v_min - 2*i*R)/i``.  The steady-state
    discharge duration is identical (same swing, same current magnitude).
    """
    drop = _require_feasible_window(p, s)
    return p.c_main * (s.v_max - s.v_min - drop) / s.i_c


def efficiency_no_rest(p: DeviceParams, s: CycleSpec) -> float:
    """Round-trip energy efficiency of a rest-free steady cycle.

    Equals ``(v_max + v_min - 2*i*R) / (v_max + v_min + 2*i*R)``; the series
    resistance is the only loss element, so R = 0 gives exactly 1.  It is
    :func:`efficiency_with_rest` with zero rest voltages, which subtract and
    add exactly nothing.
    """
    return efficiency_with_rest(p, s, RestVoltages(v_sd=0.0, v_sc=0.0))


def _delivered(p: DeviceParams, s: CycleSpec, v_sd: float) -> tuple[float, float]:
    """``(2*i*R, v_max + v_min - v_sd - 2*i*R)``; a second not positive delivers nothing."""
    drop = _require_feasible_window(p, s)
    vsum = s.v_max + s.v_min
    numerator = vsum - v_sd - drop
    if not numerator > 0:
        raise LossesExceedDelivery(
            f"self-discharge {v_sd:.6g} V plus resistive drop {drop:.6g} V "
            f"consume the whole window sum {vsum:.6g} V; nothing is delivered"
        )
    return drop, numerator


def efficiency_with_rest(p: DeviceParams, s: CycleSpec, rv: RestVoltages) -> float:
    """Round-trip efficiency when open-circuit rests move the voltage.

    Self-discharge ``v_sd`` must be re-supplied and the self-charge rebound
    ``v_sc`` is never delivered, so both enter as window-shift penalties:
    ``(v_max + v_min - v_sd - 2*i*R) / (v_max + v_min + v_sc + 2*i*R)``.
    """
    drop, numerator = _delivered(p, s, rv.v_sd)
    return numerator / (s.v_max + s.v_min + rv.v_sc + drop)


def energy_in(p: DeviceParams, s: CycleSpec, rv: RestVoltages | None = None) -> float:
    """Energy supplied during one steady charge phase, in joules.

    Mean terminal voltage during charge is ``(v_max + v_min)/2 + i*R``; times
    current and duration gives ``i*(v_max + v_min + 2*i*R)/2 * dt``.  A
    post-discharge rebound ``rv.v_sc`` shortens nothing (the window sets the
    duration) but raises the mean: ``i*(v_max + v_min + v_sc + 2*i*R)/2 * dt``.
    """
    drop = _require_feasible_window(p, s)
    v_sc = 0.0 if rv is None else rv.v_sc
    return s.i_c * (s.v_max + s.v_min + v_sc + drop) / 2.0 * charge_duration(p, s)


def energy_out(p: DeviceParams, s: CycleSpec, rv: RestVoltages | None = None) -> float:
    """Energy delivered during one steady discharge phase, in joules.

    A post-charge sag ``rv.v_sd`` lowers the mean discharge voltage:
    ``i*(v_max + v_min - v_sd - 2*i*R)/2 * dt``.
    """
    _, numerator = _delivered(p, s, 0.0 if rv is None else rv.v_sd)
    return s.i_c * numerator / 2.0 * charge_duration(p, s)


def test_current(p: DeviceParams, target_eff: float, window: OperatingWindow) -> float:
    """Constant test current at which the window's round-trip efficiency hits a target.

    Inverts the no-rest efficiency expression:
    ``i = (v_max + v_min) * (1 - eta) / (2 * R * (1 + eta))``.
    """
    if not 0 < target_eff < 1:
        raise ConfigError(f"target_eff must lie in (0, 1), got {target_eff}")
    if p.r_series == 0:
        raise UnboundedCurrent(
            "series resistance is zero: every current meets the target; "
            "no finite test current exists"
        )
    v_min, v_max = window_to_volts(window, p.v_rated)
    return (v_max + v_min) * (1.0 - target_eff) / (2.0 * p.r_series * (1.0 + target_eff))


def usable_energy_fraction(window: OperatingWindow) -> float:
    """Fraction of the device's maximum stored energy swept by the window.

    Stored energy scales with voltage squared, so the share is
    ``vM_pu**2 - vm_pu**2``.
    """
    return window.vM_pu ** 2 - window.vm_pu ** 2
