"""Efficiency surfaces over per-unit voltage windows, and their optimization.

A grid evaluates round-trip efficiency for every pair ``vm < vM`` of per-unit
levels through an objective (the closed forms, optionally with a fitted
rest-voltage model, or the periodic steady state of the simulated circuit)
or from embedded data.
Rendering is deterministic: the same grid always produces byte-identical CSV
and SVG output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .analyzer import ETA_SLACK
from .analyzer import analyze_trace  # unused; perfbench patches this name (ROADMAP items 1 and 9)
from .errors import (
    CapcycleError,
    ConfigError,
    InfeasibleEnergyRequirement,
    LossesExceedDelivery,
    NumericError,
    RankDeficientFit,
    WindowTooNarrow,
)
from .model import (
    CycleSpec,
    DeviceParams,
    OperatingWindow,
    RestVoltages,
    efficiency_no_rest,
    efficiency_with_rest,
)
from .simulator import periodic_etas
from .simulator import run_protocol  # unused; perfbench patches this name (ROADMAP items 1 and 9)

PU_LEVELS = (0.0, 0.25, 0.5, 0.7, 0.9, 1.0)
"""Default per-unit grid levels of the test campaign."""

MIN_FIT_QUALITY = 0.95
"""Minimum coefficient of determination to use a rest-voltage model in predictions."""

GRID_CHUNK = 1024
"""Most cells :func:`build_grid` hands an objective at once.

A periodic chunk is solved as one set of arrays, about 1 kB per cell at
its peak.  Each Newton or secant step costs a few dozen numpy calls per
chunk, so fewer, larger chunks are faster: a 2,016-cell leaky 50F map
took 115 ms in chunks of 64 and 26 ms in chunks of 1,024 (2 vCPUs).
"""

MAX_GRID_CELLS = 1 << 20
"""Largest ``n * n`` efficiency array :func:`build_grid` evaluates (1024 levels, 8 MB)."""

_BOUNDARY_SCAN_POINTS = 4096


class GridMethod(Enum):
    CLOSED_FORM = "closed_form"
    SIMULATED = "simulated"
    MEASURED = "measured"


@dataclass(frozen=True)
class SelfDischargeModel:
    """Linear rest-voltage model: v in mV against the window span in volts.

    ``slope_*`` are mV per volt of span, ``intercept_*`` mV, ``fit_quality_*``
    the per-response coefficients of determination.  Predictions are clamped
    at zero.
    """

    slope_sd: float
    intercept_sd: float
    slope_sc: float
    intercept_sc: float
    fit_quality_sd: float
    fit_quality_sc: float
    n_rows: int

    def __post_init__(self) -> None:
        if self.slope_sd < 0 or self.slope_sc < 0:
            raise ConfigError(
                "fitted rest-voltage slopes are negative; the linear-in-span "
                "model does not describe this data"
            )

    @property
    def fit_quality(self) -> float:
        """The smaller of the two coefficients of determination."""
        return min(self.fit_quality_sd, self.fit_quality_sc)

    def predict(self, dv: float) -> RestVoltages:
        """Rest voltages (volts) for a window span ``dv`` volts."""
        v_sd = max(0.0, (self.slope_sd * dv + self.intercept_sd) / 1000.0)
        v_sc = max(0.0, (self.slope_sc * dv + self.intercept_sc) / 1000.0)
        return RestVoltages(v_sd=v_sd, v_sc=v_sc)

    def to_dict(self) -> dict:
        return {
            "slope_sd_mV_per_V": self.slope_sd,
            "intercept_sd_mV": self.intercept_sd,
            "slope_sc_mV_per_V": self.slope_sc,
            "intercept_sc_mV": self.intercept_sc,
            "fit_quality_sd": self.fit_quality_sd,
            "fit_quality_sc": self.fit_quality_sc,
            "fit_quality": self.fit_quality,
            "n_rows": self.n_rows,
        }


def _ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-12 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def fit_self_discharge(rows) -> SelfDischargeModel:
    """Fit the linear rest-voltage model to measured windows.

    ``rows`` is a sequence of ``(vm, vM, v_sd, v_sc)`` in volts; both voltages
    are regressed (ordinary least squares, with intercept) against the span
    ``vM - vm``.
    """
    data = np.array([tuple(r) for r in rows], dtype=float)
    if data.ndim != 2 or data.shape[1] != 4:
        raise ConfigError("rows must be (vm, vM, v_sd, v_sc) quadruples")
    if data.shape[0] < 3:
        raise RankDeficientFit(
            f"need at least 3 rows to fit slope and intercept, got {data.shape[0]}"
        )
    dv = data[:, 1] - data[:, 0]
    if float(np.ptp(dv)) < 1e-9:
        raise RankDeficientFit(
            "all rows share the same window span; the slope is unidentifiable"
        )
    slope_sd, icpt_sd, r2_sd = _ols_line(dv, data[:, 2] * 1000.0)
    slope_sc, icpt_sc, r2_sc = _ols_line(dv, data[:, 3] * 1000.0)
    return SelfDischargeModel(
        slope_sd=slope_sd,
        intercept_sd=icpt_sd,
        slope_sc=slope_sc,
        intercept_sc=icpt_sc,
        fit_quality_sd=r2_sd,
        fit_quality_sc=r2_sc,
        n_rows=int(data.shape[0]),
    )


@dataclass
class EfficiencyGrid:
    """Efficiency over a per-unit (vm, vM) grid; NaN marks undefined cells.

    ``eta`` has one row per vM level and one column per vm level; both axes
    take the same ``levels``.
    """

    levels: tuple[float, ...]
    eta: np.ndarray
    method: GridMethod
    rest: bool

    def defined_mask(self) -> np.ndarray:
        return ~np.isnan(self.eta)

    def value(self, vm: float, vM: float) -> float:
        """Grid efficiency at exact levels (NaN if the cell is undefined)."""
        return float(self.eta[self.levels.index(vM), self.levels.index(vm)])


def _validate_levels(levels) -> tuple[float, ...]:
    levels = tuple(float(x) for x in levels)
    if len(levels) < 2:
        raise ConfigError("need at least 2 grid levels")
    if len(levels) ** 2 > MAX_GRID_CELLS:
        raise ConfigError(
            f"{len(levels)} grid levels need {len(levels) ** 2:,} cells, more "
            f"than the {MAX_GRID_CELLS:,} cap"
        )
    if any(not 0 <= x <= 1 for x in levels):
        raise ConfigError(f"levels must lie in [0, 1], got {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"levels must be strictly increasing, got {levels}")
    return levels


@dataclass(frozen=True)
class ClosedFormObjective:
    """Closed-form efficiency of per-unit windows, with rests when a model is given.

    ``rest_model`` supplies each window's rest voltages at its span; a model
    whose fit quality is below :data:`MIN_FIT_QUALITY` is refused.
    """

    method = GridMethod.CLOSED_FORM
    device: DeviceParams
    i_c: float
    rest_model: SelfDischargeModel | None = None

    def __post_init__(self) -> None:
        m = self.rest_model
        if m is not None and m.fit_quality < MIN_FIT_QUALITY:
            raise ConfigError(
                f"rest-voltage model fit quality {m.fit_quality:.4f} is "
                f"below the {MIN_FIT_QUALITY} gate; use the simulated method instead"
            )

    @property
    def with_rest(self) -> bool:
        return self.rest_model is not None

    def eta(self, vm_pu: float, vM_pu: float) -> float:
        """Efficiency at a per-unit window; raises for infeasible windows."""
        v_rated = self.device.v_rated
        if vm_pu < vM_pu and vm_pu * v_rated == vM_pu * v_rated:
            raise WindowTooNarrow(
                f"window ({vm_pu!r}, {vM_pu!r}) p.u. has no width in volts",
                min_window=2.0 * self.i_c * self.device.r_series,
            )
        s = CycleSpec(i_c=self.i_c, v_min=vm_pu * v_rated, v_max=vM_pu * v_rated)
        if self.rest_model is None:
            return efficiency_no_rest(self.device, s)
        rv = self.rest_model.predict((vM_pu - vm_pu) * v_rated)
        return efficiency_with_rest(self.device, s, rv)

    def etas(self, windows) -> list:
        """:meth:`eta`, or the error it raises, of each per-unit window."""
        out = []
        for vm, vM in windows:
            try:
                out.append(self.eta(vm, vM))
            except CapcycleError as exc:
                out.append(exc)
        return out


@dataclass(frozen=True)
class PeriodicObjective:
    """Efficiency of per-unit windows on the simulated circuit's periodic steady state.

    Each window is cycled at ``i_c`` with ``rest`` seconds of rest after
    each phase, and :func:`~capcycle.simulator.periodic_etas` solves the
    cycle it settles into, instead of stepping through cycles.  On an ideal
    device it is the closed form.
    """

    method = GridMethod.SIMULATED
    device: DeviceParams
    i_c: float
    rest: float = 0.0

    @property
    def with_rest(self) -> bool:
        return self.rest > 0

    def etas(self, windows) -> list:
        """Periodic-cycle efficiency, or the error met, of each per-unit window.

        The errors are those of :func:`~capcycle.simulator.periodic_etas`,
        and a window's η does not depend on the others.
        """
        v_rated = self.device.v_rated
        return periodic_etas(self.device, self.i_c, self.rest,
                             [(vm * v_rated, vM * v_rated) for vm, vM in windows])

    def eta(self, vm_pu: float, vM_pu: float) -> float:
        """Periodic-cycle efficiency at a per-unit window."""
        (value,) = self.etas([(vm_pu, vM_pu)])
        if isinstance(value, CapcycleError):
            raise value
        return value


def _cell_etas(objective, windows) -> np.ndarray:
    """``objective.etas(windows)`` under the one rule for a usable efficiency.

    A window narrower than the resistive drops, or whose rest losses exceed
    its delivery, is undefined (NaN), not an error; any other error is
    raised, that of the first such window in order.  An efficiency within
    ``ETA_SLACK`` above 1 reads 1; any other outside (0, 1] raises
    :class:`NumericError`.
    """
    out = np.full(len(windows), np.nan)
    for k, ((vm, vM), value) in enumerate(zip(windows, objective.etas(windows))):
        if isinstance(value, (WindowTooNarrow, LossesExceedDelivery)):
            continue
        if isinstance(value, CapcycleError):
            raise value
        if 1.0 < value < 1.0 + ETA_SLACK:
            value = 1.0
        if not 0.0 < value <= 1.0:
            raise NumericError(
                f"grid cell ({vm}, {vM}) produced efficiency {value!r} outside (0, 1]"
            )
        out[k] = value
    return out


def build_grid(
    objective: ClosedFormObjective | PeriodicObjective, levels=PU_LEVELS
) -> EfficiencyGrid:
    """Evaluate ``objective.etas`` for every level pair ``vm < vM``.

    Cells go to the objective in row-major chunks of at most
    :data:`GRID_CHUNK`, under :func:`_cell_etas`'s rule for a usable
    efficiency, which :func:`optimize_window` shares: infeasible windows
    (narrower than the resistive drops, or with rest losses exceeding
    delivery) are marked undefined, not errors; any other error of a cell
    is raised, that of the first such cell in row-major order.
    """
    levels = _validate_levels(levels)
    n = len(levels)
    eta = np.full((n, n), np.nan)
    cells = ((r, j) for r in range(n) for j in range(r))  # vm < vM, row-major
    while chunk := list(itertools.islice(cells, GRID_CHUNK)):
        rows, cols = zip(*chunk)
        eta[rows, cols] = _cell_etas(objective, [(levels[j], levels[r]) for r, j in chunk])
    return EfficiencyGrid(levels, eta, objective.method, objective.with_rest)


@dataclass(frozen=True)
class OperatingPoint:
    """An operating window with its efficiency and usable-energy share."""

    window: OperatingWindow
    eta: float
    energy_fraction: float

    def to_dict(self) -> dict:
        return {
            "vm_pu": self.window.vm_pu,
            "vM_pu": self.window.vM_pu,
            "eta": self.eta,
            "energy_fraction": self.energy_fraction,
        }


def _floor_vm(vM: float, f: float) -> float:
    """``sqrt(vM² − f)``, stepped down until ``vM*vM - vm*vm >= f`` in floats.

    Rounding in the square root and the squares can leave the window's
    fraction one ulp short of ``f``; a short fraction is returned only when
    even ``vm = 0`` falls short.
    """
    vm = math.sqrt(max(0.0, vM * vM - f))
    while vm > 0 and vM * vM - vm * vm < f:
        vm = math.nextafter(vm, 0.0)
    return vm


def optimize_window(target, energy_fraction_min: float) -> OperatingPoint:
    """Maximize efficiency subject to a minimum usable-energy fraction.

    An :class:`EfficiencyGrid` is searched exhaustively over its defined
    cells.  Any other ``target`` is an objective (anything with ``etas``,
    such as :class:`ClosedFormObjective` or :class:`PeriodicObjective`),
    searched on the constraint boundary ``vM² − vm² = f``: raising ``vm`` at
    fixed ``vM`` both raises the voltage sum and shrinks the span, so the
    optimum lies there.  The boundary is sampled at evenly spaced ``vM``
    from ``sqrt(f)`` to exactly 1, each window with ``vM*vM - vm*vm >= f``
    in floats, and the windows go to ``etas`` in one call under
    :func:`_cell_etas`'s rule.  Ties break toward larger energy
    fraction, then larger ``vm``.
    """
    f = energy_fraction_min
    if f > 1:
        raise InfeasibleEnergyRequirement(
            f"energy fraction {f} exceeds 1, the full-window maximum"
        )
    if not f > 0:
        raise ConfigError(f"energy_fraction_min must lie in (0, 1], got {f}")

    if isinstance(target, EfficiencyGrid):
        levels = target.levels
        rows, cols = np.nonzero(target.defined_mask())
        windows = [(levels[j], levels[r]) for r, j in zip(rows, cols)]
        etas = target.eta[rows, cols]
        none_found = f"no defined grid cell reaches energy fraction {f}"
    else:
        windows = []
        for vM in np.linspace(math.sqrt(f), 1.0, _BOUNDARY_SCAN_POINTS).tolist():
            vm = _floor_vm(vM, f)
            if vM * vM - vm * vm >= f:
                windows.append((vm, vM))
        etas = _cell_etas(target, windows)
        none_found = (
            f"no window on the energy-fraction boundary {f} is feasible "
            "for this device and current"
        )

    best = None
    for (vm, vM), value in zip(windows, etas.tolist()):
        frac = vM * vM - vm * vm
        if math.isnan(value) or frac < f - 1e-12:
            continue
        key = (value, frac, vm)
        if best is None or key > best[0]:
            best = (key, vM)
    if best is None:
        raise InfeasibleEnergyRequirement(none_found)
    (value, frac, vm), vM = best
    # Cells are admitted up to 1e-12 short of the floor, so that decimal
    # levels can meet a decimal floor; such a cell reports the floor itself.
    return OperatingPoint(
        window=OperatingWindow(vm_pu=vm, vM_pu=vM),
        eta=value,
        energy_fraction=max(frac, f),
    )


# ---------------------------------------------------------------------------
# Rendering


def _fmt_level(x: float) -> str:
    return f"{x:.6g}"


def _fmt_pct(eta: float) -> str:
    return f"{eta * 100.0:.4g}"


def _ramp_color(frac: float) -> str:
    """Three-stop red-yellow-green ramp; frac in [0, 1]."""
    stops = ((215, 48, 39), (254, 224, 139), (26, 152, 80))
    if frac <= 0.5:
        a, b = stops[0], stops[1]
        u = frac / 0.5
    else:
        a, b = stops[1], stops[2]
        u = (frac - 0.5) / 0.5
    rgb = tuple(round(x + (y - x) * u) for x, y in zip(a, b))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_map(grid: EfficiencyGrid, out: str | Path) -> tuple[Path, Path]:
    """Write ``<out>.csv`` and ``<out>.svg`` for the grid; returns both paths.

    The CSV is a matrix with vm levels as columns and vM levels as rows
    (corner label ``vmpu\\vMpu``), cells in percent, blanks for undefined.
    The SVG is a self-contained colored cell map with per-cell percentage
    labels, per-unit axis labels, and a legend.
    """
    defined = grid.defined_mask()
    col_ok = defined.any(axis=0)
    row_ok = defined.any(axis=1)
    if int(col_ok.sum()) < 2 or int(row_ok.sum()) < 2:
        raise ConfigError(
            "grid must have defined cells spanning at least 2 vm and 2 vM levels"
        )
    out = Path(out)
    if out.suffix in (".csv", ".svg"):
        out = out.with_suffix("")
    csv_path = out.with_suffix(".csv")
    svg_path = out.with_suffix(".svg")

    lines = ["vmpu\\vMpu," + ",".join(_fmt_level(v) for v in grid.levels)]
    for r, vM in enumerate(grid.levels):
        cells = [
            _fmt_pct(grid.eta[r, j]) if defined[r, j] else ""
            for j in range(len(grid.levels))
        ]
        lines.append(_fmt_level(vM) + "," + ",".join(cells))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    svg_path.write_text(_render_svg(grid, defined), encoding="utf-8", newline="\n")
    return csv_path, svg_path


def _render_svg(grid: EfficiencyGrid, defined: np.ndarray) -> str:
    cw, ch = 66, 44
    left, top = 78, 46
    ncols = nrows = len(grid.levels)
    legend_w = 130
    width = left + ncols * cw + legend_w + 20
    height = top + nrows * ch + 64

    values = grid.eta[defined]
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0

    tag = "with rest" if grid.rest else "no rest"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{left}" y="24" font-family="sans-serif" font-size="15" '
        f'fill="#000000">round-trip efficiency (%), {grid.method.value}, {tag}</text>',
    ]
    for r in range(nrows):
        y = top + (nrows - 1 - r) * ch
        for j in range(ncols):
            x = left + j * cw
            if defined[r, j]:
                value = float(grid.eta[r, j])
                color = _ramp_color((value - lo) / span)
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cw}" height="{ch}" '
                    f'fill="{color}" stroke="#ffffff"/>'
                )
                parts.append(
                    f'<text x="{x + cw // 2}" y="{y + ch // 2 + 5}" '
                    f'font-family="sans-serif" font-size="13" text-anchor="middle" '
                    f'fill="#000000">{value * 100.0:.1f}</text>'
                )
            else:
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{cw}" height="{ch}" '
                    f'fill="#f2f2f2" stroke="#ffffff"/>'
                )
    for j, vm in enumerate(grid.levels):
        parts.append(
            f'<text x="{left + j * cw + cw // 2}" y="{top + nrows * ch + 20}" '
            f'font-family="sans-serif" font-size="12" text-anchor="middle" '
            f'fill="#000000">{_fmt_level(vm)}</text>'
        )
    for r, vM in enumerate(grid.levels):
        y = top + (nrows - 1 - r) * ch + ch // 2 + 4
        parts.append(
            f'<text x="{left - 10}" y="{y}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end" fill="#000000">{_fmt_level(vM)}</text>'
        )
    parts.append(
        f'<text x="{left + ncols * cw // 2}" y="{top + nrows * ch + 44}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle" '
        f'fill="#000000">minimum voltage (per unit)</text>'
    )
    parts.append(
        f'<text x="20" y="{top + nrows * ch // 2}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" fill="#000000" '
        f'transform="rotate(-90 20 {top + nrows * ch // 2})">maximum voltage (per unit)</text>'
    )

    # Legend: vertical ramp from lo (bottom) to hi (top).
    lx = left + ncols * cw + 36
    lh = nrows * ch
    steps = 24
    for k in range(steps):
        frac = (k + 0.5) / steps
        y = top + lh - (k + 1) * lh / steps
        parts.append(
            f'<rect x="{lx}" y="{y:.2f}" width="18" height="{lh / steps + 0.5:.2f}" '
            f'fill="{_ramp_color(frac)}"/>'
        )
    parts.append(
        f'<text x="{lx + 24}" y="{top + lh}" font-family="sans-serif" font-size="11" '
        f'fill="#000000">{lo * 100.0:.1f}</text>'
    )
    parts.append(
        f'<text x="{lx + 24}" y="{top + 10}" font-family="sans-serif" font-size="11" '
        f'fill="#000000">{hi * 100.0:.1f}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
