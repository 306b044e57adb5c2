"""Embedded measurement tables from the reference test campaign.

Four CSV files ship with the package: a current sweep of the 10 F device
(``table1.csv``), efficiency surfaces without and with 30-minute rests for
all three devices (``table2.csv``, ``table4.csv``), and the 50 F device's
rest-voltage drift against window span (``table3.csv``).  Loaders convert
to SI units and to :class:`~capcycle.effmap.EfficiencyGrid` objects.
"""

from __future__ import annotations

import shutil
from importlib import resources
from pathlib import Path

import numpy as np

from .effmap import PU_LEVELS, EfficiencyGrid, GridMethod
from .errors import ConfigError, TraceParseError
from .trace import csv_lines

DEVICES = ("10F", "50F", "100F")

TABLE_NAMES = ("table1", "table2", "table3", "table4")

REST_DURATION_S = 1800.0
"""Length of each rest in the with-rest measurements (``table3``, ``table4``), s."""

SPAN_TOLERANCE_V = 0.015
"""Largest accepted gap between a row's ``span_V`` and its ``vM_V - vm_V``.

Three values rounded to two decimals, each off by up to 0.005 V."""


def data_path(name: str) -> Path:
    """Filesystem path of a packaged data file (e.g. ``"table2"``)."""
    if name not in TABLE_NAMES:
        raise ConfigError(f"unknown fixture table {name!r}; choose from {TABLE_NAMES}")
    return Path(str(resources.files("capcycle").joinpath(f"data/{name}.csv")))


def load_current_sweep() -> list[tuple[float, float]]:
    """(current in A, efficiency as a fraction) rows of the 10 F sweep."""
    rows = csv_lines(data_path("table1"), 2)
    return [(float(i), float(eta) / 100.0) for _, (i, eta) in rows]


def load_rest_voltage_rows(path: Path | str | None = None) -> list[tuple[float, ...]]:
    """(vm, vM, v_sd, v_sc) in volts from a rest-drift CSV shaped like ``table3``.

    ``path`` defaults to the embedded 50 F measurements.  A malformed line,
    one holding a non-finite value, or one whose ``span_V`` differs from
    ``vM_V - vm_V`` by more than :data:`SPAN_TOLERANCE_V` raises
    :class:`~capcycle.errors.TraceParseError` carrying its line number.
    """
    rows = []
    for line_no, fields in csv_lines(data_path("table3") if path is None else path, 5):
        try:
            span, vm, vM, v_sd, v_sc = (float(x) for x in fields)
        except ValueError as exc:
            raise TraceParseError(str(exc), line_no=line_no) from exc
        if not np.isfinite((span, vm, vM, v_sd, v_sc)).all():
            raise TraceParseError("non-finite value", line_no=line_no)
        if abs(span - (vM - vm)) > SPAN_TOLERANCE_V + 1e-9:  # decimal inputs, float sums
            raise TraceParseError(
                f"span_V {span:g} differs from vM_V - vm_V = {vM - vm:g} by more "
                f"than {SPAN_TOLERANCE_V:g} V",
                line_no=line_no,
            )
        rows.append((vm, vM, v_sd / 1000.0, v_sc / 1000.0))
    return rows


def measured_grid(device: str, rest: bool = False) -> EfficiencyGrid:
    """Efficiency grid of one device from the embedded measurements.

    ``rest=False`` selects the continuous-cycling surface, ``rest=True``
    the 30-minute-rest surface.
    """
    if device not in DEVICES:
        raise ConfigError(f"unknown device {device!r}; choose from {DEVICES}")
    col = 2 + DEVICES.index(device)
    eta = np.full((len(PU_LEVELS), len(PU_LEVELS)), np.nan)
    for _, r in csv_lines(data_path("table4" if rest else "table2"), 5):
        vm, vM = float(r[0]), float(r[1])
        eta[PU_LEVELS.index(vM), PU_LEVELS.index(vm)] = float(r[col]) / 100.0
    return EfficiencyGrid(
        levels=PU_LEVELS, eta=eta, method=GridMethod.MEASURED, rest=rest
    )


def export_all(out_dir: Path | str) -> list[Path]:
    """Copy every embedded table into ``out_dir``; returns the new paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in TABLE_NAMES:
        dst = out / f"{name}.csv"
        shutil.copyfile(data_path(name), dst)
        written.append(dst)
    return written
