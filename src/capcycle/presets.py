"""Ready-made parameter sets for the three campaign devices.

The series resistances are not datasheet values: they are back-derived from
each device's test current by requiring 95% round-trip efficiency over the
full voltage window, which is how those currents were chosen in the first
place.  The redistribution branch and leakage of the 50 F device are
calibrated so that simulated 30-minute rests over the full window reproduce
the measured steady drift (156 mV sag after charge, 130 mV rebound after
discharge); the other devices reuse the same time constants, scaled with
capacitance.
"""

from __future__ import annotations

from .errors import ConfigError
from .model import DeviceParams, Redistribution

V_RATED = 2.7
EFFICIENCY_TARGET = 0.95

TEST_CURRENTS = {"10F": 1.13, "50F": 3.95, "100F": 4.7}
"""Constant test current (A) per device, sized for 95% full-window efficiency."""

_C_MAIN = {"10F": 10.0, "50F": 50.0, "100F": 100.0}

_BRANCH_FRACTION = 0.1

# Calibrated on the 50 F device (see module docstring); r-values scale as
# 1/c_main so every preset shares the same redistribution and leakage time
# constants.
_R_BRANCH_50 = 5.578635585669117
_R_LEAK_50 = 3480.3555568726624

PRESET_NAMES = tuple(TEST_CURRENTS)


def derived_resistance(i_c: float, v_rated: float = V_RATED,
                       target: float = EFFICIENCY_TARGET) -> float:
    """Series resistance implied by a full-window test current and target."""
    return v_rated * (1 - target) / (2 * i_c * (1 + target))


def preset(name: str, ideal: bool = False) -> DeviceParams:
    """Parameters of a campaign device; ``ideal=True`` strips the slow dynamics.

    The ideal variant, :meth:`DeviceParams.ideal`, drops the redistribution
    branch and leakage, so simulations match the closed forms.
    """
    if name not in _C_MAIN:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    c_main = _C_MAIN[name]
    scale = 50.0 / c_main
    device = DeviceParams(
        c_main=c_main,
        r_series=derived_resistance(TEST_CURRENTS[name]),
        v_rated=V_RATED,
        redistribution=Redistribution(
            c_branch=_BRANCH_FRACTION * c_main,
            r_branch=_R_BRANCH_50 * scale,
        ),
        r_leak=_R_LEAK_50 * scale,
    )
    return device.ideal() if ideal else device
