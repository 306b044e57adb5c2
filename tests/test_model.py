"""Closed-form model: frozen expected values and algebraic properties."""

import math

import numpy as np
import pytest

from capcycle import (
    ConfigError,
    CycleSpec,
    DeviceParams,
    LossesExceedDelivery,
    OperatingWindow,
    Redistribution,
    RestVoltages,
    UnboundedCurrent,
    WindowTooNarrow,
    charge_duration,
    efficiency_no_rest,
    efficiency_with_rest,
    energy_in,
    energy_out,
    usable_energy_fraction,
    window_to_volts,
)
from capcycle import test_current as current_for_target  # avoid pytest collection

# Frozen reference values, computed up front with an independent script
# (exact rational arithmetic for the R=0.0922 case).
R_FROM_TABLE = 0.09221311475409837  # inverts eta=0.952 at 0.4 A over 0.5-2.5 V
DT_AT_0922 = 48.156
EI_AT_0922 = 29.603997312
EO_AT_0922 = 28.183202688
ETA_AT_0922 = 0.9520066628494092

DEV = DeviceParams(c_main=10.0, r_series=0.0922, v_rated=2.7)
SPEC_04 = CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5)


def _dev(r):
    return DeviceParams(c_main=10.0, r_series=r, v_rated=2.7)


def _spec(i, vmin=0.5, vmax=2.5):
    return CycleSpec(i_c=i, v_min=vmin, v_max=vmax)


class TestChargeDuration:
    def test_lossless_is_c_dv_over_i(self):
        assert charge_duration(_dev(0.0), SPEC_04) == pytest.approx(50.0, abs=0)

    def test_reference_resistance(self):
        assert charge_duration(DEV, SPEC_04) == pytest.approx(DT_AT_0922, rel=1e-12)

    def test_window_too_narrow(self):
        with pytest.raises(WindowTooNarrow) as exc:
            charge_duration(_dev(0.5), _spec(3.0))
        assert exc.value.min_window == pytest.approx(3.0)


class TestEfficiencyNoRest:
    def test_lossless_is_one(self):
        assert efficiency_no_rest(_dev(0.0), SPEC_04) == 1.0

    def test_reference_value(self):
        assert efficiency_no_rest(DEV, SPEC_04) == pytest.approx(ETA_AT_0922, rel=1e-12)

    def test_table_row_roundtrip_to_3_sig_figs(self):
        # inverting the 95.2% row gives R, and that R re-predicts 95.2%
        r = 3.0 * (1 - 0.952) / (2 * 0.4 * (1 + 0.952))
        assert r == pytest.approx(R_FROM_TABLE, rel=1e-12)
        assert float(f"{r:.3g}") == 0.0922
        eta = efficiency_no_rest(_dev(r), SPEC_04)
        assert round(eta * 100, 1) == 95.2

    def test_half_amp_prediction(self):
        eta = efficiency_no_rest(DeviceParams(10.0, 0.0922, 2.7), _spec(0.5))
        assert eta == pytest.approx(0.9403660824008796, rel=1e-12)

    def test_narrow_window_raises(self):
        with pytest.raises(WindowTooNarrow):
            efficiency_no_rest(_dev(0.5), _spec(3.0))


class TestEfficiencyWithRest:
    def test_zero_rest_voltages_reduce_to_no_rest(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = rng.uniform(0, 0.2)
            i = rng.uniform(0.05, 2.0)
            vmin = rng.uniform(0, 1.0)
            vmax = rng.uniform(vmin + 2.5 * i * r + 0.05, 2.7)
            d, s = _dev(r), _spec(i, vmin, vmax)
            try:
                base = efficiency_no_rest(d, s)
            except WindowTooNarrow:
                continue
            assert efficiency_with_rest(d, s, RestVoltages(0.0, 0.0)) == base

    def test_full_window_spot_value(self):
        # 156 mV sag / 130 mV rebound over the full 0-2.7 V window, R = 0
        d = DeviceParams(c_main=100.0, r_series=0.0, v_rated=2.7)
        s = CycleSpec(i_c=4.7, v_min=0.0, v_max=2.7)
        eta = efficiency_with_rest(d, s, RestVoltages(v_sd=0.156, v_sc=0.130))
        assert eta == pytest.approx((2.7 - 0.156) / (2.7 + 0.130), rel=1e-12)
        assert eta == pytest.approx(0.8989399293286219, rel=1e-12)

    def test_monotone_decreasing_in_v_sd(self):
        etas = [
            efficiency_with_rest(DEV, SPEC_04, RestVoltages(v_sd, 0.05))
            for v_sd in (0.0, 0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_losses_exceed_delivery(self):
        with pytest.raises(LossesExceedDelivery):
            efficiency_with_rest(_dev(0.0), _spec(0.4, 0.0, 0.5), RestVoltages(0.6, 0.0))


class TestEnergies:
    def test_lossless_both_30_joules(self):
        d = _dev(0.0)
        assert energy_in(d, SPEC_04) == pytest.approx(30.0, rel=1e-12)
        assert energy_out(d, SPEC_04) == pytest.approx(30.0, rel=1e-12)
        # equals the capacitor's stored-energy change
        assert 0.5 * 10 * (2.5**2 - 0.5**2) == pytest.approx(30.0)

    def test_reference_values(self):
        assert energy_in(DEV, SPEC_04) == pytest.approx(EI_AT_0922, rel=1e-12)
        assert energy_out(DEV, SPEC_04) == pytest.approx(EO_AT_0922, rel=1e-12)
        assert energy_out(DEV, SPEC_04) / energy_in(DEV, SPEC_04) == pytest.approx(
            ETA_AT_0922, rel=1e-12
        )

    def test_ratio_identity_random_sweep(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 300:
            c = rng.uniform(0.5, 200)
            r = rng.uniform(0, 0.5)
            i = rng.uniform(0.01, 5)
            vmin = rng.uniform(0, 2.0)
            vmax = rng.uniform(vmin, 2.7)
            d = DeviceParams(c_main=c, r_series=r, v_rated=2.7)
            try:
                s = CycleSpec(i_c=i, v_min=vmin, v_max=vmax)
                ei, eo = energy_in(d, s), energy_out(d, s)
            except (ConfigError, WindowTooNarrow):
                continue
            assert eo / ei == pytest.approx(efficiency_no_rest(d, s), rel=1e-12)
            checked += 1

    def test_rest_variants_share_duration_and_shift_brackets(self):
        rv = RestVoltages(v_sd=0.15, v_sc=0.12)
        dt = charge_duration(DEV, SPEC_04)
        assert energy_in(DEV, SPEC_04, rv) == pytest.approx(
            0.4 * (3.0 + 0.12 + 2 * 0.4 * 0.0922) / 2 * dt, rel=1e-12
        )
        assert energy_out(DEV, SPEC_04, rv) == pytest.approx(
            0.4 * (3.0 - 0.15 - 2 * 0.4 * 0.0922) / 2 * dt, rel=1e-12
        )
        ratio = energy_out(DEV, SPEC_04, rv) / energy_in(DEV, SPEC_04, rv)
        assert ratio == pytest.approx(
            efficiency_with_rest(DEV, SPEC_04, rv), rel=1e-12
        )

    def test_energy_out_refuses_the_windows_efficiency_refuses(self):
        # One delivery rule: both refuse the same windows with the same message.
        rng = np.random.default_rng(5)
        refused = 0
        for _ in range(300):
            vmin = rng.uniform(0.0, 1.0)
            s = _spec(rng.uniform(0.1, 2.0), vmin, rng.uniform(vmin + 0.5, 2.7))
            d, rv = _dev(rng.uniform(0.0, 0.2)), RestVoltages(rng.uniform(0.0, 4.0), 0.1)
            try:
                efficiency_with_rest(d, s, rv)
            except (LossesExceedDelivery, WindowTooNarrow) as exc:
                refused += 1
                with pytest.raises(type(exc)) as out:
                    energy_out(d, s, rv)
                assert str(out.value) == str(exc)
            else:
                assert energy_out(d, s, rv) > 0
        assert 0 < refused < 300

    def test_zero_rest_voltages_are_bit_identical_to_no_rest(self):
        zero = RestVoltages(0.0, 0.0)
        for s in (SPEC_04, CycleSpec(i_c=1.7, v_min=0.0, v_max=2.7)):
            assert energy_in(DEV, s, zero) == energy_in(DEV, s)
            assert energy_out(DEV, s, zero) == energy_out(DEV, s)


class TestSecondForm:
    def test_equivalent_algebraic_form(self):
        # (S - x)/(S + x) must equal 1 - 2x/(S + x) for the same S, x
        rng = np.random.default_rng(3)
        for _ in range(200):
            r = rng.uniform(0.001, 0.3)
            i = rng.uniform(0.05, 3)
            vmin = rng.uniform(0, 1.5)
            vmax = rng.uniform(vmin + 0.01, 2.7)
            d, s = _dev(r), _spec(i, vmin, vmax)
            try:
                eta = efficiency_no_rest(d, s)
            except WindowTooNarrow:
                continue
            x = 2 * i * r
            alt = 1 - 2 * x / (vmax + vmin + x)
            assert eta == pytest.approx(alt, rel=1e-12)


class TestMonotonicity:
    def test_partial_differences(self):
        rng = np.random.default_rng(23)
        h = 1e-3
        for _ in range(200):
            r = rng.uniform(0.005, 0.2)
            i = rng.uniform(0.05, 1.5)
            vmin = rng.uniform(0.1, 1.2)
            vmax = rng.uniform(vmin + 4 * i * r + 0.1, 2.7 - h)
            if vmax <= vmin + 4 * i * r:
                continue
            d = _dev(r)
            base = efficiency_no_rest(d, _spec(i, vmin, vmax))
            assert efficiency_no_rest(d, _spec(i, vmin + h, vmax)) > base
            assert efficiency_no_rest(d, _spec(i, vmin, vmax + h)) > base
            assert efficiency_no_rest(d, _spec(i + h, vmin, vmax)) < base
            assert efficiency_no_rest(_dev(r + h), _spec(i, vmin, vmax)) < base


class TestTestCurrent:
    def test_derived_resistance_reproduces_campaign_current(self):
        d = DeviceParams(c_main=10.0, r_series=0.0306, v_rated=2.7)
        i = current_for_target(d, 0.95, OperatingWindow(0.0, 1.0))
        assert i == pytest.approx(1.1312217194570138, rel=1e-12)
        assert round(i, 2) == 1.13

    def test_roundtrip_with_efficiency(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = rng.uniform(0.001, 0.5)
            eta_t = rng.uniform(0.5, 0.999)
            vm = rng.uniform(0, 0.8)
            vM = rng.uniform(vm + 0.05, 1.0)
            d = DeviceParams(c_main=10.0, r_series=r, v_rated=2.7)
            w = OperatingWindow(vm, vM)
            i = current_for_target(d, eta_t, w)
            vmin, vmax = window_to_volts(w, d.v_rated)
            try:
                eta = efficiency_no_rest(d, CycleSpec(i_c=i, v_min=vmin, v_max=vmax))
            except (ConfigError, WindowTooNarrow):
                continue  # the target current can exceed what the window admits
            assert eta == pytest.approx(eta_t, rel=1e-12)

    def test_target_near_one_gives_small_current(self):
        d = DeviceParams(c_main=10.0, r_series=0.03, v_rated=2.7)
        w = OperatingWindow(0.0, 1.0)
        i1 = current_for_target(d, 0.99, w)
        i2 = current_for_target(d, 0.9999, w)
        assert i2 < i1 < 0.5

    def test_zero_resistance_unbounded(self):
        with pytest.raises(UnboundedCurrent):
            current_for_target(_dev(0.0), 0.95, OperatingWindow(0.0, 1.0))

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigError):
            current_for_target(DEV, 1.0, OperatingWindow(0.0, 1.0))


class TestUsableEnergyFraction:
    def test_half_voltage_leaves_three_quarters(self):
        assert usable_energy_fraction(OperatingWindow(0.5, 1.0)) == pytest.approx(0.75)

    def test_seventy_percent_floor(self):
        assert usable_energy_fraction(OperatingWindow(0.7, 1.0)) == pytest.approx(0.51)

    def test_full_window(self):
        assert usable_energy_fraction(OperatingWindow(0.0, 1.0)) == 1.0

    def test_monotone_in_both_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            vm = rng.uniform(0, 0.7)
            vM = rng.uniform(vm + 0.05, 0.95)
            base = usable_energy_fraction(OperatingWindow(vm, vM))
            assert usable_energy_fraction(OperatingWindow(vm, vM + 0.01)) > base
            assert usable_energy_fraction(OperatingWindow(vm + 0.01, vM)) < base


class TestValidation:
    def test_device_invariants(self):
        with pytest.raises(ConfigError, match="c_main"):
            DeviceParams(c_main=0.0, r_series=0.1, v_rated=2.7)
        with pytest.raises(ConfigError, match="r_series"):
            DeviceParams(c_main=1.0, r_series=-0.1, v_rated=2.7)
        with pytest.raises(ConfigError, match="r_branch"):
            DeviceParams(
                c_main=1.0,
                r_series=0.1,
                v_rated=2.7,
                redistribution=Redistribution(c_branch=1.0, r_branch=0.0),
            )
        with pytest.raises(ConfigError, match="r_leak"):
            DeviceParams(c_main=1.0, r_series=0.1, v_rated=2.7, r_leak=0.0)

    def test_spec_invariants(self):
        with pytest.raises(ConfigError):
            CycleSpec(i_c=0.0, v_min=0.5, v_max=2.5)
        with pytest.raises(ConfigError):
            CycleSpec(i_c=1.0, v_min=2.5, v_max=0.5)
        with pytest.raises(ConfigError):
            CycleSpec(i_c=1.0, v_min=1.0, v_max=1.0)  # degenerate window
        with pytest.raises(ConfigError):
            CycleSpec(i_c=1.0, v_min=0.5, v_max=2.5, max_cycles=0)
        for rest in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="rest durations"):
                CycleSpec(i_c=1.0, v_min=0.5, v_max=2.5, rest_after_discharge=rest)

    def test_window_invariants(self):
        with pytest.raises(ConfigError):
            OperatingWindow(0.5, 0.5)
        with pytest.raises(ConfigError):
            OperatingWindow(-0.1, 0.5)
        with pytest.raises(ConfigError):
            OperatingWindow(0.5, 1.1)

    def test_rest_voltage_invariants(self):
        with pytest.raises(ConfigError):
            RestVoltages(-0.01, 0.0)

    def test_spec_against_device_rating(self):
        s = CycleSpec(i_c=1.0, v_min=0.0, v_max=2.8)
        with pytest.raises(ConfigError, match="v_rated"):
            s.validate_against(DEV)
