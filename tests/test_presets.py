"""Device presets: derived resistances and calibrated rest-drift dynamics."""

import pytest

from capcycle import (
    ConfigError,
    CycleSpec,
    PRESET_NAMES,
    TEST_CURRENTS,
    analyze_trace,
    derived_resistance,
    preset,
    run_protocol,
)


class TestDerivedResistance:
    def test_follows_target_inversion(self):
        for i in (1.13, 3.95, 4.7):
            want = 2.7 * (1 - 0.95) / (2 * i * (1 + 0.95))
            assert derived_resistance(i) == pytest.approx(want, rel=1e-12)

    def test_known_value_10f(self):
        assert round(derived_resistance(1.13), 4) == 0.0306

    def test_custom_target_and_rating(self):
        r = derived_resistance(2.0, v_rated=3.0, target=0.9)
        assert r == pytest.approx(3.0 * 0.1 / (2 * 2.0 * 1.9), rel=1e-12)


class TestPresetStructure:
    def test_names(self):
        assert PRESET_NAMES == ("10F", "50F", "100F")

    def test_fields(self):
        for name in PRESET_NAMES:
            p = preset(name)
            assert p.c_main == float(name[:-1])
            assert p.v_rated == 2.7
            assert p.r_series == pytest.approx(
                derived_resistance(TEST_CURRENTS[name]), rel=1e-12
            )
            assert p.redistribution is not None
            assert p.r_leak is not None
            assert p.redistribution.c_branch == pytest.approx(0.1 * p.c_main)

    def test_dynamics_scale_inversely_with_size(self):
        # one calibration carried across sizes: r*c products are shared
        ref = preset("50F")
        for name in ("10F", "100F"):
            p = preset(name)
            assert p.redistribution.r_branch * p.c_main == pytest.approx(
                ref.redistribution.r_branch * ref.c_main, rel=1e-12
            )
            assert p.r_leak * p.c_main == pytest.approx(
                ref.r_leak * ref.c_main, rel=1e-12
            )

    def test_ideal_strips_dynamics(self):
        p = preset("50F", ideal=True)
        assert p.redistribution is None
        assert p.r_leak is None
        assert p.r_series == preset("50F").r_series
        assert p == preset("50F").ideal()

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="13F"):
            preset("13F")


def _rest_campaign(name, cycles, i_c=None):
    p = preset(name)
    s = CycleSpec(
        i_c=TEST_CURRENTS[name] if i_c is None else i_c,
        v_min=0.0, v_max=2.7,
        rest_after_charge=1800.0, rest_after_discharge=1800.0,
        max_cycles=cycles,
    )
    tr = run_protocol(p, s)
    return tr, analyze_trace(tr)


@pytest.fixture(scope="module")
def fifty_rest():
    return _rest_campaign("50F", 8)


class TestCalibratedDrift:
    def test_full_window_drift_matches_calibration_targets(self, fifty_rest):
        _, rep = fifty_rest
        assert rep.steady.mean.v_sd == pytest.approx(0.156, abs=2e-3)
        assert rep.steady.mean.v_sc == pytest.approx(0.130, abs=2e-3)
        assert rep.steady.mean.v_sd > rep.steady.mean.v_sc

    def test_long_rests_leak_just_over_the_balance_tolerance(self, fifty_rest):
        # The drift asymmetry fixes the leak branch, and with half-hour
        # rests at the rails that leak drains ~1.1% of the cycle charge:
        # the exact per-cycle imbalance hovers just past 1% (6.03, 1.21,
        # 0.91, 1.21, 1.21, 0.91, 1.21, 0.91 % over the 8 cycles).  Single
        # cycles dip under it by sample-quantization jitter, so the
        # analyzer can still flag the last cycle steady.  Continuous
        # cycling converges well below the tolerance; see acceptance.
        _, rep = fifty_rest
        tail = rep.steady.per_cycle[-4:]
        imbalance = sum((m.q_in - m.q_out) / m.q_in for m in tail) / len(tail)
        assert 0.009 < imbalance < 0.014

    def test_drift_is_scale_invariant_under_proportional_current(self):
        # one calibration serves all sizes *for proportionally scaled
        # protocols*: equal per-farad current means equal ramp rate
        # against the same redistribution lag
        for name, i_c in (("10F", 3.95 / 5), ("100F", 3.95 * 2)):
            _, rep = _rest_campaign(name, 6, i_c=i_c)
            assert rep.steady.mean.v_sd == pytest.approx(0.156, abs=2.5e-3), name
            assert rep.steady.mean.v_sc == pytest.approx(0.130, abs=2.5e-3), name

    def test_native_current_drift_keeps_the_leak_asymmetry(self):
        # at the catalogued test currents the per-farad ramp rate (and
        # with it the absolute sag) differs per size, but the sag/rebound
        # asymmetry is a leak property and stays put
        for name in ("10F", "100F"):
            _, rep = _rest_campaign(name, 6)
            m = rep.steady.mean
            assert 0.09 < m.v_sc < m.v_sd < 0.20, name
            assert 0.020 < m.v_sd - m.v_sc < 0.032, name
