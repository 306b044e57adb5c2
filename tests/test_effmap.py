"""Efficiency grids, the rest-voltage fit, the optimizer, and rendering."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capcycle import analyzer, effmap, simulator
from capcycle import (
    CapcycleError,
    ClosedFormObjective,
    ConfigError,
    CycleSpec,
    DeviceParams,
    DynamicsDiverged,
    EfficiencyGrid,
    GridMethod,
    InfeasibleEnergyRequirement,
    LossesExceedDelivery,
    MalformedProtocol,
    NumericError,
    OperatingWindow,
    PeriodicObjective,
    PRESET_NAMES,
    RankDeficientFit,
    Redistribution,
    RestVoltages,
    Trace,
    analyze_trace,
    build_grid,
    charge_duration,
    efficiency_no_rest,
    efficiency_with_rest,
    fit_self_discharge,
    load_rest_voltage_rows,
    measured_grid,
    optimize_window,
    preset,
    render_map,
    run_protocol,
    usable_energy_fraction,
    WindowTooNarrow,
)
from capcycle.analyzer import ETA_SLACK
from capcycle.cli import main
from capcycle.effmap import MIN_FIT_QUALITY, PU_LEVELS, SelfDischargeModel
from capcycle.presets import TEST_CURRENTS

# Frozen regression constants for the embedded 50 F rest-drift table,
# computed beforehand with an independent least-squares oracle.
SLOPE_SD = 54.421228  # mV per volt of window span
ICPT_SD = 13.147634  # mV
R2_SD = 0.993766
SLOPE_SC = 45.944467
ICPT_SC = 6.382082
R2_SC = 0.977772


def _model(**kw):
    base = dict(
        slope_sd=50.0, intercept_sd=5.0, slope_sc=40.0, intercept_sc=3.0,
        fit_quality_sd=1.0, fit_quality_sc=1.0, n_rows=15,
    )
    base.update(kw)
    return SelfDischargeModel(**base)


class TestSelfDischargeFit:
    def test_embedded_table_reproduces_pinned_regression(self):
        m = fit_self_discharge(load_rest_voltage_rows())
        assert m.slope_sd == pytest.approx(SLOPE_SD, abs=1e-6)
        assert m.intercept_sd == pytest.approx(ICPT_SD, abs=1e-6)
        assert m.fit_quality_sd == pytest.approx(R2_SD, abs=1e-6)
        assert m.slope_sc == pytest.approx(SLOPE_SC, abs=1e-6)
        assert m.intercept_sc == pytest.approx(ICPT_SC, abs=1e-6)
        assert m.fit_quality_sc == pytest.approx(R2_SC, abs=1e-6)
        assert m.fit_quality == m.fit_quality_sc  # the worse of the two
        assert m.n_rows == 15

    def test_synthetic_exact_line(self):
        rows = [
            (0.0, dv, (50.0 * dv + 5.0) / 1000.0, (40.0 * dv + 3.0) / 1000.0)
            for dv in (0.3, 0.9, 1.5, 2.1, 2.7)
        ]
        m = fit_self_discharge(rows)
        assert m.slope_sd == pytest.approx(50.0, abs=1e-9)
        assert m.intercept_sd == pytest.approx(5.0, abs=1e-9)
        assert m.slope_sc == pytest.approx(40.0, abs=1e-9)
        assert m.fit_quality == pytest.approx(1.0, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(RankDeficientFit):
            fit_self_discharge([(0.0, 1.0, 0.05, 0.04), (0.0, 2.0, 0.1, 0.08)])

    def test_identical_spans_rank_deficient(self):
        rows = [(0.0, 1.35, 0.089, 0.07), (0.68, 2.03, 0.09, 0.068),
                (1.35, 2.70, 0.09, 0.068)]
        with pytest.raises(RankDeficientFit):
            fit_self_discharge(rows)

    def test_negative_slope_rejected(self):
        rows = [(0.0, dv, (0.1 - 0.03 * dv), 0.01 * dv) for dv in (0.5, 1.5, 2.5)]
        with pytest.raises(ConfigError):
            fit_self_discharge(rows)

    def test_predictions_clamped_at_zero(self):
        m = _model(intercept_sd=-20.0, intercept_sc=-20.0)
        rv = m.predict(0.1)
        assert rv.v_sd == 0.0
        assert rv.v_sc == 0.0

    def test_fit_quality_is_the_worse_response(self):
        assert _model(fit_quality_sd=0.97, fit_quality_sc=0.99).fit_quality == 0.97
        with pytest.raises(TypeError):
            _model(fit_quality=1.0)

    def test_predict_units(self):
        rv = _model().predict(2.0)
        assert rv.v_sd == pytest.approx(0.105)  # (50*2 + 5) mV
        assert rv.v_sc == pytest.approx(0.083)


class TestBuildGridClosedForm:
    def test_lossless_cells_exactly_one(self):
        d = DeviceParams(c_main=10.0, r_series=0.0, v_rated=2.7)
        g = build_grid(ClosedFormObjective(d, 1.0))
        defined = g.defined_mask()
        assert np.all(g.eta[defined] == 1.0)

    def test_undefined_exactly_lower_triangle(self):
        g = build_grid(ClosedFormObjective(preset("100F", ideal=True), 4.7))
        for r, vM in enumerate(g.levels):
            for j, vm in enumerate(g.levels):
                assert np.isnan(g.eta[r, j]) == (vm >= vM)

    def test_cells_match_direct_evaluation(self):
        d = preset("100F", ideal=True)
        g = build_grid(ClosedFormObjective(d, 4.7))
        s = CycleSpec(i_c=4.7, v_min=0.5 * 2.7, v_max=2.7)
        assert g.value(0.5, 1.0) == pytest.approx(
            efficiency_no_rest(d, s), rel=1e-12
        )

    def test_rest_cells_use_model_prediction(self):
        d = preset("100F", ideal=True)
        m = _model()
        g = build_grid(ClosedFormObjective(d, 4.7, m))
        span = (1.0 - 0.5) * 2.7
        s = CycleSpec(i_c=4.7, v_min=0.5 * 2.7, v_max=2.7)
        expect = efficiency_with_rest(d, s, m.predict(span))
        assert g.value(0.5, 1.0) == pytest.approx(expect, rel=1e-12)
        assert g.rest is True

    def test_rest_grid_below_everywhere(self):
        d = preset("100F", ideal=True)
        g0 = build_grid(ClosedFormObjective(d, 4.7))
        g1 = build_grid(ClosedFormObjective(d, 4.7, _model()))
        defined = g1.defined_mask()
        assert np.all(g1.eta[defined] < g0.eta[defined])

    def test_narrow_cells_undefined_not_errors(self):
        d = DeviceParams(c_main=10.0, r_series=0.5, v_rated=2.7)
        # drop = 1.0 V wipes out the 0.25-pu windows
        g = build_grid(ClosedFormObjective(d, 1.0))
        assert math.isnan(g.value(0.0, 0.25))
        assert not math.isnan(g.value(0.0, 1.0))

    def test_low_quality_model_gated(self):
        m = _model(fit_quality_sd=0.8)
        with pytest.raises(ConfigError, match="fit quality"):
            build_grid(ClosedFormObjective(preset("100F", ideal=True), 4.7, m))

    def test_bad_levels(self):
        obj = ClosedFormObjective(preset("100F", ideal=True), 4.7)
        with pytest.raises(ConfigError):
            build_grid(obj, levels=(0.5,))
        with pytest.raises(ConfigError):
            build_grid(obj, levels=(0.5, 0.5))
        with pytest.raises(ConfigError):
            build_grid(obj, levels=(0.0, 1.5))


_MODELS = st.builds(
    SelfDischargeModel,
    slope_sd=st.floats(0.0, 200.0),
    intercept_sd=st.floats(-50.0, 50.0),
    slope_sc=st.floats(0.0, 200.0),
    intercept_sc=st.floats(-50.0, 50.0),
    fit_quality_sd=st.floats(MIN_FIT_QUALITY, 1.0),
    fit_quality_sc=st.floats(MIN_FIT_QUALITY, 1.0),
    n_rows=st.just(15),
)


@settings(max_examples=40, deadline=None)
@given(
    device=st.builds(
        DeviceParams,
        c_main=st.floats(0.1, 500.0),
        r_series=st.floats(0.0, 0.5),
        v_rated=st.floats(1.0, 5.0),
    ),
    i_c=st.floats(0.01, 50.0),
    levels=st.lists(st.integers(0, 1000), min_size=2, max_size=6, unique=True).map(
        lambda xs: tuple(x / 1000 for x in sorted(xs))
    ),
    model=st.none() | _MODELS,
)
def test_closed_form_cells_are_the_objective(device, i_c, levels, model):
    obj = ClosedFormObjective(device, i_c, model)
    g = build_grid(obj, levels=levels)
    for r, vM in enumerate(levels):
        for j, vm in enumerate(levels):
            try:
                expect = obj.eta(vm, vM) if vm < vM else math.nan
            except (WindowTooNarrow, LossesExceedDelivery):
                expect = math.nan
            got = g.eta[r, j]
            assert got == expect or (math.isnan(got) and math.isnan(expect))


@st.composite
def _levels_with_collapsed_pairs(draw):
    """Strictly increasing levels, often holding adjacent floats that give the same volts."""
    levels = set(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5)))
    for x in draw(st.lists(st.floats(0.38, 0.49) | st.floats(0.75, 0.99), max_size=2)):
        # x·2.7 lands in a binade whose ulp is coarser than 2.7·ulp(x), so
        # some neighbour of x rounds to the same volts as its successor
        for _ in range(64):
            y = math.nextafter(x, 1.0)
            if x * 2.7 == y * 2.7:
                levels |= {x, y}
                break
            x = y
    assume(len(levels) >= 2)
    return tuple(sorted(levels))


@settings(max_examples=30, deadline=None)
@given(device=st.sampled_from(PRESET_NAMES), levels=_levels_with_collapsed_pairs(),
       near=st.lists(st.tuples(st.floats(0.0, 0.95), st.integers(-4, 4)), max_size=3))
@example(device="100F", levels=(0.0, 0.7, 0.7256410256410256, 1.0), near=[])
def test_objectives_leave_the_same_cells_blank(device, levels, near):
    # One window gate: a window whose ends give the same volts, or whose
    # span is within a few ulps of 2iR, is too narrow under either
    # objective, a blank cell and not an error.
    p, i_c = preset(device, ideal=True), TEST_CURRENTS[device]
    drops = 2 * i_c * p.r_series / p.v_rated
    levels = set(levels)
    for x, ulps in near:  # a pair of levels about 2iR apart, moved a few ulps
        y = x + drops
        for _ in range(abs(ulps)):
            y = math.nextafter(y, math.copysign(math.inf, ulps))
        if y <= 1.0:
            levels |= {x, y}
    levels = tuple(sorted(levels))
    closed = build_grid(ClosedFormObjective(p, i_c), levels=levels)
    orbit = build_grid(PeriodicObjective(p, i_c), levels=levels)
    assert np.array_equal(closed.defined_mask(), orbit.defined_mask())


def test_window_with_collapsed_volts_is_too_narrow():
    lo, hi = 0.49543508709194095, 0.495435087091941
    p = preset("100F", ideal=True)
    assert lo < hi and lo * p.v_rated == hi * p.v_rated
    with pytest.raises(WindowTooNarrow):
        ClosedFormObjective(p, 4.7).eta(lo, hi)
    with pytest.raises(WindowTooNarrow):
        PeriodicObjective(p, 4.7).eta(lo, hi)


def test_window_within_an_ulp_of_the_drops_is_too_narrow():
    # 0.7256410256410256 - 0.7 exceeds 2iR/v_rated, but the capacitor's
    # swing from v_min + iR up to v_max - iR rounds to nothing.
    p, vm, vM = preset("100F", ideal=True), 0.7, 0.7256410256410256
    i_r = 4.7 * p.r_series
    assert vM * p.v_rated - vm * p.v_rated > 2 * i_r
    assert not vM * p.v_rated - i_r > vm * p.v_rated + i_r
    for objective in (ClosedFormObjective(p, 4.7), PeriodicObjective(p, 4.7)):
        with pytest.raises(WindowTooNarrow, match="cannot exceed the resistive drop"):
            objective.eta(vm, vM)


@settings(max_examples=60, deadline=None)
@given(
    device=st.builds(
        DeviceParams,
        c_main=st.floats(0.1, 500.0),
        r_series=st.floats(0.0, 0.5),
        v_rated=st.floats(1.0, 5.0),
    ),
    i_c=st.floats(0.01, 50.0),
    windows=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=8),
    model=st.none() | _MODELS,
)
def test_closed_form_etas_are_the_scalar_formulas(device, i_c, windows, model):
    # The array closed form gives each window the scalar formulas' η bit
    # for bit, or the error they raise, with its class and message.
    got = ClosedFormObjective(device, i_c, model).etas(windows)
    for (vm, vM), value in zip(windows, got):
        try:
            s = CycleSpec(i_c, vm * device.v_rated, vM * device.v_rated)
            rv = RestVoltages(0.0, 0.0) if model is None else model.predict(
                (vM - vm) * device.v_rated)
            expect = efficiency_with_rest(device, s, rv)
        except (ConfigError, WindowTooNarrow, LossesExceedDelivery) as exc:
            if vm * device.v_rated == vM * device.v_rated:
                assert isinstance(value, WindowTooNarrow)
                assert str(value).endswith("p.u. has no width in volts")
            else:
                assert type(value) is type(exc) and str(value) == str(exc)
            continue
        assert type(value) is float and value == expect


class TestBuildGridSimulated:
    def test_matches_closed_form_within_0p2_points(self):
        d = preset("100F", ideal=True)
        levels = (0.0, 0.5, 1.0)
        cf = build_grid(ClosedFormObjective(d, 4.7), levels=levels)
        sim = build_grid(PeriodicObjective(d, 4.7), levels=levels)
        defined = cf.defined_mask()
        assert np.array_equal(defined, sim.defined_mask())
        assert np.all(np.abs(cf.eta[defined] - sim.eta[defined]) < 0.002)

    def test_cells_run_no_identification(self, monkeypatch):
        # η reads no identified R or C, so a map cell must not pay for them
        def refuse(trace, segments):
            raise AssertionError("a map cell ran parameter identification")

        monkeypatch.setattr(analyzer, "identify_resistance", refuse)
        monkeypatch.setattr(analyzer, "identify_capacitance", refuse)
        grid = build_grid(PeriodicObjective(preset("10F"), 0.4, rest=20.0),
                          levels=(0.0, 0.5, 1.0))
        assert grid.defined_mask().sum() == 3

    def test_cells_build_no_trace(self, monkeypatch):
        # η reads each active phase's integrals in closed form; no cell may
        # build, validate or segment a trace.
        def refuse(*args, **kwargs):
            raise AssertionError("a map cell built a trace")

        monkeypatch.setattr(Trace, "validate", refuse)
        monkeypatch.setattr(simulator, "run_protocol", refuse)
        monkeypatch.setattr(effmap, "run_protocol", refuse)
        monkeypatch.setattr(analyzer, "segment", refuse)
        grid = build_grid(PeriodicObjective(preset("10F"), 0.4, rest=20.0),
                          levels=(0.0, 0.5, 1.0))
        assert grid.defined_mask().sum() == 3

    @pytest.mark.parametrize("device, i_c", [("10F", 0.4), ("50F", 3.95)])
    def test_rest_shorter_than_min_segment_needs_no_special_case(self, device, i_c):
        # A 0.3-s rest is merged into the phase before it by the trace
        # analysis, and is an ordinary rest to the orbit: the analysis of
        # the sampled cycles lies within the bound of
        # tests/test_simulator.py's test_sampled_cycles_approach_the_orbit.
        p = preset(device)
        for vm, vM in ((0.0, 1.0), (0.5, 0.7)):
            s = CycleSpec(i_c=i_c, v_min=vm * p.v_rated, v_max=vM * p.v_rated,
                          rest_after_charge=0.3, rest_after_discharge=0.3, max_cycles=20)
            min_segment = min(1.0, 0.5 * charge_duration(p, s))
            report = analyze_trace(run_protocol(p, s), min_segment=min_segment)
            traced = report.steady.mean.eta
            orbit = PeriodicObjective(p, i_c, rest=0.3).eta(vm, vM)
            swing = s.v_max - s.v_min - 2 * i_c * p.r_series
            assert abs(traced - orbit) <= (i_c * 0.1 / p.c_main) / swing

    # c_branch = 3 c_main: after the 60-s rest the first discharge of a
    # narrow window runs only a few samples, which a trace's analysis would
    # merge away.
    _SHORT = DeviceParams(c_main=10.0, r_series=0.01, v_rated=2.7,
                          redistribution=Redistribution(c_branch=30.0, r_branch=0.5))

    def test_active_phase_shorter_than_min_segment_is_refused(self):
        # The trace analysis refuses it; the orbit has no minimum segment,
        # and its short discharge still delivers energy.
        s = CycleSpec(i_c=1.0, v_min=0.7 * 2.7, v_max=0.75 * 2.7, rest_after_charge=60.0,
                      rest_after_discharge=60.0, max_cycles=6)
        with pytest.raises(MalformedProtocol):
            analyze_trace(run_protocol(self._SHORT, s), min_segment=1.0)
        assert 0 < PeriodicObjective(self._SHORT, 1.0, rest=60.0).eta(0.7, 0.75) < 1

    def test_active_phase_without_a_sample_is_refused(self):
        # This leak drains a 60-s rest's worth of the high window below the
        # discharge limit: the discharge gets no time, let alone a sample,
        # the cycle delivers nothing, and the cell is refused by name.
        p = DeviceParams(c_main=10.0, r_series=0.01, v_rated=2.7, r_leak=20.0)
        with pytest.raises(LossesExceedDelivery, match=r"window \(0\.7, 0\.8\) p\.u\.: the "
                           r"rest before the discharge carries the capacitor past its limit"):
            PeriodicObjective(p, 1.0, rest=60.0).eta(0.7, 0.8)
        assert PeriodicObjective(p, 1.0, rest=1.0).eta(0.7, 0.8) > 0


class TestGridBlocks:
    """A simulated map advances its cells in blocks; no cell may notice."""

    def test_cell_eta_does_not_depend_on_its_chunk(self, monkeypatch):
        # The same cell in a 7-level map, in a 3-level map, in chunks of two
        # and alone: bit for bit the same efficiency.
        obj = PeriodicObjective(preset("10F"), 1.13, rest=20.0)
        levels = (0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0)
        grids = [build_grid(obj, levels), build_grid(obj, (0.25, 0.9, 1.0))]
        monkeypatch.setattr(effmap, "GRID_CHUNK", 2)
        grids.append(build_grid(obj, levels))
        cells = 0
        for r, vM in enumerate(levels):
            for vm in levels[:r]:
                alone = obj.eta(vm, vM).hex()
                seen = [g.value(vm, vM).hex() for g in grids
                        if vm in g.levels and vM in g.levels]
                assert seen == [alone] * len(seen), (vm, vM)
                cells += 1
        assert cells == 21

    # Cells of this leaky two-branch device end four ways: some are
    # defined, a 60-s rest sags low windows below their discharge limit
    # (LossesExceedDelivery, left undefined), charges to above 2.3 V never
    # arrive (DynamicsDiverged), and with a few Newton steps at most the
    # leak's bending charges are not located (NumericError).
    _LEAKY = DeviceParams(c_main=10.0, r_series=0.01, v_rated=2.7, r_leak=2.3,
                          redistribution=Redistribution(c_branch=30.0, r_branch=0.5))

    @pytest.mark.parametrize("levels, first, steps", [
        ((0.7, 0.8, 0.85, 0.9), NumericError, 2),
        # the first failure follows defined cells in the row of 0.7
        ((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7), NumericError, 6),
        ((0.7, 0.85, 0.9, 1.0), DynamicsDiverged, simulator.ORBIT_STEPS),
    ])
    def test_map_raises_first_failing_cell_in_row_major_order(
        self, monkeypatch, tmp_path, capsys, levels, first, steps
    ):
        monkeypatch.setattr(simulator, "ORBIT_STEPS", steps)
        obj = PeriodicObjective(self._LEAKY, 1.0, rest=60.0)
        failures = []
        for r, vM in enumerate(levels):
            for vm in levels[:r]:
                try:
                    obj.eta(vm, vM)
                except CapcycleError as exc:
                    failures.append(exc)
        raised = [e for e in failures if not isinstance(e, LossesExceedDelivery)]
        assert type(raised[0]) is first
        assert len({type(e) for e in failures}) > 1  # later cells fail otherwise
        with pytest.raises(first) as info:
            build_grid(obj, levels)
        assert str(info.value) == str(raised[0])

        device = tmp_path / "dev.json"
        device.write_text('{"c_main": 10.0, "r_series": 0.01, "r_leak": 2.3, '
                          '"redistribution": {"c_branch": 30.0, "r_branch": 0.5}}')
        code = main(["map", "--device", str(device), "--method", "simulated",
                     "--current", "1.0", "--rest", "60",
                     "--levels", ",".join(map(str, levels)), "--out", str(tmp_path / "m")])
        assert code == first.exit_code
        assert str(raised[0]) in capsys.readouterr().err


class TestMeasuredGrids:
    def test_spot_cells(self):
        g = measured_grid("100F")
        assert g.value(0.9, 1.0) == pytest.approx(0.941)
        assert g.value(0.0, 0.25) == pytest.approx(0.623)
        assert g.method is GridMethod.MEASURED
        assert g.rest is False

    def test_no_rest_surface_monotone_in_vm_and_peaks_at_full_vM(self):
        for device in ("10F", "50F", "100F"):
            g = measured_grid(device)
            for r, vM in enumerate(g.levels):
                row = [g.eta[r, j] for j, vm in enumerate(g.levels) if vm < vM]
                row = [x for x in row if not math.isnan(x)]
                assert row == sorted(row), (device, vM)
            for j, vm in enumerate(g.levels):
                col = g.eta[:, j]
                defined = ~np.isnan(col)
                if defined.any():
                    assert np.nanargmax(col) == len(g.levels) - 1, (device, vm)

    def test_rest_surface_below_no_rest_cell_wise(self):
        for device in ("10F", "50F", "100F"):
            g0 = measured_grid(device, rest=False)
            g1 = measured_grid(device, rest=True)
            defined = g0.defined_mask()
            assert np.array_equal(defined, g1.defined_mask())
            assert np.all(g1.eta[defined] < g0.eta[defined]), device

    def test_rest_surface_is_not_monotone(self):
        # the 10 F with-rest surface dips between (0.5, 0.7) and (0.5, 0.9),
        # so monotonicity must not be asserted there
        g = measured_grid("10F", rest=True)
        assert g.value(0.5, 0.7) > g.value(0.5, 0.9)

    def test_unknown_device(self):
        with pytest.raises(ConfigError):
            measured_grid("25F")


@st.composite
def _objective_floors(draw):
    """A closed-form objective, with or without rests, and a floor."""
    rest = draw(st.booleans())
    model = fit_self_discharge(load_rest_voltage_rows()) if rest else None
    target = ClosedFormObjective(preset(draw(st.sampled_from(PRESET_NAMES)), ideal=True),
                                 draw(st.floats(0.5, 20.0)), rest_model=model)
    return target, draw(st.floats(0.0, 1.0, exclude_min=True))


@st.composite
def _grid_floors(draw):
    """A closed-form grid on decimal levels, floored at a cell's rounded fraction.

    Decimal levels square to decimal fractions that floats can miss by an
    ulp, which the optimizer's admission tolerance lets through.
    """
    picks = draw(st.lists(st.integers(0, 20), min_size=2, max_size=8, unique=True))
    levels = tuple(k / 20 for k in sorted(picks))
    grid = build_grid(ClosedFormObjective(preset(draw(st.sampled_from(PRESET_NAMES))),
                                          draw(st.floats(0.5, 20.0))), levels=levels)
    cells = [(levels[j], levels[r]) for r, j in zip(*np.nonzero(grid.defined_mask()))]
    assume(cells)
    vm, vM = draw(st.sampled_from(cells))
    f = round(vM * vM - vm * vm, 2)
    assume(f > 0)
    return grid, f


class TestOptimizer:
    def test_closed_form_analytic_three_quarters(self):
        obj = ClosedFormObjective(device=preset("100F", ideal=True), i_c=4.7)
        pt = optimize_window(obj, 0.75)
        assert pt.window.vm_pu == pytest.approx(0.5, abs=1e-12)
        assert pt.window.vM_pu == 1.0
        assert pt.energy_fraction == pytest.approx(0.75, abs=1e-12)
        assert pt.eta == pytest.approx(obj.eta(0.5, 1.0), rel=1e-12)

    def test_full_fraction_unique_point(self):
        obj = ClosedFormObjective(device=preset("100F", ideal=True), i_c=4.7)
        pt = optimize_window(obj, 1.0)
        assert (pt.window.vm_pu, pt.window.vM_pu) == (0.0, 1.0)
        g = build_grid(ClosedFormObjective(preset("100F", ideal=True), 4.7))
        pt2 = optimize_window(g, 1.0)
        assert (pt2.window.vm_pu, pt2.window.vM_pu) == (0.0, 1.0)

    def test_infeasible_fraction(self):
        obj = ClosedFormObjective(device=preset("100F", ideal=True), i_c=4.7)
        with pytest.raises(InfeasibleEnergyRequirement):
            optimize_window(obj, 1.2)

    def test_nonpositive_fraction(self):
        obj = ClosedFormObjective(device=preset("100F", ideal=True), i_c=4.7)
        with pytest.raises(ConfigError):
            optimize_window(obj, 0.0)

    def test_grid_result_dominates_every_feasible_cell(self):
        g = build_grid(ClosedFormObjective(preset("100F", ideal=True), 4.7))
        f = 0.4
        pt = optimize_window(g, f)
        assert pt.energy_fraction >= f
        for r, vM in enumerate(g.levels):
            for j, vm in enumerate(g.levels):
                if np.isnan(g.eta[r, j]) or vM * vM - vm * vm < f:
                    continue
                assert pt.eta >= g.eta[r, j]

    def test_rest_model_result_dominates_naive_point(self):
        m = fit_self_discharge(load_rest_voltage_rows())
        obj = ClosedFormObjective(
            device=preset("50F", ideal=True), i_c=3.95, rest_model=m
        )
        pt = optimize_window(obj, 0.5)
        naive = obj.eta(1.0 / math.sqrt(2.0), 1.0)
        assert pt.eta >= naive
        assert pt.energy_fraction >= 0.5

    @settings(max_examples=30, deadline=None)
    @given(case=st.one_of(_objective_floors(), _grid_floors()))
    @example(case=(ClosedFormObjective(preset("50F", ideal=True), 3.95), 0.5))
    @example(case=(ClosedFormObjective(preset("50F", ideal=True), 3.95,
                                       fit_self_discharge(load_rest_voltage_rows())), 0.3))
    @example(case=(measured_grid("100F"), 0.19))
    @example(case=(build_grid(ClosedFormObjective(preset("100F"), 0.5), (0.1, 0.3)), 0.08))
    def test_reported_fraction_never_below_floor(self, case):
        target, f = case
        try:
            pt = optimize_window(target, f)
        except InfeasibleEnergyRequirement:
            return  # no feasible window reaches the floor
        assert pt.energy_fraction >= f

    def test_low_quality_model_refused_by_objective(self):
        m = _model(fit_quality_sc=MIN_FIT_QUALITY - 0.01)
        with pytest.raises(ConfigError, match="fit quality"):
            ClosedFormObjective(preset("50F", ideal=True), 3.95, m)

    def test_consistency_invariant(self):
        obj = ClosedFormObjective(device=preset("50F", ideal=True), i_c=3.95)
        pt = optimize_window(obj, 0.6)
        assert pt.energy_fraction == pytest.approx(
            usable_energy_fraction(pt.window), rel=1e-12
        )

    def test_tie_breaks_toward_larger_fraction_then_vm(self):
        levels = (0.0, 0.6, 0.8, 1.0)
        eta = np.full((4, 4), np.nan)
        eta[3, 0] = 0.9   # (vm=0,   vM=1):   fraction 1.0
        eta[3, 1] = 0.9   # (vm=0.6, vM=1):   fraction 0.64
        eta[2, 0] = 0.9   # (vm=0,   vM=0.8): fraction 0.64
        g = EfficiencyGrid(levels, eta, GridMethod.MEASURED, False)
        pt = optimize_window(g, 0.2)
        assert (pt.window.vm_pu, pt.window.vM_pu) == (0.0, 1.0)  # largest fraction
        # dyadic levels make the two fractions exactly equal (both 9/64)
        levels2 = (0.0, 0.375, 0.5, 0.625)
        eta2 = np.full((4, 4), np.nan)
        eta2[1, 0] = 0.9  # (vm=0,   vM=0.375)
        eta2[3, 2] = 0.9  # (vm=0.5, vM=0.625)
        g2 = EfficiencyGrid(levels2, eta2, GridMethod.MEASURED, False)
        pt2 = optimize_window(g2, 0.1)
        assert pt2.window.vm_pu == 0.5  # equal fractions: larger vm wins

    def test_zero_resistance_ties_pick_the_rated_ceiling(self):
        # Every boundary window reads η = 1; their fractions differ only by
        # rounding, so the tie goes to the largest vm, which ends at vM = 1.
        obj = ClosedFormObjective(DeviceParams(c_main=10.0, r_series=0.0, v_rated=2.7), 1.0)
        for k in range(1, 101):
            pt = optimize_window(obj, k / 100)
            assert (pt.eta, pt.window.vM_pu) == (1.0, 1.0), k

    @pytest.mark.parametrize("device", ["10F", "50F", "100F"])
    def test_periodic_objective_picks_the_closed_form_window_when_ideal(self, device):
        # On an ideal device the orbit is the closed form, so both searches
        # see the same boundary and pick the same window.
        p, i = preset(device, ideal=True), TEST_CURRENTS[device]
        for f in (0.25, 0.5, 0.75, 1.0):
            orbit = optimize_window(PeriodicObjective(p, i), f)
            closed = optimize_window(ClosedFormObjective(p, i), f)
            assert orbit.window == closed.window, f
            assert orbit.energy_fraction == closed.energy_fraction
            assert orbit.eta == pytest.approx(closed.eta, rel=1e-14, abs=0)

    def test_periodic_objective_with_rests_picks_below_rated(self):
        # Rests drain a window's top, so the leaky 50F orbit trades vM for vm.
        pt = optimize_window(PeriodicObjective(preset("50F"), 3.95, rest=1800.0), 0.5)
        assert pt.window.vm_pu == pytest.approx(0.5519, abs=1e-4)
        assert pt.window.vM_pu == pytest.approx(0.8970, abs=1e-4)
        assert pt.eta == pytest.approx(0.88643, abs=1e-5)
        assert pt.energy_fraction == 0.5


class _StubObjective:
    """An objective whose ``etas`` reads each window's value from ``rule(vm, vM)``."""

    method = GridMethod.CLOSED_FORM
    with_rest = False

    def __init__(self, rule):
        self.rule = rule

    def etas(self, windows):
        return [self.rule(vm, vM) for vm, vM in windows]


class TestCellRule:
    """``build_grid`` and ``optimize_window`` read ``etas`` under one rule.

    The maps list their cells in row-major order, (0, 0.5) first; the
    search uses the boundary of fraction 0.2, whose windows go by
    increasing ``vM`` from sqrt(0.2) = 0.447 to 1.
    """

    @staticmethod
    def _slack_below_top(vm, vM):
        if vM > 0.95:
            return WindowTooNarrow(f"window ({vm}, {vM}) too narrow", min_window=1.0)
        if vM > 0.9:
            return LossesExceedDelivery(f"window ({vm}, {vM}) delivers nothing")
        return 1.0 + ETA_SLACK / 2

    def test_undefined_windows_skipped_and_slack_clamped(self):
        grid = build_grid(_StubObjective(self._slack_below_top), (0.0, 0.5, 0.92, 1.0))
        assert grid.eta[1, 0] == 1.0
        assert np.isnan(grid.eta[2:]).all()
        pt = optimize_window(_StubObjective(self._slack_below_top), 0.2)
        assert pt.eta == 1.0
        assert pt.window.vM_pu <= 0.9

    @pytest.mark.parametrize("first, later", [
        (DynamicsDiverged("diverged"), 1.5),
        (1.5, DynamicsDiverged("diverged")),
        (0.0, 0.9),
    ], ids=["error-first", "eta-first", "zero"])
    def test_first_failure_in_order_raised(self, first, later):
        def rule(vm, vM):
            if vM > 0.95:
                return WindowTooNarrow("narrow", min_window=1.0)  # skipped, never raised
            return first if vM < 0.6 else later

        raises = NumericError if isinstance(first, float) else DynamicsDiverged
        with pytest.raises(raises) as grid_info:
            build_grid(_StubObjective(rule), (0.0, 0.5, 1.0))
        with pytest.raises(raises) as search_info:
            optimize_window(_StubObjective(rule), 0.2)
        if raises is NumericError:
            assert str(grid_info.value) == (
                f"grid cell (0.0, 0.5) produced efficiency {first!r} outside (0, 1]")
            assert str(search_info.value).endswith(
                f") produced efficiency {first!r} outside (0, 1]")
        else:
            assert grid_info.value is first and search_info.value is first


# The regret of a model's pick: the measured η of the measured-best window
# minus the measured η at the window the model picks on the same 6-level
# grid, in percentage points, at energy floors 0.25, 0.5 and 0.75.  Both
# models run the presets at the test currents; table4's closed form uses
# table3's rest-voltage fit.  This records today's models; it is not a
# target, and a model change that moves it says so.
REGRET_PP = {
    ("table2", "orbit"): {"10F": (0, 0, 0), "50F": (0, 0, 0), "100F": (0, 0, 0)},
    ("table2", "closed_form"): {"10F": (0, 0, 0), "50F": (0, 0, 0), "100F": (0, 0, 0)},
    ("table4", "orbit"): {"10F": (4.9, 4.3, 0), "50F": (2.6, 2.6, 0), "100F": (2.2, 2.2, 0)},
    ("table4", "closed_form"): {"10F": (0, 0, 0), "50F": (0.3, 0, 0), "100F": (0.2, 0, 0)},
}


@pytest.mark.parametrize("table, model", sorted(REGRET_PP))
def test_model_pick_regret_record(table, model):
    rest = table == "table4"
    for device, expected in REGRET_PP[table, model].items():
        p, i = preset(device), TEST_CURRENTS[device]
        if model == "orbit":
            objective = PeriodicObjective(p, i, rest=1800.0 if rest else 0.0)
        else:
            fit = fit_self_discharge(load_rest_voltage_rows()) if rest else None
            objective = ClosedFormObjective(p, i, fit)
        grid = build_grid(objective, PU_LEVELS)
        measured = measured_grid(device, rest=rest)
        regret = []
        for f in (0.25, 0.5, 0.75):
            pick = optimize_window(grid, f).window
            at_pick = measured.value(pick.vm_pu, pick.vM_pu)
            regret.append(round((optimize_window(measured, f).eta - at_pick) * 100, 6))
        assert tuple(regret) == expected, device


class TestRenderMap:
    def test_writes_csv_and_svg(self, tmp_path):
        g = measured_grid("100F")
        csv_path, svg_path = render_map(g, tmp_path / "m100")
        assert csv_path.exists() and svg_path.exists()
        text = csv_path.read_text()
        first = text.splitlines()[0]
        assert first == "vmpu\\vMpu,0,0.25,0.5,0.7,0.9,1"
        assert "94.1" in svg_path.read_text()

    def test_undefined_cells_blank_in_csv(self, tmp_path):
        g = measured_grid("100F")
        csv_path, _ = render_map(g, tmp_path / "m")
        rows = csv_path.read_text().splitlines()
        # first data row is vM=0: no vm < 0 exists, so every cell is blank
        assert rows[1] == "0" + "," * len(PU_LEVELS)

    def test_byte_identical_outputs(self, tmp_path):
        g = measured_grid("50F", rest=True)
        c1, s1 = render_map(g, tmp_path / "a")
        c2, s2 = render_map(g, tmp_path / "b")
        assert c1.read_bytes() == c2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_suffix_stripped(self, tmp_path):
        g = measured_grid("10F")
        csv_path, svg_path = render_map(g, tmp_path / "out.svg")
        assert csv_path.name == "out.csv"
        assert svg_path.name == "out.svg"

    def test_too_small_grid_rejected(self, tmp_path):
        levels = (0.0, 1.0)
        eta = np.full((2, 2), np.nan)
        eta[1, 0] = 0.9  # a single defined cell
        g = EfficiencyGrid(levels, eta, GridMethod.MEASURED, False)
        with pytest.raises(ConfigError):
            render_map(g, tmp_path / "tiny")

    def test_percent_labels_with_one_decimal(self, tmp_path):
        g = measured_grid("100F")
        _, svg_path = render_map(g, tmp_path / "lab")
        body = svg_path.read_text()
        for cell in ("62.3", "89.1", "92.4"):
            assert cell in body

    def test_blank_cells_and_constant_grid_digests(self, tmp_path):
        # Both grids' outputs were pinned from the per-cell renderer; the
        # constant grid takes the ramp's span-1 fallback.
        eta = np.full((5, 5), np.nan)
        eta[2, 0], eta[2, 1], eta[3, 1] = 0.9025, 0.875, 0.93125
        eta[4, 0], eta[4, 2], eta[4, 3] = 0.95, 0.9875, 0.6
        blanks = EfficiencyGrid((0.0, 0.25, 0.5, 0.75, 1.0), eta, GridMethod.SIMULATED, True)
        constant = EfficiencyGrid((0.0, 0.3, 0.6, 0.9),
                                  np.where(np.tri(4, k=-1, dtype=bool), 0.97, np.nan),
                                  GridMethod.CLOSED_FORM, False)
        digests = {}
        for name, grid in (("blanks", blanks), ("constant", constant)):
            paths = render_map(grid, tmp_path / name)
            digests[name] = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
        assert digests == {
            "blanks": ("d0aee3f8359a170a35730ad78edb8657e079e1fa103ad2effc376a8836796043",
                       "3c374b6ee9e388e4baf7e8ff5a36caec2e2c017808d88c7ef2f2ea85e89cb772"),
            "constant": ("782bc2091c76b3779f99533dd7db6cb8b60740d84dea27d2ac3a3ff94630e275",
                         "05ff455a5a0c0481526a627aaa4520e20eefac7e2961171590fa80dc2d00c0c3"),
        }


def _ramp_reference(frac):
    """The scalar colour ramp: each channel ``round(a + (b - a) * u)``."""
    stops = ((215, 48, 39), (254, 224, 139), (26, 152, 80))
    if frac <= 0.5:
        a, b, u = stops[0], stops[1], frac / 0.5
    else:
        a, b, u = stops[1], stops[2], (frac - 0.5) / 0.5
    return "#{:02x}{:02x}{:02x}".format(*(round(x + (y - x) * u) for x, y in zip(a, b)))


def test_array_ramp_is_the_scalar_formula():
    legend = [(k + 0.5) / 24 for k in range(24)]
    fine = [k / 4096 for k in range(4097)]
    # a channel lands exactly on .5 at these: blue 51.5 and 76.5 in the
    # lower half, green 219.5 and 210.5 in the upper; round() takes the
    # even neighbour, up for the first of each pair and down for the second
    ties = [0.0625, 0.1875, 0.53125, 0.59375]
    fracs = [0.0, 0.5, 1.0, *legend, *fine, *ties]
    assert effmap._ramp_colors(np.array(fracs)) == [_ramp_reference(f) for f in fracs]
    assert [_ramp_reference(f) for f in ties] == ["#dc4634", "#e6724c", "#f0dc87", "#d3d280"]
