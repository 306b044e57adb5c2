"""Trace analyzer: segmentation, energy bookkeeping, and identification."""

import json
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capcycle import (
    AcquisitionConfig,
    AnalysisReport,
    ConfigError,
    CycleMetrics,
    CycleSpec,
    DeviceParams,
    InsufficientData,
    MalformedProtocol,
    NoCyclesFound,
    NoJumpFound,
    Phase,
    Redistribution,
    Segment,
    Trace,
    TraceParseError,
    analyze_trace,
    cycle_metrics,
    detect_steady,
    efficiency_no_rest,
    identify_capacitance,
    identify_resistance,
    read_trace_csv,
    run_protocol,
    segment,
    write_trace_csv,
)
from capcycle import analyzer
from capcycle.analyzer import _complete_cycles, _integrate

DEV = DeviceParams(c_main=10.0, r_series=0.0922, v_rated=2.7)
SPEC_RESTS = CycleSpec(
    i_c=0.4, v_min=0.5, v_max=2.5,
    rest_after_charge=20.0, rest_after_discharge=20.0, max_cycles=3,
)

TWO_BRANCH = DeviceParams(
    c_main=52.0,
    r_series=0.0088,
    v_rated=2.7,
    redistribution=Redistribution(c_branch=5.2, r_branch=4.0),
    r_leak=9000.0,
)


@pytest.fixture(scope="module")
def rest_trace():
    return run_protocol(DEV, SPEC_RESTS)


@pytest.fixture(scope="module")
def rest_segments(rest_trace):
    return segment(rest_trace)


def _mk_trace(t, v, i, sp):
    return Trace(
        t=np.asarray(t, float), v=np.asarray(v, float), i=np.asarray(i, float),
        sample_period=sp,
    )


def _fancy_index_integrals(trace, seg):
    """Segment energy, charge and sum(i^2)*dt summed over an index array."""
    k = np.arange(max(seg.first_index, 1), seg.last_index + 1)
    if k.size == 0:
        return 0.0, 0.0, 0.0
    dt = trace.sample_period
    v, i = trace.v, trace.i
    return (
        float(np.sum((v[k - 1] + v[k]) * 0.5 * i[k]) * dt),
        float(np.sum(np.abs(i[k])) * dt),
        float(np.sum(i[k] ** 2) * dt),
    )


def _restarting_merge_oracle(labels, dt, min_segment):
    """Reference merge: relabel the first short run, coalesce, start over."""
    change = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change - 1, [labels.size - 1]))
    runs = [(int(labels[a]), int(a), int(b)) for a, b in zip(starts, ends)]

    def coalesce(rs):
        out = [rs[0]]
        for lab, a, b in rs[1:]:
            plab, pa, pb = out[-1]
            if lab == plab:
                out[-1] = (plab, pa, b)
            else:
                out.append((lab, a, b))
        return out

    while len(runs) > 1:
        for j, (lab, a, b) in enumerate(runs):
            if (b - a + 1) * dt < min_segment - 1e-12:
                donor = runs[j - 1][0] if j > 0 else runs[j + 1][0]
                runs[j] = (donor, a, b)
                runs = coalesce(runs)
                break
        else:
            break
    return runs


def _named_runs(runs):
    """Reference naming of ``(label, first, last)`` runs as ``(kind, first, last)``.

    A rest is high after a charge and low after a discharge, searching back
    for the nearest active run; a rest before any active run counts as
    following the opposite of the first one after it.
    """
    named = []
    for j, (lab, a, b) in enumerate(runs):
        before = [k for k, _, _ in runs[:j] if k]
        after = [k for k, _, _ in runs[j + 1:] if k]
        if lab:
            kind = Phase.CHARGE if lab == 1 else Phase.DISCHARGE
        elif before:
            kind = Phase.REST_HIGH if before[-1] == 1 else Phase.REST_LOW
        else:
            kind = Phase.REST_LOW if after[0] == 1 else Phase.REST_HIGH
        named.append((kind, a, b))
    return named


_label_runs = st.lists(
    st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 40)), min_size=1, max_size=40
)


class TestSegmentation:
    def test_matches_simulator_boundaries_within_one_sample(self, rest_trace, rest_segments):
        ref = rest_trace.meta["boundaries"]
        assert len(rest_segments) == len(ref)
        sp = rest_trace.sample_period
        for got, exp in zip(rest_segments, ref):
            assert got.kind.value == exp.phase
            assert abs(got.t_start - exp.t_start) <= sp + 1e-9
            assert abs(got.t_end - exp.t_end) <= sp + 1e-9

    def test_segment_kinds_alternate_active_rest(self, rest_segments):
        kinds = [s.kind for s in rest_segments]
        assert kinds[:4] == [Phase.CHARGE, Phase.REST_HIGH, Phase.DISCHARGE, Phase.REST_LOW]

    def test_short_glitch_merged_into_neighbour(self):
        sp = 0.1
        n = 400
        i = np.concatenate([np.full(200, 1.0), np.full(200, -1.0)])
        i[100] = 0.0  # single dropped sample inside the charge phase
        v = np.cumsum(i) * sp / 10.0 + 1.0
        t = np.arange(1, n + 1) * sp
        segs = segment(_mk_trace(t, v, i, sp), min_segment=1.0)
        assert [s.kind for s in segs] == [Phase.CHARGE, Phase.DISCHARGE]

    def test_min_segment_zero_keeps_short_rests(self):
        sp = 0.1
        i = np.concatenate(
            [np.full(200, 1.0), [0.0], np.full(200, -1.0), [0.0]]
        )
        v = np.cumsum(i) * sp / 10.0 + 1.0
        t = np.arange(1, i.size + 1) * sp
        tr = _mk_trace(t, v, i, sp)
        kinds0 = [s.kind for s in segment(tr, min_segment=0.0)]
        assert kinds0 == [Phase.CHARGE, Phase.REST_HIGH, Phase.DISCHARGE, Phase.REST_LOW]
        kinds1 = [s.kind for s in segment(tr, min_segment=1.0)]
        assert kinds1 == [Phase.CHARGE, Phase.DISCHARGE]

    def test_glitch_split_surfaces_when_filter_disabled(self):
        sp = 0.1
        i = np.concatenate([np.full(200, 1.0), np.full(200, -1.0)])
        i[100] = 0.0  # same glitch as above, but no merge floor
        v = np.cumsum(i) * sp / 10.0 + 1.0
        t = np.arange(1, i.size + 1) * sp
        with pytest.raises(MalformedProtocol):
            segment(_mk_trace(t, v, i, sp), min_segment=0.0)

    @settings(max_examples=300, deadline=None)
    @given(runs=_label_runs, min_segment=st.sampled_from([0.0, 0.3, 1.0, 2.5, 100.0]))
    @example(runs=[(1, 3), (0, 2), (-1, 30), (0, 30), (1, 30)], min_segment=1.0)
    @example(runs=[(1, 2), (0, 3), (-1, 4), (0, 1)], min_segment=1.0)
    # leading rests before a charge (low) and before a discharge (high)
    @example(runs=[(0, 20), (1, 30), (0, 20), (-1, 30), (0, 20)], min_segment=1.0)
    @example(runs=[(0, 20), (-1, 30), (0, 20), (1, 30), (0, 20)], min_segment=1.0)
    def test_single_pass_merge_matches_restarting_oracle(self, runs, min_segment):
        sp = 0.1
        labels = np.repeat([lab for lab, _ in runs], [n for _, n in runs]).astype(np.int8)
        i = labels.astype(float)
        t = np.arange(1, i.size + 1) * sp
        tr = _mk_trace(t, np.ones_like(i), i, sp)
        expected = _restarting_merge_oracle(labels, sp, min_segment)
        actives = [lab for lab, _, _ in expected if lab != 0]
        try:
            segs = segment(tr, min_segment=min_segment)
        except NoCyclesFound:
            assert not actives
            return
        except MalformedProtocol:
            assert any(x == y for x, y in zip(actives, actives[1:]))
            return
        assert [(s.kind, s.first_index, s.last_index) for s in segs] == _named_runs(expected)

    def test_no_active_samples_raises(self):
        sp = 0.1
        n = 50
        t = np.arange(1, n + 1) * sp
        with pytest.raises(NoCyclesFound):
            segment(_mk_trace(t, np.full(n, 1.0), np.zeros(n), sp))

    def test_consecutive_same_kind_actives_malformed(self):
        sp = 0.1
        i = np.concatenate([np.full(100, 1.0), np.zeros(2000), np.full(100, 1.0)])
        v = np.cumsum(i) * sp / 10.0 + 0.5
        t = np.arange(1, i.size + 1) * sp
        with pytest.raises(MalformedProtocol) as exc:
            segment(_mk_trace(t, v, i, sp))
        assert exc.value.boundary_index is not None


class TestEnergyBookkeeping:
    def test_lossless_device_unit_efficiency(self):
        d = DeviceParams(c_main=10.0, r_series=0.0, v_rated=2.7)
        tr = run_protocol(d, CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5, max_cycles=4))
        rep = analyze_trace(tr)
        # cycle 1 misses the unobservable pre-trace interval; every later
        # cycle telescopes exactly
        for m in rep.steady.per_cycle[1:]:
            assert m.eta == pytest.approx(1.0, abs=1e-9)
        assert rep.steady.per_cycle[0].eta == pytest.approx(1.0, abs=1e-3)

    def test_eta_matches_closed_form_within_0p2_points(self, rest_trace):
        rep = analyze_trace(rest_trace)
        eta_cf = efficiency_no_rest(DEV, SPEC_RESTS)
        assert abs(rep.steady.mean.eta - eta_cf) < 0.002

    def test_loss_breakdown_balances_exactly(self, rest_trace):
        rep = analyze_trace(rest_trace)
        for m in rep.steady.per_cycle:
            total = m.loss_charge + m.loss_rest + m.loss_discharge
            assert total == pytest.approx(m.e_in - m.e_out, abs=1e-6)

    def test_rest_loss_rule_follows_capacitance_estimate(self, rest_trace, rest_segments):
        # With a capacitance estimate rest losses are the stored-energy drop;
        # without one, they are the rests' share of the cycle's duration.
        rests = [s for s in rest_segments[:4] if s.kind in (Phase.REST_HIGH, Phase.REST_LOW)]
        assert len(rests) == 2
        cycles = _complete_cycles(rest_trace, rest_segments)[0]
        sp = rest_trace.sample_period
        stored = cycle_metrics(cycles, sp, c_est=10.0)[0]
        drop = sum(0.5 * 10.0 * (s.v_start**2 - s.v_end**2) for s in rests)
        assert stored.loss_rest == pytest.approx(drop, abs=1e-12)
        timed = cycle_metrics(cycles, sp)[0]
        t_rest = sum(s.last_index - s.first_index + 1 for s in rests) * rest_trace.sample_period
        share = t_rest / (timed.t_charge + timed.t_discharge + t_rest)
        assert timed.loss_rest == pytest.approx((timed.e_in - timed.e_out) * share)
        # Either way the rest of the loss is split by sum(i^2)*dt.  Cycle 1's
        # charge starts at sample 0, which carries no interval, so its
        # dissipation share differs from its duration share.
        w_c, w_d = (
            _fancy_index_integrals(rest_trace, s)[2] for s in rest_segments[0:3:2]
        )
        split = timed.loss_charge / (timed.loss_charge + timed.loss_discharge)
        assert split == pytest.approx(w_c / (w_c + w_d), rel=1e-12)
        no_rest = run_protocol(DEV, CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5, max_cycles=2))
        segs = segment(no_rest)
        first = cycle_metrics(_complete_cycles(no_rest, segs)[0], no_rest.sample_period)[0]
        assert first.loss_rest == 0.0
        w_c, w_d = (_fancy_index_integrals(no_rest, s)[2] for s in segs[:2])
        share = first.loss_charge / (first.e_in - first.e_out)
        assert share == pytest.approx(w_c / (w_c + w_d), rel=1e-12)

    def test_losses_nonnegative_for_single_branch(self, rest_trace):
        rep = analyze_trace(rest_trace)
        for m in rep.steady.per_cycle:
            assert m.loss_charge >= 0
            assert m.loss_discharge >= 0

    def test_rest_voltages_near_zero_for_single_branch(self, rest_trace):
        rep = analyze_trace(rest_trace)
        m = rep.steady.mean
        assert abs(m.v_sd) < 1e-6
        assert abs(m.v_sc) < 1e-6

    def test_two_branch_rest_voltages_positive(self):
        spec = CycleSpec(
            i_c=3.95, v_min=0.0, v_max=2.7,
            rest_after_charge=600.0, rest_after_discharge=600.0, max_cycles=4,
        )
        tr = run_protocol(TWO_BRANCH, spec)
        rep = analyze_trace(tr)
        assert rep.steady.mean.v_sd > 0.005
        assert rep.steady.mean.v_sc > 0.005

    def test_charge_in_coulombs(self, rest_trace):
        rep = analyze_trace(rest_trace)
        m = rep.steady.per_cycle[1]  # cycle 1 lacks the pre-trace interval
        # 0.4 A for ~48 s, within a couple of sample periods' worth of charge
        assert m.q_in == pytest.approx(0.4 * 48.156, abs=2 * 0.4 * rest_trace.sample_period)
        assert m.q_in == pytest.approx(m.q_out, rel=1e-9)

    def test_eta_stable_across_sampling_rates(self):
        etas = []
        for sp in (0.1, 0.5):
            tr = run_protocol(DEV, SPEC_RESTS, AcquisitionConfig(sample_period=sp))
            etas.append(analyze_trace(tr).steady.mean.eta)
        assert abs(etas[0] - etas[1]) < 0.0005  # < 0.05 percentage points


def _metrics(cycle, q_in, q_out):
    return CycleMetrics(
        cycle_index=cycle, q_in=q_in, q_out=q_out, e_in=10.0, e_out=9.0,
        t_charge=48.0, t_discharge=48.0, v_sd=0.0, v_sc=0.0, eta=0.9,
        loss_charge=0.5, loss_rest=0.0, loss_discharge=0.5,
    )


@st.composite
def _trace_and_segment(draw):
    n = draw(st.integers(1, 300))
    values = arrays(np.float64, n, elements=st.floats(-1e3, 1e3))
    v, i = draw(values), draw(values)
    first = draw(st.just(0) | st.integers(0, n - 1))
    last = draw(st.just(first) | st.integers(first, n - 1))
    sp = draw(st.sampled_from([0.001, 0.1, 0.3, 1.0]))
    trace = _mk_trace(np.arange(1, n + 1) * sp, v, i, sp)
    seg = Segment(Phase.CHARGE, first, last, v[first], v[last], trace.t[first],
                  trace.t[last])
    return trace, seg


@settings(max_examples=200, deadline=None)
@given(case=_trace_and_segment())
def test_integrate_matches_fancy_index_sums_bit_for_bit(case):
    trace, seg = case
    assert _integrate(trace, seg) == _fancy_index_integrals(trace, seg)


class TestSteadyDetection:
    def test_imbalance_sequence_steadies_at_four(self):
        ratios = [0.90, 0.95, 0.985, 0.995, 0.999]
        per = [_metrics(c + 1, 1.0, r) for c, r in enumerate(ratios)]
        rep = detect_steady(per, tol=0.01)
        assert rep.steady_from_cycle == 4
        assert rep.window == (4, 5)  # only steady cycles enter the window
        assert rep.window_rule == "last-steady-cycles"
        assert not rep.never_steady

    def test_window_17_20_when_long(self):
        per = [_metrics(c + 1, 1.0, 1.0) for c in range(25)]
        rep = detect_steady(per)
        assert rep.window == (17, 20)
        assert rep.window_rule == "cycles-17-20"

    def test_never_steady_flagged(self):
        per = [_metrics(c + 1, 1.0, 0.5) for c in range(6)]
        rep = detect_steady(per, tol=0.01)
        assert rep.never_steady
        assert rep.steady_from_cycle is None
        assert rep.window == (3, 6)
        assert rep.window_rule == "never-steady-fallback"

    def test_relapse_resets_steady_from(self):
        # cycle 3 briefly balances but cycle 4 relapses: steady starts at 5
        ratios = [0.5, 0.6, 0.999, 0.9, 0.995, 0.999]
        per = [_metrics(c + 1, 1.0, r) for c, r in enumerate(ratios)]
        rep = detect_steady(per, tol=0.01)
        assert rep.steady_from_cycle == 5

    def test_mean_is_arithmetic_over_window(self):
        per = [_metrics(1, 1.0, 1.0), _metrics(2, 3.0, 3.0)]
        rep = detect_steady(per)
        assert rep.mean.q_in == pytest.approx(2.0)

    def test_too_few_cycles(self):
        with pytest.raises(InsufficientData):
            detect_steady([])

    def test_bad_tolerance(self):
        per = [_metrics(1, 1.0, 1.0), _metrics(2, 1.0, 1.0)]
        with pytest.raises(ConfigError):
            detect_steady(per, tol=0.0)


class TestIdentification:
    def test_resistance_within_two_percent(self, rest_trace, rest_segments):
        est = identify_resistance(rest_trace, rest_segments)
        assert est.value == pytest.approx(DEV.r_series, rel=0.02)
        assert est.n >= 2

    def test_capacitance_within_one_percent(self, rest_trace, rest_segments):
        est = identify_capacitance(rest_trace, rest_segments)
        assert est.value == pytest.approx(DEV.c_main, rel=0.01)

    def test_quantized_trace_still_identifies(self):
        tr = run_protocol(DEV, SPEC_RESTS, AcquisitionConfig(quantize=True))
        segs = segment(tr)
        r = identify_resistance(tr, segs)
        c = identify_capacitance(tr, segs)
        assert r.value == pytest.approx(DEV.r_series, rel=0.02)
        assert c.value == pytest.approx(DEV.c_main, rel=0.01)

    def test_no_rest_phases_no_jump(self):
        tr = run_protocol(DEV, CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5))
        segs = segment(tr)
        with pytest.raises(NoJumpFound):
            identify_resistance(tr, segs)

    def test_capacitance_needs_long_enough_segments(self):
        sp = 0.1
        i = np.concatenate([np.full(5, 1.0), np.zeros(40), np.full(5, -1.0), np.zeros(40)])
        v = 1.0 + np.cumsum(i) * sp / 10.0
        t = np.arange(1, i.size + 1) * sp
        segs = segment(_mk_trace(t, v, i, sp), min_segment=0.0)
        with pytest.raises(InsufficientData):
            identify_capacitance(_mk_trace(t, v, i, sp), segs)


class TestAnalyzeTrace:
    def test_report_roundtrips_to_json(self, rest_trace):
        rep = analyze_trace(rest_trace)
        blob = rep.to_json()
        doc = json.loads(blob)
        assert doc["schema_version"] == 1
        assert doc["steady"]["mean"]["eta"] == pytest.approx(rep.steady.mean.eta)
        ident = doc["identification"]
        assert ident["r_series_ohm"]["value"] == pytest.approx(rep.r_series.value)
        assert ident["c_main_F"]["value"] == pytest.approx(rep.c_main.value)
        assert doc["n_samples"] == rest_trace.t.size
        assert blob.endswith("\n")

    def test_identification_failure_downgrades_to_warning(self):
        tr = run_protocol(DEV, CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5, max_cycles=2))
        rep = analyze_trace(tr)
        assert rep.r_series is None
        assert any("resistance" in w for w in rep.warnings)

    def test_cycle_without_discharge_dropped_with_warning(self, rest_trace):
        # chop the trace inside the final cycle's high rest, before its
        # discharge begins
        b = rest_trace.meta["boundaries"][-3]
        sp = rest_trace.sample_period
        cut = int(round(b.t_start / sp)) + 30
        tr = _mk_trace(rest_trace.t[:cut], rest_trace.v[:cut], rest_trace.i[:cut], sp)
        rep = analyze_trace(tr)
        assert len(rep.steady.per_cycle) == 2
        assert any("discharge" in w for w in rep.warnings)

    def test_each_warning_logged_once(self, rest_trace, caplog):
        # the cycles are grouped once; the warning must not log twice
        b = rest_trace.meta["boundaries"][-3]
        sp = rest_trace.sample_period
        cut = int(round(b.t_start / sp)) + 30
        tr = _mk_trace(rest_trace.t[:cut], rest_trace.v[:cut], rest_trace.i[:cut], sp)
        with caplog.at_level(logging.WARNING, logger="capcycle.analyzer"):
            rep = analyze_trace(tr)
        logged = [r.getMessage() for r in caplog.records]
        assert len(logged) == 1
        assert "no discharge phase" in logged[0]
        assert logged[0] in rep.warnings

    def test_integrates_each_active_segment_of_complete_cycles_once(
        self, rest_trace, monkeypatch
    ):
        # cut inside the last cycle's high rest: its charge has no discharge
        b = rest_trace.meta["boundaries"][-3]
        sp = rest_trace.sample_period
        cut = int(round(b.t_start / sp)) + 30
        tr = _mk_trace(rest_trace.t[:cut], rest_trace.v[:cut], rest_trace.i[:cut], sp)
        integrate, calls = analyzer._integrate, []

        def counted(trace, seg):
            calls.append(seg)
            return integrate(trace, seg)

        monkeypatch.setattr(analyzer, "_integrate", counted)
        rep = analyze_trace(tr)
        active = [s for s in rep.segments if s.kind in (Phase.CHARGE, Phase.DISCHARGE)]
        assert len(active) == 5
        assert calls == active[:4]

    def test_no_complete_cycle_raises(self):
        sp = 0.1
        i = np.full(100, 1.0)
        v = 0.5 + np.cumsum(i) * sp / 10.0
        t = np.arange(1, i.size + 1) * sp
        with pytest.raises(NoCyclesFound):
            analyze_trace(_mk_trace(t, v, i, sp))


class TestTraceCsv:
    def test_roundtrip_byte_exact(self, rest_trace, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trace_csv(rest_trace, p1)
        tr2 = read_trace_csv(p1)
        write_trace_csv(tr2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert tr2.sample_period == pytest.approx(rest_trace.sample_period)

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_s,v_V,i_A\n0.1,0.5,0.4\n0.2,oops,0.4\n")
        with pytest.raises(TraceParseError) as exc:
            read_trace_csv(p)
        assert "line 3" in str(exc.value)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,volts,amps\n0.1,0.5,0.4\n")
        with pytest.raises(TraceParseError) as exc:
            read_trace_csv(p)
        assert "line 1" in str(exc.value)

    def test_nonuniform_sampling_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t_s,v_V,i_A\n0.1,0.5,0.4\n0.2,0.6,0.4\n0.45,0.7,0.4\n")
        with pytest.raises(TraceParseError):
            read_trace_csv(p)
