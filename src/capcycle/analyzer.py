"""Trace analysis: segmentation, per-cycle metrics, steady state, identification.

One pipeline, :func:`analyze_trace`, turns a trace into a report: it
segments the trace, integrates each complete cycle once, identifies the
series resistance and capacitance on the steady cycles, splits each cycle's
loss and averages the steady window.

Integration convention: the interval between consecutive samples belongs to
the segment of its **right** endpoint, because each sample carries the current
of the step that ends on it.  Segment energy is then
``sum (v[k-1]+v[k])/2 * i[k] * dt`` (trapezoidal in voltage, exact for
piecewise-constant current), charge is ``sum |i[k]| * dt`` and the
resistive-dissipation weight is ``sum i[k]^2 * dt``.  Slicing the
trapezoids strictly inside each segment instead would drop one boundary
interval per phase and bias the recovered efficiency by several tenths of a
percentage point at a 0.1 s sample period.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigError,
    InsufficientData,
    MalformedProtocol,
    NoCyclesFound,
    NoJumpFound,
    NumericError,
)
from .simulator import Phase
from .trace import Trace

logger = logging.getLogger(__name__)

ETA_SLACK = 1e-9
"""Relative rounding by which a reported energy out may exceed the energy in."""

_ACTIVE = (Phase.CHARGE, Phase.DISCHARGE)
_RESTS = (Phase.REST_HIGH, Phase.REST_LOW)


@dataclass(frozen=True)
class Segment:
    """One protocol phase located in the trace (boundary voltages included)."""

    kind: Phase
    first_index: int
    last_index: int
    v_start: float
    v_end: float
    t_start: float
    t_end: float


@dataclass(frozen=True)
class CycleMetrics:
    cycle_index: int
    q_in: float
    q_out: float
    e_in: float
    e_out: float
    t_charge: float
    t_discharge: float
    v_sd: float
    v_sc: float
    eta: float
    loss_charge: float
    loss_rest: float
    loss_discharge: float


@dataclass(frozen=True)
class Estimate:
    """An identified parameter with spread over its individual estimates."""

    value: float
    stdev: float
    n: int


def _estimate(values: list[float]) -> Estimate:
    arr = np.array(values)
    return Estimate(value=float(arr.mean()), stdev=float(arr.std()), n=arr.size)


@dataclass(frozen=True)
class SteadyReport:
    steady_from_cycle: int | None
    window: tuple[int, int]
    window_rule: str
    mean: CycleMetrics
    per_cycle: list[CycleMetrics]
    never_steady: bool


@dataclass
class AnalysisReport:
    """Full result of :func:`analyze_trace`, serializable to JSON."""

    segments: list[Segment]
    steady: SteadyReport
    r_series: Estimate | None
    c_main: Estimate | None
    sample_period: float
    n_samples: int
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        def est(e: Estimate | None):
            if e is None:
                return None
            return {"value": e.value, "stdev": e.stdev, "n": e.n}

        def metrics(m: CycleMetrics) -> dict:
            return {
                "cycle_index": m.cycle_index,
                "q_in_C": m.q_in,
                "q_out_C": m.q_out,
                "e_in_J": m.e_in,
                "e_out_J": m.e_out,
                "t_charge_s": m.t_charge,
                "t_discharge_s": m.t_discharge,
                "v_sd_V": m.v_sd,
                "v_sc_V": m.v_sc,
                "eta": m.eta,
                "loss_charge_J": m.loss_charge,
                "loss_rest_J": m.loss_rest,
                "loss_discharge_J": m.loss_discharge,
            }

        return {
            "schema_version": 1,
            "n_samples": self.n_samples,
            "sample_period_s": self.sample_period,
            "segments": [
                {
                    "kind": s.kind.value,
                    "first_index": s.first_index,
                    "last_index": s.last_index,
                    "t_start_s": s.t_start,
                    "t_end_s": s.t_end,
                    "v_start_V": s.v_start,
                    "v_end_V": s.v_end,
                }
                for s in self.segments
            ],
            "cycles": [metrics(m) for m in self.steady.per_cycle],
            "steady": {
                "steady_from_cycle": self.steady.steady_from_cycle,
                "window_first": self.steady.window[0],
                "window_last": self.steady.window[1],
                "window_rule": self.steady.window_rule,
                "never_steady": self.steady.never_steady,
                "mean": metrics(self.steady.mean),
            },
            "identification": {
                "r_series_ohm": est(self.r_series),
                "c_main_F": est(self.c_main),
            },
            "warnings": list(self.warnings),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def segment(
    trace: Trace, i_threshold_frac: float = 0.05, min_segment: float = 1.0
) -> list[Segment]:
    """Split the trace into charge/rest/discharge segments by current threshold.

    Samples whose |current| exceeds ``i_threshold_frac`` of the trace maximum
    are active (sign decides charge vs discharge); the rest are rests, labeled
    high or low by the active phase before them.  Runs shorter than
    ``min_segment`` seconds are merged into their predecessor (successor for a
    run at the very start), which absorbs acquisition glitches.
    """
    if not 0 < i_threshold_frac < 0.5:
        raise ConfigError(
            f"i_threshold_frac must lie in (0, 0.5), got {i_threshold_frac}"
        )
    if min_segment < 0:
        raise ConfigError(f"min_segment must be >= 0, got {min_segment}")
    i = trace.i
    t = trace.t
    i_max = float(np.max(np.abs(i))) if i.size else 0.0
    if i_max == 0.0:
        raise NoCyclesFound("no active samples: the current is identically zero")
    thr = i_threshold_frac * i_max
    labels = np.zeros(i.size, dtype=np.int8)
    labels[i > thr] = 1
    labels[i < -thr] = -1

    # Runs of identical labels as (label, first, last) with inclusive indices.
    change = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change - 1, [labels.size - 1]))
    runs: list[tuple[int, int, int]] = list(
        zip(labels[starts].tolist(), starts.tolist(), ends.tolist())
    )

    # One left-to-right pass.  Every run already kept is long, except
    # possibly a short leading run, which takes its successor's label and
    # grows until it is long; any other short run joins its predecessor, and
    # so does a run that such a merge left next to one of its own label.
    dt = trace.sample_period

    def short(a: int, b: int) -> bool:
        return (b - a + 1) * dt < min_segment - 1e-12

    merged = [list(runs[0])]
    for lab, a, b in runs[1:]:
        last = merged[-1]
        if len(merged) == 1 and short(last[1], last[2]):
            last[0], last[2] = lab, b
        elif lab == last[0] or short(a, b):
            last[2] = b
        else:
            merged.append([lab, a, b])
    runs = [(lab, a, b) for lab, a, b in merged]

    first = next((lab for lab, _, _ in runs if lab), 0)
    if not first:
        raise NoCyclesFound(
            "no active samples survive thresholding and minimum-duration merging"
        )

    # A rest is high after a charge and low after a discharge; one before
    # any active phase counts as following the opposite of the first.
    last = -first  # the last active label
    kinds: list[Phase] = []
    for lab, a, _ in runs:
        if not lab:
            kinds.append(Phase.REST_HIGH if last == 1 else Phase.REST_LOW)
            continue
        kinds.append(Phase.CHARGE if lab == 1 else Phase.DISCHARGE)
        if lab == last:
            raise MalformedProtocol(
                f"consecutive {kinds[-1].value} phases without the opposite phase between",
                boundary_index=a,
            )
        last = lab

    v = trace.v
    return [
        Segment(
            kind=kind,
            first_index=a,
            last_index=b,
            v_start=float(v[a]),
            v_end=float(v[b]),
            t_start=float(t[a]),
            t_end=float(t[b]),
        )
        for kind, (_, a, b) in zip(kinds, runs)
    ]


def _integrate(trace: Trace, seg: Segment) -> tuple[float, float, float]:
    """(signed energy, unsigned charge, dissipation weight) of one segment."""
    a, b = max(seg.first_index, 1), seg.last_index + 1
    dt = trace.sample_period
    v, i = trace.v, trace.i[a:b]
    energy = float(np.sum((v[a - 1 : b - 1] + v[a:b]) * 0.5 * i) * dt)
    charge = float(np.sum(np.abs(i)) * dt)
    return energy, charge, float(np.sum(i**2) * dt)


@dataclass(frozen=True)
class IntegratedCycle:
    """One complete cycle: its segments and its active phases' integrals.

    ``w_charge`` and ``w_discharge`` are the phases' dissipation weights
    ``sum i^2 * dt``; ``e_out`` is the energy the discharge delivers.
    """

    charge: Segment
    rest_high: Segment | None
    discharge: Segment
    rest_low: Segment | None
    e_in: float
    q_in: float
    w_charge: float
    e_out: float
    q_out: float
    w_discharge: float


def _complete_cycles(trace: Trace, segments: list[Segment]) -> tuple[list[IntegratedCycle], list[str]]:
    """The complete cycles (those with a discharge), their active phases integrated
    once, and a logged warning for each thing dropped; a cycle that takes in
    no energy raises :class:`NumericError`."""
    grouped: list[dict[Phase, Segment]] = []
    leading = 0
    for seg in segments:
        if seg.kind is Phase.CHARGE:
            grouped.append({seg.kind: seg})
        elif not grouped:
            leading += 1
        else:
            grouped[-1][seg.kind] = seg
    warnings = [
        f"cycle starting at t={c[Phase.CHARGE].t_start:g}s has no discharge phase; "
        "excluded"
        for c in grouped
        if Phase.DISCHARGE not in c
    ]
    if leading:
        warnings.append(f"{leading} segment(s) before the first charge phase ignored")
    for w in warnings:
        logger.warning(w)
    cycles = []
    for n, cyc in enumerate((c for c in grouped if Phase.DISCHARGE in c), start=1):
        charge, discharge = cyc[Phase.CHARGE], cyc[Phase.DISCHARGE]
        e_in, q_in, w_c = _integrate(trace, charge)
        e_dis, q_out, w_d = _integrate(trace, discharge)
        if not (e_in > 0 and w_c + w_d > 0):
            raise NumericError(
                f"cycle {n} (t={charge.t_start:g}s): energy in {e_in!r} J and "
                f"sum(i^2)*dt {w_c + w_d!r} A^2*s must be positive"
            )
        cycles.append(IntegratedCycle(
            charge, cyc.get(Phase.REST_HIGH), discharge, cyc.get(Phase.REST_LOW),
            e_in, q_in, w_c, -e_dis, q_out, w_d,
        ))
    return cycles, warnings


def cycle_metrics(
    cycles: list[IntegratedCycle], sample_period: float, c_est: float | None = None
) -> list[CycleMetrics]:
    """Per-cycle charges, energies, rest voltages, efficiency, loss breakdown.

    The loss split is balance-exact by construction: rest losses are the
    stored-energy drop ``0.5*C*(v_start^2 - v_end^2)`` given a capacitance
    estimate, else the rests' share of the cycle's duration; charge and
    discharge split the rest of ``e_in - e_out`` by dissipation weight.
    """
    out: list[CycleMetrics] = []
    dt = sample_period
    for n, cyc in enumerate(cycles, start=1):
        w_c, w_d = cyc.w_charge, cyc.w_discharge
        t_charge = (cyc.charge.last_index - cyc.charge.first_index + 1) * dt
        t_discharge = (cyc.discharge.last_index - cyc.discharge.first_index + 1) * dt
        v_sd = cyc.rest_high.v_start - cyc.rest_high.v_end if cyc.rest_high else 0.0
        v_sc = cyc.rest_low.v_end - cyc.rest_low.v_start if cyc.rest_low else 0.0

        total_loss = cyc.e_in - cyc.e_out
        rests = [s for s in (cyc.rest_high, cyc.rest_low) if s is not None]
        if rests and c_est is None:
            t_rest = sum((s.last_index - s.first_index + 1) * dt for s in rests)
            loss_rest = total_loss * t_rest / (t_charge + t_discharge + t_rest)
        else:
            loss_rest = sum(
                (0.5 * c_est * (s.v_start**2 - s.v_end**2) for s in rests), 0.0
            )
        remainder = total_loss - loss_rest
        loss_charge = remainder * w_c / (w_c + w_d)

        out.append(
            CycleMetrics(
                cycle_index=n,
                q_in=cyc.q_in,
                q_out=cyc.q_out,
                e_in=cyc.e_in,
                e_out=cyc.e_out,
                t_charge=t_charge,
                t_discharge=t_discharge,
                v_sd=v_sd,
                v_sc=v_sc,
                eta=cyc.e_out / cyc.e_in,
                loss_charge=loss_charge,
                loss_rest=loss_rest,
                loss_discharge=remainder - loss_charge,
            )
        )
    return out


def steady_window(
    charges: list[tuple[float, float]], tol: float = 0.01
) -> tuple[int | None, tuple[int, int], str]:
    """Steady-from cycle, averaging window and the window rule's name.

    ``charges`` holds each cycle's ``(q_in, q_out)``; the rules are those of
    :func:`detect_steady`.  This is the one judge of steady state.
    """
    if not 0 < tol < 1:
        raise ConfigError(f"tol must lie in (0, 1), got {tol}")
    n = len(charges)
    steady_from = None
    for c in range(n, 0, -1):
        q_in, q_out = charges[c - 1]
        if not (q_in > 0 and abs(q_in - q_out) / q_in < tol):
            break
        steady_from = c
    if n >= 20:
        return steady_from, (17, 20), "cycles-17-20"
    if steady_from is not None:
        return steady_from, (max(steady_from, n - 3), n), "last-steady-cycles"
    return steady_from, (max(1, n - 3), n), "never-steady-fallback"


def detect_steady(per_cycle: list[CycleMetrics], tol: float = 0.01) -> SteadyReport:
    """Locate the steady regime and average the reporting window.

    Steady-from is the first cycle whose charge imbalance ``|q_in-q_out|/q_in``
    stays below ``tol`` for it and every later cycle.  The averaging window is
    cycles 17-20 whenever at least 20 cycles exist (the campaign convention),
    otherwise the last up-to-4 steady cycles; a never-steady trace falls back
    to the last 4 cycles and is flagged.
    """
    n = len(per_cycle)
    if n == 0:
        raise InsufficientData("steady detection needs at least 1 cycle, got 0")
    charges = [(m.q_in, m.q_out) for m in per_cycle]
    steady_from, window, rule = steady_window(charges, tol)

    sel = per_cycle[window[0] - 1 : window[1]]
    mean = CycleMetrics(
        cycle_index=0,
        **{
            f.name: float(np.mean([getattr(m, f.name) for m in sel]))
            for f in fields(CycleMetrics)
            if f.name != "cycle_index"
        },
    )
    return SteadyReport(
        steady_from_cycle=steady_from,
        window=window,
        window_rule=rule,
        mean=mean,
        per_cycle=list(per_cycle),
        never_steady=steady_from is None,
    )


def identify_resistance(trace: Trace, segments: list[Segment]) -> Estimate:
    """Series resistance from the voltage jump at each current interruption.

    At every charge-to-rest and discharge-to-rest boundary the estimate is
    ``|v(last active sample) - v(first rest sample)| / |i(last active sample)|``;
    the first rest sample sits one sample period after the interruption, so
    each individual estimate carries a capacitive-drift bias of order
    ``i * sample_period / C`` (reflected in the returned spread, not removed).
    """
    values = []
    for prev, nxt in zip(segments, segments[1:]):
        if prev.kind in _ACTIVE and nxt.kind in _RESTS:
            k_a, k_r = prev.last_index, nxt.first_index
            i_a = trace.i[k_a]
            if i_a == 0:
                continue
            values.append(abs(trace.v[k_a] - trace.v[k_r]) / abs(i_a))
    if not values:
        raise NoJumpFound(
            "no active-to-rest transition in the trace; resistance identification "
            "needs rests after charge or discharge"
        )
    return _estimate(values)


def identify_capacitance(trace: Trace, segments: list[Segment]) -> Estimate:
    """Main capacitance from the constant-current voltage ramp slope.

    Fits v(t) on the central 80% of each active segment (edges excluded to
    avoid the interruption jumps) and converts via ``C = i / slope``.
    Segments shorter than 10 samples are skipped.
    """
    values = []
    for seg in segments:
        if seg.kind not in _ACTIVE:
            continue
        n_seg = seg.last_index - seg.first_index + 1
        if n_seg < 10:
            continue
        margin = max(1, round(0.1 * n_seg))
        lo = seg.first_index + margin
        hi = seg.last_index - margin
        if hi - lo + 1 < 2:
            continue
        sl = slice(lo, hi + 1)
        slope = np.polyfit(trace.t[sl], trace.v[sl], 1)[0]
        if abs(slope) < 1e-15:
            continue
        i_mean = float(np.mean(np.abs(trace.i[sl])))
        values.append(i_mean / abs(slope))
    if not values:
        raise InsufficientData(
            "no active segment long enough (>= 10 samples) for a slope fit"
        )
    return _estimate(values)


def analyze_trace(
    trace: Trace,
    i_threshold_frac: float = 0.05,
    min_segment: float = 1.0,
    steady_tol: float = 0.01,
) -> AnalysisReport:
    """Segment the trace, integrate its complete cycles, identify, split, average.

    Segments before the first charge and cycles without a discharge are
    dropped with a logged warning.  Identification runs on the segments of
    steady cycles only, so early transient cycles cannot skew the estimates;
    when identification is impossible the report carries null entries plus a
    warning instead of failing.
    """
    trace.validate()
    segs = segment(trace, i_threshold_frac, min_segment)
    cycles, warnings = _complete_cycles(trace, segs)
    if not cycles:
        raise NoCyclesFound("no complete charge-discharge cycle in the trace")

    steady0, _, _ = steady_window([(c.q_in, c.q_out) for c in cycles], steady_tol)
    steady_cycles = cycles if steady0 is None else cycles[steady0 - 1 :]
    steady_segs = [
        s
        for cyc in steady_cycles
        for s in (cyc.charge, cyc.rest_high, cyc.discharge, cyc.rest_low)
        if s is not None
    ]

    try:
        r_series = identify_resistance(trace, steady_segs)
    except NoJumpFound as exc:
        r_series = None
        warnings.append(f"resistance not identified: {exc}")
    try:
        c_est = identify_capacitance(trace, steady_segs)
    except InsufficientData as exc:
        c_est = None
        warnings.append(f"capacitance not identified: {exc}")

    metrics = cycle_metrics(
        cycles, trace.sample_period, c_est=c_est.value if c_est else None
    )
    steady = detect_steady(metrics, steady_tol)
    return AnalysisReport(
        segments=segs,
        steady=steady,
        r_series=r_series,
        c_main=c_est,
        sample_period=trace.sample_period,
        n_samples=len(trace),
        warnings=warnings,
    )
