"""capcycle: supercapacitor constant-current cycling workbench.

Closed-form round-trip efficiency over working-voltage windows, a protocol
simulator with charge redistribution and leakage, trace analysis (per-cycle
metrics, steady-state detection, parameter identification), efficiency maps,
and a constrained operating-window optimizer.
"""

from .analyzer import (
    AnalysisReport,
    CycleMetrics,
    Estimate,
    IntegratedCycle,
    Segment,
    SteadyReport,
    analyze_trace,
    cycle_metrics,
    detect_steady,
    identify_capacitance,
    identify_resistance,
    segment,
    steady_window,
)
from .effmap import (
    ClosedFormObjective,
    EfficiencyGrid,
    GridMethod,
    OperatingPoint,
    PeriodicObjective,
    SelfDischargeModel,
    build_grid,
    fit_self_discharge,
    optimize_window,
    render_map,
)
from .errors import (
    CapcycleError,
    ConfigError,
    DynamicsDiverged,
    InfeasibleEnergyRequirement,
    InsufficientData,
    LossesExceedDelivery,
    MalformedProtocol,
    NoCyclesFound,
    NoJumpFound,
    NumericError,
    RankDeficientFit,
    TraceParseError,
    UnboundedCurrent,
    WindowTooNarrow,
)
from .fixtures import (
    DEVICES,
    TABLE_NAMES,
    data_path,
    export_all,
    load_current_sweep,
    load_rest_voltage_rows,
    measured_grid,
)
from .model import (
    CycleSpec,
    DeviceParams,
    OperatingWindow,
    Redistribution,
    RestVoltages,
    charge_duration,
    efficiency_no_rest,
    efficiency_with_rest,
    energy_in,
    energy_out,
    test_current,
    usable_energy_fraction,
    window_to_volts,
)
from .presets import (
    PRESET_NAMES,
    TEST_CURRENTS,
    derived_resistance,
    preset,
)
from .simulator import (
    AcquisitionConfig,
    Phase,
    quantize_trace,
    run_protocol,
)
from .trace import (
    CycleBoundary,
    Trace,
    read_sidecar_csv,
    read_trace_csv,
    sidecar_path,
    write_sidecar_csv,
    write_trace_csv,
)

__version__ = "0.1.0"
