"""Command-line front end.

Subcommands: ``simulate`` (protocol run to trace + sidecar CSV), ``analyze``
(trace CSV to JSON report), ``map`` (efficiency grid to CSV + SVG),
``optimize`` (constrained window search to JSON), ``fit-selfdischarge``
(rest-voltage regression to JSON), ``iec-current`` (test current for a
target efficiency), and ``fixtures`` (export the embedded data tables).

One table, :data:`COMMANDS`, declares every option of every command; it
drives the argument parser, the accepted ``--config`` keys and the coercion
of values.  Options may come from a ``--config`` JSON file (``schema_version``
1, keys named after the long flags); explicit command-line flags win, and
flag strings and config values pass through the same :func:`coerce`.  Exit
codes: 0 success, 2 configuration, 3 parse, 4 numeric, 5 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import fixtures
from .analyzer import ETA_SLACK, analyze_trace
from .effmap import (
    PU_LEVELS,
    ClosedFormObjective,
    PeriodicObjective,
    build_grid,
    fit_self_discharge,
    optimize_window,
    render_map,
)
from .errors import CapcycleError, ConfigError, NumericError, TraceParseError
from .model import (
    CycleSpec,
    DeviceParams,
    OperatingWindow,
    Redistribution,
    test_current,
)
from .presets import PRESET_NAMES, TEST_CURRENTS, V_RATED, preset
from .simulator import AcquisitionConfig, run_protocol
from .trace import (
    read_trace_csv,
    read_utf8,
    sidecar_path,
    write_sidecar_csv,
    write_trace_csv,
)

CONFIG_SCHEMA_VERSION = 1

REQUIRED = object()
"""Default of an option that must come from the command line or the config."""


class Option(NamedTuple):
    """One option of one command: flag ``--name`` and config key ``name``."""

    name: str
    kind: str  # float, int, bool, str or levels
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    positional: bool = False
    least: int | None = None  # the smallest value accepted

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    options: tuple[Option, ...]
    config: bool = True


def _number(value) -> int | float:
    """A finite JSON number or numeric string; ``bool`` is not a number."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            value = float(value)
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ValueError(value)
    return value


def coerce(kind: str, value, where: str, choices=None):
    """``value`` converted to an option of ``kind``.

    A value of the wrong type or outside ``choices`` raises
    :class:`ConfigError` whose message starts with ``where``.
    """
    try:
        if kind == "float":
            return float(_number(value))
        elif kind == "int":
            n = _number(value)
            if float(n).is_integer():
                return int(n)
        elif kind == "levels":
            items = value.split(",") if isinstance(value, str) else value
            if isinstance(items, list):
                return tuple(float(_number(x)) for x in items)
        elif kind == "bool" and isinstance(value, bool):
            return value
        elif kind == "str" and isinstance(value, str):
            if choices is None or value in choices:
                return value
    except (ValueError, OverflowError):
        pass
    expected = f"one of {', '.join(choices)}" if choices else kind
    raise ConfigError(f"{where}: expected {expected}, got {value!r}")


def _json_object(path: str | Path, where: str) -> dict:
    """The JSON object in a UTF-8 file; errors start with ``where``."""
    try:
        doc = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: top level must be a JSON object")
    return doc


def _load_config(path: str | None, allowed: set[str], command: str) -> dict:
    if path is None:
        return {}
    doc = _json_object(path, f"config {path}")
    version = doc.pop("schema_version", None)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"config {path}: schema_version must be {CONFIG_SCHEMA_VERSION}, "
            f"got {version!r}"
        )
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(
            f"config {path}: unknown keys for {command}: {sorted(unknown)}"
        )
    return doc


def resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Typed values of every option: the flag, else the config, else the default.

    A config value of ``null`` counts as not given.  ``given`` holds the names
    of the options that came from the flags or the config.  Once every value
    is typed, a value below its option's ``least`` is refused.
    """
    command = COMMANDS[args.command]
    path = getattr(args, "config", None)
    config = _load_config(path, {o.name for o in command.options}, args.command)
    resolved = argparse.Namespace(given=set())
    for o in command.options:
        flag = o.name if o.positional else f"--{o.name}"
        value, where = getattr(args, o.dest), flag
        if value is None:
            value, where = config.get(o.name), f"config {path}: {o.name}"
        if value is not None:
            value = coerce(o.kind, value, where, o.choices)
            resolved.given.add(o.name)
        elif o.default is REQUIRED:
            raise ConfigError(f"{args.command}: {flag} is required")
        else:
            value = o.default
        setattr(resolved, o.dest, value)
    for o in command.options:
        value = getattr(resolved, o.dest)
        if o.least is not None and value is not None and value < o.least:
            raise ConfigError(f"{args.command}: --{o.name} must be >= {o.least}, got {value:g}")
    return resolved


def _float_fields(doc: dict, defaults: dict, where: str) -> dict:
    """Numeric fields of a JSON object; ``null`` takes the default."""
    out = {}
    for key, default in defaults.items():
        if doc.get(key) is not None:
            out[key] = coerce("float", doc[key], f"{where}: {key}")
        elif default is REQUIRED:
            raise ConfigError(f"{where}: missing key {key!r}")
        else:
            out[key] = default
    return out


_DEVICE_FIELDS = {"c_main": REQUIRED, "r_series": REQUIRED, "v_rated": V_RATED, "r_leak": None}
_BRANCH_FIELDS = {"c_branch": REQUIRED, "r_branch": REQUIRED}


def _device_from_json(path: Path) -> DeviceParams:
    where = f"device file {path}"
    doc = _json_object(path, where)
    unknown = set(doc) - {*_DEVICE_FIELDS, "redistribution"}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    redis = doc.get("redistribution")
    if redis is not None:
        if not isinstance(redis, dict) or set(redis) != set(_BRANCH_FIELDS):
            raise ConfigError(
                f"{where}: redistribution must be an object with "
                "c_branch and r_branch"
            )
        redis = Redistribution(
            **_float_fields(redis, _BRANCH_FIELDS, f"{where}: redistribution")
        )
    return DeviceParams(
        **_float_fields(doc, _DEVICE_FIELDS, where), redistribution=redis
    )


def _resolve_device(name_or_path: str, ideal: bool) -> DeviceParams:
    if name_or_path in PRESET_NAMES:
        device = preset(name_or_path)
    elif Path(name_or_path).exists():
        device = _device_from_json(Path(name_or_path))
    else:
        raise ConfigError(
            f"device {name_or_path!r} is neither a preset "
            f"({', '.join(PRESET_NAMES)}) nor an existing JSON file"
        )
    return device.ideal() if ideal else device


def _default_current(o: argparse.Namespace) -> float:
    if o.current is not None:
        return o.current
    if o.device in TEST_CURRENTS:
        return TEST_CURRENTS[o.device]
    raise ConfigError("--current is required unless --device names a preset")


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Subcommands; each receives the namespace :func:`resolve` returns.


def _refuse_ignored(
    o: argparse.Namespace, command: str, names: tuple[str, ...], by: str
) -> None:
    ignored = [f"--{name}" for name in names if name in o.given]
    if ignored:
        raise ConfigError(f"{command}: {by} ignores {', '.join(ignored)}; leave it out")


def cmd_simulate(o: argparse.Namespace) -> int:
    if {"rest-high", "rest-low"} <= o.given:
        _refuse_ignored(o, "simulate", ("rest",), "--rest-high with --rest-low")
    device = _resolve_device(o.device, o.ideal)
    spec = CycleSpec(
        i_c=_default_current(o),
        v_min=o.vmin,
        v_max=device.v_rated if o.vmax is None else o.vmax,
        rest_after_charge=o.rest if o.rest_high is None else o.rest_high,
        rest_after_discharge=o.rest if o.rest_low is None else o.rest_low,
        max_cycles=o.cycles,
    )
    acq = AcquisitionConfig(sample_period=o.sample_period, quantize=o.quantize)
    trace = run_protocol(device, spec, acq)
    out = Path(o.out)
    write_trace_csv(trace, out)
    side = sidecar_path(out)
    write_sidecar_csv(trace.meta["boundaries"], side)
    print(f"wrote {out} ({trace.t.size} samples, {spec.max_cycles} cycles)")
    print(f"wrote {side}")
    return 0


def cmd_analyze(o: argparse.Namespace) -> int:
    trace = read_trace_csv(o.trace)
    report = analyze_trace(
        trace,
        i_threshold_frac=o.threshold_frac,
        min_segment=o.min_segment,
        steady_tol=o.steady_tol,
    )
    for m in report.steady.per_cycle:
        if m.e_out > m.e_in * (1 + ETA_SLACK):
            raise NumericError(f"cycle {m.cycle_index} gives out {m.e_out!r} J of the "
                               f"{m.e_in!r} J it takes in; its samples miss part of its phases")
    _write_or_print(report.to_json(), o.out)
    return 0


def cmd_map(o: argparse.Namespace) -> int:
    if o.fixture is not None:
        _refuse_ignored(
            o, "map", ("levels", "method", "rest", "ideal", "current"),
            "--fixture (a measured grid)",
        )
        if o.device not in fixtures.DEVICES:
            raise ConfigError(
                f"map: fixture grids need a preset device name, got {o.device!r}"
            )
        grid = fixtures.measured_grid(o.device, rest=o.fixture == "table4")
    else:
        device = _resolve_device(o.device, o.ideal)
        i_c = _default_current(o)
        if o.method == "simulated":
            objective = PeriodicObjective(device, i_c, o.rest or 0.0)
        else:
            _refuse_ignored(o, "map", ("ideal",), "the closed-form method")
            model = None
            if o.rest is not None:
                if o.rest != fixtures.REST_DURATION_S:
                    raise ConfigError(
                        f"map: the closed-form rest model is fitted to "
                        f"{fixtures.REST_DURATION_S:g}-s rests, got --rest {o.rest:g}; "
                        "use --method simulated for other durations"
                    )
                model = fit_self_discharge(fixtures.load_rest_voltage_rows())
            objective = ClosedFormObjective(device, i_c, model)
        grid = build_grid(objective, levels=o.levels)
    csv_path, svg_path = render_map(grid, o.out)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0


def cmd_optimize(o: argparse.Namespace) -> int:
    # the closed-form objective reads only c_main, r_series and v_rated
    device = _resolve_device(o.device, ideal=True)
    model = fit_self_discharge(fixtures.load_rest_voltage_rows()) if o.rest else None
    objective = ClosedFormObjective(
        device=device, i_c=_default_current(o), rest_model=model
    )
    doc = optimize_window(objective, o.min_energy).to_dict()
    doc["rest"] = o.rest
    _write_or_print(_json_doc(doc), o.out)
    return 0


def cmd_fit_selfdischarge(o: argparse.Namespace) -> int:
    doc = fit_self_discharge(fixtures.load_rest_voltage_rows(o.rows)).to_dict()
    doc["source"] = "embedded" if o.rows is None else o.rows
    _write_or_print(_json_doc(doc), o.out)
    return 0


def cmd_iec_current(o: argparse.Namespace) -> int:
    if (o.r is None) == (o.device is None):
        raise ConfigError("iec-current: give exactly one of --r or --device")
    if o.device is not None:
        _refuse_ignored(o, "iec-current", ("v-rated",), "--device (its own rating)")
        device = _resolve_device(o.device, ideal=False)
    else:
        # capacitance does not enter the current inversion
        device = DeviceParams(c_main=1.0, r_series=o.r, v_rated=o.v_rated)
    window = OperatingWindow(vm_pu=o.vmin_pu, vM_pu=o.vmax_pu)
    print(f"{test_current(device, o.target, window):.9g}")
    return 0


def cmd_fixtures(o: argparse.Namespace) -> int:
    for path in fixtures.export_all(o.out_dir):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# The option table and the parser built from it

_DEVICE = "preset name or device JSON file"
_JSON_OUT = "JSON path (default stdout)"

COMMANDS = {
    "simulate": Command(cmd_simulate, "run a cycling protocol to a trace CSV", (
        Option("device", "str", "10F", "preset name (10F/50F/100F) or device JSON file"),
        Option("ideal", "bool", False, "strip redistribution and leakage from the device"),
        Option("current", "float", None, "test current in A"),
        Option("vmin", "float", 0.0, "lower voltage limit in V"),
        Option("vmax", "float", None, "upper voltage limit in V"),
        Option("rest", "float", 0.0, "rest after each phase in s", least=0),
        Option("rest-high", "float", None, "rest after charge in s", least=0),
        Option("rest-low", "float", None, "rest after discharge in s", least=0),
        Option("cycles", "int", 1, "number of cycles (default 1)", least=1),
        Option("sample-period", "float", 0.1, "acquisition period in s"),
        Option("quantize", "bool", False, "apply acquisition quantization"),
        Option("out", "str", REQUIRED, "trace CSV path (sidecar written alongside)"),
    )),
    "analyze": Command(cmd_analyze, "analyze a trace CSV into a JSON report", (
        Option("trace", "str", REQUIRED, "trace CSV path", positional=True),
        Option("threshold-frac", "float", 0.05,
               "active-current threshold as a fraction of max |i|"),
        Option("min-segment", "float", 1.0, "shortest believable phase duration in s"),
        Option("steady-tol", "float", 0.01, "charge-balance tolerance"),
        Option("out", "str", None, "report JSON path (default stdout)"),
    )),
    "map": Command(cmd_map, "build an efficiency grid; write CSV + SVG", (
        Option("device", "str", "100F", _DEVICE),
        Option("ideal", "bool", False),
        Option("current", "float"),
        Option("method", "str", "closedform", choices=("closedform", "simulated")),
        Option("fixture", "str", None, "render an embedded measured surface instead",
               choices=("table2", "table4")),
        Option("rest", "float", None, "rest duration in s; enables the with-rest model",
               least=0),
        Option("levels", "levels", PU_LEVELS, "comma-separated per-unit grid levels"),
        Option("out", "str", REQUIRED, "output file prefix"),
    )),
    "optimize": Command(cmd_optimize, "best window meeting an energy floor", (
        Option("device", "str", "100F", _DEVICE),
        Option("current", "float"),
        Option("min-energy", "float", REQUIRED, "required usable-energy fraction in (0, 1]"),
        Option("rest", "bool", False,
               "optimize the with-rest model (fitted from embedded data)"),
        Option("out", "str", None, _JSON_OUT),
    )),
    "fit-selfdischarge": Command(
        cmd_fit_selfdischarge, "fit the linear rest-voltage model", (
            Option("rows", "str", None, "rest-drift CSV (default: embedded data)"),
            Option("out", "str", None, _JSON_OUT),
        )),
    "iec-current": Command(
        cmd_iec_current, "test current that yields a target efficiency", (
            Option("r", "float", None, "series resistance in ohms"),
            Option("device", "str", None, _DEVICE),
            Option("target", "float", 0.95, "target efficiency (default 0.95)"),
            Option("vmin-pu", "float", 0.0, "window lower bound (default 0)"),
            Option("vmax-pu", "float", 1.0, "window upper bound (default 1)"),
            Option("v-rated", "float", V_RATED,
                   f"rated voltage when --r is given (default {V_RATED:g})"),
        )),
    "fixtures": Command(cmd_fixtures, "export the embedded data tables", (
        Option("out_dir", "str", REQUIRED, "destination directory", positional=True),
    ), config=False),
}
"""Every command's options; their flags, config keys and types come from here."""


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; with ``command`` named, only that command gets its options.

    Every command's subparser is added either way, so the top-level usage,
    help and errors do not depend on ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="capcycle",
        description="supercapacitor cycling efficiency workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if command not in (None, name):
            continue
        if cmd.config:
            p.add_argument("--config", help="JSON config file; explicit flags win")
        for o in cmd.options:
            if o.positional:
                # with a config file, the positional may come from there
                p.add_argument(o.dest, nargs="?" if cmd.config else None, help=o.help)
            elif o.kind == "bool":
                p.add_argument(f"--{o.name}", action="store_true", default=None,
                               help=o.help)
            else:
                metavar = "{" + ",".join(o.choices) + "}" if o.choices else None
                p.add_argument(f"--{o.name}", metavar=metavar, help=o.help)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argv's first token names the command, if it names one
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return COMMANDS[args.command].run(resolve(args))
    except CapcycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
