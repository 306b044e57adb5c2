"""capcycle benchmark: four CLI workloads timed end to end, or layer by layer.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (``setup_s``, ``op_cal``, ``peak_rss_MB``); with
``--trace 1`` it holds the per-layer metrics and the tracing overhead.  The
line before it is the run record: environment, seed, and every operation's
raw seconds, calibration seconds and ``op_cal``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.linalg
t2 = time.perf_counter()
import capcycle.cli
capcycle.cli.build_parser()
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2, capcycle.cli.__file__)
"""
WORKER_TIMEOUT_S = 150

E2E_UNITS = {"setup_s": "s", "op_cal": "cal", "peak_rss_MB": "MB"}
SETUP_LAYERS = ("setup.numpy_s", "setup.scipy_s", "setup.capcycle_s")


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (exit code 1 or 2)."""

    def __init__(self, message: str, exit_code: int = 1) -> None:
        super().__init__(message)
        self.exit_code = exit_code


def measure_setup(env: dict) -> list[list[float]]:
    """Fresh interpreters importing capcycle and building the CLI parser.

    The first one is untimed: it compiles the bytecode caches, which users
    pay once per installation, not per invocation.
    """
    splits = []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchmarkError(f"importing capcycle failed:\n{proc.stderr[-2000:]}")
        *times, module_file = proc.stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
            raise BenchmarkError(f"capcycle was imported from {module_file}, not {SRC}")
        if k:
            splits.append([float(x) for x in times])
    return splits


def run_worker(spec: dict, work: Path, env: dict) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(setup: list[list[float]], result: dict, timed: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(sum(s) for s in setup),
        "op_cal": statistics.median(r["op_cal"] for r in timed),
        "peak_rss_MB": result["peak_rss_kb"] / 1024,
    }


def per_layer(setup: list[list[float]], timed: list[dict]) -> dict:
    traced = [r for r in timed if r["traced"]]
    plain = [r for r in timed if not r["traced"]]
    values = {
        name: _median([s[k] for s in setup]) for k, name in enumerate(SETUP_LAYERS)
    }
    for name in [*tracing.LAYER_METRICS, "cli.op_s"]:
        got = [r["layers"][name] for r in traced]
        values[name] = None if None in got else _median(got)
    for key, name in (("op_s", "tracing.overhead_s"), ("op_cal", "tracing.overhead_cal")):
        values[name] = (
            _median([r[key] for r in traced]) - _median([r[key] for r in plain])
            if traced and plain else None
        )
    return values


def layer_unit(name: str) -> str:
    if name in tracing.LAYER_METRICS:
        return tracing.LAYER_METRICS[name][0]
    return "cal" if name.endswith("_cal") else "s"  # setup.*, cli.op_s, tracing.*


def check_outputs(ops: list[dict], records: list[dict], ops_dir: Path,
                  truth: dict | None) -> list[str]:
    """Round 0's outputs against references; later rounds must equal round 0."""
    problems = []
    for op in ops:
        first = next(r for r in records if r["op"] == op["name"])
        if first["ok"]:
            try:
                problems += workloads.check(op["name"], ops_dir / f"{op['name']}-0", truth)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{op['name']}: outputs unreadable: {exc!r}")
    for r in records:
        if r["ok"] and r.get("differs_from_round0"):
            problems.append(f"{r['op']} round {r['round']}: {r['differs_from_round0']} differ")
    return problems


def bench(args: argparse.Namespace) -> tuple[dict, dict]:
    if not (SRC / "capcycle" / "__init__.py").is_file():
        raise BenchmarkError(f"no capcycle sources under {SRC}", exit_code=2)
    env = workloads.child_env(SRC)
    work = RUN_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = measure_setup(env)
        truth = None
        if args.workload == "glitchy":
            truth = workloads.make_glitchy(work / "input", env, args.seed)
        ops = [
            {**op, "calls": [[a.replace("{input}", str(work / "input")) for a in argv]
                             for argv in op["calls"]]}
            for op in workloads.ROUNDS[args.workload]
        ]
        spec = {
            "src": str(SRC),
            "ops_dir": str(work / "ops"),
            "round": ops,
            "seconds": args.seconds,
            "trace": args.trace,
            "capture_trace": args.workload == "campaign",
        }
        result = run_worker(spec, work, env)
        records = result["records"]
        timed_names = {op["name"] for op in ops if op["timed"]}

        problems = check_outputs(ops, records, work / "ops", truth)
        timed = [r for r in records if r["op"] in timed_names and r["ok"]]
        if not timed:
            raise BenchmarkError(
                "no timed operation succeeded:\n" + "\n".join(records[0]["messages"])
            )

        spans = [
            {"op": r["op"], "round": r["round"], "spans": r.pop("spans")}
            for r in records if "spans" in r
        ]
        if spans:
            path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(spans), encoding="utf-8")

        if args.trace:
            metrics = {
                name: {"value": value, "unit": layer_unit(name)}
                for name, value in per_layer(setup, timed).items()
            }
            missing = sorted({m for r in timed for m in r.get("missing", ())})
            for name, entry in metrics.items():
                if entry["value"] is None and missing:
                    entry["missing"] = missing
        else:
            metrics = {
                name: {"value": value, "unit": E2E_UNITS[name]}
                for name, value in end_to_end(setup, result, timed).items()
            }
        out = {
            "correct": not problems,
            "attempted": len(records),
            "failed": sum(not r["ok"] for r in records),
            "metrics": metrics,
        }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": {**environment(), "blas_threads": result["blas_threads"]},
            "rounds": result["rounds"],
            "measured_s": result["measured_s"],
            "setup_s": setup,
            "glitches": None if truth is None else {
                k: truth[k] for k in ("glitches", "in_active", "in_rests")
            },
            "ops": [
                {k: r[k] for k in ("op", "round", "traced", "ok", "rcs", "op_s",
                                   "cal_s", "op_cal", "cal_samples")}
                | ({} if r["ok"] else {"message": r["messages"][-1][-300:]})
                for r in records
            ],
            "problems": problems,
        }
        return record, out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, out = bench(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.exit_code
    except subprocess.CalledProcessError as exc:  # generating an input failed
        print(f"perfbench: {exc}\n{exc.stderr[-2000:]}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(out))
    if not out["correct"]:
        print("perfbench: outputs failed their checks:\n  " + "\n  ".join(record["problems"]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
