"""Operation process of the benchmark: runs one workload's rounds and times them.

    python3 perfbench/worker.py SPEC.json RESULT.json

``run.py`` writes the spec and reads the result; this process does nothing
else, so its peak resident memory is that of the operations (plus the
interpreter and the imports every CLI call pays for).  Each operation is one
or more ``capcycle.cli.main`` calls made in-process, measured in calibration
units (see ``calibration.py``).  Operations repeat in whole rounds
until the next round would end past the run length.  With tracing on, rounds
alternate untraced and traced, so the same process gives the tracing
overhead.

Outputs of round 0 are kept for ``run.py`` to check against references; the
outputs of every later round must be byte-identical to them, which this
process verifies by hash before deleting them.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracing

MIN_ROUNDS = 3
IN_MEMORY = "<in-memory trace>"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class TraceCapture:
    """Keeps the trace ``simulate`` produced, for the in-memory comparison.

    Wraps ``capcycle.cli.run_protocol``; the trace is digested (and in round 0
    saved) between CLI calls, outside the timed region, and then released so
    it does not sit in memory during the next call.
    """

    def __init__(self, cli) -> None:
        self._last = None
        inner = cli.run_protocol

        def capture(*args, **kwargs):
            self._last = inner(*args, **kwargs)
            return self._last

        cli.run_protocol = capture

    def drain(self, save_to: Path | None) -> str | None:
        trace, self._last = self._last, None
        if trace is None:
            return None
        if save_to is not None:
            import numpy as np

            save_to.mkdir(parents=True, exist_ok=True)
            np.save(save_to / "tvi.npy", np.stack([trace.t, trace.v, trace.i]))
            meta = {k: trace.meta[k] for k in ("q_in", "q_out")}
            (save_to / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        h = hashlib.sha256()
        for arr in (trace.t, trace.v, trace.i):
            h.update(arr.tobytes())
        return h.hexdigest()


def _call_cli(cli, argv: list[str], tracer) -> tuple[int, str]:
    """One ``capcycle.cli.main`` call; returns (exit code, captured output)."""
    buf = io.StringIO()
    idx = tracer.begin(tracing.CLI_SPAN) if tracer else None
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing call fails its operation; the run goes on
        rc = 1
        buf.write(traceback.format_exc())
    finally:
        if tracer:
            tracer.end(idx)
    return rc, buf.getvalue()


def run_op(cli, op: dict, out: Path, traced: bool, capture, keep: bool) -> dict:
    """Time one operation (its CLI calls) in calibration units."""
    out.mkdir(parents=True, exist_ok=True)
    sampler = calibration.Sampler()
    tracer = tracing.Tracer(sampler.clock) if traced else None
    rcs, messages, digests = [], [], {}
    op_s = 0.0
    with sampler, tracing.Patches(tracer) if traced else contextlib.nullcontext() as patches:
        for argv in op["calls"]:
            argv = [a.replace("{out}", str(out)) for a in argv]
            t0 = sampler.clock()
            rc, text = _call_cli(cli, argv, tracer)
            op_s += sampler.clock() - t0
            rcs.append(rc)
            messages.append(text[-2000:])
            digest = capture.drain(Path(str(out) + ".mem") if keep else None) if capture else None
            if digest is not None:
                digests[IN_MEMORY] = digest
            if rc != 0:
                break
    cal_s = sampler.unit_s()
    rec = {
        "op": op["name"],
        "op_s": op_s,
        "cal_s": cal_s,
        "op_cal": op_s / cal_s,
        "cal_samples": len(sampler.samples),
        "rcs": rcs,
        "ok": all(rc == 0 for rc in rcs),
        "messages": messages,
        "traced": traced,
        "digests": digests,
    }
    if traced:
        rec["layers"] = tracing.layer_values(tracer, patches.missing)
        rec["layers"]["cli.op_s"] = op_s
        rec["missing"] = sorted(patches.missing)
        rec["spans"] = tracer.dump()
    return rec


def _blas_threads() -> int | None:
    """Threads OpenBLAS uses in this process, read from numpy's bundled library."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import capcycle.cli as cli

    capture = TraceCapture(cli) if spec["capture_trace"] else None
    ops_dir = Path(spec["ops_dir"])
    for _ in range(calibration.BRACKET):  # first calls pay numpy's lazy set-up
        calibration.work()
    records = []
    first: dict[str, dict[str, str]] = {}
    begin = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        traced = bool(spec["trace"]) and rounds % 2 == 1
        for op in spec["round"]:
            out = ops_dir / f"{op['name']}-{rounds}"
            rec = run_op(cli, op, out, traced, capture, keep=rounds == 0)
            rec["round"] = rounds
            digests = rec.pop("digests")
            digests.update(
                (p.name, _sha256(p)) for p in sorted(out.iterdir()) if p.is_file()
            )
            if rounds == 0:
                first[op["name"]] = digests
            else:
                ref = first[op["name"]]
                rec["differs_from_round0"] = sorted(
                    k for k in set(digests) | set(ref) if digests.get(k) != ref.get(k)
                )
                shutil.rmtree(out)
            records.append(rec)
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - begin + (now - round_start) > spec["seconds"]:
            break
    result = {
        "records": records,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "measured_s": time.perf_counter() - begin,
        "blas_threads": _blas_threads(),
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
