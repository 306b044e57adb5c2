"""Uniform (time, voltage, current) traces and their on-disk formats.

Trace CSV contract: UTF-8, LF line endings, header ``t_s,v_V,i_A``, one sample
per line, plain decimal point, every field rendered with at most 9 significant
digits.  Writing is deterministic: the same trace always produces the same
bytes.  The optional sidecar ``<basename>.cycles.csv`` lists ground-truth phase
boundaries with header ``cycle,phase,t_start_s,t_end_s``.
"""

from __future__ import annotations

import io
import math
import os
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import TraceParseError

TRACE_HEADER = "t_s,v_V,i_A"
_HEADER_BYTES = TRACE_HEADER.encode()
SIDECAR_HEADER = "cycle,phase,t_start_s,t_end_s"

# Sign convention: i > 0 charges the device.


@dataclass
class Trace:
    """Uniformly sampled terminal voltage and applied current."""

    t: np.ndarray
    v: np.ndarray
    i: np.ndarray
    sample_period: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        self.i = np.asarray(self.i, dtype=np.float64)

    def __len__(self) -> int:
        return self.t.size

    def validate(self) -> None:
        if not (self.t.size == self.v.size == self.i.size):
            raise TraceParseError("t, v, i arrays differ in length")
        if self.t.size < 2:
            raise TraceParseError("trace needs at least 2 samples")
        for name, arr in (("t", self.t), ("v", self.v), ("i", self.i)):
            if not np.all(np.isfinite(arr)):
                bad = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise TraceParseError(f"non-finite {name} value at sample {bad}")
        dt = np.diff(self.t)
        if not np.all(dt > 0):
            bad = int(np.flatnonzero(dt <= 0)[0]) + 1
            raise TraceParseError(f"time not strictly increasing at sample {bad}")
        off = dt - self.sample_period
        np.abs(off, out=off)
        bad = int(off.argmax()) + 1  # a NaN counts as largest, as in np.max
        if off[bad - 1] > 1e-6 * self.sample_period:
            raise TraceParseError(
                f"non-uniform sampling at sample {bad}: spacing {dt[bad - 1]!r} "
                f"vs period {self.sample_period!r}"
            )


@dataclass(frozen=True)
class CycleBoundary:
    """One ground-truth phase interval, as emitted by the simulator."""

    cycle: int
    phase: str
    t_start: float
    t_end: float


def _fmt(x: float) -> str:
    return f"{x:.9g}"


WRITE_BLOCK_ROWS = 4096
"""Rows formatted by one ``%`` operation in :func:`write_trace_csv`."""

_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
"""Suffixes on which ``np.loadtxt`` decompresses the file it is named."""


def write_trace_csv(trace: Trace, path: str | Path) -> Path:
    """Write the trace in the canonical CSV format; returns the path.

    Rows go out in blocks of :data:`WRITE_BLOCK_ROWS`, each formatted by one
    ``%`` operation whose fields :func:`_block_field` chooses per column.
    """
    path = Path(path)
    if not trace.t.size == trace.v.size == trace.i.size:
        raise ValueError("t, v, i arrays differ in length")
    columns = (trace.t, trace.v, trace.i)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for start in range(0, len(trace), WRITE_BLOCK_ROWS):
            fields, cells = zip(
                *(_block_field(c[start : start + WRITE_BLOCK_ROWS]) for c in columns)
            )
            rows = np.stack(cells, axis=1)
            row_format = ",".join(fields) + "\n"
            fh.write(row_format * len(rows) % tuple(rows.ravel().tolist()))
    return path


def _block_field(column: np.ndarray) -> tuple[str, np.ndarray]:
    """A block column's row-format field and the values that fill it.

    A column with fewer runs of bitwise-equal values than half its rows
    formats each run's first value once and enters as ``%s`` strings; any
    other enters as floats under ``%.9g``.  Bits, not ``==``, delimit the
    runs: ``-0.0`` and ``0.0`` stay apart, and a NaN repeats like any value.
    """
    bits = column.view(np.int64)
    head = np.empty(bits.size, dtype=bool)
    head[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    runs = np.count_nonzero(head)
    if 2 * runs >= column.size:
        return "%.9g", column
    firsts = ("%.9g\n" * runs % tuple(column[head].tolist())).split("\n")[:-1]
    return "%s", np.array(firsts, dtype=object)[np.cumsum(head) - 1]


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file, line endings untranslated.

    Bytes that are not UTF-8 raise :class:`TraceParseError` naming the path
    and the line (ended by LF, CRLF or a lone CR) that holds the first of them.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        breaks = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise TraceParseError(
            f"{path} is not UTF-8 ({exc.reason}: 0x{data[exc.start]:02x})",
            line_no=breaks + 1,
        ) from None


def read_trace_csv(path: str | Path) -> Trace:
    """Parse and validate a trace CSV; errors carry the offending line number.

    A file whose first line is the header and whose every other row holds
    three finite numbers is parsed by ``np.loadtxt``, which is handed the path
    so that it reads the file in chunks.  Anything else goes to the line
    parser, which decides whether the file is valid and reports where it is
    not; so does a file named with a suffix on which ``np.loadtxt`` would
    decompress it, so that every file is read as the bytes it holds.  The
    ``np.loadtxt`` block is released as soon as its columns are copied out,
    so validation runs beside one copy of the samples.
    """
    path = Path(path)
    raw = path.read_bytes()
    if (
        path.suffix in _COMPRESSED
        # np.loadtxt strips these separators around a number; float() refuses them
        or any(sep in raw for sep in _SEPARATORS)
        # the first line ends at the first CR or LF, as the line parser splits it
        or raw[: len(_HEADER_BYTES) + 1].rstrip(b"\r\n") != _HEADER_BYTES
    ):
        return _read_trace_csv_lines(path)
    del raw  # not held while np.loadtxt parses
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data rows
            data = np.loadtxt(os.fspath(path), skiprows=1, encoding="utf-8",
                              delimiter=",", comments=None, ndmin=2)
    except ValueError:  # an unparseable field, or bytes that are not UTF-8
        return _read_trace_csv_lines(path)
    if data.shape[1] != 3 or len(data) < 2 or not np.isfinite(data).all():
        return _read_trace_csv_lines(path)
    t, v, i = data.T.copy()
    del data  # not held while the columns are validated
    return _validated(path, t, v, i)


def csv_lines(path: str | Path, width: int, header: str | None = None):
    """Yield ``(line number, fields)`` for each data line of a UTF-8 CSV file.

    Lines end at LF, CRLF or a lone CR and are numbered as :func:`read_utf8`
    numbers them.  With a ``header`` (traces, sidecars) the first line must
    equal it, and every other line loses only its line ending.  Without one
    (rows files, packaged tables) each line is stripped, and ``#`` comments
    are skipped.  Empty lines are skipped; a line of other than ``width``
    comma-separated fields raises :class:`TraceParseError`.
    """
    lines = io.StringIO(read_utf8(path), newline="")
    if header is not None and (first := lines.readline().rstrip("\r\n")) != header:
        raise TraceParseError(f"expected header {header!r}, got {first!r}", line_no=1)
    for line_no, line in enumerate(lines, start=1 if header is None else 2):
        line = line.rstrip("\r\n") if header is not None else line.strip()
        if not line or (header is None and line.startswith("#")):
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise TraceParseError(
                f"expected {width} comma-separated fields, got {len(fields)}",
                line_no=line_no,
            )
        yield line_no, fields


def _read_trace_csv_lines(path: Path) -> Trace:
    """The line-by-line trace parser: slow, but it names the offending line."""
    values = array("d")  # the samples row by row, 8 bytes a value
    for line_no, fields in csv_lines(path, 3, TRACE_HEADER):
        try:
            row = [float(p) for p in fields]
        except ValueError:
            line = ",".join(fields)
            raise TraceParseError(f"unparseable number in {line!r}", line_no=line_no)
        if not all(math.isfinite(x) for x in row):
            raise TraceParseError("non-finite value", line_no=line_no)
        values.extend(row)
    if len(values) < 6:
        raise TraceParseError("trace needs at least 2 samples")
    t, v, i = np.frombuffer(values).reshape(-1, 3).T.copy()
    del values
    return _validated(path, t, v, i)


def _validated(path: Path, t: np.ndarray, v: np.ndarray, i: np.ndarray) -> Trace:
    trace = Trace(t=t, v=v, i=i, sample_period=float(t[1] - t[0]))
    trace.validate()
    trace.meta["source"] = str(path)
    return trace


def sidecar_path(trace_path: str | Path) -> Path:
    trace_path = Path(trace_path)
    return trace_path.with_name(trace_path.stem + ".cycles.csv")


def write_sidecar_csv(boundaries: list[CycleBoundary], path: str | Path) -> Path:
    path = Path(path)
    lines = [SIDECAR_HEADER]
    lines.extend(
        f"{b.cycle},{b.phase},{_fmt(b.t_start)},{_fmt(b.t_end)}" for b in boundaries
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def read_sidecar_csv(path: str | Path) -> list[CycleBoundary]:
    out: list[CycleBoundary] = []
    for line_no, fields in csv_lines(Path(path), 4, SIDECAR_HEADER):
        cycle, phase, t_start, t_end = fields
        try:
            out.append(CycleBoundary(cycle=int(cycle), phase=phase,
                                     t_start=float(t_start), t_end=float(t_end)))
        except ValueError:
            line = ",".join(fields)
            raise TraceParseError(f"unparseable field in {line!r}", line_no=line_no)
    return out
