"""Uniform (time, voltage, current) traces and their on-disk formats.

Trace CSV contract: UTF-8, LF line endings, header ``t_s,v_V,i_A``, one sample
per line, plain decimal point, every field rendered with at most 9 significant
digits.  Writing is deterministic: the same trace always produces the same
bytes.  The optional sidecar ``<basename>.cycles.csv`` lists ground-truth phase
boundaries with header ``cycle,phase,t_start_s,t_end_s``.
"""

from __future__ import annotations

import functools
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


WRITE_BLOCK_ROWS = 16384
"""Rows :func:`write_trace_csv` assembles into one byte matrix."""

_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")

_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
"""Suffixes on which ``np.loadtxt`` decompresses the file it is named."""


def write_trace_csv(trace: Trace, path: str | Path) -> Path:
    """Write the trace in the canonical CSV format; returns the path.

    Rows go out in blocks of :data:`WRITE_BLOCK_ROWS`.  A block is one
    ``uint8`` matrix with a row per sample, its fields NUL-padded to their
    widths, and its non-NUL bytes are the block's lines.  The time field is
    spelled from integers by :func:`_grid_field` when every value in the
    block passes that function's check, and is otherwise formatted at
    ``%.9g`` by :func:`_text_field`; the ``v,i`` tail of each row is
    formatted by :func:`_text_field` once per run of rows that repeat it.
    """
    path = Path(path)
    if not trace.t.size == trace.v.size == trace.i.size:
        raise ValueError("t, v, i arrays differ in length")
    e = _decimals(trace.sample_period)
    with open(path, "wb") as fh:
        fh.write(_HEADER_BYTES + b"\n")
        for start in range(0, len(trace), WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            tail = _text_field((trace.v[block], trace.i[block]), "\n")
            times = _grid_field(trace.t[block], e)
            if times is None:
                times = _text_field((trace.t[block],), ",")
            rows = np.concatenate([times, tail], axis=1)
            del times, tail
            fh.write(rows.tobytes().translate(None, b"\0"))
    return path


def _decimals(period: float) -> int:
    """Digits after the point of ``period`` at ``%.9g``, clipped to 0..12.

    Past 12 decimals ``N = D*10**e`` has over 9 digits for any ``D >= 1e-4``,
    so :func:`_grid_field` would accept nothing.
    """
    mantissa, _, exponent = f"{period:.9g}".partition("e")
    return min(max(len(mantissa.partition(".")[2]) - int(exponent or 0), 0), 12)


@functools.cache
def _digit_groups() -> np.ndarray:
    """The ASCII digits of 0000 to 9999, four bytes each, as ``uint32``."""
    return np.array([b"%04d" % k for k in range(10000)]).view(np.uint32)


def _grid_field(t: np.ndarray, e: int) -> np.ndarray | None:
    """The column's ``%.9g`` fields and commas, spelled from ``N = rint(t*10**e)``.

    Used only if, for every value, ``%.9g`` prints the decimal ``D =
    N/10**e``: ``D`` lies in ``[1e-4, 1e9)``, where ``%g`` writes fixed
    notation, ``N`` has at most 9 digits, and ``t`` is within ``1e-12*t`` of
    ``N/10**e``.  Otherwise returns None.
    """
    # Why the checks suffice.  N < 10**9 and 10.0**e (e <= 12) are exact, so
    # n / scale is fl(D), within 2**-53*D of D, and t is within
    # (1e-12 + 2**-53)*t of D.  Let u = 10**(p-8), t in [10**p, 10**(p+1)),
    # be the unit of t's 9th significant digit: u > 1e-9*t.  D has at most 9
    # significant digits, so it is a multiple of u unless it lies below
    # 10**p, and then it is at most 10**p - u/10, over 1e-10*t below t,
    # which the margin excludes.  So D is the multiple of u nearest t, closer
    # than u/2, over 5e-10*t: %.9g rounds t to D, with no tie.  The margin
    # 1e-12 lies 500 times inside u/2, and it is thousands of times the ulp
    # or two by which fl(k*dt), or fl(k/10) read back from a file, misses D.
    scale = 10.0**e
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN fail
        n = np.rint(t * scale)
        ok = (n >= 10.0 ** (e - 4)) & (n < 1e9) & (np.abs(t - n / scale) <= 1e-12 * t)
    if not ok.all():
        return None
    n = n.astype(np.int64)
    groups = -(-max(len(str(n.max())), e + 1) // 4)
    width = 4 * groups
    # N's digits, four to a cell, and a spare cell for the shifted fraction and the comma
    cells = np.empty((len(t), groups + 1), np.uint32)
    rest = n
    for k in range(groups):
        high = rest // 10000
        cells[:, groups - 1 - k] = _digit_groups()[rest - high * 10000]
        rest = high
    field = cells.view(np.uint8)
    field[:, width + 1] = ord(",")
    point = width - e  # columns of the integer part, whose units digit stays
    for j in range(point - 1):
        field[:, j] *= n >= 10 ** (width - 1 - j)
    # the fraction's trailing zeros go, and the point if nothing is left of it
    kept = np.zeros(len(t), dtype=bool)
    for j in range(width - 1, point - 1, -1):
        kept |= field[:, j] != ord("0")
        field[:, j] *= kept
    field[:, point + 1 : width + 1] = field[:, point:width]
    field[:, point] = kept * ord(".")
    return field[:, : width + 2]


def _text_field(columns: tuple[np.ndarray, ...], end: str) -> np.ndarray:
    """The columns' ``%.9g`` fields, a comma between two, each row followed by ``end``, NUL-padded.

    Each run of rows that are bitwise equal in every column is spelled once
    by :func:`_spelled`: bits, not ``==``, delimit the runs, so ``-0.0`` and
    ``0.0`` stay apart and a NaN repeats like any value.  The runs' bytes are
    scattered into a matrix with a row per run, and that matrix gathered
    with a row per sample.
    """
    head = np.zeros(columns[0].size, dtype=bool)
    head[:1] = True
    for column in columns:
        bits = column.view(np.int64)
        head[1:] |= bits[1:] != bits[:-1]
    text = _spelled(np.stack([column[head] for column in columns], axis=1), end)
    widths = np.diff(np.flatnonzero(text == ord(end)), prepend=-1)
    runs = np.zeros((widths.size, widths.max()), np.uint8)
    runs[np.arange(widths.max()) < widths[:, None]] = text
    del text, widths
    return runs.take(np.cumsum(head) - 1, axis=0)  # several times runs[index]'s speed here


def _spelled(rows: np.ndarray, end: str) -> np.ndarray:
    """The bytes of a matrix's rows at ``%.9g``, a comma between two fields and ``end`` after each row."""
    line = ",".join(["%.9g"] * rows.shape[1]) + end
    return np.frombuffer((line * len(rows) % tuple(rows.ravel().tolist())).encode(), np.uint8)


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
    lines = _lines(read_utf8(path))
    if header is not None and (first := next(lines)) != header:
        raise TraceParseError(f"expected header {header!r}, got {first!r}", line_no=1)
    for line_no, line in enumerate(lines, start=1 if header is None else 2):
        if header is None:
            line = line.strip()
        if not line or (header is None and line.startswith("#")):
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise TraceParseError(
                f"expected {width} comma-separated fields, got {len(fields)}",
                line_no=line_no,
            )
        yield line_no, fields


LINE_CHUNK = 1 << 12
"""Characters of text, and the rest of a line, that :func:`_lines` splits at once."""


def _lines(text: str):
    """Yield the lines of ``text``, which end at LF, CRLF or a lone CR.

    The text is split a chunk of :data:`LINE_CHUNK` characters at a time,
    each chunk ending at an LF, so that a CRLF never straddles two chunks and
    the split lines of only one chunk are held at once.  Text that ends with
    a line ending ends with an empty line, which callers skip like any.
    """
    start = 0
    while True:
        end = text.find("\n", start + LINE_CHUNK) + 1  # past the chunk's last LF, or 0
        chunk = text[start : end or None]
        if "\r" in chunk:
            chunk = chunk.replace("\r\n", "\n").replace("\r", "\n")
        lines = chunk.split("\n")
        if not end:
            yield from lines
            return
        del lines[-1]  # the empty piece after the chunk's last LF
        yield from lines
        start = end


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
