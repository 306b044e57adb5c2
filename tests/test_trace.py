"""Trace CSV I/O: the loadtxt reader against the line parser, the block writer
against the per-value writer it replaced, and the round trip."""

import gzip
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capcycle import trace as trace_module
from capcycle.cli import main
from capcycle.errors import TraceParseError
from capcycle.model import CycleSpec
from capcycle.presets import preset
from capcycle.simulator import AcquisitionConfig, run_protocol
from capcycle.trace import (
    TRACE_HEADER,
    WRITE_BLOCK_ROWS,
    Trace,
    _decimals,
    _grid_field,
    _read_trace_csv_lines,
    csv_lines,
    read_sidecar_csv,
    read_trace_csv,
    write_trace_csv,
)

_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# Reader: well-formed files and their mutations

# Tokens that float() and np.loadtxt may read differently, or not at all.
_ODD_FIELDS = [
    "", " ", "nan", "inf", "-Infinity", "1e400", "1_0", "１", "١",
    "\x00", '"1"', "#1", "0x1p3", " 0.5", "\t2", "+1", ".5", "2e0", "1 ",
    "3\x0c", "3\x1c", "3\x85", "3 ", "1;2", "--1", "1e", "٫5",
]
# Characters for drawn fields; a fixed alphabet keeps generation fast.
_FIELD_CHARS = "0123456789.eE+-_ ,;\t\r\n#\"'xnaif\x00\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028１١٫"
_ODD_LINES = ["", " ", "\t", "#", "# comment", '"1","2","3"', "1,2,3,", ",,", "\x00"]
_BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf", b"\xef\xbb\xbf"]


@st.composite
def trace_files(draw) -> bytes:
    """A well-formed trace CSV, often mutated into a malformed one."""
    n = draw(st.integers(0, 8))
    period = draw(st.sampled_from([0.1, 0.5, 1.0, 0.02]))
    current = draw(st.sampled_from([0.4, 2.0]))
    rows = [
        [
            f"{k * period:.9g}",
            f"{draw(st.floats(0.0, 2.7)):.9g}",
            f"{current * draw(st.sampled_from([1, 0, -1])):.9g}",
        ]
        for k in range(1, n + 1)
    ]
    lines = [TRACE_HEADER] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["field", "count", "column", "time", "swap", "line", "truncate"]))
        if kind == "truncate":
            lines = lines[: draw(st.integers(1, 3))]
            continue
        if kind == "line":
            at = draw(st.integers(1, len(lines)))
            lines.insert(at, draw(st.sampled_from(_ODD_LINES)))
            continue
        if kind == "column":  # every row one field short, or one too many
            extra = draw(st.sampled_from(["", ",1"]))
            lines[1:] = [line.rpartition(",")[0] if not extra else line + extra
                         for line in lines[1:]]
            continue
        if len(lines) < 2:
            continue
        r = draw(st.integers(1, len(lines) - 1))
        fields = lines[r].split(",")
        if kind == "field":
            c = draw(st.integers(0, len(fields) - 1))
            fields[c] = draw(st.one_of(st.sampled_from(_ODD_FIELDS),
                                       st.text(_FIELD_CHARS, max_size=3)))
        elif kind == "count":
            if draw(st.booleans()) and len(fields) > 1:
                fields.pop()
            else:
                fields.append(draw(st.sampled_from(["", "1"])))
        elif kind == "time":
            fields[0] = f"{draw(st.floats(-1.0, 1.0)):.9g}"
        else:
            s = draw(st.integers(1, len(lines) - 1))
            lines[r], lines[s] = lines[s], lines[r]
            continue
        lines[r] = ",".join(fields)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    content = text.encode("utf-8", "surrogatepass")
    if draw(st.integers(0, 9)) == 9:
        at = draw(st.integers(0, len(content)))
        content = content[:at] + draw(st.sampled_from(_BAD_BYTES)) + content[at:]
    return content


def _assert_one_block(trace):
    """Both readers hand out t, v and i as the columns of one row-major (n, 3) float64 block."""
    columns = (trace.t, trace.v, trace.i)
    block = trace.t.base
    assert all(a.base is block and a.dtype == np.float64 and a.strides == (24,)
               for a in columns)
    assert block.flags.c_contiguous and block.nbytes == 24 * len(trace)
    start = block.__array_interface__["data"][0]
    assert [a.__array_interface__["data"][0] - start for a in columns] == [0, 8, 16]


def _outcome(reader, path):
    try:
        trace = reader(path)
    except TraceParseError as exc:
        return "error", str(exc), exc.line_no
    _assert_one_block(trace)
    return ("trace", trace.t.tobytes(), trace.v.tobytes(), trace.i.tobytes(),
            trace.sample_period, trace.meta)


_PINNED = [
    # np.loadtxt refuses these, so the line parser decides
    b"t_s,v_V,i_A\n1_0,1,2\n20,1,2\n",
    "t_s,v_V,i_A\n１,1,2\n2,1,2\n".encode(),
    b"t_s,v_V,i_A\n1,1,2\n   \n2,1,2\n",
    b"t_s,v_V,i_A\n1,1,2,\n2,1,2,\n",
    b"t_s,v_V,i_A\n1,1,2\n#\n2,1,2\n",
    b't_s,v_V,i_A\n"1",1,2\n"2",1,2\n',
    b"t_s,v_V,i_A\n1,\x00,2\n2,1,2\n",
    b"t_s,v_V,i_A\n1,1,2\n",
    b"t_s,v_V,i_A\n1,1\n2,1\n",
    b"t_s,v_V,i_A\n1,1,2,3\n2,1,2,3\n",
    # np.loadtxt takes these, float() does not
    b"t_s,v_V,i_A\n1\x1c,1,2\n2,1,2\n",
    b"t_s,v_V,i_A\n1,\x1f1,2\n2,1,2\n",
    # both read these
    b"t_s,v_V,i_A\n 1, 1,2\n 2,1, 2\n",
    b"t_s,v_V,i_A\n\t1,1,2\n2\t,1,2\n",
    b"t_s,v_V,i_A\n+1,.5,2e0\n2,+.5,-2e0\n",
    b"t_s,v_V,i_A\r\n1,1,2\r\n2,1,2\r\n",
    b"t_s,v_V,i_A\r1,1,2\r2,1,2\r",
    # neither
    b"t_s,v_V,i_A\n\xff,1,2\n",
    b"\xef\xbb\xbft_s,v_V,i_A\n1,1,2\n2,1,2\n",
    b"t_s,v_V,i_A\n1,nan,2\n2,1,2\n",
    b"t_s,v_V,i_A\n2,1,2\n1,1,2\n",
    b"t_s,v_V,i_A\n",
]


def _pin(examples):
    def deco(fn):
        for content in examples:
            fn = example(content=content)(fn)
        return fn
    return deco


@_SETTINGS
@_pin(_PINNED)
@given(content=trace_files())
def test_fast_reader_agrees_with_line_parser(capsys, tmp_path, content):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    fast = _outcome(read_trace_csv, path)
    assert fast == _outcome(_read_trace_csv_lines, path)

    code = main(["analyze", str(path), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code in (0, 3, 4) and "Traceback" not in err, err
    if fast[0] == "error":
        assert (code, err) == (3, f"error: {fast[1]}\n")


def test_non_utf8_error_names_line_and_path(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t_s,v_V,i_A\r\n1,1,2\r2,1,2\n3,\xe2\x82,2\n")
    with pytest.raises(TraceParseError) as exc:
        read_trace_csv(path)
    assert exc.value.line_no == 4
    assert str(exc.value) == f"line 4: {path} is not UTF-8 (invalid continuation byte: 0xe2)"


def _arrays(outcome):
    return outcome[:-1] if outcome[0] == "trace" else outcome


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compression_suffix_reads_plain_text(tmp_path, suffix):
    # np.loadtxt would decompress a path with these suffixes
    content = b"t_s,v_V,i_A\n0.1,1,2\n0.2,1.5,2\n0.3,2,-2\n"
    plain, named = tmp_path / "t.csv", tmp_path / f"t{suffix}"
    plain.write_bytes(content)
    named.write_bytes(content)
    expected = _outcome(read_trace_csv, plain)
    assert expected[0] == "trace"
    assert _arrays(_outcome(read_trace_csv, named)) == _arrays(expected)


@pytest.mark.parametrize("name", ["run.csv.gz", "run.csv"])
def test_gzip_of_trace_exit_3(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_bytes(gzip.compress(b"t_s,v_V,i_A\n0.1,1,2\n0.2,1.5,2\n", mtime=0))
    code = main(["analyze", str(path), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert (code, err) == (3, f"error: line 1: {path} is not UTF-8 (invalid start byte: 0x8b)\n")


@pytest.mark.parametrize("content, fast", [
    (b"t_s,v_V,i_A\r1,1,2\r2,1,2\r", True),
    (b"t_s,v_V,i_A\r\n1,1,2\r\n2,1,2\r\n", True),
    (b"t_s,v_V,i_A\r1,1,2\n2,1,2\n", True),
    (b"t_s,v_V,i_A\r\n1,1,2\n2,1,2", True),
    (b"\xef\xbb\xbft_s,v_V,i_A\n1,1,2\n2,1,2\n", False),
    (b"\xef\xbb\xbft_s,v_V,i_A\r\n1,1,2\r\n2,1,2\r\n", False),
    (b"t_s,v_V,i_A \n1,1,2\n2,1,2\n", False),
    (b"t_s,v_V,i_AA\n1,1,2\n2,1,2\n", False),
    (b"t_s,v_V,i_\n1,1,2\n2,1,2\n", False),
    (b"\nt_s,v_V,i_A\n1,1,2\n2,1,2\n", False),
    (b"t_s,v_V,i_A", True),
    (b"t_s,v_V,i_A\r", True),
])
def test_header_line_endings(tmp_path, monkeypatch, content, fast):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    expected = _outcome(_read_trace_csv_lines, path)
    calls = []

    def line_parser(p):
        calls.append(p)
        return _read_trace_csv_lines(p)

    monkeypatch.setattr("capcycle.trace._read_trace_csv_lines", line_parser)
    assert _outcome(read_trace_csv, path) == expected
    # a header the line parser accepts needs no second pass, unless the file
    # holds too few rows for loadtxt's result to stand
    assert (not calls) == (fast and expected[0] == "trace")


def test_loadtxt_reads_from_the_path(tmp_path, monkeypatch):
    # given an open file numpy pulls it one line at a time; given the path,
    # it reads the file in chunks
    seen = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        seen.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    path = tmp_path / "t.csv"
    path.write_bytes(b"t_s,v_V,i_A\n0.1,1,2\n0.2,1.5,2\n")
    assert read_trace_csv(path).v.tolist() == [1.0, 1.5]
    assert seen == [str(path)]


def _sample_trace(n: int) -> Trace:
    """An ``n``-sample trace: fl(k*0.1) times, uniform voltages, three currents."""
    rng = np.random.default_rng(3)
    third = n // 3
    return Trace(t=np.arange(1, n + 1) * 0.1, v=rng.uniform(0.0, 2.7, n),
                 i=np.repeat([3.95, 0.0, -3.95], [third, third, n - 2 * third]),
                 sample_period=0.1)


def _memory_trace(tmp_path, n=20_000):
    """A written ``n``-sample trace's path and its three columns' bytes."""
    return write_trace_csv(_sample_trace(n), tmp_path / "t.csv"), 24 * n


def test_fast_reader_peaks_at_the_loadtxt_block_and_validation(tmp_path, traced_peak):
    # The columns are views of the (n, 3) loadtxt block, the columns' bytes.
    # At the peak validation's diff and offset arrays, 2/3 of them, are live
    # beside it: 5/3x.  The allowance is for the Trace and its meta.  The
    # first call imports np.loadtxt's file helpers, so it is made untraced.
    path, nbytes = _memory_trace(tmp_path)
    read_trace_csv(path)
    _, peak = traced_peak(read_trace_csv, path)
    assert peak <= nbytes * 5 / 3 + 16 * 1024, peak / nbytes


def test_line_parser_peak_is_the_text_and_one_copy_of_the_samples(tmp_path, traced_peak):
    # The text is ASCII, so its str takes a byte a character, as the file
    # does.  While it is decoded the file's bytes and the str are live: 2x
    # the file.  Then the str stays while the array('d') of samples fills, to
    # at most 1/16 over its size.  The columns are views of that array, so
    # once the text is gone only validation's diff and offset arrays, 2/3 of
    # the columns' bytes, join it.  Here the file is 0.91x the columns'
    # bytes, so the middle term is the peak.  The allowance covers one
    # chunk's text and its per-line strings and floats, about 19 kB here:
    # some 190 lines of 22 characters, each a str of 71 bytes.
    path, nbytes = _memory_trace(tmp_path)
    size = path.stat().st_size
    _, peak = traced_peak(_read_trace_csv_lines, path)
    terms = (2 * size, size + nbytes * 17 / 16, nbytes * (17 / 16 + 2 / 3))
    assert peak <= max(terms) + 24 * 1024, peak / nbytes


@pytest.mark.parametrize("reader", [read_trace_csv, _read_trace_csv_lines],
                         ids=["read_trace_csv", "line_parser"])
@pytest.mark.parametrize("content, message", [
    (b"t_s,v_V,i_A\n0.1,1,2\n   \n0.2,1.5,2\n",
     "line 3: expected 3 comma-separated fields, got 1"),
    (b"t_s,v_V,i_A\n0.1,1,2\n0.2,1.5,2\x1c\n",
     "line 3: unparseable number in '0.2,1.5,2\\x1c'"),
], ids=["spaces", "separator"])
def test_trace_lines_are_not_stripped(tmp_path, reader, content, message):
    # a trace line loses only its line ending: spaces and the separators that
    # str.strip() would remove stay part of it
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(TraceParseError) as exc:
        reader(path)
    assert str(exc.value) == message


def test_sidecar_line_of_spaces_is_refused(tmp_path):
    path = tmp_path / "t.cycles.csv"
    path.write_bytes(b"cycle,phase,t_start_s,t_end_s\n1,charge,0,1\n   \n")
    with pytest.raises(TraceParseError) as exc:
        read_sidecar_csv(path)
    assert str(exc.value) == "line 3: expected 4 comma-separated fields, got 1"


def _regex_csv_lines(path, width, header=None):
    """``csv_lines`` as it split lines before, one regex match a line, kept as its oracle."""
    text = path.read_bytes().decode("utf-8")
    lines = (m[1] for m in re.finditer(r"([^\r\n]*)(?:\r\n|\r|\n|\Z)", text))
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


def _collected(lines):
    """The items a line reader yields, then the error that ends it, if any."""
    out = []
    try:
        out.extend(lines)
    except TraceParseError as exc:
        out.append(("error", str(exc), exc.line_no))
    return out


_LINE_PIECES = ["\n", "\r\n", "\r", " ", "\t", "#c", "1", "1,2", "1,2,3", " 1,2 ", "x,y,z,w",
                TRACE_HEADER, "\x1c", "é"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pieces=st.lists(st.sampled_from(_LINE_PIECES), max_size=40),
    width=st.sampled_from([1, 2, 3]),
    header=st.sampled_from([None, TRACE_HEADER, "1,2"]),
    chunk=st.sampled_from([0, 1, 2, 7, 4096]),
)
@example(pieces=["1,2", "\r", "\n", "1,2"], width=2, header=None, chunk=0)
@example(pieces=[TRACE_HEADER, "\r\n", "1,2,3", "\r"], width=3, header=TRACE_HEADER, chunk=1)
def test_csv_lines_match_the_regex_splitter(tmp_path, monkeypatch, pieces, width, header, chunk):
    # Lines end at LF, CRLF or a lone CR, with a CRLF one ending even where a
    # chunk of the split ends at its LF; fields, line numbers and errors are
    # those of the regex splitter the chunked split replaced.
    monkeypatch.setattr(trace_module, "LINE_CHUNK", chunk)
    path = tmp_path / "t.csv"
    path.write_bytes("".join(pieces).encode())
    got = _collected(csv_lines(path, width, header))
    assert got == _collected(_regex_csv_lines(path, width, header))


# ---------------------------------------------------------------------------
# Writer: byte identity with the per-value writer, and the round trip


def _write_per_value(trace: Trace, path) -> None:
    """The writer the block writer replaced, kept as its oracle."""
    lines = [TRACE_HEADER]
    lines.extend(
        f"{t:.9g},{v:.9g},{i:.9g}" for t, v, i in zip(trace.t, trace.v, trace.i)
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


_SPECIAL = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300,
            1e-300, -1e-300, 1.0, -7.0, 123456789.0, 1234567891.0, 2.0**53, 1e16,
            0.1, 2.7, float("nan"), float("inf"), -float("inf")]
_VALUES = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_ROW_COUNTS = st.one_of(
    st.sampled_from([0, 1, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS,
                     WRITE_BLOCK_ROWS + 1, 2 * WRITE_BLOCK_ROWS + 1]),
    st.integers(1, 40),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_block_writer_matches_per_value_writer(tmp_path, data):
    n = data.draw(_ROW_COUNTS, label="rows")
    columns = data.draw(arrays(np.float64, (3, n), elements=_VALUES))
    trace = Trace(t=columns[0], v=columns[1], i=columns[2], sample_period=0.1)
    write_trace_csv(trace, tmp_path / "block.csv")
    _write_per_value(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("n", [1, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS,
                               WRITE_BLOCK_ROWS + 1])
def test_block_edges(tmp_path, n):
    rng = np.random.default_rng(n)
    columns = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-300, 300, (3, n))
    trace = Trace(t=columns[0], v=columns[1], i=columns[2], sample_period=0.1)
    write_trace_csv(trace, tmp_path / "block.csv")
    _write_per_value(trace, tmp_path / "oracle.csv")
    written = (tmp_path / "block.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    assert written.count(b"\n") == n + 1


# Values whose bits differ although some compare equal, or print alike.
_POOL = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                  2.5e-310, 2.2250738585072014e-308, 1.0, 2.7, -3.95, 0.93e-3,
                  123456789.0]
                 + np.array([0x7FF8000000000001, -1], np.int64).view(np.float64).tolist())


def _runs_column(rng, n, mode):
    """n pool values; each block of the writer holds the runs that mode asks for.

    Adjacent runs take adjacent pool values, so they never merge; half of the
    blocks begin with the value the block before ended on, so a run crosses
    the block edge.
    """
    blocks, at = [], int(rng.integers(_POOL.size))
    for start in range(0, n, WRITE_BLOCK_ROWS):
        m = min(WRITE_BLOCK_ROWS, n - start)
        half = (m + 1) // 2  # "below", "at" and "above": about one run per two rows
        runs = {"few": min(m, 1 + int(rng.integers(3))), "below": max(1, half - 1),
                "at": half, "above": min(m, half + 1),
                "any": int(rng.integers(1, m + 1))}[mode]
        new_run = np.zeros(m, dtype=np.int64)
        new_run[rng.choice(np.arange(1, m), runs - 1, replace=False)] = 1
        pool_at = at + np.cumsum(new_run)
        blocks.append(_POOL[pool_at % _POOL.size])
        at = int(pool_at[-1]) + int(rng.integers(2))
    return np.concatenate(blocks) if blocks else np.empty(0)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.sampled_from([1, 2, 3, 40, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS,
                       WRITE_BLOCK_ROWS + 1, 2 * WRITE_BLOCK_ROWS + 3]),
    modes=st.lists(st.sampled_from(["few", "below", "at", "above", "any"]),
                   min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_writer_matches_per_value_writer(tmp_path, n, modes, seed):
    rng = np.random.default_rng(seed)
    t, v, i = (_runs_column(rng, n, mode) for mode in modes)
    trace = Trace(t=t, v=v, i=i, sample_period=0.1)
    write_trace_csv(trace, tmp_path / "block.csv")
    _write_per_value(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("column", [
    np.array([-0.0, 0.0, 0.0, -0.0, 1.0]),
    _POOL[[2, 3, 15, 16, 2, 2, 16]],
    np.repeat([-0.0, 0.0, np.nan, 2.7], [WRITE_BLOCK_ROWS - 1, 2, WRITE_BLOCK_ROWS, 5]),
], ids=["signed_zeros", "nan_payloads", "across_block_edges"])
def test_runs_match_per_value_writer(tmp_path, column):
    # Runs are delimited by bits: -0.0 and 0.0 compare equal but print apart,
    # NaNs of every payload print alike, and a run that crosses a block edge
    # is formatted in each block.
    trace = Trace(t=column, v=column[::-1].copy(), i=column, sample_period=0.1)
    write_trace_csv(trace, tmp_path / "block.csv")
    _write_per_value(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# Periods whose multiples the time path spells, and some whose it refuses.
_PERIODS = [0.1, 0.02, 0.25, 1.0, 3.7, 1e-5, 1 / 3]
# Times near the edges of the integer path: %g's fixed range [1e-4, 1e9),
# 9 against 10 significant digits, and the tops of decades, where half a
# 9th-digit unit is the smallest share of the value.
_ANCHORS = [5e-5, 1e-4, 1e-3, 1.0, 9.99, 1e4, 1e7, 99999999.9, 1e8, 1e9,
            123456789.0, 12345678.9]


@st.composite
def time_columns(draw):
    """A time column near an edge of the integer path, and its sample period."""
    period = draw(st.sampled_from(_PERIODS))
    n = draw(st.sampled_from([1, 2, 7, 40, WRITE_BLOCK_ROWS + 2]))
    first = round(draw(st.sampled_from(_ANCHORS)) / period) + draw(st.integers(-8, 8))
    k = np.arange(first, first + n, dtype=np.float64)
    if draw(st.booleans()):
        t = k * period  # fl(k*dt), as the simulator makes it
    else:  # as read back from a CSV: the decimal of k*dt, e.g. fl(k/10)
        t = np.array([float(f"{x:.9g}") for x in (k * period).tolist()])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["scale", "ulps", "special"]))
        if kind == "scale":  # off the grid by a relative amount near the margin
            t[at] *= 1 + draw(st.sampled_from([1e-13, -9e-13, 1.1e-12, 3e-12, 6e-10, -9e-10]))
        elif kind == "ulps":
            t[at] = t[at] + draw(st.integers(-3, 3)) * np.spacing(t[at])
        else:
            t[at] = draw(st.sampled_from([0.0, -0.0, -t[at], np.nan, np.inf, -np.inf]))
    return t, draw(st.sampled_from([period, float(t[1] - t[0]) if n > 1 else period]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(column=time_columns())
def test_time_column_matches_per_value_writer(tmp_path, column):
    t, period = column
    trace = Trace(t=t, v=np.zeros(t.size), i=np.zeros(t.size), sample_period=period)
    write_trace_csv(trace, tmp_path / "block.csv")
    _write_per_value(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("t, period, spelled", [
    ([99999999.8, 99999999.9], 0.1, True),  # 9 significant digits
    ([99999999.9, 100000000.0], 0.1, False),  # N = 10**9: 10 digits
    ([12345678.9, 123456789.1], 0.1, False),  # 10 significant digits
    ([999999998.0, 999999999.0], 1.0, True),
    ([999999999.0, 1e9], 1.0, False),  # %g writes 1e+09
    ([0.0001, 0.00011], 1e-5, True),
    ([0.00009, 0.0001], 1e-5, False),  # %g writes 9e-05
    ([0.1, 0.2, 0.30000000000000004], 0.1, True),  # fl(k*0.1)
    ([0.1, 0.2, 0.3], 0.1, True),  # fl(k/10), read back
    ([0.1, 0.2 * (1 + 5e-13)], 0.1, True),  # within the margin
    ([0.1, 0.2 * (1 + 3e-12)], 0.1, False),
    ([1 / 3, 2 / 3], 1 / 3, False),
    ([0.0, 0.1], 0.1, False),
    ([-0.1, 0.1], 0.1, False),
    ([np.nan, 0.1], 0.1, False),
    ([np.inf, 0.1], 0.1, False),
])
def test_time_path_edges(tmp_path, t, period, spelled):
    t = np.array(t)
    assert (_grid_field(t, _decimals(period)) is not None) == spelled
    trace = Trace(t=t, v=t, i=t, sample_period=period)
    write_trace_csv(trace, tmp_path / "block.csv")
    _write_per_value(trace, tmp_path / "oracle.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def _refused_blocks(trace: Trace) -> list[int]:
    e = _decimals(trace.sample_period)
    starts = range(0, len(trace), WRITE_BLOCK_ROWS)
    return [s for s in starts if _grid_field(trace.t[s : s + WRITE_BLOCK_ROWS], e) is None]


@pytest.mark.parametrize("period", [0.1, 0.02, 0.25, 1.0])
def test_time_column_takes_the_integer_path(tmp_path, period):
    # A silent fall back to %.9g would keep the bytes and lose the speed.
    rest = WRITE_BLOCK_ROWS * period  # four rests of a block each
    spec = CycleSpec(i_c=3.95, v_min=0.0, v_max=2.7, rest_after_charge=rest,
                     rest_after_discharge=rest, max_cycles=2)
    acq = AcquisitionConfig(sample_period=period, quantize=True)
    trace = run_protocol(preset("50F"), spec, acq)
    assert len(trace) > 4 * WRITE_BLOCK_ROWS
    assert _refused_blocks(trace) == []
    back = read_trace_csv(write_trace_csv(trace, tmp_path / "t.csv"))
    assert _refused_blocks(back) == []


def _bit_runs(*columns) -> int:
    """The number of runs of rows that are bitwise equal in every column."""
    change = np.zeros(max(columns[0].size - 1, 0), dtype=bool)
    for column in columns:
        bits = column.view(np.int64)
        change |= bits[1:] != bits[:-1]
    return int(columns[0].size > 0) + int(change.sum())


def test_row_tail_is_spelled_once_per_run(tmp_path, monkeypatch):
    # A silent fall back to a field per sample, or to a run key per column,
    # would keep the bytes and lose the speed.  On the campaign trace each
    # block spells exactly its (v, i) bit-runs, two fields each.
    spec = CycleSpec(i_c=3.95, v_min=0.0, v_max=2.7, rest_after_charge=1800.0,
                     rest_after_discharge=1800.0, max_cycles=8)
    trace = run_protocol(preset("50F"), spec, AcquisitionConfig(quantize=True))
    spelled, spell = [], trace_module._spelled
    monkeypatch.setattr(trace_module, "_spelled",
                        lambda rows, end: (spelled.append(rows.shape), spell(rows, end))[1])
    write_trace_csv(trace, tmp_path / "t.csv")
    starts = range(0, len(trace), WRITE_BLOCK_ROWS)
    blocks = [slice(s, s + WRITE_BLOCK_ROWS) for s in starts]
    assert spelled == [(_bit_runs(trace.v[b], trace.i[b]), 2) for b in blocks]
    assert sum(runs for runs, _ in spelled) < len(trace) / 10


def test_writer_peak_does_not_grow_with_the_rows(tmp_path, traced_peak):
    # The writer holds one block at a time: the formatted values' tuple
    # (32 bytes a value) and text, and byte matrices of about 40 bytes a row
    # with their bytes and compacted copy.  Measured: about 142 bytes a row
    # of a block, at 4 blocks and at 16.
    path = tmp_path / "t.csv"
    for blocks in (4, 16):
        trace = _sample_trace(blocks * WRITE_BLOCK_ROWS)
        write_trace_csv(trace, path)  # builds the digit table once per process
        _, peak = traced_peak(write_trace_csv, trace, path)
        assert peak <= 192 * WRITE_BLOCK_ROWS, (blocks, peak / WRITE_BLOCK_ROWS)


_FINITE = st.one_of(
    st.sampled_from([v for v in _SPECIAL if np.isfinite(v)] + [np.finfo(float).max]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(2, 60),
    period=st.sampled_from([0.02, 0.1, 0.25, 1.0, 3.7]),
    data=st.data(),
)
def test_round_trip(tmp_path, n, period, data):
    v = data.draw(arrays(np.float64, n, elements=_FINITE), label="v")
    i = data.draw(arrays(np.float64, n, elements=_FINITE), label="i")
    trace = Trace(t=np.arange(1, n + 1) * period, v=v, i=i, sample_period=period)
    first = write_trace_csv(trace, tmp_path / "a.csv")
    back = read_trace_csv(first)
    for read, wrote in ((back.t, trace.t), (back.v, v), (back.i, i)):
        expected = np.array([float(f"{x:.9g}") for x in wrote.tolist()])
        assert read.tobytes() == expected.tobytes()
    second = write_trace_csv(back, tmp_path / "b.csv")
    assert second.read_bytes() == first.read_bytes()
