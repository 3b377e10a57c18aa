"""The bulk ``read_csv`` parse against the ``csv.reader`` parse.

``model._parse_plain`` hands a file in ``write_csv``'s alphabet to
``np.loadtxt``, returning its checked (n, 2) array, and declines
(returns None) every other file, and every file numpy's reader or the
point check rejects; ``model._parse_csv``
then reads it row by row.  Whenever the bulk parse
accepts a file, both must give bit-identical columns; and ``read_csv``
as a whole must behave exactly like the row-by-row reader it replaced,
kept below as the oracle, except that it reports that reader's
``csv.Error`` as a :class:`DataFormatError`.  The oracle numbers rows by
the physical line they end on (``reader.line_num``), as ``read_csv``
does; the reader it copies numbered them by record, one too low after a
quoted field holding a line break.

``read_csv`` reads the whole file in one call, so it must take a file
that arrives in short pieces, as one written to a pipe does; the tests
ending ``in_short_blocks`` rerun the cases through a named pipe fed a
few bytes per write, so that rows, blank rows and CRLF endings straddle
the points where a piece ends.  ``write_csv`` writes in blocks of rows,
and must give the bytes of the one-string formatting it replaced, kept
below as its oracle.
"""

import csv
import locale
import math
import os
import random
import re
import threading
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fgmexp import model
from fgmexp.model import DataFormatError, Dataset, read_csv


def oracle_point(x: float, y: float) -> tuple[float, float]:
    """That reader's per-point check, copied, not shared with the package."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"coordinates must be finite, got ({x!r}, {y!r})")
    if x < 0.0 or y < 0.0:
        raise ValueError(f"coordinates must be nonnegative, got ({x}, {y})")
    return x, y


def oracle_read_csv(path) -> Dataset:
    """The row-by-row reader ``read_csv`` used before the bulk parse, with
    rows numbered by physical line."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [cell.strip() for cell in header] != ["x", "y"]:
            raise DataFormatError(1, "expected header 'x,y'")
        for row in reader:
            line_no = reader.line_num
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(line_no, f"expected 2 fields, got {len(row)}")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                raise DataFormatError(line_no, f"non-numeric value in {row!r}") from None
            try:
                points.append(oracle_point(x, y))
            except ValueError as exc:
                raise DataFormatError(line_no, str(exc)) from None
    return Dataset.from_arrays([p[0] for p in points], [p[1] for p in points])


def outcome(parse, arg):
    """What a parser did: the exact bits of its columns, or its error."""
    try:
        data = parse(arg)
    except DataFormatError as exc:
        return ("DataFormatError", str(exc), exc.line_no)
    except csv.Error as exc:  # an oversized field; NUL bytes under CPython 3.10
        return ("csv.Error", str(exc))
    return ("data", data.x.tobytes(), data.y.tobytes())


def piped_outcome(path, text: str, block_chars: int):
    """What ``read_csv`` did with ``text`` read from a named pipe at
    ``path``, fed ``block_chars`` bytes per write."""
    raw = text.encode("utf-8")
    os.mkfifo(path)

    def feed():
        fd = os.open(path, os.O_WRONLY)
        try:
            for i in range(0, len(raw), block_chars):
                os.write(fd, raw[i:i + block_chars])
        finally:
            os.close(fd)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return outcome(read_csv, path)
    finally:
        writer.join(timeout=60)
        path.unlink()
        assert not writer.is_alive(), "the pipe's writer did not finish"


def check_file(path, text: str, block_chars: int | None = None) -> bool:
    """Assert both parses agree on ``text``, and ``read_csv`` warns of
    nothing, also when it reads ``text`` from a pipe in writes of
    ``block_chars`` bytes; True when the bulk one took it."""
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (outcome(read_csv, path) if block_chars is None
               else piped_outcome(path.with_suffix(".pipe"), text, block_chars))
    want = outcome(oracle_read_csv, path)
    if want[0] == "csv.Error":
        # the one outcome that differs: read_csv reports the csv module's
        # error as a DataFormatError, with the line where it stopped
        assert got[0] == "DataFormatError"
        assert got[1].endswith(want[1])
    else:
        assert got == want
    fast = parse_plain(text)
    if fast is None:
        return False
    assert ("data", fast.x.tobytes(), fast.y.tobytes()) == outcome(model._parse_csv, text)
    return True


def parse_plain(text: str):
    """The bulk parse of ``text`` as the file ``check_file`` writes, as a
    dataset of its (n, 2) array's columns, or None."""
    xy = model._parse_plain(text.encode("utf-8"), locale.getpreferredencoding(False))
    return None if xy is None else Dataset.from_arrays(xy[:, 0], xy[:, 1])


# the longest field csv.reader takes
LIMIT = csv.field_size_limit()

# (file text, whether the bulk parse should take it)
CASES = {
    "lf": ("x,y\n1.5,2.0\n0.25,3\n", True),
    "crlf": ("x,y\r\n1.5,2.0\r\n0.25,3\r\n", True),
    "no trailing newline": ("x,y\n1.5,2.0\n0.25,3", True),
    "crlf no trailing newline": ("x,y\r\n1.5,2.0\r\n0.25,3", True),
    "blank lines": ("x,y\n\n1.5,2.0\n\n\n0.25,3\n\n", True),
    "crlf blank lines": ("x,y\r\n\r\n1.5,2.0\r\n\r\n", True),
    "whitespace around values": ("x,y\n 1.5 , 2.0\t\n", True),
    "spaced header": (" x , y\n1.0,2.0\n", True),
    "negative zero": ("x,y\n-0.0,0.0\n0.0,-0.0\n", True),
    "underscore literal": ("x,y\n1_0,2\n", False),
    "exponents": ("x,y\n1e-300,2.5E+2\n", True),
    "header only": ("x,y\n", False),
    "header only no newline": ("x,y", False),
    "mixed lf and crlf": ("x,y\r\n1,2\n3,4\r\n", True),
    "crlf blank row between data rows": ("x,y\r\n1,2\r\n\r\n3,4\r\n", True),
    "non-ascii digits": ("x,y\n\u0661.5,\u0662\n", False),
    "vertical tab and form feed around values": ("x,y\n\x0b1\x0c,2\x0b\n", False),
    "next line after a value": ("x,y\n1\x85,2\n", False),
    # numpy skips these blank rows, as csv.reader does
    "crlf ending before a trailing blank row": ("x,y\r\n1,2\r\n\r\n", True),
    "carriage-return-only row at the end": ("x,y\n1,2\n\r\n", True),
    "blank rows only": ("x,y\n\n\r\n\n", False),
    "empty file": ("", False),
    "blank first line": ("\nx,y\n1,2\n", False),
    "bad header": ("a,b\n1,2\n", False),
    "quoted header": ('"x","y"\n1,2\n', False),
    "quoted values": ('x,y\n"1.5","2"\n', False),
    "quote inside a field": ('x,y\n1"5,2\n', False),
    "quoted newline": ('x,y\n"1\n",2\n', False),
    "error after a quoted newline": ('x,y\n"1\n",2\nbogus,3\n', False),
    "error in a row holding a quoted newline": ('x,y\n1,2\n"1\n",\n', False),
    "lone carriage return endings": ("x,y\r1,2\r3,4\r", False),
    "lone carriage return in a row": ("x,y\n1,2\r3,4\n", False),
    "carriage return before crlf": ("x,y\n1,2\r\r\n", False),
    "carriage return at the very end": ("x,y\n1,2\r", True),
    "lone carriage return in the header": ("x\r,y\n1,2\n", False),
    "header ending in a lone carriage return": ("x,y\r", False),
    "blank row before a lone carriage return": ("x,y\n\n1,2\r3,4\n", False),
    "blank row before three fields": ("x,y\n\n1,2,3\n", False),
    "blank row before an unended one-field row": ("x,y\n\n1,2\n3", False),
    "blank row before a comma-only row": ("x,y\n\n1,2\n,\n", False),
    "nan": ("x,y\nnan,1\n", False),
    "inf": ("x,y\n1,inf\n", False),
    "overflow to inf": ("x,y\n1e400,1\n", False),
    "negative": ("x,y\n1,2\n-1,2\n", False),
    "one field": ("x,y\n1,2\n3\n", False),
    "one field in an unended last row": ("x,y\n1,2\n3", False),
    "three fields": ("x,y\n1,2,3\n", False),
    "trailing comma": ("x,y\n1,2,\n", False),
    "empty fields": ("x,y\n,\n", False),
    "comma-only row": ("x,y\n1,2\n,\n3,4\n", False),
    "one then three fields": ("x,y\n1\n2,3,4\n", False),
    "three then one fields": ("x,y\n1,2,3\n4\n", False),
    "file separator after a value": ("x,y\n1\x1c,2\n", False),
    "group separator after a value": ("x,y\n1\x1d,2\n", False),
    "record separator after a value": ("x,y\n1\x1e,2\n", False),
    "unit separator after a value": ("x,y\n1\x1f,2\n", False),
    "whitespace-only row": ("x,y\n1,2\n  \n", False),
    "non-numeric": ("x,y\n1,2\nbogus,3\n", False),
    "negative before non-numeric": ("x,y\n1,2\n-1,2\n3,4\nbogus,5\n", False),
    "nul in a value": ("x,y\n1\x00,2\n", False),
    "nul row": ("x,y\n\x00\n", False),
    "nul in header": ("x,y\x00\n1,2\n", False),
    "field over the csv size limit": ("x,y\n0.5,0.25\n" + "1" * 200000 + ",0.5\n", False),
    # a finite value one character over the limit, and one at it
    "finite field over the csv size limit": ("x,y\n0.5,0.25\n" + "0" * LIMIT + "1,0.5\n", False),
    "spaces over the csv size limit": ("x,y\n0.5," + " " * LIMIT + "1\n", False),
    "field at the csv size limit": ("x,y\n0.5,0.25\n" + "0" * (LIMIT - 1) + "1,0.5\n", True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bulk_parse_matches_csv_reader(tmp_path, name):
    text, takes_bulk_path = CASES[name]
    assert check_file(tmp_path / "data.csv", text) is takes_bulk_path


# bytes per write to the pipe, far below a line of a written file
BLOCK_CHARS = [1, 2, 3, 7, 64]


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
def test_bulk_parse_matches_csv_reader_in_short_blocks(tmp_path, block_chars):
    for name, (text, takes_bulk_path) in CASES.items():
        assert check_file(tmp_path / "data.csv", text, block_chars) is takes_bulk_path, name


def test_written_files_take_the_bulk_path(tmp_path):
    data = model.sample(500, 0.4, 3)
    path = tmp_path / "data.csv"
    model.write_csv(path, data)
    text = path.read_bytes().decode("utf-8")
    assert check_file(path, text)
    assert parse_plain(text) == data


def test_benchmark_size_file_reads_back_bit_for_bit(tmp_path):
    data = model.sample(100_000, 0.3, 5)
    path = tmp_path / "data.csv"
    model.write_csv(path, data)
    assert parse_plain(path.read_bytes().decode("utf-8")) is not None
    got = read_csv(path)
    assert got.x.tobytes() == data.x.tobytes()
    assert got.y.tobytes() == data.y.tobytes()


def windowed_long_field(raw: bytes, limit: int) -> bool:
    """The field-run gate without its sampled pre-filter: the scan of
    overlapping windows alone, copied, not shared with the package."""
    run = b"a" * (limit + 1)
    return any(run in raw[i:i + model._SCAN_WINDOW + limit].translate(model._FIELD_RUNS)
               for i in range(0, len(raw), model._SCAN_WINDOW))


def longest_field(raw: bytes) -> int:
    """The longest run of bytes other than the comma, CR and LF."""
    return max(map(len, re.findall(rb"[^,\r\n]+", raw)), default=0)


@pytest.fixture
def field_limit():
    """``csv.field_size_limit``, restored after the test."""
    old = csv.field_size_limit()
    yield csv.field_size_limit
    csv.field_size_limit(old)


def test_long_field_gate_matches_a_run_length_scan(field_limit):
    # limits from 1 up, most of them past 1023, where the sampled
    # pre-filter runs (step 2 to 11), and fields drawn around the limit
    rng = random.Random(2031)
    encoding = locale.getpreferredencoding(False)
    for _ in range(3000):
        limit = rng.randint(1023, 6000) if rng.random() < 0.8 else rng.randint(1, 1100)
        field_limit(limit)
        lengths = [limit - 2, limit - 1, limit, limit + 1, limit + 2]
        rows = []
        for _ in range(rng.randint(1, 6)):
            cells = []
            for _ in range(2):
                size = rng.choice([rng.randint(1, 20), rng.choice(lengths),
                                   rng.randint(1, 2 * limit)])
                pad = " " * rng.randint(0, min(3, size - 1))
                cells.append(pad + "0" * (size - len(pad) - 1) + "1")
            rows.append(",".join(cells))
        raw = rng.choice(["\n", "\r\n"]).join(["x,y", *rows, ""]).encode()
        long = longest_field(raw) > limit
        assert model._long_field(raw, limit) is long
        assert windowed_long_field(raw, limit) is long
        assert (model._parse_plain(raw, encoding) is None) is long


def test_fixed_width_rows_whose_length_divides_the_step_take_the_bulk_path():
    # 32-byte rows, and the default limit's step is 256: every sampled byte
    # is the same byte of its row, a field byte, so the sample is one long
    # run and the windowed scan decides
    step = (LIMIT + 1) // 512
    assert step % 32 == 0
    text = "x,y\n" + "0.12345678901234,0.123456789012\n" * 20_000
    raw = text.encode()
    assert b"a" * ((LIMIT + 1) // step) in raw[::step].translate(model._FIELD_RUNS)
    assert model._long_field(raw, LIMIT) is windowed_long_field(raw, LIMIT) is False
    fast = parse_plain(text)
    assert fast is not None and len(fast.x) == 20_000


@pytest.mark.parametrize("size,long", [(LIMIT + 1, True), (LIMIT, False)],
                         ids=["over the limit", "at the limit"])
def test_a_long_field_is_found_at_every_residue_of_the_step(size, long):
    # blank lines of at least a step around the field, so that the sampled
    # run is the field's own
    step = (LIMIT + 1) // 512
    for residue in range(step):
        head = "x,y\n" + "\n" * (step + (residue - 4) % step)
        assert len(head) % step == residue
        text = head + "0" * (size - 1) + "1,0.5\n" + "\n" * step + "0.5,0.25\n" * 1000
        raw = text.encode()
        assert model._long_field(raw, LIMIT) is windowed_long_field(raw, LIMIT) is long
        assert (parse_plain(text) is None) is long


PLAIN =["1.5", " 2 ", "0", "-0.0", "7e-3", "4.25\t", "0.1"]
VALID = PLAIN + ["1_0", "\u0663.\u0665", "\x0c0.5\x0c"]
INVALID = ["1e400", "nan", "inf", "-1", "", "abc", '"3"', "\x00"]
HEADERS = ["x,y", " x , y", "x, y", "X,Y", "x", "x,y,z", '"x",y', ""]


@st.composite
def csv_texts(draw, headers, cells, arity, endings):
    """A header, rows of ``arity`` cells or blank, and line endings, all
    drawn from the given choices; a trailing line ending or none."""
    row = st.one_of(st.lists(st.sampled_from(cells), min_size=arity[0], max_size=arity[1]),
                    st.just([]))
    ending = st.sampled_from(endings)
    parts = [draw(st.sampled_from(headers))]
    for r in draw(st.lists(row, max_size=8)):
        parts.append(draw(ending))
        parts.append(",".join(r))
    if draw(st.booleans()):
        parts.append(draw(ending))
    return "".join(parts)


# files the bulk parse takes (at least one row after the header), and
# files of every kind
plain_texts = csv_texts(["x,y", " x , y", "x, y"], PLAIN, (2, 2), ["\n", "\r\n"]).filter(
    lambda text: "," in text.partition("\n")[2])
any_texts = csv_texts(HEADERS, VALID + INVALID, (1, 3), ["\n", "\r\n", "\r"])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(plain_texts, any_texts))
def test_bulk_parse_matches_csv_reader_on_generated_files(tmp_path, text):
    check_file(tmp_path / "data.csv", text)


@given(text=plain_texts)
def test_bulk_parse_takes_plain_files(text):
    assert parse_plain(text) is not None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(plain_texts, any_texts), block_chars=st.sampled_from(BLOCK_CHARS))
def test_bulk_parse_matches_csv_reader_on_generated_files_in_short_blocks(
        tmp_path, text, block_chars):
    check_file(tmp_path / "data.csv", text, block_chars)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=plain_texts, block_chars=st.sampled_from(BLOCK_CHARS))
def test_bulk_parse_takes_plain_files_in_short_blocks(tmp_path, text, block_chars):
    fast = parse_plain(text)
    assert fast is not None
    assert piped_outcome(tmp_path / "data.pipe", text, block_chars) == (
        "data", fast.x.tobytes(), fast.y.tobytes())


ROW_NUMBER_CASES = [
    pytest.param('x,y\n"1\n",2\nbogus,3\n', 4, id="non-numeric"),
    pytest.param('x,y\r\n"1\r\n\r\n",2\r\n-1,3\r\n', 5, id="negative after crlf"),
    pytest.param('x,y\n1,2\n"1\n",\n', 4, id="empty field"),
    pytest.param('x,y\n"1\n",2\n' + "1" * 200000 + ",0.5\n", 4,
                 id="field over the csv size limit"),
]


@pytest.mark.parametrize("text,line_no", ROW_NUMBER_CASES)
def test_rows_are_numbered_by_physical_line(tmp_path, text, line_no):
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    with pytest.raises(DataFormatError) as err:
        read_csv(path)
    assert err.value.line_no == line_no


@pytest.mark.parametrize("block_chars", BLOCK_CHARS)
@pytest.mark.parametrize("text,line_no", ROW_NUMBER_CASES)
def test_rows_are_numbered_by_physical_line_in_short_blocks(tmp_path, text, line_no, block_chars):
    got = piped_outcome(tmp_path / "data.pipe", text, block_chars)
    assert got[0] == "DataFormatError" and got[2] == line_no


def oracle_csv_text(data: Dataset) -> str:
    """The one-string formatting ``write_csv`` used before it wrote in
    blocks, copied, not shared with the package."""
    rows = [f"{a!r},{b!r}" for a, b in zip(data.x.tolist(), data.y.tolist())]
    return "\r\n".join(["x,y", *rows, ""])


@pytest.mark.parametrize("n", [0, 1, model._WRITE_BLOCK_ROWS, model._WRITE_BLOCK_ROWS + 1],
                         ids=["no rows", "one row", "one block", "one block and one row"])
def test_write_csv_gives_the_bytes_of_one_string_formatting(tmp_path, n):
    data = model.sample(n, 0.3, 11) if n else Dataset.from_arrays([], [])
    path = tmp_path / "data.csv"
    model.write_csv(path, data)
    assert path.read_bytes() == oracle_csv_text(data).encode("ascii")


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("x,y,message", [
    (INF, 1.0, "coordinates must be finite, got (inf, 1.0)"),
    (1.0, -INF, "coordinates must be finite, got (1.0, -inf)"),
    (NAN, 1.0, "coordinates must be finite, got (nan, 1.0)"),
    (1.0, NAN, "coordinates must be finite, got (1.0, nan)"),
    (-1.0, NAN, "coordinates must be finite, got (-1.0, nan)"),
    (-1.0, 1.0, "coordinates must be nonnegative, got (-1.0, 1.0)"),
    (1.0, -0.5, "coordinates must be nonnegative, got (1.0, -0.5)"),
], ids=repr)
def test_point_rule_message_is_the_same_on_every_path(tmp_path, x, y, message):
    with pytest.raises(ValueError) as got:
        Dataset.from_arrays([0.5, x], [0.5, y])
    assert str(got.value) == message
    with pytest.raises(ValueError) as got:
        model.density(x, y, 0.0)
    assert str(got.value) == message
    path = tmp_path / "data.csv"
    for row in (f"{x!r},{y!r}", f'"{x!r}","{y!r}"'):  # plain, then quoted
        path.write_text(f"x,y\n0.5,0.5\n{row}\n")
        with pytest.raises(DataFormatError) as got:
            read_csv(path)
        assert str(got.value) == f"line 3: {message}"


@pytest.mark.parametrize("raw,line_no", [
    (b"\xff\xfe", 1),
    (b"x,y\n1.0,2.0\n\xff,3.0\n", 3),
    (b"x,y\r\n1.0,2.0\r\n3.0,\xfe\r\n", 3),
    (b"x,y\r1.0,2.0\r\xff\r", 3),
])
def test_undecodable_byte_is_a_data_format_error(tmp_path, raw, line_no):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(DataFormatError) as err:
        read_csv(path)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: cannot decode byte 0x")
