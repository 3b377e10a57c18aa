"""FGM bivariate exponential distribution.

Density, log-likelihood, score, the reciprocal-weight shift that clears
the score equation, and seeded random sampling.  All quantities are
driven by the per-observation weights

    w_i = (2 exp(-x_i) - 1) (2 exp(-y_i) - 1),

which lie in [-1, 1]; their reciprocals c_i = 1/w_i (the shifts) satisfy
|c_i| >= 1, so the poles of the score stay outside the open parameter
interval (-1, 1).
"""

from __future__ import annotations

import csv
import io
import locale
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "THETA_MIN",
    "THETA_MAX",
    "Dataset",
    "CShift",
    "PoleError",
    "DataFormatError",
    "validate_theta",
    "validate_weights",
    "density",
    "log_likelihood",
    "log_likelihood_weights",
    "score",
    "score_weights",
    "c_shift",
    "sample",
    "read_csv",
    "write_csv",
]

THETA_MIN = -1.0
THETA_MAX = 1.0


class PoleError(ArithmeticError):
    """Score evaluation hit a pole: some 1 + theta*w_i is exactly zero."""

    def __init__(self, index: int, theta: float):
        self.index = index
        self.theta = theta
        super().__init__(
            f"score undefined at theta={theta!r}: observation {index} "
            f"has 1 + theta*w == 0"
        )


class DataFormatError(ValueError):
    """A dataset file failed to parse; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def validate_theta(theta) -> float:
    """``theta`` as a float; ValueError unless it is a real number (a
    float, an int, a bool, a Fraction, or a numpy float or integer) in
    [-1, 1].  A string is not a real number and is rejected, not parsed;
    the CLI turns its text into a float first."""
    # concrete types, which isinstance tests faster than numbers.Real; the
    # comparison is made as given, so it is exact for an int or a Fraction
    if not (isinstance(theta, (float, int, np.floating, np.integer, Fraction))
            and THETA_MIN <= theta <= THETA_MAX):
        raise ValueError(f"association parameter must be a real number in [-1, 1], got {theta!r}")
    return float(theta)


def _integer(value, low: int, name: str, high: int | None = None) -> int:
    """``value`` as an int, the one check of every size and seed:
    ValueError unless it is an integer (an int, a bool or a numpy
    integer) no less than ``low`` and, if ``high`` is given, no more."""
    if not (isinstance(value, (int, np.integer)) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value!r}")
    return int(value)


# The largest sample size: sample holds its 2n 8-byte draws in one array,
# whose size in bytes numpy holds in its signed index type.
_MAX_SAMPLE_SIZE = np.iinfo(np.intp).max // 16


def _weight_array(weights) -> np.ndarray:
    """The weights as a float64 array, the one conversion every weight
    entry point makes; ValueError unless they are one-dimensional and of
    a bool, integer or float dtype (a string, None or a complex value is
    none of these)."""
    try:
        w = np.asarray(weights)
    except ValueError:  # ragged
        w = None
    if w is None or w.ndim != 1 or w.dtype.kind not in "biuf":
        raise ValueError("weights must be one-dimensional bools, integers or floats")
    return w.astype(float, copy=False)


def validate_weights(weights) -> np.ndarray:
    """Weights as a float64 array; ValueError unless they are
    one-dimensional real numbers (see :func:`log_likelihood_weights`)
    and every weight is finite and lies in [-1, 1], the range the model
    gives them."""
    w = _weight_array(weights)
    # a NaN makes the maximum NaN, which fails the comparison
    if not np.maximum.reduce(np.abs(w), initial=0.0) <= 1.0:
        raise ValueError("weights must be finite and lie in [-1, 1]")
    return w


def _check_point(x: float, y: float) -> None:
    """ValueError unless the point (x, y) is finite and nonnegative."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"coordinates must be finite, got ({x!r}, {y!r})")
    if x < 0.0 or y < 0.0:
        raise ValueError(f"coordinates must be nonnegative, got ({x}, {y})")


# Points per block of the elementwise stages of sample and of the
# weights, so that their temporaries stay one block long at any n.
_BLOCK_ROWS = 1 << 15


def _weights(xy: np.ndarray) -> np.ndarray:
    """w = (2 exp(-x) - 1)(2 exp(-y) - 1) of the rows x and y of the
    (2, n) float64 array ``xy``, ``_BLOCK_ROWS`` points at a time: the
    block's factors in place in one (2, block) buffer, so every stage
    runs once over both rows, then their product into the block of w."""
    w = np.empty(xy.shape[1])
    for i in range(0, len(w), _BLOCK_ROWS):
        f = np.negative(xy[:, i:i + _BLOCK_ROWS])
        np.exp(f, out=f)
        f *= 2.0
        f -= 1.0
        np.multiply(f[0], f[1], out=w[i:i + _BLOCK_ROWS])
    return w


def _all_valid(xy: np.ndarray) -> bool:
    """Whether every coordinate in ``xy`` is finite and nonnegative, by
    two reductions: a NaN fails the minimum's test, an infinity the
    maximum's."""
    return bool(np.minimum.reduce(xy, axis=None, initial=math.inf) >= 0.0
                and np.maximum.reduce(xy, axis=None, initial=0.0) < math.inf)


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """An ordered sample held as columns: ``x`` and ``y``, the rows of
    one frozen (2, n) float64 array, and the per-observation weights
    derived from them.

    Build one with :meth:`from_arrays`, which copies the coordinates;
    :func:`sample` and :func:`read_csv` hand over the (2, n) array they
    filled, which is kept without a copy.  Weights are recomputed from
    the coordinates at construction, a block of points at a time, and
    every array is read-only, so they can never drift out of sync.
    Points whose weight is exactly zero (a coordinate at ln 2)
    contribute nothing to the score and are tracked in
    ``degenerate_indices``.  Two datasets are equal when their
    coordinates are.
    """

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray = field(repr=False)
    degenerate_indices: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.x)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)

    def __hash__(self):
        # by value, as __eq__ compares: -0.0 and 0.0 hash alike
        return hash((tuple(self.x.tolist()), tuple(self.y.tolist())))

    @classmethod
    def from_arrays(cls, x: Sequence[float], y: Sequence[float]) -> "Dataset":
        """Dataset from coordinate sequences, copied to float64.

        The copy is one (2, n) array whose read-only rows are ``x`` and
        ``y``, so every elementwise stage runs once over both columns.
        Raises ValueError for the first point that is negative or not
        finite.  Two reductions decide whether every point is valid (a
        NaN fails the minimum's test, an infinity the maximum's); only
        when some point is not does a scan find the first one.
        """
        try:
            xy = np.array((x, y), dtype=float)
        except ValueError:  # ragged, or a value float() rejects
            xy = None
        if xy is None or xy.ndim != 2:
            # column by column, to raise the error that names the fault
            x, y = np.array(x, dtype=float), np.array(y, dtype=float)
            if x.ndim != 1 or y.ndim != 1:
                raise ValueError("x and y must be one-dimensional")
            raise ValueError("x and y must have equal length")
        return cls._adopt(xy)

    @classmethod
    def _adopt(cls, xy: np.ndarray) -> "Dataset":
        """The dataset whose rows are those of the C-contiguous (2, n)
        float64 array ``xy``, which the caller hands over: it is made
        read-only and kept without a copy.  The checks and messages are
        those of :meth:`from_arrays`."""
        if not _all_valid(xy):
            i = int(np.flatnonzero(~((xy >= 0.0) & (xy < math.inf)).all(axis=0))[0])
            _check_point(float(xy[0, i]), float(xy[1, i]))
        w = _weights(xy)
        xy.setflags(write=False)
        w.setflags(write=False)
        data = cls.__new__(cls)
        object.__setattr__(data, "x", xy[0])
        object.__setattr__(data, "y", xy[1])
        object.__setattr__(data, "weights", w)
        degenerate = () if np.logical_and.reduce(w) else tuple(np.flatnonzero(w == 0.0).tolist())
        object.__setattr__(data, "degenerate_indices", degenerate)
        return data


class CShift(NamedTuple):
    """Reciprocal weights of the non-degenerate observations, in order."""

    values: np.ndarray
    degenerate_indices: tuple[int, ...]


def density(x: float, y: float, theta: float) -> float:
    """Joint density exp(-(x+y)) * (1 + theta*w) at the point (x, y).

    Nonnegative for every valid input because |theta|*|w| <= 1.  Raises
    ValueError for a point that is negative or not finite, as
    :meth:`Dataset.from_arrays` does, and for a theta that
    :func:`validate_theta` rejects.
    """
    x, y = float(x), float(y)
    _check_point(x, y)
    t = validate_theta(theta)
    return math.exp(-(x + y)) * (1.0 + t * float(_weights(np.array([[x], [y]]))[0]))


def log_likelihood_weights(weights: np.ndarray, theta: float) -> float:
    """Constant-free log-likelihood from a weight vector; -inf where any
    term is <= 0.

    The weights are a one-dimensional sequence or ndarray of bools,
    integers or floats, converted to float64, as every weight entry point
    takes them; ValueError for any other shape or dtype, such as a 2-D
    array or strings, for a weight that is not finite or lies outside
    [-1, 1], as :func:`validate_weights` checks, and for a theta that
    :func:`validate_theta` rejects."""
    t = validate_theta(theta)
    return _log_likelihood(validate_weights(weights), t)


def _log_likelihood(w: np.ndarray, t: float) -> float:
    """:func:`log_likelihood_weights` of weights and a theta already
    checked, as a fit's are."""
    terms = 1.0 + t * w
    if np.minimum.reduce(terms, initial=math.inf) <= 0.0:
        return float("-inf")
    return float(np.add.reduce(np.log(terms)))


def log_likelihood(data: Dataset, theta: float, include_constant: bool = False) -> float:
    """Log-likelihood of the sample, sum of log(1 + theta*w_i).

    By default the additive constant -sum(x_i + y_i) is omitted; it does
    not depend on theta, so the maximizer is unaffected.  Pass
    ``include_constant=True`` for the full value.  Returns -inf when some
    term 1 + theta*w_i is nonpositive (a weight of +-1 against the
    matching boundary value of theta).
    """
    ll = log_likelihood_weights(data.weights, theta)
    if include_constant:
        # left-to-right, as the per-point sum always was
        ll -= float(sum((data.x + data.y).tolist()))
    return ll


def score_weights(weights: np.ndarray, theta: float) -> float:
    """Score from a weight vector: sum of w_i / (1 + theta*w_i).  The
    weights and theta are checked as in :func:`log_likelihood_weights`."""
    t = validate_theta(theta)
    w = validate_weights(weights)
    denom = 1.0 + t * w
    bad = np.flatnonzero(denom == 0.0)
    if bad.size:
        raise PoleError(int(bad[0]), t)
    return float(np.sum(w / denom))


def score(data: Dataset, theta: float) -> float:
    """Derivative of the constant-free log-likelihood at theta.

    Terms with w_i = 0 contribute exactly zero.  Raises
    :class:`PoleError` naming the first offending observation if some
    denominator 1 + theta*w_i vanishes.
    """
    return score_weights(data.weights, theta)


def c_shift(data: Dataset) -> CShift:
    """Reciprocals c_i = 1/w_i of the nonzero weights, order preserved.

    Degenerate observations (w_i = 0) are excluded from the values and
    reported by index; every returned value satisfies |c_i| >= 1.
    """
    w = data.weights
    values = 1.0 / w[w != 0.0]
    values.setflags(write=False)
    return CShift(values, data.degenerate_indices)


def _open_uniform(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` with uniform draws on the open interval (0, 1): both
    endpoints excluded so downstream logarithms stay finite."""
    np.multiply(rng.integers(1, 1 << 53, size=out.size), 0.5 ** 53, out=out)


def sample(n: int, theta: float, seed: int) -> Dataset:
    """Draw a seeded random sample of size n from the joint distribution.

    Conditional inversion: u gives the first coordinate; the second
    solves the conditional cdf quadratic A*v^2 - (1+A)*v + t = 0 with
    A = theta*(1 - 2u), taking the branch that is continuous in A.  The
    quotient is evaluated in rationalized form, 2t / ((1+A) + sqrt(D)),
    which is the same root without subtractive cancellation and is
    exactly t at A = 0, so one expression serves every draw.  The n
    values of u and then the n values of t are the stream of one draw
    of 2n open uniforms.  Marginals are standard exponential and results
    depend only on (n, theta, seed).

    The draws fill one (2n,) float64 buffer, which becomes the dataset's
    (2, n) coordinates without a copy: the first draw takes u and the
    first ``_BLOCK_ROWS`` values of t, so a sample of at most one block
    is one draw, and each later block of t is drawn into its place (at
    this range numpy takes each value from the stream in turn and keeps
    nothing back between calls, so the bits are those of one draw).  The
    inversion runs a block at a time, so beyond the dataset ``sample``
    holds the first draw's integers and one block's temporaries.

    ``n`` and ``seed`` are integers (an int, a bool or a numpy integer),
    ``1 <= n <= _MAX_SAMPLE_SIZE`` and ``seed >= 0``, and ``theta`` a
    real number in [-1, 1]; anything else is a ValueError.  A size that
    passes can still be more than memory holds, which numpy reports.
    """
    t = validate_theta(theta)
    n = _integer(n, 1, "sample size", _MAX_SAMPLE_SIZE)
    seed = _integer(seed, 0, "seed")
    # the stream of default_rng(seed): the n values of u, then of t
    rng = np.random.Generator(np.random.PCG64(seed))
    buf = np.empty(2 * n)
    _open_uniform(rng, buf[:n + min(n, _BLOCK_ROWS)])
    for i in range(0, n, _BLOCK_ROWS):
        j = min(i + _BLOCK_ROWS, n)
        u, tdraw = buf[i:j], buf[n + i:n + j]
        if i:
            _open_uniform(rng, tdraw)
        a = t * (1.0 - 2.0 * u)
        b = 1.0 + a
        disc = np.maximum(b ** 2 - 4.0 * a * tdraw, 0.0)
        # v overwrites t
        np.divide(2.0 * tdraw, b + np.sqrt(disc), out=tdraw)
    # x = -log1p(-u) and y = -log1p(-v), in place over both halves
    np.negative(buf, out=buf)
    np.log1p(buf, out=buf)
    np.negative(buf, out=buf)
    return Dataset._adopt(buf.reshape(2, n))


def read_csv(path) -> Dataset:
    """Load a dataset from a CSV file with header ``x,y``.

    Any malformed row (wrong arity, non-numeric, negative, or non-finite
    value) aborts with a :class:`DataFormatError` carrying the 1-based
    line number; so does a row ``csv.reader`` rejects, such as one with a
    field over its size limit, and a byte the locale's text encoding
    cannot decode.
    Blank rows are skipped.

    The file is read once, as bytes.  A file in :func:`write_csv`'s
    alphabet goes to numpy's reader (:func:`_parse_plain`); any other
    file, or one that numpy's reader or the point check rejects, is
    decoded and read row by row by ``csv.reader``, which gives every
    error its line number.  So beyond the dataset, reading holds the
    file's bytes and, on the fast path, numpy's (n, 2) array; the bytes
    are released before that array is copied into the dataset's rows.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    encoding = locale.getpreferredencoding(False)
    xy = _parse_plain(raw, encoding)
    if xy is None:
        return _parse_csv(_decode(raw, encoding))
    # the bytes go before the copy into (2, n) rows, and numpy's array as
    # the copy takes its name, so at most two of the three are held
    del raw
    xy = xy.T.copy()
    return Dataset._adopt(xy)


def _decode(raw: bytes, encoding: str) -> str:
    """``raw`` decoded as ``open(path, newline="")`` would, line endings
    kept; undecodable bytes raise :class:`DataFormatError`."""
    try:
        return raw.decode(encoding)
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataFormatError(
            line_no, f"cannot decode byte {raw[exc.start]:#04x} as {encoding}"
        ) from None


# write_csv's alphabet: a float repr's characters, the header's letters,
# the spaces and tabs a hand edit may add, the comma and the line endings.
_PLAIN_BYTES = b"0123456789.eE+-xy \t,\r\n"

# Each byte as the field-run scan sees it: "," for the comma and the line
# endings, which end a field, and "a" for any other byte.
_FIELD_RUNS = bytes(ord(",") if b in b",\r\n" else ord("a") for b in range(256))

# Bytes per window of the field-run scan, which holds two copies of one
# window (and the run it may end in) at a time.
_SCAN_WINDOW = 1 << 18


def _parse_plain(raw: bytes, encoding: str) -> np.ndarray | None:
    """The (n, 2) float64 array ``np.loadtxt`` reads from ``raw``, every
    point finite and nonnegative, or None, for :func:`_parse_csv` to read
    the whole file.

    numpy gets the bytes only when the header, up to the first line
    feed, has no carriage return before its line ending and cells that
    strip to ``x`` and ``y``, a comma follows it, so numpy sees a row and
    never warns of an empty file, all bytes are in :func:`write_csv`'s
    alphabet (``0123456789.eE+-xy``, comma, space, tab, CR and LF), and
    no run of field bytes (all but the comma, CR and LF) is longer than
    ``csv.field_size_limit()``.  Every file :func:`write_csv` writes
    qualifies.  A ValueError from numpy, rows of other than two columns,
    or a point that is negative or not finite give None.  No check
    holds a copy of the file: the alphabet test deletes the alphabet's
    bytes, which leaves nothing to write for a file that passes (CPython
    reserves a result as long as the input, but no page of it is
    touched), and the field runs are first looked for in a sample of
    every step-th byte, step = (limit + 1) // 512, about 1/256 of the
    file at the default limit, where a field over the limit leaves a run
    of at least (limit + 1) // step field bytes; only a sample that
    holds one is followed by a scan of overlapping windows of
    ``_SCAN_WINDOW`` bytes plus the limit (see :func:`_long_field`).

    Why both parsers agree when numpy succeeds: the alphabet has no
    quote, no underscore, no non-ASCII digit and no whitespace but the
    space, the tab and the line endings, and numpy reads the bytes
    already read, so it skips the header just checked.  On such bytes
    both parsers split fields at every comma, strip spaces and tabs,
    skip empty lines and convert each field with CPython's correctly
    rounded decimal-to-double routine, the one ``float()`` uses.
    Wherever numpy cannot split a line as ``csv.reader`` does, it
    raises: a carriage return inside a line is an embedded newline to
    it, and a whitespace-only line or a line of one field changes its
    count of columns.  A field ``csv.reader`` rejects as over its size
    limit is a run of field bytes that long, which the gate turns away.
    """
    end, limit = raw.find(b"\n"), csv.field_size_limit()
    header = raw[:end].removesuffix(b"\r")
    if (end < 0 or b"\r" in header or [cell.strip() for cell in header.split(b",")] != [b"x", b"y"]
            or raw.find(b",", end) < 0 or raw.translate(None, _PLAIN_BYTES)
            or (limit < len(raw) and _long_field(raw, limit))):
        return None
    try:
        xy = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, ndmin=2,
                        comments=None, encoding=encoding)
    except ValueError:
        return None
    return xy if xy.shape[1] == 2 and _all_valid(xy) else None


def _long_field(raw: bytes, limit: int) -> bool:
    """Whether some run of field bytes in ``raw`` is longer than
    ``limit``.

    A pre-filter rules most files out first.  With step =
    (limit + 1) // 512, a run of limit + 1 field bytes covers at least
    (limit + 1) // step consecutive bytes of ``raw[::step]``, which is
    1/step of the file; so when that sample holds no run of field bytes
    so long, no field is.  When it does, or when step is 1 and the
    sample would be a copy of the file, the windowed scan decides: each
    window starts ``_SCAN_WINDOW`` bytes after the last and runs
    ``limit`` bytes past the next start, so a run of ``limit + 1`` bytes
    lies whole in the window where it starts."""
    step = (limit + 1) // 512
    if step > 1 and b"a" * ((limit + 1) // step) not in raw[::step].translate(_FIELD_RUNS):
        return False
    run = b"a" * (limit + 1)
    return any(run in raw[i:i + _SCAN_WINDOW + limit].translate(_FIELD_RUNS)
               for i in range(0, len(raw), _SCAN_WINDOW))


def _parse_csv(text: str) -> Dataset:
    """Row-by-row parse with ``csv.reader``; the source of every
    line-numbered :class:`DataFormatError`."""
    xs: list[float] = []
    ys: list[float] = []
    rows = _csv_rows(text)
    _, header = next(rows, (1, None))
    if header is None or [cell.strip() for cell in header] != ["x", "y"]:
        raise DataFormatError(1, "expected header 'x,y'")
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != 2:
            raise DataFormatError(line_no, f"expected 2 fields, got {len(row)}")
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            raise DataFormatError(line_no, f"non-numeric value in {row!r}") from None
        try:
            _check_point(x, y)
        except ValueError as exc:
            raise DataFormatError(line_no, str(exc)) from None
        xs.append(x)
        ys.append(y)
    return Dataset.from_arrays(xs, ys)


def _csv_rows(text: str):
    """The rows of ``csv.reader``, each with the physical line it ends on
    (a quoted field may hold line breaks); an error it raises (a field
    over its size limit, or a NUL byte before CPython 3.11) becomes a
    :class:`DataFormatError` at the line where it stopped."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataFormatError(reader.line_num, str(exc)) from None


# Rows per block that write_csv formats and writes at once: a block's
# floats and row strings take about 150 bytes a row, so well under a
# megabyte, and the calls per block are a small share of the formatting.
_WRITE_BLOCK_ROWS = 1 << 12


def write_csv(path, data: Dataset) -> None:
    """Write a dataset as ``x,y`` CSV with CRLF line endings; float
    formatting is shortest round-trip, so reruns are byte-identical.

    Rows are formatted and written ``_WRITE_BLOCK_ROWS`` at a time, each
    as its line ending and then its values, between the header and a
    final line ending; so the file is ``"x,y\\r\\n"``, then
    ``"{x!r},{y!r}\\r\\n"`` per row, and beyond the dataset only one
    block's values and text are held at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.write("x,y")
        for i in range(0, data.n, _WRITE_BLOCK_ROWS):
            rows = slice(i, i + _WRITE_BLOCK_ROWS)
            fh.write("".join([f"\r\n{a!r},{b!r}"
                              for a, b in zip(data.x[rows].tolist(), data.y[rows].tolist())]))
        fh.write("\r\n")
