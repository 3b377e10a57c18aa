"""Bit-for-bit pins of ``model.sample`` and ``mle.fit``.

The CSV golden hash covers one sample (n = 1000, theta = 0.3); these
digests cover the small samples of a Monte-Carlo study: every byte of
x, y and the weights, and the ``repr`` of every ``FitResult`` field, so
a change to the draw, the validation or the root search that moves a
single bit, or turns a float into a numpy scalar, fails here.  Like the
CSV golden hash, they rest on numpy's rounding of ``exp``, ``log1p``
and ``log``, which differs between the SIMD loops numpy dispatches to:
each case accepts the digest taken on its AVX-512 loops and the one
taken on its AVX2 and baseline loops, which agree with each other.

The tests below them use no stored digest.  They pin the one-buffer
stages against the same arithmetic done column by column: the weights
of ``Dataset.from_arrays``, the coordinates of ``sample`` and the row
sums of the Newton pass; and ``density`` against the weight
``from_arrays`` gives its point.  They fail on any dispatch whose kernels
round a lane differently by its position in the buffer.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgmexp import model, roots
from fgmexp.mle import NoDataError, fit, fit_from_weights
from fgmexp.model import Dataset, density, sample

# 1e-13 pins the rationalised quotient of the conditional quantile at
# tiny |A|
THETAS = (-1.0, -0.5, 0.0, 1e-13, 0.5, 1.0)
SEEDS = (0, 1, 2, 12345, 2**31 - 1)


def _feed_fit(h, fit_call, *args):
    try:
        res = fit_call(*args)
    except NoDataError as exc:
        h.update(f"NoDataError:{exc}".encode())
        return None
    for f in dataclasses.fields(res):
        h.update(f"{f.name}={getattr(res, f.name)!r};".encode())
    return res


def _feed_dataset(h, data):
    for arr in (data.x, data.y, data.weights):
        assert arr.dtype == np.float64
        h.update(arr.tobytes())
    h.update(repr(data.degenerate_indices).encode())


def _sampled_digest(n):
    h = hashlib.sha256()
    for theta in THETAS:
        for seed in SEEDS:
            data = sample(n, theta, seed)
            _feed_dataset(h, data)
            res = _feed_fit(h, fit, data)
            neg = _feed_fit(h, fit_from_weights, -data.weights)
            assert neg.theta_hat == -res.theta_hat
    return h.hexdigest()


# the digest of each sample size on numpy's AVX-512 loops; the test ids
# carry the size alone, so a declared change of bits keeps them
DIGESTS = {
    1: "84f2f2a2699b8cd70c7c8f9863db08bf5bb20fb6d34b415b255c5fd74f6628f2",
    2: "bb2adb4d01d8f16e9ac8ef8b4047ec8cb52dd6b463686ba2f2b1dd58e211a744",
    50: "1074593ef8080bffbcb5405dc2a6d3ea5aaeb5383075009153adf78663f74201",
}

# the digest of each case above on numpy's AVX2 and baseline loops
OTHER_LOOPS = {
    "84f2f2a2699b8cd70c7c8f9863db08bf5bb20fb6d34b415b255c5fd74f6628f2":
        "d43f0c4dde5b4292b37b138fb2680fd688057324b52de1c538b9ed17c27aec06",
    "bb2adb4d01d8f16e9ac8ef8b4047ec8cb52dd6b463686ba2f2b1dd58e211a744":
        "fe668abd3c652d0025f70405be2fd147ad3643e4715becffe1cecb3850ee6615",
    "1074593ef8080bffbcb5405dc2a6d3ea5aaeb5383075009153adf78663f74201":
        "1a59fd7a64454436d4efcda13a6d8ba779fe9e26e8b233cd74b7ea87db4011be",
}


@pytest.mark.parametrize("n", sorted(DIGESTS))
def test_sample_and_fit_bits(n):
    assert _sampled_digest(n) in (DIGESTS[n], OTHER_LOOPS[DIGESTS[n]])


# ties (one point repeated: all shifts equal), a weight of exactly -1 or
# +1 (a pole at an endpoint), degenerate points and a zero weight sum
WEIGHT_CASES = (
    [-1.0, 0.2],
    [-1.0, 0.9, 0.9],
    [-1.0, 0.6, 0.6, 0.6],
    [1.0, -0.3],
    [1.0, 1.0, -1.0],
    [-1.0] * 3,
    [0.5, -0.5, 0.0],
    [0.3, 0.0, 0.0, -0.1],
)
TIED_POINTS = ((0.1, 0.2), (2.0, 0.05), (0.0, 0.0), (0.5, 3.0))


def test_tied_and_pole_bits():
    h = hashlib.sha256()
    for x, y in TIED_POINTS:
        data = Dataset.from_arrays(np.full(50, x), np.full(50, y))
        _feed_dataset(h, data)
        _feed_fit(h, fit, data)
    for w in WEIGHT_CASES:
        w = np.array(w)
        res = _feed_fit(h, fit_from_weights, w)
        neg = _feed_fit(h, fit_from_weights, -w)
        assert neg.theta_hat == -res.theta_hat
    assert h.hexdigest() == "cc52181aaf5204348f96e16f53948cfeed13bfb9c6ad38edf34af5d9fc10f827"


# lengths around numpy's 8192-element buffer, where a reduction or an
# elementwise loop is split into chunks, and around the block of points in
# which sample draws and inverts and the weights are formed
B = model._BLOCK_ROWS
LONG = (8191, 8192, 8193, B - 1, B, B + 1, 2 * B + 3)


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _coordinates(n_max):
    """Pairs of equal-length coordinate columns: drawn value by value up
    to length ``n_max``, or exponential at a drawn scale at a LONG length."""
    value = st.one_of(
        st.sampled_from([0.0, math.log(2.0), 5e-324, 1e-300, 745.2, 1e308]),
        st.floats(0.0, 800.0),
    )
    short = st.integers(0, n_max).flatmap(
        lambda n: st.tuples(*[st.lists(value, min_size=n, max_size=n).map(np.array)] * 2)
    )

    def long(args):
        n, scale, seed = args
        rng = np.random.default_rng(seed)
        return rng.exponential(scale, size=n), rng.exponential(scale, size=n)

    return st.one_of(short, st.tuples(st.sampled_from(LONG), st.sampled_from([1.0, 100.0]),
                                      st.integers(0, 2**32 - 1)).map(long))


@settings(max_examples=200, deadline=None)
@given(_coordinates(40))
def test_weights_match_the_per_column_formula(xy):
    x, y = xy
    want = (2 * np.exp(-x) - 1) * (2 * np.exp(-y) - 1)
    assert _same_bits(Dataset.from_arrays(x, y).weights, want)


_POINT = st.one_of(st.sampled_from([0.0, math.log(2.0), 5e-324, 745.2, 1e308]),
                   st.floats(0.0, 800.0))


@settings(max_examples=200, deadline=None)
@given(_POINT, _POINT, st.one_of(st.sampled_from(THETAS), st.floats(-1.0, 1.0)))
def test_density_takes_the_weight_of_from_arrays(x, y, theta):
    w = float(Dataset.from_arrays([x], [y]).weights[0])
    assert _same_bits(density(x, y, theta), math.exp(-(x + y)) * (1.0 + theta * w))


def _sample_per_column(n, theta, seed):
    """Reference for :func:`sample`: the conditional inversion, with
    -log1p(-.) taken on u and on v apart."""
    draws = np.random.default_rng(seed).integers(1, 1 << 53, size=2 * n) * 0.5**53
    u, t = draws[:n], draws[n:]
    a = theta * (1.0 - 2.0 * u)
    b = 1.0 + a
    v = 2.0 * t / (b + np.sqrt(np.maximum(b ** 2 - 4.0 * a * t, 0.0)))
    return -np.log1p(-u), -np.log1p(-v)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(1, 40), st.sampled_from(LONG)),
       st.one_of(st.sampled_from(THETAS), st.floats(-1.0, 1.0)),
       st.integers(0, 2**63 - 1))
def test_sample_matches_the_per_column_inversion(n, theta, seed):
    data = sample(n, theta, seed)
    x, y = _sample_per_column(n, theta, seed)
    assert _same_bits(data.x, x) and _same_bits(data.y, y)


def _terms(n_max):
    """Score terms q: drawn value by value up to length ``n_max``, or
    uniform at a LONG length or at 1e6."""
    short = st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=n_max).map(np.array)

    def long(args):
        n, seed = args
        return np.random.default_rng(seed).uniform(-2.0, 2.0, size=n)

    return st.one_of(short, st.tuples(st.sampled_from(LONG + (10**6,)),
                                      st.integers(0, 2**32 - 1)).map(long))


@settings(max_examples=200, deadline=None)
@given(_terms(300))
def test_row_sums_match_three_reductions(q):
    buf = np.empty((3, q.size))
    buf[0] = q
    want = (np.add.reduce(q), -np.add.reduce(q * q), np.add.reduce(np.abs(q)))
    assert _same_bits(roots._sums(buf), want)
