"""Bit-for-bit pins of ``model.sample`` and ``mle.fit`` at small n.

The CSV golden hash covers one sample (n = 1000, theta = 0.3); these
digests cover the small samples of a Monte-Carlo study: every byte of
x, y and the weights, and the ``repr`` of every ``FitResult`` field, so
a change to the draw, the validation or the root search that moves a
single bit, or turns a float into a numpy scalar, fails here.  Like the
CSV golden hash, they rest on numpy's rounding of ``exp``, ``log1p``
and ``sqrt``.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from fgmexp.mle import NoDataError, fit, fit_from_weights
from fgmexp.model import Dataset, sample

# 1e-13 takes the |A| < 1e-12 branch of the conditional quantile
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


@pytest.mark.parametrize("n,digest", [
    (1, "52c55bd66d0ef64905a463654d26b2eae32167a2ca65b46d893b05d8d115bf54"),
    (2, "60bfbcfd6c5f5b48705bf5761b9cff1c1bbbe84c360be4a6606a6e3100992624"),
    (50, "bc4705fce7ec2a417923a4e4ad221d8b0dd042e4d04dd2cb421a2fe219e1c389"),
])
def test_sample_and_fit_bits(n, digest):
    assert _sampled_digest(n) == digest


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
