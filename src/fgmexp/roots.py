"""Complex roots of the score numerator and the interior score root.

The root census reports every zero of an exact polynomial, counted with
multiplicity.  It rounds the coefficients to floats once, each to the
nearest, and takes the companion-matrix eigenvalues of that float
polynomial; nearby roots are clustered so that repeated zeros blurred by
rounding are reported once with a summed multiplicity.  Exact
multiplicity statements belong to the rational gcd path in
:mod:`fgmexp.mldegree`; the census only needs robust reporting, and
only while the coefficients, the companion matrix and the residual
scales fit in a float.

The score sum w_i / (1 + theta w_i) is strictly decreasing between its
poles, and all poles lie outside (-1, 1), so the interior
maximum-likelihood root is its one zero in the pole gap that contains
(-1, 1).  The sign of the score at 0 says on which side of 0 the root
lies; a negative sign is handled by negating the weights and the
result, which makes the fitted root flip sign exactly when every weight
is negated.  On the positive side the bracket ends at +1, or 1e-12
short of it when a weight of exactly -1 puts a pole there.  Both signs,
at 0 and at that end, are the exact signs of the sums of the rounded
terms: the float sum is kept when it exceeds its rounding error bound,
and ``math.fsum`` decides when it does not.  That makes them exact for
the given float weights, not for the exact score of the data the
weights were rounded from.  Newton's method from 0 (where every term
is its weight, so the score is the sum already taken), kept inside the
bracket found so far, stops by the relative rule of LAPACK ``dlaed4``
(Bunch, Nielsen and Sorensen, Numer. Math. 31, 1978): once |score| is
within a few rounding units of the sum of the magnitudes of its terms,
which is as close as a sum of n rounded terms can resolve.  Each Newton
pass writes the terms q_i into row 0 of one (3, n) buffer, q_i**2 into
row 1 and |q_i| into row 2, and a single reduction over the rows gives
the score, minus its slope, and its scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import validate_weights
from .polynomials import Poly

__all__ = [
    "RootSet",
    "complex_roots",
    "score_root_from_weights",
]

CLUSTER_RADIUS = 1e-7     # times max(1, largest root magnitude)
_ENDPOINT_OFFSET = 1e-12  # inward move of the bracket's end at a pole
# the stopping rule of LAPACK dlaed4: |score| within eight rounding
# units of the sum of the magnitudes of its terms
STOP_REL = 8.0 * np.finfo(float).eps
MAX_ITER = 200
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
OUT_OF_RANGE = "the root census needs coefficients and residual scales within the float range"


@dataclass(frozen=True)
class RootSet:
    """All complex zeros of a polynomial, with multiplicity tags.

    ``residuals`` are relative backward errors: |p(root)| divided by
    sum_j |a_j| |root|^j, the magnitude scale of the coefficients at the
    root.  Multiplicities sum to the degree: a census whose eigenvalue
    iteration fails is an error (see :func:`complex_roots`), not a
    RootSet.
    """

    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    residuals: tuple[float, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)


def _backward_error(coeffs: list[float], z: complex) -> float:
    """|p(z)| over sum_j |a_j| |z|^j, both by Horner's rule on the float
    coefficients ``coeffs``; OverflowError when the scale is not finite."""
    num, scale, r = 0j, 0.0, abs(z)
    for c in reversed(coeffs):
        num, scale = num * z + c, scale * r + abs(c)
    if not math.isfinite(scale):
        raise OverflowError(OUT_OF_RANGE)
    return abs(num) / max(scale, np.finfo(float).tiny)


def _cluster(raw: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Single-linkage clustering of the raw roots; returns (centroid, size)."""
    m = len(raw)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(raw[i] - raw[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[complex]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(complex(raw[i]))
    merged = [(sum(g) / len(g), len(g)) for g in groups.values()]
    merged.sort(key=lambda zm: (zm[0].real, zm[0].imag))
    return merged


def complex_roots(p: Poly) -> RootSet:
    """Every complex zero of ``p``, counted with multiplicity.

    Each exact coefficient is rounded once to the nearest float; roots
    are the eigenvalues of the companion matrix of those floats, and
    clusters of raw roots within ``1e-7 * max(1, |root|)`` of each other
    are merged into one reported root (their centroid) with the cluster
    size as its multiplicity.  Raises ValueError for a polynomial of
    degree below 1, and OverflowError :data:`OUT_OF_RANGE` when a
    coefficient or the residual scale at a root is past the float range,
    or an entry -a_j/a_n of the companion matrix of the rounded
    coefficients is not finite, as when a_n rounds to 0.  When the
    eigenvalue iteration of ``np.roots`` does not converge, its
    ``numpy.linalg.LinAlgError``, a ValueError, propagates.
    On the h of sampled shifts c = 1/w the scale passes it from about
    n = 150 and the coefficients from about n = 400; from about n = 100
    non-real roots are reported where the true zeros are real.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    try:
        coeffs = [float(c) for c in p.coeffs]
        # np.roots's companion matrix holds -a_j/a_n; a leading
        # coefficient rounded to 0 leaves one infinite or NaN too
        with np.errstate(all="ignore"):
            entries = np.divide(coeffs[:-1], coeffs[-1])
        if not np.isfinite(entries).all():
            raise OverflowError
    except OverflowError:
        raise OverflowError(OUT_OF_RANGE) from None
    raw = np.roots(coeffs[::-1])
    scale = max(1.0, float(np.max(np.abs(raw))))
    merged = _cluster(raw, CLUSTER_RADIUS * scale)
    roots = tuple(z for z, _ in merged)
    mults = tuple(m for _, m in merged)
    residuals = tuple(_backward_error(coeffs, z) for z in roots)
    return RootSet(roots, mults, residuals)


def _sums(buf: np.ndarray) -> tuple[float, float, float]:
    """The score sum(q_i), its slope -sum(q_i**2) and its scale
    sum(|q_i|), from the terms q in row 0 of the (3, n) ``buf``: q*q is
    written to row 1 and |q| to row 2, and one reduction sums the rows."""
    q = buf[0]
    np.multiply(q, q, out=buf[1])
    np.absolute(q, out=buf[2])
    # not q @ q: above about 1e4 terms BLAS runs the dot product on worker
    # threads, whose spinning doubled the CPU time of a fit at n = 1e6
    score, square, scale = np.add.reduce(buf, axis=1).tolist()
    return score, -square, scale


def _pass(w: np.ndarray, theta: float, buf: np.ndarray) -> tuple[float, float, float]:
    """One pass over the weights at ``theta``: writes the terms
    q_i = w_i / (1 + theta w_i) into row 0 of ``buf`` and returns the
    score, its slope and its scale (see :func:`_sums`)."""
    q = buf[0]
    np.multiply(w, theta, out=q)
    q += 1.0
    np.divide(w, q, out=q)
    return _sums(buf)


def _exact_sign_sum(terms: np.ndarray, s: float, scale: float) -> float:
    """A float with the sign of the exact sum of ``terms``: their float
    sum ``s`` when |s| > gamma_2n * ``scale``, else their correctly
    rounded sum by ``math.fsum`` (Shewchuk, Discrete Comput. Geom. 18,
    1997), which is zero only when the exact sum is.  ``scale`` is an
    upper bound on sum |terms|; sum |terms| itself is reduced only when
    that bound does not decide."""
    # any order of summing n floats is off by at most gamma_(n-1) times
    # sum |terms| (Higham, Accuracy and Stability, 2nd ed., sec. 4.2);
    # gamma_2n also covers the rounding of the computed sum |terms|,
    # which can fall short of the true one by gamma_(n-1) of itself
    k = 2 * terms.size * _UNIT_ROUNDOFF
    gamma = k / (1.0 - k)
    if abs(s) > gamma * scale or abs(s) > gamma * np.add.reduce(np.abs(terms)):
        return s
    return math.fsum(terms.tolist())


def _positive_root(w: np.ndarray, f0: float) -> float | None:
    """The root on (0, 1) of a score that is positive at 0, where it
    equals ``f0`` = sum(w_i), or None."""
    w_min = np.minimum.reduce(w)
    # 1 + w is zero only for a weight of exactly -1: near -1 the sum is
    # exact (Sterbenz), and elsewhere it is far from zero
    hi = 1.0 - _ENDPOINT_OFFSET if w_min == -1.0 else 1.0
    # the score decreases, so f(-1) > f(0) > 0: only +1 can bound a root;
    # no rounded term exceeds 1 / min(1, 1 + hi * w_min) in magnitude
    q = w / (1.0 + hi * w)
    f_hi = _exact_sign_sum(q, np.add.reduce(q), w.size / min(1.0, 1.0 + hi * w_min))
    if not f_hi < 0.0:
        return None
    # at theta = 0 every term is w_i itself, and their sum is f0
    buf = np.empty((3, w.size))
    buf[0] = w
    _, slope, scale = _sums(buf)
    lo = x = 0.0
    f = f0
    for _ in range(MAX_ITER):
        if abs(f) <= STOP_REL * scale:
            break
        if f > 0.0:
            lo = x
        else:
            hi = x
        step = x - f / slope
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:
                break
        x = step
        f, slope, scale = _pass(w, x, buf)
    return x


def score_root_from_weights(w: np.ndarray) -> float | None:
    """The unique zero of the score on (-1, 1), or None when there is none.

    The score f(theta) = sum w_i / (1 + theta w_i) is strictly decreasing
    wherever some weight is nonzero.  The signs of the score at 0 and at
    +1 are the exact signs of the sums of the rounded terms (the limit:
    exact for the given float weights, not for the data they were
    rounded from).  A score of exactly zero at 0 makes 0 the root.  A
    negative one is handled by solving for the negated weights and
    negating the result, so the root of -w is exactly minus the root of
    w.  A positive one puts the root in (0, 1), and only when the score
    is negative at +1, moved 1e-12 inward when a weight of exactly -1
    makes it a pole; otherwise the maximum sits on the boundary and None
    is returned.  The root is found by Newton's method from 0, each step
    kept strictly inside the bracket the signs of the score have shown
    or replaced by the bracket's midpoint.  The search stops once
    |f| <= :data:`STOP_REL` * sum |w_i / (1 + theta w_i)|, where the
    rounding error of the computed score can hide its sign, or once the
    bracket has no float strictly inside.  A nonzero score at 0 that
    already meets that rule leaves the search at 0: the root is 0.0,
    or -0.0 when the score at 0 is negative.  Raises ValueError for
    weights that are not one-dimensional bools, integers or floats, for
    a weight that is not finite or lies outside [-1, 1], or when no
    weight is nonzero.
    """
    w = validate_weights(w)
    # every |w_i| <= 1, so n bounds sum |w_i|
    f0 = _exact_sign_sum(w, float(np.add.reduce(w)), w.size)
    if f0 == 0.0:
        if not w.any():
            raise ValueError("score root needs at least one nonzero weight")
        return 0.0
    if f0 > 0.0:
        return _positive_root(w, f0)
    # summing the negated terms in the same order gives exactly -f0
    root = _positive_root(-w, -f0)
    return None if root is None else -root
