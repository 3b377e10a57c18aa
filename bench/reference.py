"""Reference results computed without the package.

Every check the benchmark makes compares a package output with a value
built here from numpy, ``fractions``/``collections`` or sympy alone, so
a defect in the package cannot hide in its own oracle.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

# Tolerances of acceptance criteria C5 (root census) and C6 (grid maximum).
RESIDUAL_TOL = 1e-8
REAL_TOL = 1e-7
GRID_SLACK = 1e-6
# Float shifts closer than this relative gap are one group, as documented
# for the approximate ML-degree mode.
APPROX_REL_TOL = 1e-9


def sample_xy(n: int, theta: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The documented sampler: conditional inversion on two open-uniform
    streams of ``numpy.random.default_rng(seed)``.  Written out here so
    that the CSV the package writes can be compared bit for bit."""
    rng = np.random.default_rng(seed)
    u = rng.integers(1, 1 << 53, size=n) * (0.5 ** 53)
    t = rng.integers(1, 1 << 53, size=n) * (0.5 ** 53)
    a = theta * (1.0 - 2.0 * u)
    disc = np.maximum((1.0 + a) ** 2 - 4.0 * a * t, 0.0)
    v = np.where(np.abs(a) < 1e-12, t, 2.0 * t / ((1.0 + a) + np.sqrt(disc)))
    return -np.log1p(-u), -np.log1p(-v)


def weights(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (2.0 * np.exp(-x) - 1.0) * (2.0 * np.exp(-y) - 1.0)


def score(w: np.ndarray, theta: float) -> float:
    return float(np.sum(w / (1.0 + theta * w)))


def loglik(w: np.ndarray, theta: float) -> float:
    with np.errstate(divide="ignore"):
        return float(np.sum(np.log1p(theta * w)))


def grid_loglik_max(w: np.ndarray, points: int = 201) -> float:
    """Largest log-likelihood over an even grid on [-1, 1], endpoints included."""
    grid = np.linspace(-1.0, 1.0, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.sum(np.log1p(np.outer(grid, w)), axis=1)))


def approx_groups(c: np.ndarray) -> list[int]:
    """Group sizes of float shifts: sorted neighbours whose gap is within
    ``APPROX_REL_TOL * max(1, |a|, |b|)`` share a group."""
    s = np.sort(c)
    gaps = np.diff(s)
    scale = np.maximum(1.0, np.maximum(np.abs(s[:-1]), np.abs(s[1:])))
    breaks = np.flatnonzero(gaps > APPROX_REL_TOL * scale)
    edges = np.concatenate(([0], breaks + 1, [s.size]))
    return [int(k) for k in np.diff(edges)]


def ml_degree_counts(sizes) -> dict:
    """n, p, l, m and the ML-degree n + l - m - 1 from group sizes."""
    sizes = list(sizes)
    n = sum(sizes)
    repeated = [k for k in sizes if k > 1]
    l, m = len(repeated), sum(repeated)
    return {"n": n, "p": len(sizes), "l": l, "m": m, "ml_degree": n + l - m - 1}


def exact_counts(c) -> dict:
    counts = Counter(Fraction(v) for v in c)
    doc = ml_degree_counts(counts.values())
    doc["common_zeros"] = sorted((-v, k - 1) for v, k in counts.items() if k > 1)
    return doc


def sympy_ml_degree(c) -> int:
    """deg h - deg gcd(h, k) with k = prod(x + c_i) and h = k', in sympy."""
    import sympy

    x = sympy.Symbol("x")
    k = sympy.Poly(1, x, domain="QQ")
    for v in c:
        v = Fraction(v)
        k = k * sympy.Poly(x + sympy.Rational(v.numerator, v.denominator), x, domain="QQ")
    h = k.diff(x)
    return h.degree() - sympy.gcd(h, k).degree()


def census_failure(c: np.ndarray, roots, multiplicities, residuals) -> str | None:
    """Acceptance criterion C5 on the zeros of h for shifts ``c``: n - 1
    zeros counted with multiplicity, residuals within 1e-8, imaginary
    parts within 1e-7 of the shift scale, and real parts interlacing the
    sorted poles -c.  Returns the first violation as "kind: detail", or
    None."""
    n = len(c)
    if sum(multiplicities) != n - 1:
        return f"zero count: {sum(multiplicities)}, expected {n - 1}"
    if residuals and max(residuals) > RESIDUAL_TOL:
        return f"residual: {max(residuals):.3g} > {RESIDUAL_TOL:g}"
    scale = max(1.0, float(np.max(np.abs(c))))
    nonreal = nonreal_count(roots, scale)
    if nonreal:
        return f"non-real zeros: {nonreal} of {n - 1}"
    xs = sorted(z.real for z, k in zip(roots, multiplicities) for _ in range(k))
    poles = sorted(-np.asarray(c))
    fuzz = REAL_TOL * scale
    for j, xj in enumerate(xs):
        if not poles[j] - fuzz <= xj <= poles[j + 1] + fuzz:
            return f"interlacing: zero {xj!r} outside pole gap {j}"
    return None


def nonreal_count(roots, scale: float) -> int:
    return sum(1 for z in roots if abs(z.imag) > REAL_TOL * scale)
