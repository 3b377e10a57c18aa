"""Complex roots of the score numerator and the interior score root.

The float-mode root finder reports every zero of a polynomial, counted
with multiplicity, by companion-matrix eigenvalues; nearby roots are
clustered so that repeated zeros blurred by rounding are reported once
with a summed multiplicity.  Exact multiplicity statements belong to the
rational gcd path in :mod:`fgmexp.mldegree`; the float path only needs
robust reporting.

The score itself is strictly decreasing between its poles, and all poles
lie outside (-1, 1), so the interior maximum-likelihood root is found by
bisection with safeguarded Newton acceleration.  Every floating-point
operation in that search is odd-symmetric, which makes the fitted root
flip sign exactly when every weight is negated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, endpoint, score_weights, validate_weights
from .polynomials import FLOAT, Poly, ScalarModeError

__all__ = [
    "RootSet",
    "complex_roots",
    "score_root_from_weights",
    "score_root_in_open_interval",
]

CLUSTER_RADIUS = 1e-7     # times max(1, largest root magnitude)
RESIDUAL_TOL = 1e-8       # relative backward error bound per root
SCORE_TOL = 1e-12         # |score| considered converged
WIDTH_TOL = 1e-14         # bracket width considered converged
MAX_ITER = 200


@dataclass(frozen=True)
class RootSet:
    """All complex zeros of a polynomial, with multiplicity tags.

    ``residuals`` are relative backward errors: |p(root)| divided by
    sum_j |a_j| |root|^j, the magnitude scale of the coefficients at the
    root.  Multiplicities always sum to the degree.  ``converged`` is
    False only when the eigenvalue iteration failed, in which case the
    partial results (possibly none) are still reported.
    """

    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    residuals: tuple[float, ...]
    converged: bool = True

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)

    def to_json_dict(self) -> dict:
        return {
            "roots": [
                {"re": z.real, "im": z.imag, "mult": m}
                for z, m in zip(self.roots, self.multiplicities)
            ],
            "residuals": list(self.residuals),
            "converged": self.converged,
        }


def _backward_error(p: Poly, z: complex) -> float:
    num = abs(p.eval(complex(z)))
    scale = sum(abs(c) * abs(z) ** j for j, c in enumerate(p.coeffs))
    return num / max(scale, np.finfo(float).tiny)


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

    Roots are the eigenvalues of the companion matrix; clusters of raw
    roots within ``1e-7 * max(1, |root|)`` of each other are merged into
    one reported root (their centroid) with the cluster size as its
    multiplicity.
    """
    if p.kind != FLOAT:
        raise ScalarModeError("complex_roots requires a float polynomial; use to_float()")
    if p.is_zero or p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    try:
        raw = np.roots(np.asarray(p.coeffs[::-1], dtype=float))
    except np.linalg.LinAlgError:
        return RootSet((), (), (), converged=False)
    scale = max(1.0, float(np.max(np.abs(raw))))
    merged = _cluster(raw, CLUSTER_RADIUS * scale)
    roots = tuple(z for z, _ in merged)
    mults = tuple(m for _, m in merged)
    residuals = tuple(_backward_error(p, z) for z in roots)
    return RootSet(roots, mults, residuals)


def _score_and_slope(w: np.ndarray, theta: float) -> tuple[float, float]:
    denom = 1.0 + theta * w
    return float(np.sum(w / denom)), float(np.sum(-(w * w) / (denom * denom)))


def score_root_from_weights(w: np.ndarray) -> float | None:
    """The unique zero of the score on (-1, 1), or None when there is none.

    The score is strictly decreasing wherever some weight is nonzero, so
    a sign change between the endpoints brackets exactly one root; the
    bracket is then shrunk by bisection with Newton steps accepted only
    when they stay strictly inside it.  Endpoints that are poles (a
    weight of exactly +-1) are moved inward by :func:`fgmexp.model.endpoint`.
    No sign change means the maximum sits on the boundary and None is
    returned.  Raises ValueError for a weight that is not finite or lies
    outside [-1, 1].
    """
    w = validate_weights(w)
    if w.size == 0 or not np.any(w != 0.0):
        raise ValueError("score root needs at least one nonzero weight")
    lo, hi = endpoint(w, -1.0), endpoint(w, 1.0)
    f_lo = score_weights(w, lo)
    f_hi = score_weights(w, hi)
    if not (f_lo > 0.0 and f_hi < 0.0):
        return None
    x = 0.5 * (lo + hi)
    for _ in range(MAX_ITER):
        f, slope = _score_and_slope(w, x)
        if abs(f) <= SCORE_TOL:
            break
        if f > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= WIDTH_TOL:
            break
        step = x - f / slope
        x = step if lo < step < hi else 0.5 * (lo + hi)
    return x


def score_root_in_open_interval(data: Dataset) -> float | None:
    """Interior score root of a dataset; degenerate weights are dropped."""
    w = data.weights
    return score_root_from_weights(w[w != 0.0])
