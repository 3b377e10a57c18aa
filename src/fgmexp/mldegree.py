"""Maximum likelihood degree of the association parameter.

The score equation clears to h(theta)/k(theta) = 0, where k is the
product of the linear factors (theta + c_i) and h = k'.  Zeros of h that
are also zeros of k are artifacts of the cleared denominator, and they
occur exactly when some shift value is repeated: a value repeated n_i
times contributes the common zero -c_i with multiplicity n_i - 1 in h.
Discarding those leaves

    ml_degree = n + l - m - 1

where, among the p distinct shift values, l groups are repeated more
than once and m is the total size of those repeated groups.  The closed
formula is cross-checked against an independent algebraic route,
deg h - deg gcd(h, k), over exact rationals.

When every shift value is equal the cleared score equation collapses and
the count is undefined; that case raises :class:`AllEqualError`, which
carries the boundary maximizer in its ``boundary_mle``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import polynomials
from .polynomials import ScalarModeError

__all__ = [
    "APPROX_REL_TOL",
    "AllEqualError",
    "MultiplicityProfile",
    "profile",
    "common_zeros",
    "ml_degree_formula",
    "ml_degree_algebraic",
    "ml_degree_report",
]

# Two float shift values within this relative distance are treated as
# equal (transitively), so the grouping is a partition.
APPROX_REL_TOL = 1e-9


class AllEqualError(ValueError):
    """All shift values coincide: the cleared score equation is invalid.

    The likelihood is then (1 + theta/c)^n, monotone in theta, and the
    maximizer sits at the boundary ``boundary_mle``: +1 for c > 0, -1
    for c < 0.
    """

    def __init__(self, value, n: int):
        self.value = value
        self.n = n
        self.boundary_mle = 1 if value > 0 else -1
        super().__init__(
            f"all {n} shift values equal {value}; no ML-degree is defined and "
            f"the boundary MLE rule applies (theta = {self.boundary_mle})"
        )


@dataclass(frozen=True, eq=False)
class MultiplicityProfile:
    """Grouping of the shift values by equality, as two columns.

    ``values`` holds one representative per group (Fractions in exact
    mode, floats in approximate mode) and ``mults`` the group sizes as a
    read-only int64 array, both in order of first appearance.  Derived
    counts, taken once at construction: ``n`` values, ``p`` distinct
    values, ``l`` groups of size > 1, and ``m`` the total size of those
    groups.
    """

    values: list
    mults: np.ndarray
    mode: str  # "exact" | "approx"
    n: int = field(init=False)
    l: int = field(init=False)
    m: int = field(init=False)
    # (index, size) of each group of size > 1, in group order
    _repeated: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.mults.flags.writeable = False
        # a fixed number of numpy calls, whatever the number of groups
        index = np.flatnonzero(self.mults > 1)
        sizes = self.mults[index].tolist()
        object.__setattr__(self, "n", int(self.mults.sum()))
        object.__setattr__(self, "l", len(sizes))
        object.__setattr__(self, "m", sum(sizes))
        object.__setattr__(self, "_repeated", tuple(zip(index.tolist(), sizes)))

    @property
    def p(self) -> int:
        return len(self.values)


def profile(c: Sequence) -> MultiplicityProfile:
    """Group the shift values by equality; the scalar types pick the mode.

    All rational (Fraction or int) values are compared exactly, as
    lowest-terms integer pairs.  Each group is represented by the first
    value given for it when that value's type is exactly ``Fraction``,
    which is always in lowest terms, and otherwise (an int, a numpy
    integer, a bool or a ``Fraction`` subclass) by the Fraction built
    from its pair; anything else (floats, or a mixture) is
    compared approximately: floats whose gap is within
    ``1e-9 * max(1, |value|)`` are grouped, closed transitively so the
    result is a partition.  The float grouping sorts the values once,
    builds the tolerance of each pair of sorted neighbours in one buffer
    and frees it with the sorted copy before the representatives are
    listed; it orders the groups by scattering each size to its group's
    first index, not by a second sort.

    The values pass the check :func:`~fgmexp.polynomials.build_k` makes,
    with its one message per condition: ValueError ``need at least one
    shift value`` for no values, ``shift values must be nonzero`` for a
    zero rational value, and ``shift values must be finite and nonzero``
    for a float value that is zero, infinite or NaN.
    """
    values = c if isinstance(c, np.ndarray) and c.ndim == 1 else list(c)
    if polynomials.scalar_kind(values) == polynomials.RATIONAL:
        # (d, n) pairs of ints hash at C speed, where Fractions do not
        pairs = polynomials._exact_shifts(values)
        counts = Counter(pairs)
        mults = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        # the first value given for each pair, as a dict built backwards
        # keeps the last value it meets for a key
        first = dict(zip(pairs[::-1], values[::-1]))
        # a Fraction is in lowest terms already; any other value gives way
        # to the Fraction of its pair
        reps = [v if type(v) is Fraction else Fraction(n, d)
                for (d, n), v in zip(counts, map(first.__getitem__, counts))]
        return MultiplicityProfile(reps, mults, "exact")
    fl = polynomials._float_shifts(values)
    # the sort need not be stable, as a group's representative is its
    # smallest index wherever ties land
    order = np.argsort(fl)
    starts = _group_starts(fl[order])
    # each group's size at its smallest index: the nonzero entries, in
    # index order, are the groups in order of first appearance
    sizes = np.zeros(len(fl), dtype=np.int64)
    sizes[np.minimum.reduceat(order, starts)] = np.diff(starts, append=len(fl))
    first = np.flatnonzero(sizes)
    return MultiplicityProfile(fl[first].tolist(), sizes[first], "approx")


def _group_starts(s: np.ndarray) -> np.ndarray:
    """Indices into the sorted float values ``s`` that start a group: a
    value more than the tolerance above its predecessor.  The sorted
    copy and the tolerance end with the call."""
    # the tolerance in one buffer: for sorted neighbours a <= b,
    # max(|a|, |b|) is exactly max(-a, b), as max only selects
    tol = -s[:-1]
    np.maximum(tol, s[1:], out=tol)
    np.maximum(tol, 1.0, out=tol)
    tol *= APPROX_REL_TOL
    return np.flatnonzero(np.concatenate(([True], np.diff(s) > tol)))


def common_zeros(prof: MultiplicityProfile) -> tuple[tuple, ...]:
    """Common zeros of h and k implied by the profile, as
    (-value, multiplicity in h) pairs.

    Each group of size n_i >= 2 contributes (-value, n_i - 1); singleton
    groups contribute nothing, so the tuple is empty exactly when all
    shift values are distinct.
    """
    return tuple((-prof.values[i], size - 1) for i, size in prof._repeated)


def ml_degree_formula(prof: MultiplicityProfile) -> int:
    """Closed-form count of score-equation solutions: n + l - m - 1.

    With no repeats (l = 0) this is n - 1.  The all-equal case (one group
    holding every value, n >= 2) is excluded and raises
    :class:`AllEqualError`; the boundary MLE rule applies there instead.
    """
    if prof.p == 1 and prof.n >= 2:
        raise AllEqualError(prof.values[0], prof.n)
    return prof.n + prof.l - prof.m - 1


def ml_degree_algebraic(c: Sequence) -> int:
    """Independent algebraic route: deg h - deg gcd(h, k) over exact rationals.

    Must agree with :func:`ml_degree_formula` on every input; the pair of
    routes is the correctness oracle for both.  Raises ScalarModeError
    for a value that is not rational; otherwise the errors of the exact
    :func:`profile` and :func:`ml_degree_formula`, with their messages:
    ValueError for no values or a zero value, from the one exact check
    in :mod:`~fgmexp.polynomials`, and :class:`AllEqualError` when every
    value is equal.

    The all-equal case is read off the count itself: for n >= 2 the
    count is 0 exactly when every value is equal.  A count of 0 means
    that h, of degree n - 1, is its gcd with k, so h divides k and
    k = h (theta + a) / n; then k'/k = n / (theta + a), and since k'/k is
    also the sum of the 1/(theta + c_i), partial fractions give c_i = a
    for every i.  Conversely n equal values give h = n (theta + a)^(n-1),
    which divides k.
    """
    return _algebraic_count_and_h(list(c))[0]


def _algebraic_count_and_h(values: list) -> tuple[int, polynomials.Poly]:
    """:func:`ml_degree_algebraic`'s count together with the h = k' it
    built, for callers that also need h."""
    # build_k checks every value and rejects a mixture of kinds, so the
    # kind of the first value is the kind of all
    if values and not isinstance(values[0], (Fraction, int, np.integer)):
        raise ScalarModeError("exact mode requires rational (Fraction/int) values")
    k = polynomials.build_k(values)  # rejects no values, zero values and mixtures
    h = k.derivative()
    count = int(h.degree - polynomials.gcd(h, k).degree)
    if count == 0 and len(values) >= 2:
        raise AllEqualError(Fraction(values[0]), len(values))
    return count, h


def _serialize_value(v):
    return str(v) if isinstance(v, Fraction) else float(v)


def ml_degree_report(c: Sequence) -> dict:
    """JSON-ready ML-degree report for a list of shift values.

    The scalar types pick the mode, as in :func:`profile`.  Exact mode
    carries the algebraic cross-check; approximate mode carries a
    caveat, because grouping float values is tolerance dependent and
    generic continuous data has no repeats at all.
    Raises :class:`AllEqualError` for the excluded all-equal case.
    """
    if not isinstance(c, np.ndarray):
        c = list(c)  # read once: both routes below consume it
    prof = profile(c)
    md = ml_degree_formula(prof)
    doc = {
        "n": prof.n,
        "p": prof.p,
        "l": prof.l,
        "m": prof.m,
        "ml_degree": md,
        "common_zeros": [
            {"value": _serialize_value(v), "mult": mult}
            for v, mult in common_zeros(prof)
        ],
        "mode": prof.mode,
    }
    if prof.mode == "exact":
        alg = ml_degree_algebraic(c)
        doc["oracle"] = {
            "formula": md,
            "algebraic": alg,
            "agree": alg == md,
        }
    else:
        doc["caveat"] = (
            "float shift values are grouped with relative tolerance "
            f"{APPROX_REL_TOL:g}; the exact-rational mode is the source of "
            "truth for multiplicity structure"
        )
    return doc
