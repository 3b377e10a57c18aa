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
deg h - deg gcd(h, k), over exact rationals.  The route builds h and k
and takes deg gcd(h, k) off k's own linear factors: by unique
factorisation it is the sum, over the distinct factors (d theta + n) of
k, of how often each divides h, capped at how often it occurs in k.
Each is measured by exact deflation of h, never read off the closed
formula's n_i - 1, and the factors are grouped by the route itself, not
by the profile, so a wrong profile still disagrees
(:func:`~fgmexp.polynomials._gcd_degree`).

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

    ``values`` holds one representative per group, a tuple of Fractions
    in exact mode and a read-only float64 array in approximate mode, and
    ``mults`` the group sizes, each at least 1, as an int64 array made
    read-only here, both in order of first appearance.  The columns are
    the whole record: ``mode`` is read off the type of ``values`` (an
    ndarray is ``"approx"``, anything else ``"exact"``), and the counts
    are taken once at construction: ``p`` distinct values, ``l`` groups
    of size > 1, ``m`` the total size of those groups, and ``n`` values,
    which is m + (p - l) since every other group holds one value.
    """

    values: tuple | np.ndarray
    mults: np.ndarray
    n: int = field(init=False)
    l: int = field(init=False)
    m: int = field(init=False)
    # (index, size) of each group of size > 1, in group order
    _repeated: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.mults.flags.writeable = False
        # a fixed number of numpy calls, whatever the number of groups
        index = (self.mults > 1).nonzero()[0]
        sizes = self.mults[index].tolist()
        object.__setattr__(self, "l", len(sizes))
        object.__setattr__(self, "m", sum(sizes))
        # every other group holds one value
        object.__setattr__(self, "n", self.m + len(self.mults) - self.l)
        object.__setattr__(self, "_repeated", tuple(zip(index.tolist(), sizes)))

    @property
    def mode(self) -> str:
        """``"approx"`` for float representatives, else ``"exact"``."""
        return "approx" if isinstance(self.values, np.ndarray) else "exact"

    @property
    def p(self) -> int:
        return len(self.values)


def profile(c: Sequence) -> MultiplicityProfile:
    """Group the shift values by equality; their kind picks the mode.

    The values are read by :func:`~fgmexp.polynomials._linear_factors`,
    the one reader of shift values, which
    :func:`~fgmexp.polynomials.build_k` uses too; so ``profile`` accepts
    what ``build_k`` and :func:`ml_degree_algebraic` accept and raises
    what they raise: ScalarModeError for values that are not all rational or
    all float (a mixture, a string, None, a complex value) or not one
    sequence (a 0-d or 2-D array), and ValueError ``need at least one
    shift value`` for no values, ``shift values must be nonzero`` for a
    zero rational value, and ``shift values must be finite and nonzero``
    for a float value that is zero, infinite or NaN.

    Rational values (Fractions, ints, bools, numpy integers and bools)
    are compared exactly, as lowest-terms integer pairs.  Each group is
    represented by the first value given for it when that value's type
    is exactly ``Fraction``, which is always in lowest terms, and
    otherwise by the Fraction built from its pair; the representatives
    are one tuple.  Float values are compared approximately: floats
    whose gap is within ``1e-9 * max(1, |value|)`` are grouped, closed
    transitively so the result is a partition.  The float grouping sorts
    the values once, builds the tolerance of each pair of sorted
    neighbours in one buffer and frees it with the sorted copy before
    the representatives are taken; it orders the groups by scattering
    each size to its group's first index, not by a second sort.  Each
    float group is represented by its first value, and the
    representatives stay one read-only float64 array, whose entries are
    ``np.float64``, a ``float`` subclass.
    """
    return _profile(*polynomials._linear_factors(c))


def _profile(kind: str, shifts: list | np.ndarray,
             values: list | np.ndarray) -> MultiplicityProfile:
    """:func:`profile` of the shifts as
    :func:`~fgmexp.polynomials._linear_factors` read them: their kind,
    their checked values and the values as given."""
    if kind == polynomials.RATIONAL:
        # (d, n) pairs of ints hash at C speed, where Fractions do not
        counts = Counter(shifts)
        mults = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        # the first value given for each pair, as a dict built backwards
        # keeps the last value it meets for a key
        first = dict(zip(shifts[::-1], values[::-1]))
        # a Fraction is in lowest terms already; any other value gives way
        # to the Fraction of its pair
        reps = tuple([v if type(v) is Fraction else Fraction(n, d)
                      for (d, n), v in zip(counts, map(first.__getitem__, counts))])
        return MultiplicityProfile(reps, mults)
    fl = shifts
    # the sort need not be stable, as a group's representative is its
    # smallest index wherever ties land
    order = np.argsort(fl)
    starts = _group_starts(fl[order])
    # each group's size at its smallest index: the nonzero entries, in
    # index order, are the groups in order of first appearance
    sizes = np.zeros(len(fl), dtype=np.int64)
    sizes[np.minimum.reduceat(order, starts)] = np.diff(starts, append=len(fl))
    first = np.flatnonzero(sizes)
    reps = fl[first]
    reps.flags.writeable = False
    return MultiplicityProfile(reps, sizes[first])


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
    # the gap between opposite-sign values near the float limit overflows
    # to inf, which is rightly a break
    with np.errstate(over="ignore"):
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

    Must agree with :func:`ml_degree_formula` on every input with rational
    values, and on float values wherever the tolerance of :func:`profile`
    merges no distinct floats; the pair of routes is the correctness
    oracle for both.  The values are read by
    :func:`~fgmexp.polynomials._linear_factors`, the reader of
    :func:`~fgmexp.polynomials.build_k`, so this accepts what that
    accepts and raises what it raises:
    ScalarModeError for values of no kind, ValueError for no values or a
    zero value, or a float value that is not finite; and
    :class:`AllEqualError` when every value is equal.  A float value is
    read as the dyadic rational it holds, so the count of floats is the
    exact count of their Fractions, and all-equal floats carry that
    Fraction as the error's ``value``.

    The all-equal case is read off the count itself: for n >= 2 the
    count is 0 exactly when every value is equal.  A count of 0 means
    that h, of degree n - 1, is its gcd with k, so h divides k and
    k = h (theta + a) / n; then k'/k = n / (theta + a), and since k'/k is
    also the sum of the 1/(theta + c_i), partial fractions give c_i = a
    for every i.  Conversely n equal values give h = n (theta + a)^(n-1),
    which divides k.
    """
    return _algebraic_count_and_h(*polynomials._linear_factors(c)[:2])[0]


def _algebraic_count_and_h(kind: str, shifts: list | np.ndarray) -> tuple[int, polynomials.Poly]:
    """:func:`ml_degree_algebraic`'s count of the shifts as
    :func:`~fgmexp.polynomials._linear_factors` read them, their kind
    and checked values, together with the h = k' it built, for callers
    that also need h.  deg gcd(h, k) is read off k's own linear factors
    by :func:`~fgmexp.polynomials._gcd_degree`."""
    pairs = polynomials._factor_pairs(kind, shifts)
    k = polynomials._build_k(pairs)
    h = k.derivative()
    n = k.degree
    count = n - 1 - polynomials._gcd_degree(pairs, h)
    if count == 0 and n >= 2:
        # k = (theta + a)^n, whose theta^(n-1) coefficient is n a
        raise AllEqualError(k.coeffs[-2] / n, n)
    return count, h


def _serialize_value(v):
    return str(v) if isinstance(v, Fraction) else float(v)


def ml_degree_report(c: Sequence) -> dict:
    """JSON-ready ML-degree report for a list of shift values.

    The values' kind picks the mode, and bad values raise, as in
    :func:`profile`.  Exact mode carries the algebraic cross-check;
    approximate mode carries a caveat, because grouping float values is
    tolerance dependent and generic continuous data has no repeats at
    all.  Raises :class:`AllEqualError` for the excluded all-equal case.
    """
    # read once: both routes below take what the reader returns
    kind, shifts, values = polynomials._linear_factors(c)
    prof = _profile(kind, shifts, values)
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
        alg = _algebraic_count_and_h(kind, shifts)[0]
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
