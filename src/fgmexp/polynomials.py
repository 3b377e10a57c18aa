"""Univariate polynomials over exact rationals or floats.

The cleared score equation of the model is a ratio of two polynomials in
the association parameter: a denominator that is the product of the
linear factors (theta + c_i), and a numerator that is its formal
derivative.  This module builds both, and provides the polynomial
arithmetic (evaluation, derivative, exact gcd, exact division) that the
ML-degree computations rest on.

Two scalar kinds are supported and never mixed silently:

* ``"rational"`` -- arbitrary-precision ``fractions.Fraction``; the
  source of truth for all algebraic statements (gcd, exact division,
  multiplicity counting).
* ``"float"`` -- double precision; used for measured data, where only
  evaluation and numerical root finding are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "RATIONAL",
    "FLOAT",
    "Poly",
    "ScalarModeError",
    "scalar_kind",
    "build_h",
    "build_k",
    "gcd",
    "divmod_exact",
    "root_multiplicity",
    "parse_rational",
]

RATIONAL = "rational"
FLOAT = "float"

Scalar = Union[Fraction, float]


class ScalarModeError(TypeError):
    """An operation received scalars of the wrong or mixed kind."""


def _coerce(values: Iterable, kind: str) -> tuple:
    if kind == RATIONAL:
        return tuple(Fraction(v) for v in values)
    return tuple(float(v) for v in values)


def scalar_kind(values: Sequence) -> str | None:
    """Scalar kind of a sequence: :data:`RATIONAL` when every value is a
    Fraction or an integer, :data:`FLOAT` when every value is a float,
    None for a mixture.  A one-dimensional ndarray of integers or floats
    is decided by its dtype."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "fiu":
        return FLOAT if values.dtype.kind == "f" else RATIONAL
    if all(isinstance(v, (Fraction, int, np.integer)) for v in values):
        return RATIONAL
    if all(isinstance(v, (float, np.floating)) for v in values):
        return FLOAT
    return None


@dataclass(frozen=True)
class Poly:
    """Immutable univariate polynomial, coefficients in ascending degree.

    The zero polynomial is canonically the empty coefficient tuple and
    has degree ``-inf``.  Nonzero polynomials never carry trailing zero
    coefficients, so ``coeffs[-1]`` is the leading coefficient.
    """

    coeffs: tuple
    kind: str = RATIONAL

    def __post_init__(self):
        if self.kind not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown scalar kind {self.kind!r}")
        cs = list(_coerce(self.coeffs, self.kind))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Scalar:
        if self.is_zero:
            return Fraction(0) if self.kind == RATIONAL else 0.0
        return self.coeffs[-1]

    # -- operations ---------------------------------------------------------

    def eval(self, t):
        """Evaluate at ``t`` by Horner's rule.

        The point must match the scalar kind: rational polynomials accept
        Fraction/int points, float polynomials accept real or complex
        points (reals widen to complex).
        """
        if self.kind == RATIONAL:
            if not isinstance(t, (Fraction, int, np.integer)):
                raise ScalarModeError(
                    "rational polynomial evaluated at non-rational point; "
                    "convert with to_float() first"
                )
        elif not isinstance(t, (float, complex, int, np.floating, np.complexfloating)):
            raise ScalarModeError(f"cannot evaluate float polynomial at {type(t).__name__}")
        acc = Fraction(0) if self.kind == RATIONAL else 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    __call__ = eval

    def derivative(self) -> "Poly":
        """Formal derivative; drops the degree by one for non-constants."""
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0), self.kind)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return Poly(tuple(c / lead for c in self.coeffs), self.kind)

    def to_float(self) -> "Poly":
        return Poly(tuple(float(c) for c in self.coeffs), FLOAT)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.kind == RATIONAL:
            coeffs = [str(c) for c in self.coeffs]
        else:
            coeffs = list(self.coeffs)
        return {"scalar_kind": self.kind, "coeffs": coeffs}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Poly":
        kind = doc["scalar_kind"]
        if kind == RATIONAL:
            return cls(tuple(Fraction(c) for c in doc["coeffs"]), RATIONAL)
        return cls(tuple(float(c) for c in doc["coeffs"]), FLOAT)


def _check_cvalues(c: Sequence) -> tuple[tuple, str]:
    values = list(c)
    if len(values) == 0:
        raise ValueError("need at least one shift value")
    kind = scalar_kind(values)
    if kind is None:
        raise ScalarModeError(
            "mixed scalar kinds: values must be all rational (Fraction/int) "
            "or all float"
        )
    values = _coerce(values, kind)
    for v in values:
        if v == 0:
            raise ValueError("shift values must be nonzero")
        if kind == FLOAT and not math.isfinite(v):
            raise ValueError("shift values must be finite")
    return values, kind


def build_k(c: Sequence) -> Poly:
    """Expand the monic product of the linear factors (theta + c_i).

    Coefficients are the elementary symmetric functions of the shifts,
    accumulated by repeated multiplication with one linear factor, so the
    result is invariant under permutation of ``c``.
    """
    values, kind = _check_cvalues(c)
    one = Fraction(1) if kind == RATIONAL else 1.0
    coeffs = [one]
    for ci in values:
        # multiply by (theta + ci): new[j] = old[j-1] + ci*old[j]
        nxt = [ci * coeffs[0]]
        for j in range(1, len(coeffs)):
            nxt.append(coeffs[j - 1] + ci * coeffs[j])
        nxt.append(coeffs[-1])
        coeffs = nxt
    return Poly(tuple(coeffs), kind)


def build_h(c: Sequence) -> Poly:
    """Build the score numerator: the sum over i of prod_{j != i}(theta + c_j).

    Constructed as the formal derivative of :func:`build_k`, which is the
    same polynomial in O(n^2) scalar operations instead of O(n^3).  The
    degree is exactly n-1 and the leading coefficient is n.
    """
    return build_k(c).derivative()


def divmod_exact(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Polynomial long division over the rationals; returns (quotient, remainder)."""
    if a.kind != RATIONAL or b.kind != RATIONAL:
        raise ScalarModeError("exact division requires rational scalars")
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    lead = b.coeffs[-1]
    if len(rem) - 1 < db:
        return Poly((), RATIONAL), a
    quot = [Fraction(0)] * (len(rem) - db)
    for k in range(len(rem) - 1 - db, -1, -1):
        q = rem[k + db] / lead
        quot[k] = q
        if q:
            for j in range(db + 1):
                rem[k + j] -= q * b.coeffs[j]
    return Poly(tuple(quot), RATIONAL), Poly(tuple(rem[:db]), RATIONAL)


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm.

    Defined only for exact-rational polynomials; float polynomials have
    no meaningful gcd and are rejected.
    """
    if a.kind != RATIONAL or b.kind != RATIONAL:
        raise ScalarModeError("gcd is defined only for rational polynomials")
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        _, r = divmod_exact(a, b)
        a, b = b, r
    return a.monic()


def root_multiplicity(p: Poly, r) -> int:
    """Exact multiplicity of ``r`` as a root of ``p``, by repeated division.

    Divides out the linear factor (theta - r) as long as the remainder is
    exactly zero; rational arithmetic only, zero tolerance.
    """
    if p.kind != RATIONAL:
        raise ScalarModeError("exact multiplicity requires a rational polynomial")
    if p.is_zero:
        raise ValueError("every point is a root of the zero polynomial")
    factor = Poly((-Fraction(r), Fraction(1)), RATIONAL)
    count = 0
    while not p.is_zero and p.eval(Fraction(r)) == 0:
        p, rem = divmod_exact(p, factor)
        assert rem.is_zero
        count += 1
    return count


def parse_rational(text: str) -> Fraction:
    """Parse a ``p/q`` literal; a bare integer means q = 1."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
