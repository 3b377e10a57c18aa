"""Univariate polynomials over exact rationals or floats.

The cleared score equation of the model is a ratio of two polynomials in
the association parameter: a denominator that is the product of the
linear factors (theta + c_i), and a numerator that is its formal
derivative.  This module builds both, and provides the polynomial
arithmetic (evaluation, derivative, exact gcd, multiplicity) that the
ML-degree computations rest on.

Two scalar kinds are supported and never mixed silently:

* ``"rational"`` -- arbitrary-precision ``fractions.Fraction``; the
  source of truth for all algebraic statements (gcd, multiplicity
  counting).
* ``"float"`` -- double precision; used for measured data, where only
  evaluation and numerical root finding are meaningful.

The shift values c_i are checked here, by one check per kind, for
:func:`build_k`, :func:`fgmexp.mldegree.profile` and the CLI alike:
there must be at least one, an exact value must be nonzero, and a float
value finite and nonzero.

The exact operations work on integers from start to finish.  A rational
polynomial is held as a primitive integer vector times a rational scale,
and the Fraction coefficients are built only when a caller reads them.
:func:`build_k` multiplies the integer factors (d_i theta + n_i) of the
shifts n_i/d_i, two to a pass as one quadratic; each factor is
primitive, so by Gauss's lemma so is the product, and h = k' is its
integer derivative divided by its content.
:func:`gcd` takes the gcd of two such vectors modulo a fixed sequence of
primes below 2**30 (Brown's multi-prime algorithm), so that a residue is
one digit of a CPython integer and a product of two stays below 2**60,
and combines the monic images by Chinese remaindering and rational
reconstruction.  The result is exact, not probable: a prime that divides
neither leading coefficient gives an image whose degree bounds the
degree of the true gcd from above, and a candidate of that degree is
returned only after it divides both inputs exactly over the integers,
checked by a long division whose every step is one dot product, which
makes it a common divisor of the largest possible degree.
:func:`root_multiplicity` deflates the integer vector by synthetic
division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
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
    "root_multiplicity",
    "parse_rational",
]

RATIONAL = "rational"
FLOAT = "float"

Scalar = Union[Fraction, float]

_NO_SHIFTS = "need at least one shift value"


class ScalarModeError(TypeError):
    """An operation received scalars of the wrong or mixed kind."""


def _coerce(values: Iterable, kind: str) -> list:
    if kind == RATIONAL:
        # a Fraction is immutable and already in lowest terms
        return [v if type(v) is Fraction else Fraction(v) for v in values]
    return [float(v) for v in values]


def scalar_kind(values: Sequence) -> str | None:
    """Scalar kind of a sequence: :data:`RATIONAL` when every value is a
    Fraction or an integer, :data:`FLOAT` when every value is a float,
    None for a mixture.  A one-dimensional ndarray of integers or floats
    is decided by its dtype."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "fiu":
        return FLOAT if values.dtype.kind == "f" else RATIONAL
    # one pass at C speed; the Python test runs once per distinct type
    types = set(map(type, values))
    if all(issubclass(t, (Fraction, int, np.integer)) for t in types):
        return RATIONAL
    if all(issubclass(t, (float, np.floating)) for t in types):
        return FLOAT
    return None


@dataclass(frozen=True, init=False, repr=False)
class Poly:
    """Immutable univariate polynomial, coefficients in ascending degree.

    The zero polynomial is canonically the empty coefficient tuple and
    has degree ``-inf``.  Nonzero polynomials never carry trailing zero
    coefficients, so ``coeffs[-1]`` is the leading coefficient.

    A rational polynomial is held as a primitive integer vector whose
    leading entry is positive, times a rational scale; its Fraction
    ``coeffs`` are built from them when first read.  A float polynomial
    holds its coefficients.
    """

    kind: str
    _vector: tuple
    _scale: Fraction | None
    _coeffs: tuple | None = field(compare=False)

    def __init__(self, coeffs: Iterable, kind: str = RATIONAL):
        if kind not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown scalar kind {kind!r}")
        cs = _coerce(coeffs, kind)
        while cs and cs[-1] == 0:
            cs.pop()
        cs = tuple(cs)
        if kind == FLOAT:
            _setup(self, FLOAT, cs, None, cs)
            return
        den = math.lcm(*[c.denominator for c in cs])
        vector, scale = _canonical([c.numerator * (den // c.denominator) for c in cs],
                                   Fraction(1, den))
        _setup(self, RATIONAL, vector, scale, cs)

    def __repr__(self):
        return f"Poly(coeffs={self.coeffs!r}, kind={self.kind!r})"

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients in ascending degree: Fractions in lowest terms
        for a rational polynomial, floats for a float one."""
        if self._coeffs is None:
            num, den = self._scale.numerator, self._scale.denominator
            coeffs = tuple(Fraction(x * num, den) for x in self._vector)
            object.__setattr__(self, "_coeffs", coeffs)
        return self._coeffs

    @property
    def degree(self):
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self._vector) - 1 if self._vector else float("-inf")

    @property
    def is_zero(self) -> bool:
        return not self._vector

    @property
    def leading_coefficient(self) -> Scalar:
        if self.kind == FLOAT:
            return self._vector[-1] if self._vector else 0.0
        return self._scale * self._vector[-1] if self._vector else Fraction(0)

    # -- operations ---------------------------------------------------------

    def eval(self, t):
        """Evaluate at ``t`` by Horner's rule.

        The point must match the scalar kind: rational polynomials accept
        Fraction/int points, float polynomials accept real or complex
        points (reals widen to complex).
        """
        if self.kind == RATIONAL:
            if not isinstance(t, (Fraction, int, np.integer)):
                raise ScalarModeError("rational polynomial evaluated at non-rational point")
            acc = Fraction(0)
            for x in reversed(self._vector):
                acc = acc * t + x
            return acc * self._scale
        if not isinstance(t, (float, complex, int, np.floating, np.complexfloating)):
            raise ScalarModeError(f"cannot evaluate float polynomial at {type(t).__name__}")
        acc = 0.0
        for c in reversed(self._vector):
            acc = acc * t + c
        return acc

    __call__ = eval

    def derivative(self) -> "Poly":
        """Formal derivative; drops the degree by one for non-constants."""
        terms = [i * c for i, c in enumerate(self._vector) if i > 0]
        if self.kind == FLOAT:
            return Poly(terms, FLOAT)
        return _rational(terms, self._scale)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        lead = self._vector[-1]
        if self.kind == FLOAT:
            return Poly([c / lead for c in self._vector], FLOAT)
        return _rational(list(self._vector), Fraction(1, lead))


def _setup(p: Poly, kind: str, vector: tuple, scale: Fraction | None,
           coeffs: tuple | None) -> None:
    object.__setattr__(p, "kind", kind)
    object.__setattr__(p, "_vector", vector)
    object.__setattr__(p, "_scale", scale)
    object.__setattr__(p, "_coeffs", coeffs)


def _canonical(ints: list[int], scale: Fraction) -> tuple[tuple, Fraction]:
    """The primitive vector with positive leading entry and the scale that
    together equal ``scale * ints``; trailing zeros are dropped."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return (), Fraction(0)
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    if content != 1:
        ints = [x // content for x in ints]
        scale *= content
    return tuple(ints), scale


def _rational(ints: list[int], scale: Fraction) -> Poly:
    """The rational polynomial ``scale * sum(ints[i] theta**i)``."""
    p = object.__new__(Poly)
    _setup(p, RATIONAL, *_canonical(ints, scale), None)
    return p


def _exact_shifts(values: Sequence) -> list[tuple[int, int]]:
    """The rational shift values n/d in lowest terms as (d, n) integer
    pairs, in order.  ValueError for no values or a zero value; these
    are the only messages the exact shift-value rule gives."""
    # int() turns numpy integers into Python ones, which do not wrap
    pairs = [(v.denominator, v.numerator) if isinstance(v, Fraction) else (1, int(v))
             for v in values]
    if not pairs:
        raise ValueError(_NO_SHIFTS)
    if not all(n for _, n in pairs):
        raise ValueError("shift values must be nonzero")
    return pairs


def _float_shifts(values: Sequence) -> np.ndarray:
    """The shift values as a float64 array, each value converted by
    float() unless ``values`` is an ndarray.  ValueError for no values
    or a value that is zero or not finite; these are the only messages
    the float shift-value rule gives."""
    fl = np.asarray(values if isinstance(values, np.ndarray) else [float(v) for v in values],
                    dtype=float)
    if not fl.size:
        raise ValueError(_NO_SHIFTS)
    if not (np.isfinite(fl) & (fl != 0.0)).all():
        raise ValueError("shift values must be finite and nonzero")
    return fl


def _linear_factors(c: Sequence) -> tuple[list, str]:
    """The checked shift values as factors (a theta + b), as (a, b) pairs,
    and their kind: (d, n) for a rational value n/d in lowest terms,
    (1.0, c) for a float value c."""
    values = list(c)
    kind = scalar_kind(values)
    if kind is None:
        raise ScalarModeError(
            "mixed scalar kinds: values must be all rational (Fraction/int) "
            "or all float"
        )
    if kind == RATIONAL:
        return _exact_shifts(values), kind
    return [(1.0, v) for v in _float_shifts(values).tolist()], kind


def build_k(c: Sequence) -> Poly:
    """Expand the monic product of the linear factors (theta + c_i).

    Coefficients are the elementary symmetric functions of the shifts,
    accumulated by repeated multiplication with the linear factors, so
    the result is invariant under permutation of ``c``.  Each factor is
    taken as a pair (a_i theta + b_i): a rational shift n_i/d_i as the
    integer factor (d_i theta + n_i), a float shift as (1.0 theta + c_i),
    whose products by 1.0 are exact.  The integer product takes two
    factors per pass, multiplied out as one quadratic, after the first
    factor alone when n is odd; the float product takes one factor per
    pass, which fixes the order of its roundings.  The integer factors
    are primitive, and so, by Gauss's lemma, is their product; the monic
    k is that product over the product of the d_i, its leading
    coefficient.

    Raises ScalarModeError for a mixture of the two kinds, and
    ValueError with one message per condition: ``need at least one
    shift value`` for no values, ``shift values must be nonzero`` for a
    zero rational value, and ``shift values must be finite and
    nonzero`` for a float value that is zero, infinite or NaN.
    :func:`fgmexp.mldegree.profile` checks its values with the same two
    checks, so it raises the same messages.
    """
    pairs, kind = _linear_factors(c)
    if kind == FLOAT:
        coeffs = [1.0]
        for a, b in pairs:
            # multiply by (a theta + b): new[j] = a*old[j-1] + b*old[j]
            coeffs = [b * coeffs[0],
                      *[a * lo + b * hi for lo, hi in zip(coeffs, coeffs[1:])],
                      a * coeffs[-1]]
        return Poly(coeffs, FLOAT)
    # the odd factor out first, then two factors per pass: multiply by
    # (a1 theta + b1)(a2 theta + b2) = A theta^2 + B theta + C, so
    # new[j] = A*old[j-2] + B*old[j-1] + C*old[j]
    odd = len(pairs) % 2
    coeffs = [pairs[0][1], pairs[0][0]] if odd else [1]
    for (a1, b1), (a2, b2) in zip(pairs[odd::2], pairs[odd + 1::2]):
        qa, qb, qc = a1 * a2, a1 * b2 + a2 * b1, b1 * b2
        coeffs = [qc * coeffs[0],
                  *[qa * x + qb * y + qc * z
                    for x, y, z in zip([0, *coeffs], coeffs, [*coeffs[1:], 0])],
                  qa * coeffs[-1]]
    return _rational(coeffs, Fraction(1, coeffs[-1]))


def build_h(c: Sequence) -> Poly:
    """Build the score numerator: the sum over i of prod_{j != i}(theta + c_j).

    Constructed as the formal derivative of :func:`build_k`, which is the
    same polynomial in O(n^2) scalar operations instead of O(n^3).  The
    degree is exactly n-1 and the leading coefficient is n.
    """
    return build_k(c).derivative()


# The 64 largest primes below 2**30, written as their distance below
# 2**30.  A residue modulo one of them is a single 30-bit digit of a
# CPython integer, where arithmetic takes its fast path, and a product of
# two residues stays below 2**60.
_PRIMES = tuple((1 << 30) - d for d in (
    35, 41, 83, 101, 105, 107, 135, 153, 161, 173, 203, 257, 263, 297, 321, 347,
    357, 383, 405, 425, 437, 443, 453, 495, 513, 515, 537, 587, 611, 627, 635, 651,
    723, 747, 777, 861, 873, 891, 915, 945, 971, 977, 1005, 1017, 1031, 1041, 1043,
    1127, 1131, 1133, 1175, 1215, 1253, 1257, 1281, 1283, 1287, 1295, 1301, 1307,
    1323, 1335, 1347, 1361,
))

# Miller-Rabin with these bases decides primality for every n below
# 3 215 031 751 (Pomerance, Selfridge and Wagstaff, Math. Comp. 35,
# 1980), which covers every candidate _primes() tests: all lie below 2**30.
_WITNESSES = (2, 3, 5, 7)


def _is_prime(n: int) -> bool:
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The gcd's primes in their fixed order: the table, then every
    smaller prime in turn, for inputs whose gcd needs more."""
    yield from _PRIMES
    n = _PRIMES[-1] - 2
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over GF(p) of two polynomials reduced mod p, descending
    coefficients with nonzero leading ones, by the Euclidean algorithm
    with each remainder taken up to a unit factor."""
    while b:
        if len(a) == len(b) + 1 > 2:
            # the usual step, one degree down: both eliminations in one
            # pass, scaling by b[0] where a division would need an inverse
            b0, a0 = b[0], a[0]
            c0 = (b0 * a[1] - a0 * b[1]) % p
            c1, c2 = b0 * a0 % p, b0 * b0 % p
            a = [(c2 * x - c1 * y - c0 * z) % p for x, y, z in zip(a[2:], b[2:] + [0], b[1:])]
        else:
            inv = pow(b[0], -1, p)
            while len(a) >= len(b):
                q = a[0] * inv % p
                a = [(x - q * y) % p for x, y in zip(a[1:], b[1:])] + a[len(b):]
        while a and not a[0]:
            del a[0]
        a, b = b, a
    inv = pow(a[0], -1, p)
    return [x * inv % p for x in a]


def _rational_reconstruction(u: int, m: int, bound: int) -> tuple[int, int] | None:
    """The fraction r/s with |r| <= bound and 0 < s <= bound that is
    congruent to u mod m, or None (Wang's half-extended Euclid)."""
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not 0 < abs(s1) <= bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(residues: list[int], m: int, pairs: list[tuple[int, int]]) -> list[int] | None:
    """The primitive integer polynomial whose monic form is congruent to
    ``residues`` mod m, by rational reconstruction of each coefficient,
    or None when one has no reconstruction.

    The denominators found so far multiply into ``den``, and a
    coefficient that ``den`` already clears to a small integer needs no
    Euclid.  Once m exceeds twice the square of the largest coefficient
    of the true primitive gcd, every coefficient comes back right,
    whichever way it is found.

    ``pairs`` holds the leading coefficients that earlier calls, at a
    modulus dividing m, reconstructed: each as v / den with the ``den``
    of its step.  A fraction within the bound of a smaller modulus and
    congruent mod m is the one reconstruction at m would find, so the
    lift resumes after them, and appends what it finds.
    """
    bound = math.isqrt(m // 2)
    den = pairs[-1][1] if pairs else 1
    for u in residues[len(pairs):]:
        v = u * den % m
        if v > m // 2:
            v -= m
        if abs(v) > bound:
            rs = _rational_reconstruction(v, m, bound)
            if rs is None:
                return None
            v, s = rs
            den *= s
            if den > bound:
                return None
        pairs.append((v, den))
    ints = [v * (den // d) for v, d in pairs]
    content = math.gcd(*ints)
    return [x // content for x in ints]


def _divides(g: list[int], a: list[int]) -> bool:
    """Whether ``g`` divides ``a`` exactly over the integers; descending
    coefficients, ``a`` no shorter than ``g``.

    Each quotient coefficient is (a_i - sum_{j >= 1} g_j q_{i-j}) / g_0,
    one dot product of the divisor's tail with the last deg g quotient
    coefficients, and must be an integer; each of the deg g remainder
    rows a_i - sum_j g_j q_{i-j} must be 0."""
    lead, dg = g[0], len(g) - 1
    tail = g[:0:-1]  # g_dg, ..., g_1, against q_{i-dg}, ..., q_{i-1}
    q = [0] * dg  # zeros stand for the q_{i-j} with i < j
    for x in a[:len(a) - dg]:
        d, r = divmod(x - sum(map(mul, tail, q[len(q) - dg:])), lead)
        if r:
            return False
        q.append(d)
    # remainder row r has the terms j = r+1, ..., dg: map stops at the
    # shorter window
    n = len(q)
    return all(x == sum(map(mul, tail, q[n - dg + r:]))
               for r, x in enumerate(a[len(a) - dg:]))


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by Brown's multi-prime algorithm.

    It works on the primitive integer vectors A and B that the inputs
    hold.  For each prime in a fixed sequence of primes below 2**30 that
    divides neither leading coefficient, the gcd of the images mod p has
    degree at least deg gcd(A, B): degree 0 proves the gcd is 1, a higher
    degree than the lowest seen marks an unlucky prime, which is
    dropped, and a lower one discards the images gathered so far.  The
    monic images of the lowest degree are combined by Chinese
    remaindering and rational reconstruction, and a candidate is
    returned only when it divides A and B exactly over the integers; a
    common divisor of the largest possible degree is the gcd.  The
    result is exact and deterministic.

    The leading coefficients that one lift reconstructs stand while
    each new image agrees with them, and the next lift starts after
    them; so a gcd that needs k images reconstructs each coefficient
    about once and fails about one reconstruction per image, where a
    lift from scratch after every image would redo all of them.  Every
    candidate is the one a lift from scratch would give.

    Defined only for exact-rational polynomials; float polynomials have
    no meaningful gcd and are rejected.
    """
    if a.kind != RATIONAL or b.kind != RATIONAL:
        raise ScalarModeError("gcd is defined only for rational polynomials")
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    big, small = sorted((a._vector[::-1], b._vector[::-1]), key=len, reverse=True)
    if len(small) == 1:
        return _rational([1], Fraction(1))
    size = None  # length of the lowest-degree images so far
    for p in _primes():
        if big[0] % p == 0 or small[0] % p == 0:
            continue
        image = _gcd_mod([x % p for x in big], [x % p for x in small], p)
        if len(image) == 1:
            return _rational([1], Fraction(1))
        if size is not None and len(image) > size:
            continue
        if size is None or len(image) < size:
            size, modulus, residues, pairs = len(image), 1, [0] * len(image), []
        # the reconstructed coefficients stand while they agree with the image
        for i, (v, den) in enumerate(pairs):
            if (v - den * image[i]) % p:
                del pairs[i:]
                break
        # Chinese remaindering: the residues mod modulus*p that agree
        # with the old residues mod modulus and with the image mod p
        step = pow(modulus, -1, p)
        residues = [r + modulus * ((x - r) * step % p) for r, x in zip(residues, image)]
        modulus *= p
        candidate = _lift(residues, modulus, pairs)
        if candidate is not None and _divides(candidate, big) and _divides(candidate, small):
            return _rational(candidate[::-1], Fraction(1, candidate[0]))


def root_multiplicity(p: Poly, r) -> int:
    """Exact multiplicity of ``r`` as a root of ``p``, by deflation.

    With r = s/t in lowest terms, ``r`` is a root exactly when the
    primitive integer factor (t theta - s) divides the primitive integer
    vector that ``p`` holds (Gauss's lemma).  One pass of synthetic
    division gives the quotient and the remainder, and stops early at a
    step that does not divide exactly; each exact pass deflates ``p``
    once.  Integer arithmetic only, zero tolerance.
    """
    if p.kind != RATIONAL:
        raise ScalarModeError("exact multiplicity requires a rational polynomial")
    if p.is_zero:
        raise ValueError("every point is a root of the zero polynomial")
    r = Fraction(r)
    # int() turns a numpy integer into a Python one, which does not wrap
    s, t = int(r.numerator), int(r.denominator)
    coeffs = p._vector[::-1]
    count = 0
    while len(coeffs) > 1:
        quotient, carry = [], 0
        for x in coeffs[:-1]:
            carry, rem = divmod(x + s * carry, t)
            if rem:
                return count
            quotient.append(carry)
        if coeffs[-1] + s * carry:
            return count
        coeffs = quotient
        count += 1
    return count


def parse_rational(text: str) -> Fraction:
    """Parse a ``p/q`` literal; a bare integer means q = 1."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
