"""Univariate polynomials over the exact rationals.

The cleared score equation of the model is a ratio of two polynomials in
the association parameter: a denominator that is the product of the
linear factors (theta + c_i), and a numerator that is its formal
derivative.  This module builds both, and provides the polynomial
arithmetic (evaluation, derivative, exact gcd, multiplicity) that the
ML-degree computations rest on.  Every polynomial is exact; the float
root census of :mod:`fgmexp.roots` rounds one once.

The shift values c_i are read and checked by one reader,
:func:`_linear_factors`, for :func:`build_k`,
:func:`fgmexp.mldegree.profile`,
:func:`fgmexp.mldegree.ml_degree_algebraic` and the CLI's ``--c``
alike.  An exact ML-degree report and each ``verify`` trial read their
shifts once, and hand what the reader returns to the builders behind
:func:`build_k` and :func:`fgmexp.mldegree.profile`, which are thin
read-then-build wrappers.  Their kind is decided once, by
:func:`scalar_kind`: a one-dimensional sequence whose values are all
rational or all float; anything else, a mixture, a string, None, a
complex value or a 2-D array among them, or an array of a dtype of
neither kind, is :class:`ScalarModeError`.  Then one check per kind:
there must be at least one value, an exact value must be nonzero, and a
float value finite and nonzero.  A float shift is the dyadic rational
it holds exactly, so :func:`build_k`, :func:`build_h` and the algebraic
count read it as that rational; only :func:`fgmexp.mldegree.profile`
treats the two kinds apart.

Every exact scalar the module takes -- a shift value, a coefficient of a
:class:`Poly`, a point of :meth:`Poly.eval` or
:func:`root_multiplicity` -- is read by one reader, :func:`_exact_pairs`,
into a (denominator, numerator) pair of Python ints, after
:func:`scalar_kind` has said it is rational: a float, a string or a
mixture where a rational is read is :class:`ScalarModeError`, and a
Fraction with numpy-integer parts enters the arithmetic with Python ints,
so nothing wraps.

The exact operations work on integers from start to finish.  A
polynomial is held as a primitive integer vector times a rational scale,
and the Fraction coefficients are built from them on each read.
:func:`build_k` multiplies the integer factors (d_i theta + n_i) of the
shifts n_i/d_i, two to a pass as one quadratic; each factor is
primitive, so by Gauss's lemma so is the product, and h = k' is its
integer derivative divided by its content.
:func:`gcd` takes the gcd of two such vectors modulo the primes below
2**30, largest first (Brown's multi-prime algorithm), so that a residue
is one digit of a CPython integer and a product of two stays below
2**60; the primes are sieved in windows of 2**16 integers counted down
from 2**30, each window once per process.  It combines the monic images
by Chinese remaindering and rational reconstruction.  The result is
exact, not probable: a prime that divides neither leading coefficient
gives an image whose degree bounds the degree of the true gcd from
above, and a candidate of that degree is returned only after it
divides both inputs exactly over the integers, checked by a long
division whose every step is one dot product, which makes it a common
divisor of the largest possible degree.  The algebraic count takes the
degree of the gcd's primitive integer vector, so it builds no gcd
polynomial.
:func:`root_multiplicity` deflates the integer vector by synthetic
division.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Iterable, Sequence

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

# The types of an exact scalar: a shift value, a coefficient of a
# polynomial or a point at which one is evaluated.  A bool is an int, and
# numpy's bool counts as one too, so a list of bools and a bool array agree.
_RATIONAL_TYPES = (Fraction, int, np.integer, np.bool_)

# The kind of a one-dimensional ndarray by its dtype's kind code.
_DTYPE_KINDS = {"b": RATIONAL, "i": RATIONAL, "u": RATIONAL, "f": FLOAT}


class ScalarModeError(TypeError):
    """An operation received scalars of the wrong or mixed kind."""


def scalar_kind(values: Sequence) -> str | None:
    """Scalar kind of a sequence: :data:`RATIONAL` when every value is a
    Fraction, an int, a bool or a numpy integer or bool, :data:`FLOAT`
    when every value is a float or a numpy float, None otherwise (a
    mixture, or a value of neither kind).  An ndarray of one dimension
    is decided by its dtype: bool and integer are rational, float is
    float, object is decided by its values, and any other dtype has no
    kind, even when the array is empty; an ndarray of another dimension
    has no kind."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            return None
        if values.dtype.kind != "O":
            return _DTYPE_KINDS.get(values.dtype.kind)
    # one pass at C speed; the Python test runs once per distinct type
    types = set(map(type, values))
    if all(issubclass(t, _RATIONAL_TYPES) for t in types):
        return RATIONAL
    if all(issubclass(t, (float, np.floating)) for t in types):
        return FLOAT
    return None


@dataclass(frozen=True, init=False, repr=False)
class Poly:
    """Immutable univariate polynomial over the rationals, coefficients in
    ascending degree.

    The zero polynomial is canonically the empty coefficient tuple and
    has degree ``-inf``.  Nonzero polynomials never carry trailing zero
    coefficients, so ``coeffs[-1]`` is the leading coefficient.

    A polynomial is held as a primitive integer vector whose leading
    entry is positive, times a rational scale; its Fraction ``coeffs``
    are built from them on each read.

    ``coeffs`` is a one-dimensional sequence (read once) or ndarray whose
    kind, by :func:`scalar_kind`, is rational; an empty one of any kind
    is the zero polynomial.  The coefficients are read as exactly as
    shift values, so a bool list and a bool array, or a Fraction of numpy
    integers and of Python ints, give the same polynomial.  Raises
    ScalarModeError ``coefficients of a rational polynomial must be
    one-dimensional and all rational`` for anything else: a float, a
    string or a mixture among them.
    """

    _vector: tuple
    _scale: Fraction

    def __init__(self, coeffs: Iterable):
        values = coeffs if isinstance(coeffs, (list, np.ndarray)) else list(coeffs)
        got = scalar_kind(values)
        if got != RATIONAL and (got is None or len(values)):
            raise ScalarModeError(
                "coefficients of a rational polynomial must be one-dimensional and all rational")
        pairs = _exact_pairs(values)
        den = math.lcm(*[d for d, _ in pairs])
        _setup(self, *_canonical([n * (den // d) for d, n in pairs], Fraction(1, den)))

    def __repr__(self):
        return f"Poly(coeffs={self.coeffs!r})"

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients in ascending degree, Fractions in lowest terms
        built on each read."""
        num, den = self._scale.numerator, self._scale.denominator
        return tuple(Fraction(x * num, den) for x in self._vector)

    @property
    def degree(self):
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self._vector) - 1 if self._vector else float("-inf")

    @property
    def is_zero(self) -> bool:
        return not self._vector

    @property
    def leading_coefficient(self) -> Fraction:
        return self._scale * self._vector[-1] if self._vector else Fraction(0)

    # -- operations ---------------------------------------------------------

    def eval(self, t) -> Fraction:
        """Evaluate at ``t`` by Horner's rule, exactly.

        The point is read as exactly as the coefficients; anything but one
        rational scalar, a float or a string among them, is
        ScalarModeError ``points of a rational polynomial must be
        rational``.
        """
        # Horner's rule on d**deg p(n/d): each step multiplies by n, and
        # the coefficient taken at step j by d**j
        d, n = _rational_point(t)
        acc, power = 0, 1
        for x in reversed(self._vector):
            acc, power = acc * n + x * power, power * d
        return self._scale * Fraction(acc * d, power)

    __call__ = eval

    def derivative(self) -> "Poly":
        """Formal derivative; drops the degree by one for non-constants."""
        return _rational([i * c for i, c in enumerate(self._vector) if i > 0], self._scale)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        return _rational(list(self._vector), Fraction(1, self._vector[-1]))


def _setup(p: Poly, vector: tuple, scale: Fraction) -> None:
    object.__setattr__(p, "_vector", vector)
    object.__setattr__(p, "_scale", scale)


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
    """The polynomial ``scale * sum(ints[i] theta**i)``."""
    p = object.__new__(Poly)
    _setup(p, *_canonical(ints, scale))
    return p


def _exact_pairs(values: Sequence) -> list[tuple[int, int]]:
    """The module's one exact reader: values that :func:`scalar_kind`
    calls rational, each n/d in lowest terms as the (d, n) pair of Python
    ints, in order.  Shift values, Poly coefficients and points all pass
    through it."""
    # int() turns numpy integers and bools into Python ints, and so the
    # parts of a Fraction built from numpy integers, which would wrap in
    # the exact arithmetic
    return [(int(v.denominator), int(v.numerator)) if isinstance(v, Fraction) else (1, int(v))
            for v in values]


def _rational_point(r) -> tuple[int, int]:
    """A point of a rational polynomial as its (d, n) pair.
    ScalarModeError for anything but one rational scalar."""
    if scalar_kind([r]) != RATIONAL:
        raise ScalarModeError("points of a rational polynomial must be rational")
    return _exact_pairs([r])[0]


def _linear_factors(c) -> tuple[str, list | np.ndarray, list | np.ndarray]:
    """The shift-value rule, and the one reader of shift values: the kind
    of ``c``, its checked values, and the values as read once, a list or
    the ndarray given.  The checked values are the (d, n) pairs of the
    rational values n/d, each the factor (d theta + n), or the float64
    array of the float values.  ScalarModeError when :func:`scalar_kind`
    gives no kind; then ValueError ``need at least one shift value`` for
    no values, ``shift values must be nonzero`` for a zero rational value
    and ``shift values must be finite and nonzero`` for a float value
    that is zero or not finite."""
    values = c if isinstance(c, (list, np.ndarray)) else list(c)
    kind = scalar_kind(values)
    if kind is None:
        raise ScalarModeError("shift values must be one-dimensional, all rational or all float")
    if not len(values):
        raise ValueError("need at least one shift value")
    if kind == RATIONAL:
        shifts = _exact_pairs(values)
        if not all(n for _, n in shifts):
            raise ValueError("shift values must be nonzero")
    else:
        shifts = np.asarray(values, dtype=float)
        if not (np.isfinite(shifts) & (shifts != 0.0)).all():
            raise ValueError("shift values must be finite and nonzero")
    return kind, shifts, values


def build_k(c: Sequence) -> Poly:
    """Expand the monic product of the linear factors (theta + c_i).

    Coefficients are the elementary symmetric functions of the shifts,
    accumulated by repeated multiplication with the linear factors, so
    the result is invariant under permutation of ``c``.  Each shift is
    read as the exact rational n_i/d_i in lowest terms, a float as the
    dyadic rational it holds (``float.as_integer_ratio``), and enters as
    the integer factor (d_i theta + n_i).  The product takes two factors
    per pass, multiplied out as one quadratic, after the first factor
    alone when n is odd.  The integer factors are primitive, and so, by
    Gauss's lemma, is their product; the monic k is that product over
    the product of the d_i, its leading coefficient.  So the k of float
    shifts is exactly the k of their Fractions.

    ``c`` is a one-dimensional sequence of values that are all rational
    (Fraction, int, bool, numpy integer or bool) or all float (float or
    numpy float, read as its float64 value), or a one-dimensional
    ndarray of a bool, integer or float dtype.  Raises ScalarModeError
    for anything else: a mixture of the two kinds, a string, None, a
    complex value, a nested sequence or an ndarray of another dimension.
    Raises ValueError with one message per condition: ``need at least
    one shift value`` for no values, ``shift values must be nonzero``
    for a zero rational value, and ``shift values must be finite and
    nonzero`` for a float value that is zero, infinite or NaN.
    :func:`fgmexp.mldegree.profile` reads its values with the same
    reader, :func:`_linear_factors`, so it accepts the same values and
    raises the same errors.
    """
    kind, shifts, _ = _linear_factors(c)
    return _build_k(kind, shifts)


def _build_k(kind: str, shifts: list | np.ndarray) -> Poly:
    """:func:`build_k` of shifts that :func:`_linear_factors` has read
    and checked, given as its kind and checked values."""
    if kind != RATIONAL:
        shifts = [(d, n) for n, d in map(float.as_integer_ratio, shifts.tolist())]
    # the odd factor out first, then two factors per pass: multiply by
    # (a1 theta + b1)(a2 theta + b2) = A theta^2 + B theta + C, so
    # new[j] = A*old[j-2] + B*old[j-1] + C*old[j]
    odd = len(shifts) % 2
    coeffs = [shifts[0][1], shifts[0][0]] if odd else [1]
    for (a1, b1), (a2, b2) in zip(shifts[odd::2], shifts[odd + 1::2]):
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
    degree is exactly n-1 and the leading coefficient is n.  It takes
    the values and raises the errors of :func:`build_k`, and like it is
    exact for float shifts.
    """
    return build_k(c).derivative()


# The gcd's primes: every prime below 2**30, largest first.  A residue
# modulo one of them is a single 30-bit digit of a CPython integer, where
# arithmetic takes its fast path, and a product of two residues stays
# below 2**60.  They are sieved in windows of 2**16 integers counted down
# from 2**30, by the primes below 2**15: every composite below 2**30 has
# a prime factor there.
_WINDOW = 1 << 16


@functools.cache
def _prime_window(top: int) -> tuple[int, ...]:
    """The primes in [top - 2**16, top), largest first, for a multiple
    ``top`` of 2**16 up to 2**30.  Cached: every gcd reads the same
    windows.  Under threads a window may be sieved twice, always to the
    same tuple."""
    low = top - _WINDOW
    small = bytearray([1]) * (1 << 15)
    for q in range(2, math.isqrt(1 << 15) + 1):
        if small[q]:
            small[q * q::q] = bytes(len(range(q * q, 1 << 15, q)))
    window = bytearray([1]) * _WINDOW
    if not low:
        window[:2] = b"\0\0"
    for q in compress(range(2, 1 << 15), small[2:]):
        # the multiples of q in the window, from q*q on
        start = max(q * q, -(-low // q) * q) - low
        window[start::q] = bytes(len(range(start, _WINDOW, q)))
    return tuple(compress(range(top - 1, low - 1, -1), reversed(window)))


def _primes():
    """The gcd's primes in their fixed order, window after window."""
    for top in range(1 << 30, 0, -_WINDOW):
        yield from _prime_window(top)


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
            # the last entry apart, where b[2:] has no term; zip stops
            # before it
            last = (c2 * a[-1] - c0 * b[-1]) % p
            a = [(c2 * x - c1 * y - c0 * z) % p for x, y, z in zip(a[2:], b[2:], b[1:])]
            a.append(last)
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
    hold.  The primes are every prime below 2**30, largest first, as
    :func:`_prime_window` sieves them.  For each that divides neither
    leading coefficient, the gcd of the images mod p has degree at least
    deg gcd(A, B): degree 0 proves the gcd is 1, a higher degree than
    the lowest seen marks an unlucky prime, which is dropped, and a
    lower one discards the images gathered so far.  The monic images of
    the lowest degree are combined by Chinese remaindering and rational
    reconstruction, and a candidate is returned only when it divides A
    and B exactly over the integers; a common divisor of the largest
    possible degree is the gcd.  The result is exact and deterministic.

    The leading coefficients that one lift reconstructs stand while
    each new image agrees with them, and the next lift starts after
    them; so a gcd that needs k images reconstructs each coefficient
    about once and fails about one reconstruction per image, where a
    lift from scratch after every image would redo all of them.  Every
    candidate is the one a lift from scratch would give.

    This wraps :func:`_gcd_vector`, which returns the gcd as a primitive
    integer vector.  The algebraic count of
    :func:`fgmexp.mldegree.ml_degree_algebraic` takes the degree of that
    vector and builds no gcd polynomial; an exact ML-degree report and
    each ``verify`` trial read their shifts once, for that count and
    the grouping alike.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    g = _gcd_vector(a, b)
    return _rational(g[::-1], Fraction(1, g[0]))


def _gcd_vector(a: Poly, b: Poly) -> list[int]:
    """The gcd of two nonzero polynomials, as :func:`gcd` finds it: its
    primitive integer vector, descending coefficients, the leading one
    positive."""
    big, small = sorted((a._vector[::-1], b._vector[::-1]), key=len, reverse=True)
    if len(small) == 1:
        return [1]
    size = None  # length of the lowest-degree images so far
    for p in _primes():
        if big[0] % p == 0 or small[0] % p == 0:
            continue
        image = _gcd_mod([x % p for x in big], [x % p for x in small], p)
        if len(image) == 1:
            return [1]
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
            return candidate


def root_multiplicity(p: Poly, r) -> int:
    """Exact multiplicity of ``r`` as a root of ``p``, by deflation.

    With r = s/t in lowest terms, ``r`` is a root exactly when the
    primitive integer factor (t theta - s) divides the primitive integer
    vector that ``p`` holds (Gauss's lemma).  One pass of synthetic
    division gives the quotient and the remainder, and stops early at a
    step that does not divide exactly; each exact pass deflates ``p``
    once.  Integer arithmetic only, zero tolerance.

    ``r`` is read as :meth:`Poly.eval` reads a point: anything but a
    rational scalar, a float or a string among them, is ScalarModeError.
    Raises ValueError for the zero polynomial.
    """
    if p.is_zero:
        raise ValueError("every point is a root of the zero polynomial")
    t, s = _rational_point(r)
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
    """Parse a ``p/q`` literal; a bare integer means q = 1, and a decimal
    or exponent literal such as ``1.5e-3`` is read exactly.

    A literal whose numerator or denominator would have more digits than
    CPython's int-string limit (``sys.get_int_max_str_digits()``, no
    limit when it is 0) is refused, as CPython refuses such a digit
    string.  An exponent whose power of ten alone would pass the limit
    is refused before that power is built, so ``1e999999999`` is refused
    at once.
    Raises ValueError ``not a rational literal: <text>``.
    """
    limit = sys.get_int_max_str_digits()
    _, e, exponent = text.lower().rpartition("e")
    try:
        if limit and e and abs(int(exponent)) >= limit:
            raise ValueError("exponent past the int-string limit")
        value = Fraction(text.strip())
        str(value)  # ValueError for a part past the limit, which no output could print
        return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc
