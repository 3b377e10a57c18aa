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

A :class:`Poly` holds its Fraction coefficients and nothing else.
Integer vectors live only where the arithmetic runs on them:
:func:`_build_k` multiplies the integer factors (d_i theta + n_i) of the
shifts n_i/d_i, two to a pass as one quadratic; each factor is
primitive, so by Gauss's lemma so is the product.  :func:`build_k`
divides that vector by its leading entry into Fractions once, and
:func:`build_h` divides the vector's integer derivative by it.  The
algebraic count never builds a :class:`Poly`: it takes k's integer
vector from :func:`_build_k` and hands the integer vector of k' to
:func:`_gcd_exponents`.  :func:`gcd` and :func:`root_multiplicity` take
their inputs' integer vectors, the coefficients times the lcm of their
denominators, when they are called, and run a remainder sequence and a
synthetic division on them.

The algebraic count needs deg gcd(h, k), and takes it off k's own
linear factors (:func:`_gcd_exponents`): by unique factorisation in
Q[theta], gcd(h, k) is the product of the distinct factors f_g of k,
each to the power min(v_g, n_g), where n_g is how often f_g occurs in k
and v_g how often it divides h.  Each min(v_g, n_g) is measured by the
deflation of :func:`root_multiplicity`, capped by a one-sided screen at
the integer point t = 2**24 (Kronecker substitution): H = h(t) is
computed once, and the cap is the largest e <= n_g with f_g(t)**e
dividing H.  By Gauss's lemma f_g**v_g divides h in Z[theta], so
f_g(t)**v_g divides H, and the cap is never below min(v_g, n_g); a cap
of 0 proves v_g = 0.  Only the shift -2**24 has f_g(t) = 0, and its cap
is n_g.  At 2**24 a factor's value d * 2**24 + n is one CPython digit
for d < 64 and |n| < 2**24, so each test is one C division where a
Horner loop over h ran before.  The count is exact, and no general gcd
is taken, so a repeated shift with a denominator of thousands of digits
costs a few deflations, where a multi-prime gcd needed hundreds of
modular images and failed reconstructions.  :func:`gcd`, for two
arbitrary polynomials, is a primitive remainder sequence on the integer
vectors, exact and meant for small degrees.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True, init=False)
class Poly:
    """Immutable univariate polynomial over the rationals, coefficients in
    ascending degree.

    Its one field, ``coeffs``, is the tuple of Fractions in lowest terms;
    a Poly holds nothing else, and integer vectors live only in
    :func:`_build_k`, the algebraic count, :func:`gcd` and
    :func:`root_multiplicity`.  Polynomials are equal exactly when their
    ``coeffs`` are, and hash as their ``coeffs`` do.  The zero polynomial is
    canonically the empty tuple and has degree ``-inf``.  Nonzero
    polynomials never carry trailing zero coefficients, so
    ``coeffs[-1]`` is the leading coefficient.

    The argument ``coeffs`` is a one-dimensional sequence (read once) or
    ndarray whose kind, by :func:`scalar_kind`, is rational; an empty one
    of any kind is the zero polynomial.  The coefficients are read as
    exactly as shift values, so a bool list and a bool array, or a
    Fraction of numpy integers and of Python ints, give the same
    polynomial.  Raises ScalarModeError ``coefficients of a rational
    polynomial must be one-dimensional and all rational`` for anything
    else: a float, a string or a mixture among them.
    """

    coeffs: tuple

    def __init__(self, coeffs: Iterable):
        values = coeffs if isinstance(coeffs, (list, np.ndarray)) else list(coeffs)
        got = scalar_kind(values)
        if got != RATIONAL and (got is None or len(values)):
            raise ScalarModeError(
                "coefficients of a rational polynomial must be one-dimensional and all rational")
        pairs = _exact_pairs(values)
        while pairs and not pairs[-1][1]:
            pairs.pop()
        object.__setattr__(self, "coeffs", tuple(Fraction(n, d) for d, n in pairs))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    # -- operations ---------------------------------------------------------

    def eval(self, t) -> Fraction:
        """Evaluate at ``t`` by Horner's rule, exactly.

        The point is read as exactly as the coefficients; anything but one
        rational scalar, a float or a string among them, is
        ScalarModeError ``points of a rational polynomial must be
        rational``.
        """
        d, n = _rational_point(t)
        point, acc = Fraction(n, d), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    __call__ = eval

    def derivative(self) -> "Poly":
        """Formal derivative; drops the degree by one for non-constants."""
        return _poly(tuple(i * c for i, c in enumerate(self.coeffs[1:], 1)))

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return _poly(tuple(c / lead for c in self.coeffs))


def _poly(coeffs: tuple) -> Poly:
    """The polynomial of ``coeffs``, Fractions already in lowest terms with
    no trailing zero, wrapped without :class:`Poly`'s reading."""
    p = object.__new__(Poly)
    object.__setattr__(p, "coeffs", coeffs)
    return p


def _integer_vector(p: Poly) -> list[int]:
    """An integer multiple of ``p`` in ascending degree: its coefficients
    times the lcm of their denominators, not necessarily primitive."""
    den = math.lcm(*[c.denominator for c in p.coeffs])
    return [c.numerator * (den // c.denominator) for c in p.coeffs]


def _primitive(ints: list[int]) -> list[int]:
    """The primitive part of an integer vector, leading entry positive;
    the empty vector is its own."""
    if not ints:
        return ints
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return ints if content == 1 else [x // content for x in ints]


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
    k = _build_k(_factor_pairs(*_linear_factors(c)[:2]))
    return _poly(tuple(Fraction(x, k[-1]) for x in k))


def _factor_pairs(kind: str, shifts: list | np.ndarray) -> list[tuple[int, int]]:
    """The lowest-terms (d, n) pairs of shifts that :func:`_linear_factors`
    has read and checked, given as its kind and checked values: a float
    shift is the dyadic rational it holds."""
    if kind == RATIONAL:
        return shifts
    return [(d, n) for n, d in map(float.as_integer_ratio, shifts.tolist())]


def _build_k(shifts: list[tuple[int, int]]) -> list[int]:
    """The integer vector of k for the shifts' (d, n) pairs, in ascending
    degree: the product of the factors (d theta + n).  Each factor is
    primitive, so by Gauss's lemma the vector is primitive, and its
    leading entry is the product of the d, which is positive;
    :func:`build_k` is this vector over that entry.  The algebraic count
    hands the integer derivative of this vector to :func:`_gcd_exponents`
    with its content left in: any nonzero integer multiple of h gives
    the same exponents there, since every factor of k is primitive."""
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
    return coeffs


def build_h(c: Sequence) -> Poly:
    """Build the score numerator: the sum over i of prod_{j != i}(theta + c_j).

    Constructed as the formal derivative of :func:`build_k`, which is the
    same polynomial in O(n^2) scalar operations instead of O(n^3): the
    Fractions are those of the integer derivative of k's vector over its
    leading entry.  The degree is exactly n-1 and the leading
    coefficient is n.  It takes the values and raises the errors of
    :func:`build_k`, and like it is exact for float shifts.
    """
    k = _build_k(_factor_pairs(*_linear_factors(c)[:2]))
    return _poly(tuple(Fraction(i * x, k[-1]) for i, x in enumerate(k[1:], 1)))


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by a primitive remainder sequence.

    A :class:`Poly` holds only its Fractions, so this takes the inputs'
    integer vectors, their coefficients times the lcm of their
    denominators, when it is called, and works on them.  Each step
    replaces the longer vector f by the pseudo-remainder of f by the
    shorter g, lc(g)**(deg f - deg g + 1) f mod g, made primitive with a
    positive leading entry by :func:`_primitive`.  Over the
    rationals a pseudo-remainder is the remainder times a nonzero
    constant, so each step keeps the gcd, and the last nonzero vector is
    the gcd up to a scale.  The result is exact and deterministic.

    A small-degree tool: taking the content out at each step keeps the
    coefficients to the size of the remainders' primitive parts, but
    those grow with the degree, so the gcd of h = k' and k for 80 random
    shifts takes seconds.  The ML-degree count does not call it; it
    takes deg gcd(h, k) off k's own linear factors (:func:`_gcd_exponents`).

    Raises ValueError for two zero polynomials; a zero input gives the
    monic form of the other.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    f, g = _integer_vector(a), _integer_vector(b)
    while g:
        # the pseudo-remainder: each pass takes lc(g) f - lc(f) theta**shift g,
        # whose leading term cancels
        while len(f) >= len(g):
            lead, q, shift = g[-1], f[-1], len(f) - len(g)
            f = ([lead * x for x in f[:shift]]
                 + [lead * x - q * y for x, y in zip(f[shift:-1], g)])
            while f and not f[-1]:
                f.pop()
        f, g = g, _primitive(f)
    return _poly(tuple(Fraction(x, f[-1]) for x in f))


# The screen's point is 2**_SCREEN_BITS.  A factor's value d * 2**24 + n
# there is one 30-bit CPython digit when d < 64 and |n| < 2**24, so each
# test is a single-digit division in C; at 2**16 the values are often
# smooth, and factors that do not divide h pass the screen more often.
_SCREEN_BITS = 24


def _gcd_exponents(pairs: list[tuple[int, int]], coeffs: list[int]) -> dict[tuple[int, int], int]:
    """The exponents of gcd(h, k) for a nonzero h, given as its integer
    vector ``coeffs``, highest degree first, and the k whose factors
    are the (d theta + n) of the lowest-terms (d, n) pairs given, d > 0:
    each distinct pair whose factor divides both, mapped to that
    factor's exponent.  deg gcd(h, k) is the sum of the values.

    Any nonzero integer multiple c h of h gives the same exponents, so
    the vector need not be primitive: each f_g is primitive, so by
    Gauss's lemma f_g**v divides c h in Z[theta] exactly when it divides
    h, and the screen below sees c h(t), whose factor c can raise a cap
    but never lower it.

    Distinct pairs give pairwise coprime factors, so by unique
    factorisation in Q[theta] every divisor of k is a product of them,
    and gcd(h, k) is the product over the distinct factors f_g of
    f_g**min(v_g, n_g), where n_g is how often f_g occurs in k and v_g
    how often it divides h; no general gcd is taken.  The pairs are
    grouped here, by their own Counter, never by a profile's group
    sizes, so a wrong profile still disagrees with the count.

    Each v_g, capped at n_g, is measured by exact deflation, as
    :func:`root_multiplicity` measures a multiplicity (:func:`_deflate`).
    The deflations run on one shrinking quotient: the factors are
    pairwise coprime, so dividing h by one of them leaves how often each
    other divides it unchanged.

    A one-sided screen caps each deflation first.  The integer H = h(t)
    at t = 2**24 is computed once, by shift-and-add Horner on h's
    integer vector, and the cap is the largest e <= n_g for which
    f_g(t)**e divides H.  f_g is primitive, so by Gauss's lemma
    f_g**v_g divides h in Z[theta], and then f_g(t)**v_g divides h(t):
    the cap is at least min(v_g, n_g), and deflation up to it measures
    min(v_g, n_g) exactly.  A cap of 0 proves v_g = 0 and skips the
    deflation.  H is divided only on a copy, as two factors' values may
    share integer factors.  f_g(t) is 0 only for the shift -2**24,
    whose cap is n_g.
    """
    value = 0
    for x in coeffs:
        value = (value << _SCREEN_BITS) + x
    exponents = {}
    for (d, n), size in Counter(pairs).items():
        f, cap, rest = (d << _SCREEN_BITS) + n, 0, value
        while cap < size:
            if f:
                rest, rem = divmod(rest, f)
                if rem:
                    break
            cap += 1
        if cap:
            count, coeffs = _deflate(coeffs, d, -n, cap)
            if count:
                exponents[d, n] = count
    return exponents


def _deflate(coeffs: Sequence[int], t: int, s: int, cap: int) -> tuple[int, Sequence[int]]:
    """How often the primitive factor (t theta - s), t > 0, divides the
    integer polynomial of descending ``coeffs``, counted up to ``cap``,
    and the quotient by that power of it.

    One pass of synthetic division gives the quotient and the remainder,
    and stops early at a step that does not divide exactly; each exact
    pass deflates the polynomial once.  By Gauss's lemma a quotient by a
    primitive factor stays integral, so integer arithmetic suffices."""
    count = 0
    while count < cap and len(coeffs) > 1:
        quotient, carry = [], 0
        for x in coeffs[:-1]:
            carry, rem = divmod(x + s * carry, t)
            if rem:
                return count, coeffs
            quotient.append(carry)
        if coeffs[-1] + s * carry:
            return count, coeffs
        coeffs = quotient
        count += 1
    return count, coeffs


def root_multiplicity(p: Poly, r) -> int:
    """Exact multiplicity of ``r`` as a root of ``p``, by deflation.

    With r = s/t in lowest terms, ``r`` is a root exactly when the
    primitive integer factor (t theta - s) divides the integer vector of
    ``p``, its coefficients times the lcm of their denominators (Gauss's
    lemma); :func:`_deflate` counts how often.  Integer arithmetic only,
    zero tolerance.

    ``r`` is read as :meth:`Poly.eval` reads a point: anything but a
    rational scalar, a float or a string among them, is ScalarModeError.
    Raises ValueError for the zero polynomial.
    """
    if p.is_zero:
        raise ValueError("every point is a root of the zero polynomial")
    t, s = _rational_point(r)
    return _deflate(_integer_vector(p)[::-1], t, s, p.degree)[0]


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
