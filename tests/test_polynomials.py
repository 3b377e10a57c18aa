import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fgmexp import polynomials
from fgmexp.polynomials import (
    Poly,
    ScalarModeError,
    build_h,
    build_k,
    gcd,
    parse_rational,
    root_multiplicity,
)

F = Fraction


def naive_h(c):
    """Independent oracle for the score numerator: the n-fold sum of the
    (n-1)-fold cofactor products, built with plain list arithmetic."""

    def mul(a, b):
        out = [F(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    n = len(c)
    total = [F(0)] * n
    for i in range(n):
        term = [F(1)]
        for j in range(n):
            if j != i:
                term = mul(term, [F(c[j]), F(1)])
        total = [a + b for a, b in zip(total, term)]
    while total and total[-1] == 0:
        total.pop()
    return tuple(total)


rationals = st.fractions(
    min_value=F(-20), max_value=F(20), max_denominator=12
).filter(lambda v: v != 0)


def float_shifts(width):
    """Lists of finite nonzero floats of ``width`` bits: subnormals, the
    smallest normal, the largest value and 1e308 among them."""
    info = np.finfo(np.float32 if width == 32 else np.float64)
    edges = [float(v) for v in (info.smallest_subnormal, info.tiny, info.max)]
    edges += [1e308] if width == 64 else []
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=width),
                      st.sampled_from(edges + [-v for v in edges]))
    return st.lists(value.filter(bool), min_size=1, max_size=12)


def c_lists(max_n):
    """Random nonzero rational multisets with forced repetition patterns."""
    return st.lists(rationals, min_size=1, max_size=max_n).flatmap(
        lambda base: st.lists(
            st.sampled_from(base), min_size=1, max_size=max_n
        )
    )


def multiply(a, b):
    out = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(tuple(out))


def to_sympy(p, x):
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p.coeffs))


small_polys = st.lists(st.fractions(min_value=F(-30), max_value=F(30), max_denominator=9),
                       min_size=1, max_size=5).map(lambda cs: Poly(tuple(cs))).filter(
                           lambda p: not p.is_zero)


@st.composite
def common_and_cofactors(draw):
    """Two rational polynomials sharing a built-in common factor, a
    product of linear factors (theta + c_i), repeats allowed, and a small
    polynomial, times a small cofactor each."""
    common = draw(small_polys)
    shifts = draw(st.lists(rationals, max_size=4))
    if shifts:
        common = multiply(build_k(shifts), common)
    return tuple(multiply(common, draw(small_polys)) for _ in range(2))


class TestPoly:
    def test_normalization_strips_trailing_zeros(self):
        p = Poly((F(1), F(2), F(0), F(0)))
        assert p.coeffs == (F(1), F(2))
        assert p.degree == 1

    def test_zero_polynomial_is_empty_with_minus_inf_degree(self):
        assert Poly((0, 0)).coeffs == ()
        assert Poly(()).degree == float("-inf")
        assert Poly(()).is_zero

    def test_rational_coeffs_in_lowest_terms(self):
        p = Poly((F(2, 4), F(6, 3)))
        assert p.coeffs == (F(1, 2), F(2))

    def test_eval_examples(self):
        assert Poly((6, 2)).eval(-3) == 0
        assert Poly((F(-8), F(-2), F(1))).eval(0) == -8
        assert Poly((F(5), F(8), F(3))).eval(F(-5, 3)) == 0

    def test_eval_rejects_mixed_modes(self):
        for point in (0.5, 1j, "1/2"):
            with pytest.raises(ScalarModeError):
                Poly((F(1), F(1))).eval(point)

    @pytest.mark.parametrize("build", [
        lambda: Poly((1.0, math.inf)),
        lambda: Poly((math.nan,)),
        lambda: Poly((0.0, 0.0, 1e308)).derivative(),
        lambda: Poly((1e308, 1e-10)).monic(),
    ], ids=["infinite", "nan", "derivative overflows", "monic overflows"])
    def test_float_coefficients_must_be_finite(self, build):
        # every coefficient is exact, so a float one is refused before any
        # arithmetic, and with it every infinity, NaN and overflow
        with pytest.raises(ScalarModeError, match="^coefficients of a rational polynomial must "
                           "be one-dimensional and all rational$"):
            build()

    def test_derivative_and_monic_past_the_float_range_are_exact(self):
        assert Poly((0, 0, 10**400)).derivative().coeffs == (0, 2 * 10**400)
        assert Poly((10**400, F(1, 10**10))).monic().coeffs == (10**410, 1)

    def test_zero_polynomial_has_no_monic_form(self):
        with pytest.raises(ValueError, match="^the zero polynomial has no monic form$"):
            Poly(()).monic()

    def test_derivative_examples(self):
        assert Poly((F(-8), F(-2), F(1))).derivative().coeffs == (F(-2), F(2))
        assert Poly((F(7),)).derivative().is_zero
        assert Poly((F(2), F(5), F(4), F(1))).derivative().coeffs == (F(5), F(8), F(3))


def loop_build_k(c, one):
    """The expansion ``build_k`` used before its integer build: multiply
    by (theta + c_i) one factor at a time, in the scalars of ``c``."""
    coeffs = [one]
    for ci in c:
        nxt = [ci * coeffs[0]]
        for j in range(1, len(coeffs)):
            nxt.append(coeffs[j - 1] + ci * coeffs[j])
        nxt.append(coeffs[-1])
        coeffs = nxt
    return coeffs


class TestBuildK:
    @given(c_lists(20))
    @settings(max_examples=80)
    def test_rational_matches_the_factor_by_factor_loop(self, c):
        assert build_k(c).coeffs == tuple(loop_build_k([F(v) for v in c], F(1)))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
                    .filter(lambda v: v != 0.0), min_size=1, max_size=40))
    @settings(max_examples=80)
    def test_float_matches_the_factor_by_factor_loop_bit_for_bit(self, c):
        # a float shift is the exact rational it holds
        assert build_k(c).coeffs == tuple(loop_build_k([F(v) for v in c], F(1)))

    def test_float_sampled_shifts_bit_for_bit(self):
        # the Fraction loop would take about 15 s at n = 400
        rng = np.random.default_rng(5)
        for n in (1, 2, 17, 150):
            c = list(1.0 / rng.uniform(-1.0, 1.0, size=n))
            assert build_k(c).coeffs == tuple(loop_build_k([F(v) for v in c], F(1)))

    @given(st.one_of(
        float_shifts(64), float_shifts(64).map(np.array),
        float_shifts(32).map(lambda v: np.array(v, dtype=np.float32)),
    ))
    @settings(max_examples=150, deadline=None)
    def test_float_shifts_are_read_as_their_exact_rationals(self, c):
        exact = [F(float(v)) for v in c]
        assert build_k(c) == build_k(exact)
        assert build_h(c) == build_h(exact)

    def test_numpy_integers_do_not_wrap(self):
        # int64 products of 10**6 wrap past 2**63; the exact build must not
        k = build_k(np.array([10**6] * 4))
        assert k == build_k([10**6] * 4)
        assert k.coeffs[0] == 10**24

    def test_two_factors(self):
        k = build_k([F(2), F(-4)])
        assert k.coeffs == (F(-8), F(-2), F(1))

    def test_single_factor(self):
        assert build_k([F(1)]).coeffs == (F(1), F(1))

    def test_repeated_factor(self):
        k = build_k([F(1), F(1), F(2)])
        assert k.coeffs == (F(2), F(5), F(4), F(1))

    def test_float_mode(self):
        k = build_k([2.0, -4.0])
        assert k == build_k([F(2), F(-4)])
        assert k.coeffs == (F(-8), F(-2), F(1))
        assert build_k([0.1]).coeffs == (F(3602879701896397, 2**55), F(1))

    def test_rejects_zero_values(self):
        with pytest.raises(ValueError):
            build_k([F(1), F(0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_k([])

    def test_rejects_mixed_scalars(self):
        with pytest.raises(ScalarModeError):
            build_k([F(1), 2.0])

    @given(st.lists(rationals, min_size=1, max_size=8))
    def test_permutation_invariance(self, c):
        k = build_k(c)
        assert build_k(list(reversed(c))) == k
        assert build_k(sorted(c)) == k


class TestBuildH:
    def test_two_shifts_gives_linear(self):
        h = build_h([F(2), F(-4)])
        assert h.coeffs == (F(-2), F(2))  # 2*theta + (c1 + c2)

    def test_worked_example(self):
        h = build_h([F(1), F(1), F(2)])
        assert h.coeffs == (F(5), F(8), F(3))

    def test_single_shift_is_constant_one(self):
        h = build_h([F(5)])
        assert h.coeffs == (F(1),)
        assert h.degree == 0

    @given(c_lists(8))
    @settings(max_examples=60)
    def test_matches_cofactor_sum_oracle(self, c):
        assert build_h(c).coeffs == naive_h(c)

    @given(c_lists(15))
    @settings(max_examples=60)
    def test_equals_derivative_of_k_exactly(self, c):
        assert build_h(c) == build_k(c).derivative()

    @given(c_lists(12))
    @settings(max_examples=60)
    def test_degree_and_leading_coefficient(self, c):
        h = build_h(c)
        assert h.degree == len(c) - 1
        assert h.leading_coefficient == len(c)


class TestGcd:
    def test_repeated_shift_gives_common_factor(self):
        h = build_h([F(1), F(1), F(2)])
        k = build_k([F(1), F(1), F(2)])
        assert gcd(h, k).coeffs == (F(1), F(1))  # theta + 1

    def test_distinct_shifts_give_constant(self):
        h = build_h([F(2), F(-4)])
        k = build_k([F(2), F(-4)])
        assert gcd(h, k).coeffs == (F(1),)

    def test_gcd_with_itself_is_monic_self(self):
        p = Poly((F(4), F(2)))
        assert gcd(p, p).coeffs == (F(2), F(1))

    def test_rejects_float_mode(self):
        # no polynomial has float coefficients; float shifts give the
        # exact gcd of their rationals
        with pytest.raises(ScalarModeError):
            gcd(Poly((1.0, 1.0)), Poly((1.0,)))
        c = [0.1, 0.3, 0.1]
        assert gcd(build_h(c), build_k(c)) == Poly((F(0.1), 1))

    def test_gcd_of_two_zeros_undefined(self):
        with pytest.raises(ValueError):
            gcd(Poly(()), Poly(()))

    @given(common_and_cofactors())
    @settings(max_examples=80, deadline=None)
    def test_equals_monic_sympy_gcd(self, polys):
        a, b = polys
        x = sympy.Symbol("x")
        want = sympy.Poly(sympy.gcd(to_sympy(a, x), to_sympy(b, x)), x).monic()
        got = gcd(a, b)
        assert got.coeffs == tuple(F(int(c.p), int(c.q)) for c in reversed(want.all_coeffs()))

    # the four largest primes below 2**30
    PRIMES = (1073741789, 1073741783, 1073741741, 1073741723)

    @pytest.mark.parametrize("moduli", [(0, 1, 2), (1, 2), (3,)],
                             ids=["three-primes", "two-primes", "one-prime"])
    def test_shifts_congruent_modulo_large_primes(self, moduli):
        # theta - 1 and theta - 1 - P coincide modulo every prime dividing
        # P, but the true gcd is theta - 3**130
        big = math.prod(self.PRIMES[i] for i in moduli)
        a = build_k([F(-3**130), F(-1)])
        b = build_k([F(-3**130), F(-1 - big)])
        assert gcd(a, b).coeffs == (F(-3**130), F(1))

    def test_prime_dividing_a_leading_coefficient_is_skipped(self):
        # the factor (P theta + 1) drops to the constant 1 modulo P, the
        # prime of the count's screen, which skips that factor; the gcd
        # and the count must both keep it
        p = self.PRIMES[0]
        shared = Poly((F(1), F(p)))  # p theta + 1
        a = multiply(shared, build_k([F(-2), F(-3)]))
        b = multiply(shared, build_k([F(-2), F(5)]))
        assert gcd(a, b) == multiply(Poly((F(1, p), F(1))), Poly((F(-2), F(1))))
        c = [F(1, p), F(1, p), F(1, p), F(-2), F(3)]
        assert polynomials._gcd_degree([(p, 1)] * 3 + [(1, -2), (1, 3)], build_h(c)) == 2

    def test_gcd_of_a_4300_bit_common_factor(self):
        g = build_k([F(10**1300, 7), F(3)])
        a = multiply(g, build_k([F(1)]))
        b = multiply(g, build_k([F(-1, 2)]))
        assert gcd(a, b) == g

    @pytest.mark.parametrize("values,common", [
        (([F(10**130, 7)] * 6 + [F(3), F(-1, 2)], [F(10**130, 7)] * 5 + [F(2)]),
         [F(10**130, 7)] * 5),
        (([F(-3**130), F(-1)], [F(-3**130), F(5, 3)]), [F(-3**130)]),
        (([F(2**90 + 1, 3**20)] * 4 + [F(1)] * 3, [F(2**90 + 1, 3**20)] * 3 + [F(1)] * 2 + [F(7)]),
         [F(2**90 + 1, 3**20)] * 3 + [F(1)] * 2),
    ], ids=["five-repeats", "one-shared-shift", "two-repeated-shifts"])
    def test_gcd_of_big_repeated_shifts(self, values, common):
        a, b = (build_k(v) for v in values)
        assert gcd(a, b) == build_k(common)

    def test_gcd_with_zero_is_the_monic_other(self):
        p = Poly((F(4), F(2)))
        assert gcd(p, Poly(())) == gcd(Poly(()), p) == Poly((F(2), F(1)))

    def test_constant_input_gives_one(self):
        assert gcd(Poly((F(3, 7),)), build_k([F(1), F(2)])) == Poly((F(1),))

    @given(c_lists(10))
    @settings(max_examples=60)
    def test_gcd_degree_counts_repeats(self, c):
        # one common zero of multiplicity n_i - 1 per repeated value
        h, k = build_h(c), build_k(c)
        counts = {}
        for v in c:
            counts[v] = counts.get(v, 0) + 1
        expected = sum(mult - 1 for mult in counts.values() if mult > 1)
        assert gcd(h, k).degree == expected


class TestGcdDegree:
    @given(c_lists(8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_degree_of_sympy_gcd_with_k(self, shifts, data):
        # h is a small polynomial times factors (theta + v), v drawn with
        # repeats from the shifts and beyond, so a factor may divide h
        # more often than it occurs in k, or not at all
        extra = data.draw(st.lists(rationals, max_size=2))
        divisors = data.draw(st.lists(st.sampled_from(shifts + extra), max_size=8))
        h = data.draw(small_polys)
        if divisors:
            h = multiply(build_k(divisors), h)
        pairs = [(F(v).denominator, F(v).numerator) for v in shifts]
        x = sympy.Symbol("x")
        want = sympy.gcd(to_sympy(h, x), to_sympy(build_k(shifts), x))
        assert polynomials._gcd_degree(pairs, h) == sympy.Poly(want, x).degree()


class TestRootMultiplicity:
    def test_simple_root(self):
        assert root_multiplicity(Poly((F(3), F(1))), F(-3)) == 1

    def test_non_root(self):
        assert root_multiplicity(Poly((F(3), F(1))), F(5)) == 0

    def test_repeated_root(self):
        h = build_h([F(3), F(3), F(3), F(7)])
        assert root_multiplicity(h, F(-3)) == 2
        assert root_multiplicity(h, F(-7)) == 0

    def test_non_root_with_an_inexact_step(self):
        # 3 theta^2 + theta at 1/3: the second division step, 2/3, is not
        # exact although the last remainder under floor division is 0
        assert root_multiplicity(Poly((F(0), F(1), F(3))), F(1, 3)) == 0
        assert root_multiplicity(Poly((F(0), F(1), F(3))), F(-1, 3)) == 1

    def test_numpy_integer_root_does_not_wrap(self):
        h = build_h([10**12] * 3 + [3])
        assert root_multiplicity(h, np.int64(-10**12)) == 2

    def test_constant_has_no_root(self):
        assert root_multiplicity(Poly((F(-2, 3),)), F(1)) == 0

    def test_rejects_zero_and_float_polynomials(self):
        with pytest.raises(ValueError):
            root_multiplicity(Poly(()), F(1))
        with pytest.raises(ScalarModeError):
            root_multiplicity(Poly((1.0, 1.0)), F(-1))
        # the h of float shifts is exact, and so is its multiplicity at
        # the exact root; a float point is refused
        h = build_h([0.1, 0.1, 0.1, 0.3])
        assert root_multiplicity(h, -F(0.1)) == 2
        with pytest.raises(ScalarModeError):
            root_multiplicity(h, -0.1)

    @given(c_lists(12), rationals)
    @settings(max_examples=80, deadline=None)
    def test_matches_repeated_exact_division(self, c, scale):
        # h has the root -v once less often than v occurs in c; the scale
        # gives p a leading coefficient and content other than 1
        p = Poly(tuple(scale * x for x in build_h(c).coeffs))
        t = sympy.Symbol("t")
        for r in {-v for v in c} | {scale, F(0)}:
            q, count = sympy.Poly(to_sympy(p, t), t, domain=sympy.QQ), 0
            factor = sympy.Poly(t - sympy.Rational(r.numerator, r.denominator), t, domain=sympy.QQ)
            while True:
                quot, rem = sympy.div(q, factor)
                if not rem.is_zero:
                    break
                q, count = quot, count + 1
            assert root_multiplicity(p, r) == count


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [("3", F(3)), ("-7", F(-7)), ("1/2", F(1, 2)), ("-9/12", F(-3, 4)), (" 5/3 ", F(5, 3))],
    )
    def test_accepts_literals(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1/0", "1.5.2", "2/"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1e999999999", "1e-999999999", "99e4299", "1/3e4300",
                                      "1" * 4301, "1e" + "9" * 4301])
    def test_rejects_parts_past_the_int_string_limit(self, text):
        # 10**999999999 would take minutes to build; the limit is 4300
        # digits unless changed
        assert sys.get_int_max_str_digits() == 4300
        with pytest.raises(ValueError, match="^not a rational literal: "):
            parse_rational(text)

    def test_accepts_parts_at_the_int_string_limit(self):
        assert parse_rational("9e4299") == 9 * 10**4299
        assert parse_rational("-1e-4299") == F(-1, 10**4299)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert parse_rational("1e5000") == 10**5000
        finally:
            sys.set_int_max_str_digits(limit)
