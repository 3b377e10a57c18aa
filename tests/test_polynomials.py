import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fgmexp import polynomials
from fgmexp.polynomials import (
    FLOAT,
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


def splice_divides(g, a):
    """The exact-division check ``gcd`` used before its dot-product
    form: long division that splices q times the divisor's tail into the
    dividend, row by row; descending coefficients."""
    a = list(a)
    lead, tail = g[0], g[1:]
    for i in range(len(a) - len(tail)):
        q, r = divmod(a[i], lead)
        if r:
            return False
        if q:
            a[i + 1:i + len(g)] = [x - q * y for x, y in zip(a[i + 1:i + len(g)], tail)]
    return not any(a[len(a) - len(tail):])


@st.composite
def divisions(draw):
    """An integer divisor g of degree 0 to 6, leading coefficient +-1 to
    +-3, and the product a of g and a random quotient, with one
    coefficient of a nudged by +-1 in about half the draws; descending
    coefficients, some of about 200 bits."""
    coeff = st.one_of(st.integers(-9, 9), st.integers(-2**200, 2**200))
    g = [draw(st.sampled_from((1, -1, 2, -2, 3, -3)))]
    g += draw(st.lists(coeff, max_size=6))
    q = [draw(coeff.filter(bool))] + draw(st.lists(coeff, max_size=8))
    a = [0] * (len(g) + len(q) - 1)
    for i, x in enumerate(g):
        for j, y in enumerate(q):
            a[i + j] += x * y
    if draw(st.booleans()):
        a[draw(st.integers(0, len(a) - 1))] += draw(st.sampled_from((1, -1)))
    return g, a


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
        assert Poly((6.0, 2.0), FLOAT).eval(-3.0) == 0.0
        assert Poly((F(-8), F(-2), F(1))).eval(0) == -8
        assert Poly((F(5), F(8), F(3))).eval(F(-5, 3)) == 0

    def test_eval_widens_float_to_complex(self):
        p = Poly((1.0, 0.0, 1.0), FLOAT)
        assert p.eval(1j) == pytest.approx(0.0)

    def test_eval_rejects_mixed_modes(self):
        with pytest.raises(ScalarModeError):
            Poly((F(1), F(1))).eval(0.5)
        with pytest.raises(ScalarModeError):
            Poly((1.0, 1.0), FLOAT).eval(F(1, 2))

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


def float_bits(values):
    return struct.pack(f"{len(values)}d", *values)


class TestBuildK:
    @given(c_lists(20))
    @settings(max_examples=80)
    def test_rational_matches_the_factor_by_factor_loop(self, c):
        assert build_k(c).coeffs == tuple(loop_build_k([F(v) for v in c], F(1)))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
                    .filter(lambda v: v != 0.0), min_size=1, max_size=40))
    @settings(max_examples=80)
    def test_float_matches_the_factor_by_factor_loop_bit_for_bit(self, c):
        k = build_k(c)
        want = loop_build_k(c, 1.0)
        assert float_bits(k.coeffs) == float_bits(want)

    def test_float_sampled_shifts_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 17, 150, 400):
            c = list(1.0 / rng.uniform(-1.0, 1.0, size=n))
            assert float_bits(build_k(c).coeffs) == float_bits(loop_build_k(c, 1.0))

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
        assert k.kind == FLOAT
        assert k.coeffs == (-8.0, -2.0, 1.0)

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
        with pytest.raises(ScalarModeError):
            gcd(Poly((1.0, 1.0), FLOAT), Poly((1.0,), FLOAT))

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

    def test_primes_are_the_largest_below_two_to_the_30(self):
        # 400 primes run well past the table into the Miller-Rabin
        # candidates, and the sweep checks the primality test on the top
        # 200 000 numbers, where those candidates come from first
        primes = list(itertools.islice(polynomials._primes(), 400))
        assert primes[0] == sympy.prevprime(2**30)
        assert all(sympy.isprime(q) for q in primes)
        assert all(sympy.prevprime(hi) == lo for hi, lo in zip(primes, primes[1:]))
        for n in range(2**30 - 200_000 + 1, 2**30, 2):
            assert polynomials._is_prime(n) == sympy.isprime(n), n
        # the smallest strong pseudoprimes to the bases {2}, {2, 3} and
        # {2, 3, 5}: each witness in the set is needed
        assert not any(map(polynomials._is_prime, (2047, 1373653, 25326001)))

    @pytest.mark.parametrize("unlucky", [(0, 1, 2), (1, 2), (3,)])
    def test_unlucky_primes_are_dropped(self, unlucky):
        # theta - 1 and theta - 1 - P coincide modulo every prime dividing
        # P, where the images see a common factor of degree 2 although
        # the true gcd, theta - 3**130, has degree 1; its 207-bit root
        # takes about fourteen primes, so unlucky primes after lucky ones
        # are met too
        big = math.prod(polynomials._PRIMES[i] for i in unlucky)
        a = build_k([F(-3**130), F(-1)])
        b = build_k([F(-3**130), F(-1 - big)])
        assert gcd(a, b).coeffs == (F(-3**130), F(1))

    def test_prime_dividing_a_leading_coefficient_is_skipped(self):
        # modulo p the factor (p theta + 1) drops to the constant 1, so the
        # image of the gcd loses a degree; that prime must not set the
        # degree bound, or no candidate would ever pass
        p = polynomials._PRIMES[0]
        shared = Poly((F(1), F(p)))  # p theta + 1
        a = multiply(shared, build_k([F(-2), F(-3)]))
        b = multiply(shared, build_k([F(-2), F(5)]))
        assert gcd(a, b) == multiply(Poly((F(1, p), F(1))), Poly((F(-2), F(1))))

    def test_gcd_needing_more_primes_than_the_table(self, monkeypatch):
        # rational reconstruction needs a modulus above twice the square
        # of the 4300-bit coefficient: about 290 primes, past the 64 of
        # the table
        used = []
        real = polynomials._gcd_mod
        monkeypatch.setattr(polynomials, "_gcd_mod", lambda a, b, p: used.append(p) or real(a, b, p))
        g = build_k([F(10**1300, 7), F(3)])
        a = multiply(g, build_k([F(1)]))
        b = multiply(g, build_k([F(-1, 2)]))
        assert gcd(a, b) == g
        assert min(used) < polynomials._PRIMES[-1]

    @pytest.mark.parametrize("values", [
        ([F(10**130, 7)] * 6 + [F(3), F(-1, 2)], [F(10**130, 7)] * 5 + [F(2)]),
        ([F(-3**130), F(-1)], [F(-3**130), F(5, 3)]),
        ([F(2**90 + 1, 3**20)] * 4 + [F(1)] * 3, [F(2**90 + 1, 3**20)] * 3 + [F(1)] * 2 + [F(7)]),
    ])
    def test_resumed_lifts_match_lifts_from_scratch(self, monkeypatch, values):
        # the coefficients that stand are those a lift from scratch finds,
        # so both take the same images to the same gcd
        a, b = (build_k(v) for v in values)
        real_lift, real_image = polynomials._lift, polynomials._gcd_mod
        primes = []
        monkeypatch.setattr(polynomials, "_gcd_mod", lambda x, y, p: primes.append(p) or real_image(x, y, p))
        resumed, resumed_primes = gcd(a, b), list(primes)
        primes.clear()
        monkeypatch.setattr(polynomials, "_lift", lambda r, m, pairs: real_lift(r, m, []))
        assert gcd(a, b) == resumed
        assert primes == resumed_primes and len(primes) > 3

    def test_exact_division_check_needs_a_zero_remainder(self):
        # a leading coefficient of 1 divides every step; only the
        # remainder tells theta + 1 from a divisor of theta^2 + 1
        assert not polynomials._divides([1, 1], [1, 0, 1])
        assert polynomials._divides([1, 1], [1, 0, -1])

    def test_exact_division_check_matches_the_splice_algorithm(self):
        verdicts = set()

        @given(divisions())
        @settings(max_examples=400, deadline=None)
        def check(case):
            g, a = case
            verdict = polynomials._divides(g, a)
            assert verdict == splice_divides(g, a)
            verdicts.add(verdict)

        check()
        assert verdicts == {True, False}

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
            root_multiplicity(Poly((1.0, 1.0), FLOAT), F(-1))

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
