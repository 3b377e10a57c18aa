import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fgmexp import polynomials
from fgmexp.mldegree import (
    AllEqualError,
    MultiplicityProfile,
    common_zeros,
    ml_degree_algebraic,
    ml_degree_formula,
    ml_degree_report,
    profile,
)
from fgmexp.polynomials import ScalarModeError, build_h, build_k, gcd

F = Fraction

rationals = st.fractions(
    min_value=F(-20), max_value=F(20), max_denominator=12
).filter(lambda v: v != 0)
big_rationals = st.builds(lambda sign, num, den: F(sign * num, den), st.sampled_from((1, -1)),
                          st.integers(min_value=2**199, max_value=2**200 - 1),
                          st.integers(min_value=1, max_value=2**64))


@st.composite
def repeated_multisets(draw, max_n=12):
    """Distinct rationals assembled with a random repetition pattern,
    never all-equal."""
    distinct = draw(st.lists(rationals, min_size=2, max_size=6, unique=True))
    mults = [draw(st.integers(min_value=1, max_value=4)) for _ in distinct]
    c = [v for v, m in zip(distinct, mults) for _ in range(m)]
    if len(c) > max_n:
        c = c[:max_n]
    if len({v for v in c}) < 2:
        c.append(draw(rationals.filter(lambda v: v != c[0])))
    perm = draw(st.permutations(c))
    return list(perm)


class FractionSubclass(Fraction):
    pass


@st.composite
def exact_shifts(draw):
    """Nonzero exact shift values with repeats, each occurrence drawn as
    a Fraction, a Fraction subclass or, where its value allows, an int,
    an np.int64 or True; some numerators have about 200 bits."""
    small_ints = st.integers(min_value=-20, max_value=20).filter(bool).map(F)
    big_ints = st.integers(min_value=2**199, max_value=2**200).map(F)
    pool = draw(st.lists(st.one_of(rationals, small_ints, big_rationals, big_ints),
                         min_size=1, max_size=6))
    c = []
    for v in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20)):
        forms = [v, F(v.numerator, v.denominator), FractionSubclass(v)]
        if v.denominator == 1:
            forms.append(v.numerator)
            if abs(v.numerator) < 2**63:
                forms.append(np.int64(v.numerator))
            if v == 1:
                forms.append(True)
        c.append(draw(st.sampled_from(forms)))
    return c


class TestProfile:
    def test_worked_example(self):
        prof = profile([F(1), F(1), F(2)])
        assert (prof.n, prof.p, prof.l, prof.m) == (3, 2, 1, 2)
        assert list(zip(prof.values, prof.mults)) == [(F(1), 2), (F(2), 1)]
        assert prof.mode == "exact"

    @pytest.mark.parametrize("c,kind", [([F(1), F(1), F(2)], F), ([2.0, 2.0, 3.0], float)])
    def test_columns(self, c, kind):
        prof = profile(c)
        assert all(type(v) is kind for v in prof.values)
        assert prof.mults.dtype == np.int64
        with pytest.raises(ValueError):
            prof.mults[0] = 1

    def test_all_distinct(self):
        prof = profile([F(2), F(-4)])
        assert (prof.p, prof.l, prof.m) == (2, 0, 0)

    def test_two_pairs_and_single(self):
        prof = profile([F(3), F(3), F(5), F(5), F(9)])
        assert (prof.n, prof.p, prof.l, prof.m) == (5, 3, 2, 4)

    def test_rejects_zero_values(self):
        with pytest.raises(ValueError):
            profile([F(1), F(0)])
        with pytest.raises(ValueError):
            profile([F(1), 0])
        with pytest.raises(ValueError):
            profile([1.0, 0.0])

    def test_approx_clusters_within_relative_tolerance(self):
        prof = profile([2.0, 2.0 + 1e-12, -4.0])
        assert prof.mode == "approx"
        assert (prof.p, prof.l, prof.m) == (2, 1, 2)

    def test_approx_keeps_separated_values_apart(self):
        prof = profile([2.0, 2.0 + 1e-6, -4.0])
        assert (prof.p, prof.l, prof.m) == (3, 0, 0)

    def test_approx_transitive_closure_is_a_partition(self):
        # chain of values each within tolerance of its neighbor collapses
        # into a single group even though the endpoints are farther apart
        base = 5.0
        step = 4e-9  # below 1e-9 * max(1, 5) per adjacent pair
        vals = [base, base + step, base + 2 * step, base + 3 * step]
        prof = profile(vals)
        assert prof.p == 1

    def test_group_order_is_first_appearance(self):
        prof = profile([F(7), F(2), F(7), F(1)])
        assert prof.values == [F(7), F(2), F(1)]
        # an int and the Fraction equal to it are one group
        prof = profile([7, F(2), F(14, 2), np.int64(1), F(1)])
        assert list(zip(prof.values, prof.mults)) == [(F(7), 2), (F(2), 1), (F(1), 2)]
        assert all(type(v) is F and type(v.numerator) is int for v in prof.values)

    @given(exact_shifts())
    @settings(max_examples=200, deadline=None)
    def test_exact_groups_are_a_counter_of_fractions(self, c):
        prof = profile(c)
        want = Counter(F(v) for v in c)
        assert prof.mode == "exact"
        assert prof.values == list(want)
        assert prof.mults.tolist() == list(want.values())
        assert all(type(v) is F and type(v.numerator) is int for v in prof.values)
        # a group whose first value is a Fraction is represented by it
        first = {}
        for v in c:
            first.setdefault(F(v), v)
        for rep, v in zip(prof.values, first.values()):
            assert rep is v or type(v) is not F

    @pytest.mark.parametrize("c,message", [
        ([], "need at least one shift value"),
        ([0], "shift values must be nonzero"),
        ([F(0), F(1)], "shift values must be nonzero"),
        ([0.0], "shift values must be finite and nonzero"),
        ([np.inf], "shift values must be finite and nonzero"),
        (np.array([1.0, np.nan]), "shift values must be finite and nonzero"),
        (np.array([], dtype=float), "need at least one shift value"),
    ], ids=repr)
    def test_checks_shifts_as_build_k_does(self, c, message):
        # one rule, one message per condition, whichever entry point runs it
        entry_points = [profile, build_k]
        if polynomials.scalar_kind(c) == polynomials.RATIONAL:
            entry_points.append(ml_degree_algebraic)
        for entry_point in entry_points:
            with pytest.raises(ValueError) as err:
                entry_point(c)
            assert type(err.value) is ValueError
            assert str(err.value) == message


def loop_profile_groups(values):
    """The per-element loop the vectorised approximate profile replaced,
    kept as its oracle: a list of (representative, multiplicity) pairs."""
    fl = np.asarray([float(v) for v in values], dtype=float)
    order = np.argsort(fl, kind="stable")
    cluster_of = np.empty(len(fl), dtype=int)
    n_clusters = 0
    prev = None
    for idx in order:
        v = fl[idx]
        if prev is not None:
            gap_tol = 1e-9 * max(1.0, abs(prev), abs(v))
            if v - prev > gap_tol:
                n_clusters += 1
        cluster_of[idx] = n_clusters
        prev = v
    seen: dict[int, int] = {}
    members: dict[int, int] = {}
    for i, cl in enumerate(cluster_of):
        cl = int(cl)
        if cl not in seen:
            seen[cl] = i
            members[cl] = 0
        members[cl] += 1
    ordered = sorted(seen.items(), key=lambda kv: kv[1])
    return [(float(fl[first]), members[cl]) for cl, first in ordered]


def chain(start, count, rel_gap):
    """``count`` values from ``start``, each gap ``rel_gap`` times the
    tolerance at the previous value."""
    out = [start]
    for _ in range(count - 1):
        v = out[-1]
        out.append(v + rel_gap * 1e-9 * max(1.0, abs(v)))
    return out


NEAR_TOL = [0.999, 0.999999, 1.0, 1.000001, 1.001]


@st.composite
def adversarial_shifts(draw):
    """Chains with gaps just under and just over the tolerance, around
    |v| = 1 and elsewhere, both signs, with exact duplicates, shuffled."""
    values = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.sampled_from([1.0, -1.0, 1.0 - 3e-9, -1.0 - 2e-9, 2.5, -7.0, 1e6, 0.5]))
        count = draw(st.integers(1, 6))
        values += chain(start, count, draw(st.sampled_from(NEAR_TOL)))
    values += draw(st.lists(st.sampled_from(values), max_size=4))
    values += draw(st.lists(st.floats(-1e3, 1e3).filter(lambda v: v != 0.0), max_size=4))
    return draw(st.permutations(values))


class TestApproxProfileMatchesLoop:
    @pytest.mark.parametrize("values", [
        [3.0],
        chain(1.0, 8, 0.999999),
        chain(1.0, 8, 1.000001),
        chain(-1.0 - 4e-9, 9, 0.999),
        chain(1.0 - 5e-9, 12, 1.0),
        chain(1e6, 5, 0.999999) + chain(-1e6, 5, 1.000001),
        [2.0, -2.0, 2.0, 2.0 + 1e-12, -2.0 - 1e-12, 5.0, 2.0],
        [1.0, 1.0 + 1e-9, 1.0 + 2e-9, -1.0, -1.0 - 1e-9, 1.0 + 3.0000001e-9],
        # the gap equals the tolerance exactly: not above it, one group
        [-5e-10, 5e-10],
        # the gap lies between the tolerances at the two values, so the
        # larger magnitude of the pair must set it
        [2.969533062764485, 2.969533065734018],
        [-1.5471188785413972, -1.5471188769942783],
    ])
    def test_table(self, values):
        for order in (values, values[::-1]):
            want = loop_profile_groups(order)
            for prof in (profile(order), profile(np.array(order))):
                assert list(zip(prof.values, prof.mults)) == want

    @settings(max_examples=300, deadline=None)
    @given(values=adversarial_shifts())
    def test_generated(self, values):
        prof = profile(values)
        assert list(zip(prof.values, prof.mults)) == loop_profile_groups(values)
        assert prof.n == len(values)


class TestScalarKind:
    def test_mixed_input_outcome_per_caller(self):
        # one detector: the profile falls back to approx, polynomials refuse
        mixed = [F(1, 2), 0.5, 3]
        assert polynomials.scalar_kind(mixed) is None
        prof = profile(mixed)
        assert prof.mode == "approx"
        assert list(zip(prof.values, prof.mults)) == [(0.5, 2), (3.0, 1)]
        with pytest.raises(ScalarModeError):
            build_k(mixed)

    def test_arrays_decided_by_dtype(self):
        assert polynomials.scalar_kind(np.array([2, 2, 3])) == polynomials.RATIONAL
        assert polynomials.scalar_kind(np.array([2.0, 3.0])) == polynomials.FLOAT
        assert polynomials.scalar_kind(np.array([2.0], dtype=np.float32)) == polynomials.FLOAT
        prof = profile(np.array([2, 2, 3]))
        assert list(zip(prof.values, prof.mults)) == [(F(2), 2), (F(3), 1)]
        assert profile(np.array([2.0, 2.0, 3.0])).mode == "approx"


class TestCommonZeros:
    def test_worked_example(self):
        assert common_zeros(profile([F(1), F(1), F(2)])) == ((F(-1), 1),)

    def test_empty_for_distinct_values(self):
        assert common_zeros(profile([F(2), F(-4)])) == ()

    def test_triple_value(self):
        assert common_zeros(profile([F(3), F(3), F(3), F(7)])) == ((F(-3), 2),)

    def test_matches_actual_gcd_roots(self):
        c = [F(1, 2), F(1, 2), F(-3), F(-3), F(-3), F(4)]
        g = gcd(build_h(c), build_k(c))
        for value, mult in common_zeros(profile(c)):
            assert g.eval(value) == 0
            assert polynomials.root_multiplicity(build_h(c), value) == mult


class TestMlDegreeFormula:
    def test_two_pairs_and_single(self):
        assert ml_degree_formula(profile([F(3), F(3), F(5), F(5), F(9)])) == 2

    def test_worked_example(self):
        assert ml_degree_formula(profile([F(1), F(1), F(2)])) == 1

    def test_all_distinct_gives_n_minus_one(self):
        assert ml_degree_formula(profile([F(1), F(2), F(3), F(4)])) == 3

    def test_single_observation_gives_zero(self):
        assert ml_degree_formula(profile([F(5)])) == 0

    def test_all_equal_raises(self):
        with pytest.raises(AllEqualError) as err:
            ml_degree_formula(profile([F(3), F(3), F(3)]))
        assert err.value.value == F(3)
        assert err.value.n == 3
        assert err.value.boundary_mle == 1
        assert "(theta = 1)" in str(err.value)

    def test_all_equal_negative_boundary(self):
        with pytest.raises(AllEqualError) as err:
            ml_degree_formula(profile([-2.5, -2.5]))
        assert err.value.boundary_mle == -1
        assert "(theta = -1)" in str(err.value)

    def test_full_repetition_with_two_groups_is_at_least_one(self):
        # m = n forces l >= 2 and the count l - 1 >= 1
        assert ml_degree_formula(profile([F(1), F(1), F(2), F(2)])) == 1

    @given(repeated_multisets())
    @settings(max_examples=80)
    def test_bounded_by_n_minus_one(self, c):
        prof = profile(c)
        md = ml_degree_formula(prof)
        assert md <= len(c) - 1
        assert (md == len(c) - 1) == (prof.l == 0)


def sympy_ml_degree(c):
    """deg h - deg gcd(h, k) in sympy, with k = prod(x + c_i) and h = k'."""
    x = sympy.Symbol("x")
    k = sympy.Poly(1, x, domain=sympy.QQ)
    for v in c:
        v = Fraction(v)
        k *= sympy.Poly(x + sympy.Rational(v.numerator, v.denominator), x, domain=sympy.QQ)
    h = k.diff(x)
    return h.degree() - sympy.gcd(h, k).degree()


oracle_values = st.one_of(
    st.integers(min_value=-20, max_value=20).filter(lambda v: v != 0), rationals, big_rationals)


@st.composite
def heavy_multisets(draw):
    """A value with a numerator of about 200 bits, repeated 30 to 32
    times, among ints and fractions of every size, some of them repeated:
    the gcd of h and k then has coefficients of thousands of bits, which
    takes hundreds of 30-bit images and as many lifts."""
    heavy = draw(big_rationals)
    others = draw(st.lists(oracle_values.filter(lambda v: v != heavy), min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(others), max_size=4))
    mult = draw(st.integers(min_value=30, max_value=32))
    return list(draw(st.permutations([heavy] * mult + others + repeats)))


class TestMlDegreeAlgebraic:
    @given(heavy_multisets())
    @settings(max_examples=8, deadline=None)
    def test_equals_sympy_count(self, c):
        assert ml_degree_algebraic(c) == sympy_ml_degree(c)

    def test_reconstructs_each_coefficient_about_once(self, monkeypatch):
        # the gcd is (theta + c)**32 with c about 2**200 / 7, whose
        # coefficients take 427 images; lifting from scratch after each
        # image reconstructed 6153 coefficients, about 14 per image
        c = [F(2**200 + 12345, 7)] * 33 + [3, F(-5, 2), 7, F(2**199 + 1, 2**60 + 3),
                                           F(2**200 - 1, 5)]
        calls = {"image": 0, "rr": 0}
        for name, key in (("_gcd_mod", "image"), ("_rational_reconstruction", "rr")):
            real = getattr(polynomials, name)
            monkeypatch.setattr(polynomials, name,
                                lambda *a, real=real, key=key: calls.update({key: calls[key] + 1}) or real(*a))
        assert ml_degree_algebraic(c) == sympy_ml_degree(c) == 5
        # one failed reconstruction per image, and one success per coefficient
        assert calls["image"] > 400
        assert calls["rr"] <= calls["image"] + 2 * 33

    def test_worked_example(self):
        assert ml_degree_algebraic([F(1), F(1), F(2)]) == 1

    def test_distinct_pair(self):
        assert ml_degree_algebraic([F(2), F(-4)]) == 1

    def test_triple_plus_single(self):
        assert ml_degree_algebraic([F(3), F(3), F(3), F(7)]) == 1

    def test_single_observation(self):
        assert ml_degree_algebraic([F(5)]) == 0

    def test_all_equal_raises(self):
        with pytest.raises(AllEqualError):
            ml_degree_algebraic([F(2), F(2)])

    @pytest.mark.parametrize("c", [
        [], [F(0)], [F(0), F(0)], [F(1), F(0), F(1)], [F(3), F(3), F(3)], [2, 2],
        np.array([4, 4]), [F(1), 2.0], [1.0, 2.0], np.array([1.0, 2.0]), ["a", "b"],
    ], ids=repr)
    def test_raises_what_the_exact_profile_raises(self, c):
        with pytest.raises(Exception) as got:
            ml_degree_algebraic(c)
        if polynomials.scalar_kind(c) != polynomials.RATIONAL:
            # such values are grouped approximately, never exactly
            assert type(got.value) is ScalarModeError
            return
        with pytest.raises(Exception) as want:
            ml_degree_formula(profile(c))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        if isinstance(want.value, AllEqualError):
            assert (got.value.value, got.value.n) == (want.value.value, want.value.n)

    @pytest.mark.parametrize("pattern", [(), (2, 2), (3, 2, 2)])
    def test_agrees_with_formula_at_n_200(self, pattern):
        rng = random.Random(f"n=200 {pattern}")
        distinct = set()
        while len(distinct) < len(pattern) + 200 - sum(pattern):
            distinct.add(F(rng.choice((1, -1)) * rng.randint(1, 20), rng.randint(1, 20)))
        values = sorted(distinct)
        rng.shuffle(values)
        c = [v for v, mult in zip(values, pattern) for _ in range(mult)] + values[len(pattern):]
        rng.shuffle(c)
        assert len(c) == 200
        assert ml_degree_algebraic(c) == ml_degree_formula(profile(c)) == 199 + len(pattern) - sum(pattern)

    @given(repeated_multisets())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_formula(self, c):
        assert ml_degree_algebraic(c) == ml_degree_formula(profile(c))

    @given(repeated_multisets())
    @settings(max_examples=80, deadline=None)
    def test_gcd_nonconstant_iff_repeats(self, c):
        g = gcd(build_h(c), build_k(c))
        prof = profile(c)
        assert (g.degree >= 1) == any(m >= 2 for m in prof.mults)

    @given(repeated_multisets())
    @settings(max_examples=50, deadline=None)
    def test_repeated_value_multiplicity_in_h(self, c):
        h = build_h(c)
        prof = profile(c)
        for value, mult in zip(prof.values, prof.mults):
            if mult >= 2:
                assert polynomials.root_multiplicity(h, -value) == mult - 1


class TestReport:
    def test_exact_report_shape_and_oracle(self):
        doc = ml_degree_report([F(1), F(1), F(2)])
        assert doc["n"] == 3 and doc["p"] == 2 and doc["l"] == 1 and doc["m"] == 2
        assert doc["ml_degree"] == 1
        assert doc["mode"] == "exact"
        assert doc["common_zeros"] == [{"value": "-1", "mult": 1}]
        assert doc["oracle"]["agree"] is True

    def test_approx_report_carries_caveat(self):
        doc = ml_degree_report([2.0, -4.0, 8.5])
        assert doc["mode"] == "approx"
        assert doc["ml_degree"] == 2
        assert "caveat" in doc

    @pytest.mark.parametrize("c", [[F(1), F(1), F(2)], [2.0, 2.0, 3.0]])
    def test_reads_an_iterator_once(self, c):
        assert ml_degree_report(iter(c)) == ml_degree_report(c)

    def test_all_equal_propagates(self):
        with pytest.raises(AllEqualError):
            ml_degree_report([F(3), F(3)])
