import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fgmexp import roots
from fgmexp.mle import fit, fit_from_weights
from fgmexp.model import Dataset, c_shift, sample
from fgmexp.polynomials import Poly, build_h
from fgmexp.roots import complex_roots, score_root_from_weights

F = Fraction


def random_c(rng, n, lo=1.0, hi=10.0):
    return rng.uniform(lo, hi, size=n) * rng.choice([-1.0, 1.0], size=n)


class TestComplexRoots:
    def test_linear(self):
        rs = complex_roots(Poly((6, 2)))
        assert rs.roots == (pytest.approx(-3.0),)
        assert rs.multiplicities == (1,)

    def test_worked_quadratic(self):
        rs = complex_roots(build_h([1.0, 1.0, 2.0]))
        assert sorted(z.real for z in rs.roots) == pytest.approx([-5 / 3, -1.0], abs=1e-9)
        assert rs.total_multiplicity == 2

    def test_eigenvalue_failure_raises_linalg_error(self, monkeypatch):
        def fail(coeffs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np, "roots", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            complex_roots(Poly((6, 2)))

    def test_perfect_square_merges_to_multiplicity_two(self):
        rs = complex_roots(Poly((1, 2, 1)))
        assert rs.multiplicities == (2,)
        assert rs.roots[0].real == pytest.approx(-1.0, abs=1e-7)
        assert rs.total_multiplicity == 2

    def test_census_always_matches_degree(self):
        # includes triple shifts, whose clustered double root may be
        # reported split; the multiplicity total is what is guaranteed
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            c = list(random_c(rng, n))
            if n >= 4:
                c[1] = c[2] = c[0]
            rs = complex_roots(build_h([float(v) for v in c]))
            assert rs.total_multiplicity == n - 1

    def test_residuals_are_small_backward_errors(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            rs = complex_roots(build_h([float(v) for v in random_c(rng, n)]))
            assert max(rs.residuals) <= 1e-8

    def test_real_shifts_give_real_roots(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            c = random_c(rng, n)
            rs = complex_roots(build_h([float(v) for v in c]))
            scale = max(1.0, float(np.max(np.abs(c))))
            assert max(abs(z.imag) for z in rs.roots) <= 1e-7 * scale

    def test_interlaces_doubled_shift(self):
        # a doubled value pins a root of h at the repeated -c; weak
        # interlacing holds up to coefficient rounding
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            c = list(random_c(rng, n))
            if n >= 2:
                c[1] = c[0]
            rs = complex_roots(build_h([float(v) for v in c]))
            xs = sorted(z.real for z, m in zip(rs.roots, rs.multiplicities) for _ in range(m))
            ys = sorted(-v for v in c)
            scale = max(1.0, float(np.max(np.abs(c))))
            for j, xj in enumerate(xs):
                assert ys[j] - 1e-6 * scale <= xj <= ys[j + 1] + 1e-6 * scale

    def test_rejects_constant(self):
        for p in (Poly((3,)), Poly(())):
            with pytest.raises(ValueError, match="^root finding needs degree >= 1$"):
                complex_roots(p)

    def test_rounds_each_coefficient_once_to_the_nearest_float(self):
        # 1/3 and 10**400/3**700 round to their nearest floats, not to a
        # float quotient of rounded parts
        rs = complex_roots(Poly((F(1, 3), 1)))
        assert rs.roots == (complex(-1 / 3),)
        rs = complex_roots(Poly((F(10**400, 3**700), 1)))
        assert rs.roots == (complex(-F(10**400, 3**700)),)

    @pytest.mark.parametrize("seed", [1, 2, 3, 301])
    def test_sampled_shifts_at_n_20_meet_c5(self, seed):
        # the benchmark's root census requires every n = 20 case to pass
        c = c_shift(sample(20, 0.3, seed)).values
        rs = complex_roots(build_h(c))
        assert rs.total_multiplicity == 19
        assert max(rs.residuals) <= 1e-8
        scale = max(1.0, float(np.max(np.abs(c))))
        assert max(abs(z.imag) for z in rs.roots) <= 1e-7 * scale
        xs = sorted(z.real for z, m in zip(rs.roots, rs.multiplicities) for _ in range(m))
        ys = sorted(-c)
        for j, xj in enumerate(xs):
            assert ys[j] - 1e-7 * scale <= xj <= ys[j + 1] + 1e-7 * scale

    @pytest.mark.parametrize("n", [150, 400])
    def test_past_the_float_range_is_an_overflow_error(self, n):
        # at n = 150 the residual scale at a root overflows, at n = 400 a
        # coefficient of h does too; the census says so, and the exact h
        # is still built
        h = build_h(c_shift(sample(n, 0.3, 1)).values)
        assert h.degree == n - 1
        assert (max(map(abs, h.coeffs)) < 2**1023) == (n == 150)
        with pytest.raises(OverflowError, match=f"^{roots.OUT_OF_RANGE}$"):
            complex_roots(h)

    @pytest.mark.parametrize("coeffs", [(1, 10**400), (1, F(1, 10**400))], ids=["above", "below"])
    def test_coefficient_past_the_float_range_is_an_overflow_error(self, coeffs):
        # a leading coefficient that rounds to 0 would drop a root
        with pytest.raises(OverflowError, match=f"^{roots.OUT_OF_RANGE}$"):
            complex_roots(Poly(coeffs))

    def test_companion_entry_past_the_float_range_is_an_overflow_error(self):
        # both coefficients round to finite floats, but -a_0/a_1 = -1e310
        # does not: no numpy overflow warning and no empty RootSet
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=f"^{roots.OUT_OF_RANGE}$"):
                complex_roots(Poly((10**300, F(1, 10**10))))


class TestScoreRoot:
    def test_antisymmetric_weights_give_zero(self):
        assert score_root_from_weights(np.array([0.5, -0.5])) == 0.0

    def test_single_positive_weight_has_no_interior_root(self):
        assert score_root_from_weights(np.array([0.5])) is None

    def test_frozen_three_weight_root(self):
        # score_weights (0.9, -0.3, -0.3): the two equal negatives merge,
        # 0.9/(1+0.9 t) = 0.6/(1-0.3 t)  =>  t = 10/27
        r = score_root_from_weights(np.array([0.9, -0.3, -0.3]))
        assert r == pytest.approx(10 / 27, abs=1e-10)

    def test_grid_scan_oracle(self):
        # locate the sign change on a dense grid, independently of the solver
        w = np.array([0.9, -0.3, -0.3])
        grid = np.linspace(-0.999999, 0.999999, 10**6)
        vals = (w[None, :] / (1.0 + grid[:, None] * w[None, :])).sum(axis=1)
        flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        assert len(flips) == 1
        bracket_lo, bracket_hi = grid[flips[0]], grid[flips[0] + 1]
        r = score_root_from_weights(w)
        assert bracket_lo <= r <= bracket_hi

    def test_root_is_local_maximum_with_sign_change(self):
        rng = np.random.default_rng(41)
        found = 0
        for _ in range(100):
            ds = sample(int(rng.integers(3, 40)), float(rng.uniform(-1, 1)), int(rng.integers(0, 2**31)))
            w = ds.weights[ds.weights != 0.0]
            r = score_root_from_weights(w)
            if r is None:
                continue
            found += 1
            ll = lambda t: float(np.sum(np.log(1.0 + t * w)))
            assert ll(r) >= ll(r - 1e-6)
            assert ll(r) >= ll(r + 1e-6)
            s = lambda t: float(np.sum(w / (1.0 + t * w)))
            assert s(r - 1e-8) > 0.0 > s(r + 1e-8)
        assert found > 30

    def test_score_at_root_is_tiny(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            ds = sample(int(rng.integers(3, 50)), 0.4, int(rng.integers(0, 2**31)))
            w = ds.weights[ds.weights != 0.0]
            r = score_root_from_weights(w)
            if r is not None:
                assert abs(float(np.sum(w / (1.0 + r * w)))) <= 1e-10

    def test_weight_of_exactly_one_uses_offset_endpoint(self):
        # weight +1 puts a pole at theta = -1; the search must not raise
        w = np.array([1.0, -0.4, -0.4, -0.4])
        r = score_root_from_weights(w)
        if r is not None:
            assert -1.0 < r < 1.0
        # the bracket ends 1e-12 inside a pole; ending at the pole itself
        # gives +-0.7307692307692308 here
        assert score_root_from_weights(np.array([-1.0] + [0.4] * 12)) == 0.7307692307692307
        assert score_root_from_weights(np.array([1.0] + [-0.4] * 12)) == -0.7307692307692307

    @pytest.mark.parametrize("w", [[1.0, 1e-20, -1.0], [0.5, -0.5, 1e-30]])
    def test_a_nonzero_sum_within_the_stopping_rule_gives_a_signed_zero(self, w):
        # the weights sum to +1e-20 or +1e-30 exactly (the float sum of the
        # first is 0.0), and +1 bounds a root; the score at 0 already meets
        # the stopping rule, so the search stays there: 0.0, and -0.0 for
        # the negated weights
        w = np.array(w)
        assert sum(map(F, w)) > 0
        r, r_neg = score_root_from_weights(w), score_root_from_weights(-w)
        assert (r, math.copysign(1.0, r)) == (0.0, 1.0)
        assert (r_neg, math.copysign(1.0, r_neg)) == (0.0, -1.0)

    def test_search_ends_when_the_bracket_holds_no_float(self):
        # the exact root is 999/1001; the search ends on a bracket with no
        # float strictly inside, short of the stopping rule, and its root
        # is next to the exact one: the exact score of the given weights
        # changes sign between it and one of its float neighbours
        w = np.array([-1.0] + [1.0] * 1000)
        r = score_root_from_weights(w)
        assert r == 0.9980019980019981

        def exact_score(theta):
            return sum(F(v) / (1 + F(theta) * F(v)) for v in w.tolist())

        here = exact_score(r)
        assert any(exact_score(np.nextafter(r, side)) * here <= 0 for side in (-1.0, 1.0))
        assert fit_from_weights(w).theta_hat == r
        assert fit_from_weights(-w).theta_hat == -r

    @pytest.mark.parametrize("w", [[float("nan"), 0.5], [1.5, -0.9], [0.2, float("inf")]])
    def test_weight_outside_the_model_range_is_rejected(self, w):
        # [nan, 0.5] used to return None, as if the maximum sat on the boundary
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            score_root_from_weights(np.array(w))

    def test_requires_a_nonzero_weight(self):
        with pytest.raises(ValueError):
            score_root_from_weights(np.array([0.0, 0.0]))

    def test_dataset_wrapper_drops_degenerates(self):
        # mle.fit is the dataset-level entry to the root search
        ds = Dataset.from_arrays([math.log(2.0), 0.2, 2.5], [1.0, 0.1, 0.1])
        assert ds.degenerate_indices == (0,)
        w = ds.weights[ds.weights != 0.0]
        r = score_root_from_weights(w)
        assert r is not None
        assert fit(ds).interior_root == r

    def test_exact_sign_flip_of_root(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            w = rng.uniform(-1, 1, size=n)
            w = w[w != 0.0]
            r = score_root_from_weights(w)
            r_neg = score_root_from_weights(-w)
            if r is None:
                assert r_neg is None
            else:
                assert r_neg == -r

    @pytest.mark.parametrize("theta", [0.3, -0.5])
    def test_large_fits_take_few_passes(self, monkeypatch, theta):
        # every pass is a Newton step: the +1 endpoint is scored apart,
        # and at 0 the score is the sum of the weights
        calls = []
        real = roots._pass
        monkeypatch.setattr(roots, "_pass", lambda w, t, buf: calls.append(t) or real(w, t, buf))
        for n, seed in ((10**6, 42), (10**5, 1), (10**5, 2)):
            calls.clear()
            res = fit(sample(n, theta, seed))
            assert not res.at_boundary
            assert len(calls) <= 6, (n, seed, calls)

    @pytest.mark.parametrize("n", [10**2, 10**3, 10**4])
    def test_score_at_root_meets_the_relative_rule(self, n):
        # the exactly rounded score at the root is within STOP_REL of the
        # sum of the magnitudes of its terms
        rng = np.random.default_rng(n)
        checked = 0
        for theta in (-0.8, -0.3, 0.0, 0.4, 0.9):
            for _ in range(4):
                w = sample(n, theta, int(rng.integers(0, 2**31))).weights
                w = w[w != 0.0]
                r = score_root_from_weights(w)
                if r is None:
                    continue
                q = w / (1.0 + r * w)
                assert abs(math.fsum(q)) <= roots.STOP_REL * float(np.abs(q).sum())
                checked += 1
        assert checked >= 15


_weight = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([1.0, -1.0, 0.0, 5e-324, -5e-324, 1e-310, -2.5e-310, 0.5, -0.5]),
)


@given(st.lists(_weight, min_size=1, max_size=40), st.booleans())
def test_root_of_negated_weights_is_negated_root(values, balanced):
    w = np.array(values)
    if balanced:
        # each weight next to its negation: the sum is exactly zero
        w = np.column_stack([w, -w]).ravel()
        assert w.sum() == 0.0
    if not w.any():
        for v in (w, -w):
            with pytest.raises(ValueError):
                score_root_from_weights(v)
        return
    r, r_neg = score_root_from_weights(w), score_root_from_weights(-w)
    if balanced:
        assert r == 0.0
    if r is None:
        assert r_neg is None
    else:
        assert -1.0 < r < 1.0
        assert r_neg == -r
