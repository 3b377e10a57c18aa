"""Acceptance suite.

One test per release criterion, each enforced at its stated tolerance
and reporting a single verdict line (visible with ``pytest -s`` or in
the captured output of a failure).
"""

import contextlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from scipy import integrate, stats

from fgmexp import mldegree, mle, model, polynomials
from fgmexp.polynomials import build_h, build_k, gcd
from fgmexp.roots import complex_roots

F = Fraction


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def random_fraction(rng):
    return F(rng.choice((1, -1)) * rng.randint(1, 20), rng.randint(1, 20))


def distinct_fractions(rng, count):
    seen, out = set(), []
    while len(out) < count:
        v = random_fraction(rng)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def exact_campaign_trials(trials=500, seed=20250809):
    """Random rational shift multisets, n in [2, 10], repetition shapes
    forced to sweep l over {0, 1, 2, 3} with m kept at or below n-1."""
    rng = random.Random(seed)
    out = []
    seen_l = set()
    for trial in range(trials):
        n = rng.randint(2, 10)
        l = min(trial % 4, (n - 1) // 2)
        mults = [2] * l
        budget = (n - 1) - 2 * l
        for i in range(l):
            if budget <= 0:
                break
            extra = rng.randint(0, budget)
            mults[i] += extra
            budget -= extra
        m = sum(mults)
        values = distinct_fractions(rng, l + (n - m))
        c = [v for v, mult in zip(values, mults) for _ in range(mult)]
        c.extend(values[l:])
        rng.shuffle(c)
        seen_l.add(l)
        out.append(c)
    assert seen_l == {0, 1, 2, 3}
    return out


@pytest.fixture(scope="module")
def exact_trials():
    return exact_campaign_trials()


def test_c1_closed_formula_matches_gcd_oracle(exact_trials):
    with criterion("C1 ml-degree closed formula == deg h - deg gcd(h,k), 500 exact trials in <10s"):
        start = time.perf_counter()
        for c in exact_trials:
            prof = mldegree.profile(c)
            by_formula = mldegree.ml_degree_formula(prof)
            h, k = build_h(c), build_k(c)
            by_gcd = h.degree - gcd(h, k).degree
            assert by_formula == by_gcd, f"mismatch for c={c}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"campaign took {elapsed:.2f}s"


def test_c2_common_zero_exists_iff_a_shift_repeats(exact_trials):
    with criterion("C2 gcd(h,k) nonconstant exactly when a shift value repeats"):
        for c in exact_trials:
            has_repeat = len(set(c)) < len(c)
            g = gcd(build_h(c), build_k(c))
            assert (g.degree >= 1) == has_repeat, f"biconditional fails for c={c}"


def test_c3_repeated_shift_divides_h_exactly_mult_minus_one_times():
    with criterion("C3 shift repeated m times divides h by its linear factor exactly m-1 times"):
        rng = random.Random(3141)
        for trial in range(100):
            n1 = 2 + trial % 5
            extras = rng.randint(1, 4)
            values = distinct_fractions(rng, 1 + extras)
            repeated = values[0]
            c = [repeated] * n1 + values[1:]
            rng.shuffle(c)
            # sympy's exact division over QQ is the independent oracle
            t = sympy.Symbol("t")
            p = sympy.Poly(build_h(c).coeffs[::-1], t, domain=sympy.QQ)
            root = -sympy.Rational(repeated.numerator, repeated.denominator)
            factor = sympy.Poly(t - root, t, domain=sympy.QQ)
            for _ in range(n1 - 1):
                assert p.eval(root) == 0
                p, rem = sympy.div(p, factor)
                assert rem.is_zero
            assert p.eval(root) != 0, f"extra division possible for c={c}"


def test_c4_score_numerator_is_derivative_of_denominator():
    with criterion("C4 h == k' exactly over rationals; float shifts read as their exact rationals"):
        rng = random.Random(271828)
        for trial in range(200):
            n = rng.randint(1, 15)
            base = distinct_fractions(rng, max(1, n // 2))
            c = [rng.choice(base) for _ in range(n)]
            h = build_h(c)
            assert h == build_k(c).derivative()
            assert h.degree == n - 1 and h.leading_coefficient == n
            # float shifts give the h of the rationals they hold
            floats = [float(v) for v in c]
            assert build_h(floats) == build_h([F(v) for v in floats])


def test_c5_root_census_realness_interlacing():
    with criterion("C5 n-1 roots, residuals <=1e-8, real within 1e-7, interlacing sorted -c"):
        rng = np.random.default_rng(20500)
        for _ in range(200):
            n = int(rng.integers(2, 21))
            c = rng.uniform(1.0, 10.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            rs = complex_roots(build_h([float(v) for v in c]))
            assert rs.total_multiplicity == n - 1
            assert max(rs.residuals) <= 1e-8
            scale = max(1.0, float(np.max(np.abs(c))))
            assert max(abs(z.imag) for z in rs.roots) <= 1e-7 * scale
            xs = sorted(z.real for z, m in zip(rs.roots, rs.multiplicities) for _ in range(m))
            ys = sorted(-c)
            fuzz = 1e-7 * scale
            for j, xj in enumerate(xs):
                assert ys[j] - fuzz <= xj <= ys[j + 1] + fuzz


def grid_loglik_max(w, points=100001, chunk=20001):
    grid = np.linspace(-1.0, 1.0, points)
    best = -np.inf
    for k in range(0, points, chunk):
        block = grid[k : k + chunk]
        vals = np.log1p(np.outer(block, w)).sum(axis=1)
        best = max(best, float(vals.max()))
    return best


def test_c6_fit_attains_grid_maximum_and_flips_sign_exactly():
    with criterion("C6 fit >= 1e5-point grid max - 1e-6; theta(-w) == -theta(w) exactly"):
        rng = np.random.default_rng(424242)
        targets = [-0.8, 0.0, 0.5]
        for i in range(100):
            ds = model.sample(200, targets[i % 3], int(rng.integers(0, 2**31)))
            res = mle.fit(ds)
            assert res.loglik >= grid_loglik_max(ds.weights) - 1e-6
            flipped = mle.fit_from_weights(-ds.weights)
            assert flipped.theta_hat == -res.theta_hat


def test_c7_all_equal_shifts_pick_the_matching_boundary():
    with criterion("C7 all-equal shifts: positive -> +1, negative -> -1, matching grid argmax"):
        grid = np.linspace(-1.0, 1.0, 100001)
        for w0 in (0.6, 0.25, -0.6, -0.25):
            res = mle.fit_from_weights(np.full(7, w0))
            expected = 1.0 if w0 > 0 else -1.0
            assert res.theta_hat == expected
            assert res.at_boundary
            scan = np.log1p(np.outer(grid, np.full(7, w0))).sum(axis=1)
            assert grid[int(np.argmax(scan))] == expected
        # dataset route: identical observations share one exact weight
        ds = model.Dataset.from_arrays([0.3] * 5, [0.4] * 5)
        assert mle.fit(ds).theta_hat == 1.0


def quadrature_correlation(theta, upper=40.0):
    """Pearson correlation of the joint density by double integration only."""

    def f(y, x):
        return model.density(x, y, theta)

    def moment(gx, gy):
        val, _ = integrate.dblquad(
            lambda y, x: gx(x) * gy(y) * f(y, x), 0.0, upper, 0.0, upper, epsabs=1e-10
        )
        return val

    one = lambda t: 1.0
    ident = lambda t: t
    square = lambda t: t * t
    ex, ey = moment(ident, one), moment(one, ident)
    exy = moment(ident, ident)
    ex2, ey2 = moment(square, one), moment(one, square)
    return (exy - ex * ey) / math.sqrt((ex2 - ex * ex) * (ey2 - ey * ey))


def test_c8_sampler_marginals_and_correlation_against_quadrature():
    with criterion("C8 KS(x), KS(y) < 0.02 at n=20000; corr within 0.02 of quadrature value"):
        theta = 0.8
        # independent oracle first: the correlation constant comes out of
        # integrating the density itself, not out of the sampler
        corr_quad = quadrature_correlation(theta)
        assert corr_quad == pytest.approx(theta / 4.0, abs=1e-5)
        ds = model.sample(20000, theta, 11)
        x, y = ds.x, ds.y
        assert stats.kstest(x, "expon").statistic < 0.02
        assert stats.kstest(y, "expon").statistic < 0.02
        assert abs(float(np.corrcoef(x, y)[0, 1]) - corr_quad) < 0.02


def test_c9_score_matches_finite_difference_of_loglik():
    with criterion("C9 central finite difference of loglik matches score to 1e-6 relative"):
        rng = np.random.default_rng(314)
        h = 1e-5
        for _ in range(100):
            n = int(rng.integers(5, 60))
            ds = model.sample(n, float(rng.uniform(-1, 1)), int(rng.integers(0, 2**31)))
            theta = float(rng.uniform(-0.9, 0.9))
            s = model.score(ds, theta)
            fd = (model.log_likelihood(ds, theta + h) - model.log_likelihood(ds, theta - h)) / (2 * h)
            assert abs(fd - s) <= 1e-6 * abs(s), f"rel err {abs(fd - s) / abs(s):.2e}"
