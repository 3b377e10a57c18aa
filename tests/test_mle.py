import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fgmexp import mldegree, model, roots
from fgmexp.mle import FitResult, NoDataError, fit, fit_from_weights
from fgmexp.model import (
    Dataset,
    log_likelihood,
    log_likelihood_weights,
    sample,
    score_weights,
)

LN2 = math.log(2.0)


def grid_max(w, points=100001):
    grid = np.linspace(-1.0, 1.0, points)
    terms = np.log1p(np.outer(grid, w))
    return float(terms.sum(axis=1).max())


class TestFitInterior:
    def test_antisymmetric_weights_fit_zero(self):
        res = fit_from_weights(np.array([0.5, -0.5]))
        assert res.theta_hat == 0.0
        assert res.at_boundary is False
        assert res.interior_root == 0.0

    def test_interior_root_zeroes_score(self):
        rng = np.random.default_rng(61)
        checked = 0
        for _ in range(40):
            ds = sample(int(rng.integers(5, 80)), float(rng.uniform(-1, 1)), int(rng.integers(0, 2**31)))
            res = fit(ds)
            if not res.at_boundary:
                checked += 1
                assert res.interior_root == res.theta_hat
                assert abs(score_weights(ds.weights, res.theta_hat)) <= 1e-10
        assert checked > 10

    def test_second_order_condition(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            ds = sample(int(rng.integers(5, 60)), 0.3, int(rng.integers(0, 2**31)))
            res = fit(ds)
            if not res.at_boundary:
                assert log_likelihood(ds, res.theta_hat - 1e-4) < res.loglik
                assert log_likelihood(ds, res.theta_hat + 1e-4) < res.loglik

    def test_attains_grid_maximum(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            ds = sample(200, float(rng.choice([-0.8, 0.0, 0.5])), int(rng.integers(0, 2**31)))
            res = fit(ds)
            assert res.loglik >= grid_max(ds.weights) - 1e-6

    def test_recovers_true_association(self):
        res = fit(sample(10000, 0.5, 99))
        assert abs(res.theta_hat - 0.5) < 0.1


class TestFitBoundary:
    def test_single_positive_weight_maxes_at_plus_one(self):
        res = fit_from_weights(np.array([0.5]))
        assert res.theta_hat == 1.0
        assert res.at_boundary is True
        assert res.interior_root is None

    def test_all_equal_positive_shift_goes_to_plus_one(self):
        # every weight 0.5, so every shift is 2: monotone likelihood
        res = fit_from_weights(np.array([0.5, 0.5, 0.5]))
        assert res.theta_hat == 1.0
        assert res.at_boundary is True

    def test_all_equal_negative_shift_goes_to_minus_one(self):
        res = fit_from_weights(np.array([-0.5, -0.5]))
        assert res.theta_hat == -1.0

    def test_all_equal_matches_grid_argmax(self):
        for w0 in (0.7, -0.7):
            res = fit_from_weights(np.array([w0, w0, w0]))
            grid = np.linspace(-1.0, 1.0, 100001)
            vals = np.log1p(np.outer(grid, np.full(3, w0))).sum(axis=1)
            assert res.theta_hat == grid[int(np.argmax(vals))]

    def test_origin_observations_weight_one(self):
        # weight exactly 1: pole at theta = -1, maximizer at +1
        ds = Dataset.from_arrays([0.0, 0.0], [0.0, 0.0])
        res = fit(ds)
        assert res.theta_hat == 1.0
        assert res.loglik == pytest.approx(2 * math.log(2.0), rel=1e-12)

    def test_mixed_weights_without_sign_change(self):
        # one weight of exactly +1 makes theta = -1 a pole; the offset
        # evaluation must still pick the finite-likelihood endpoint
        res = fit_from_weights(np.array([1.0, -0.2]))
        assert res.at_boundary is True
        assert res.theta_hat == 1.0
        assert np.isfinite(res.loglik)

    def test_boundary_beats_both_endpoints_and_center(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            ds = sample(int(rng.integers(2, 10)), 0.9, int(rng.integers(0, 2**31)))
            res = fit(ds)
            w = ds.weights[ds.weights != 0.0]
            for t in (-1.0 + 1e-12, 0.0, 1.0 - 1e-12):
                assert res.loglik >= log_likelihood_weights(w, t) - 1e-12


@pytest.mark.parametrize("w", [[1.5, -0.9], [float("nan"), 0.5], [0.2, -float("inf")], [-1.0000001],
                               [1.5, 1.5, 0.0], [float("nan")] * 3])
def test_weight_outside_the_model_range_is_rejected(w):
    # [1.5, -0.9] used to fit theta = 1 with loglik -1.386 below loglik(0) = 0
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        fit_from_weights(w)


@pytest.mark.parametrize("w", [[0.5, -0.5], [0.3, 0.3, 0.3], [0.9, 0.8], [-0.2, 0.0]])
def test_weights_are_checked_once_per_fit(monkeypatch, w):
    calls = []
    real = model.validate_weights
    for module in (model, roots):
        monkeypatch.setattr(module, "validate_weights", lambda x: calls.append(1) or real(x))
    fit_from_weights(w)
    assert len(calls) == 1


class TestGrouping:
    """No fit groups its shifts, all-equal inputs included: without an
    interior root the sign of the weights' sum picks the endpoint."""

    @pytest.fixture(autouse=True)
    def refuse_grouping(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a fit grouped its shifts")

        # every grouping, profile's and a report's, goes through _profile
        monkeypatch.setattr(mldegree, "_profile", refuse)

    def test_mixed_sign_boundary_fit_does_not_group(self):
        for w in ([0.9, -0.1], [1.0, -0.2], [-0.9, 0.1, 0.05]):
            assert fit_from_weights(w).at_boundary
        assert fit_from_weights([0.9, -0.1]).theta_hat == 1.0
        assert fit_from_weights([-0.9, 0.1, 0.05]).theta_hat == -1.0

    def test_all_equal_fit_does_not_group(self):
        assert fit_from_weights([0.3] * 4).theta_hat == 1.0
        assert fit_from_weights([-0.3] * 4).theta_hat == -1.0
        assert fit_from_weights([1e-310] * 3).theta_hat == 1.0
        assert fit_from_weights([-1.0] * 2).theta_hat == -1.0


class TestTinyWeights:
    """Weights so small that their shifts 1/w overflow a float, or that
    both endpoint logliks round to the same value."""

    @pytest.mark.parametrize("w,theta", [
        ([1e-310, 0.5], 1.0),
        ([-1e-310, -0.5], -1.0),
        ([1e-310] * 3, 1.0),  # all equal
        ([-1e-310] * 3, -1.0),  # all equal
        ([5e-324, 1e-323], 1.0),  # shifts a factor 2 apart
        # both endpoint logliks round to 0.0, but sum(log1p(theta w)) is
        # +3e-20 at -1 and -3e-20 at +1
        ([-1e-20, -2e-20], -1.0),
    ])
    def test_fit_at_the_boundary_without_a_warning(self, w, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_from_weights(w)
        assert (res.theta_hat, res.at_boundary) == (theta, True)
        assert res.loglik == log_likelihood_weights(np.array(w), theta)

    def test_grouping_matches_the_unscaled_shifts(self):
        # chains of negative weights this small, whose shifts form one
        # group or several, all have a negative score on (-1, 1): each
        # fits -1
        rng = np.random.default_rng(97)
        for _ in range(400):
            base = -10.0 ** rng.uniform(-300, -17)
            gaps = 1e-9 * (1.0 + rng.uniform(-1e-6, 1e-6, size=int(rng.integers(1, 4))))
            w = base * np.cumprod(np.concatenate(([1.0], 1.0 + gaps)))
            assert fit_from_weights(w).theta_hat == -1.0


def _scaled_weights(sign):
    """Weight vectors in [-1, 1] scaled by 2**-k, k up to 1100, so that
    they run from order one down to subnormal; ``sign`` +1 or -1 makes
    them one-signed, 0 lets the signs mix."""
    low = -1.0 if sign == 0 else 0.0
    direction = st.lists(st.floats(low, 1.0), min_size=1, max_size=8)
    return st.builds(
        lambda v, k: np.ldexp((sign or 1.0) * np.array(v), -k),
        direction,
        st.integers(0, 1100),
    )


def _weights_with_unit_entries():
    """Weight vectors that hold exact +-1 entries among zeros, subnormals
    and ordinary weights."""
    entry = st.one_of(st.sampled_from([1.0, -1.0, 0.0, 5e-324, -5e-324]),
                      st.floats(-1.0, 1.0))
    return st.lists(entry, min_size=1, max_size=8).map(np.array)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_scaled_weights(1), _scaled_weights(-1), _scaled_weights(0),
                 _weights_with_unit_entries()))
def test_boundary_fit_takes_the_endpoint_the_sum_points_to(w):
    assume(np.any(w))
    res = fit_from_weights(w)
    assume(res.at_boundary)
    eff = w[w != 0.0]
    assert res.theta_hat == (1.0 if math.fsum(eff) > 0.0 else -1.0)
    # a weight of -theta_hat would make the boundary a pole, whose -inf
    # score just inside it always gives a root instead; so the loglik is
    # taken at the endpoint itself
    assert not (eff == -res.theta_hat).any()
    assert res.loglik == log_likelihood_weights(eff, res.theta_hat)
    neg = fit_from_weights(-w)
    assert (neg.theta_hat, neg.at_boundary) == (-res.theta_hat, True)
    # the larger endpoint loglik, up to the rounding error of sum(w),
    # which only a sum cancelled below it can reach; a weight of -+1
    # makes the other endpoint -inf
    with np.errstate(divide="ignore"):
        mine = math.fsum(np.log1p(res.theta_hat * w))
        other = math.fsum(np.log1p(-res.theta_hat * w))
    slack = 4.0 * (w.size + 1) * np.finfo(float).eps * math.fsum(np.abs(w))
    assert mine >= other - slack


def test_boundary_fit_follows_the_exact_sign_of_a_cancelling_sum():
    # the weights sum to -7.07e-37 exactly but to +1.50e-36 in floating
    # point, where -1 has the larger log-likelihood; an exact sign at 0
    # alone does not decide it, as the score sum at the search's +1
    # end cancels the same way
    u = np.spacing(1e-20)
    w = np.array([1e-20, -0.49 * u, -0.49 * u, -0.49 * u, -(1e-20 - u)])
    # the premises fail the test outright
    if not (math.fsum(w) < 0.0 < w.sum() and math.fsum(np.log1p(-w)) > math.fsum(np.log1p(w))):
        pytest.fail("the weights no longer cancel as described")
    assert fit_from_weights(w).theta_hat == -1.0
    assert fit_from_weights(-w).theta_hat == 1.0


def _cancelling_weights():
    """Weight vectors whose exact sum is that of a few small weights,
    hidden from a float sum by pairs +-a of larger ones, in a drawn
    order."""
    pairs = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6)
    small = st.lists(st.builds(lambda v, k: math.ldexp(v, -k), st.floats(-1.0, 1.0),
                               st.integers(20, 1100)), min_size=1, max_size=4)
    return st.tuples(pairs, small).flatmap(
        lambda ps: st.permutations(ps[0] + [-a for a in ps[0]] + ps[1])).map(np.array)


@settings(max_examples=400, deadline=None)
@given(_cancelling_weights())
def test_fit_takes_the_side_of_the_exact_sum_of_the_weights(w):
    # a boundary fit takes the endpoint the exact sum points to, and an
    # interior root lies on that side of 0, a zero root signed as it is
    assume(np.any(w))
    exact = sum(map(Fraction, w.tolist()))
    res, neg = fit_from_weights(w), fit_from_weights(-w)
    assert neg.theta_hat == -res.theta_hat
    if res.at_boundary:
        assert res.theta_hat == (1.0 if exact > 0 else -1.0)
    elif exact == 0:
        assert res.theta_hat == 0.0
    else:
        assert math.copysign(1.0, res.theta_hat) == (1.0 if exact > 0 else -1.0)


class TestEquivariance:
    def test_exact_sign_flip_simulated(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            ds = sample(int(rng.integers(2, 60)), float(rng.uniform(-1, 1)), int(rng.integers(0, 2**31)))
            w = ds.weights
            res = fit_from_weights(w)
            neg = fit_from_weights(-w)
            assert neg.theta_hat == -res.theta_hat
            assert neg.at_boundary == res.at_boundary

    def test_exact_sign_flip_boundary_cases(self):
        for w in ([0.5], [0.5, 0.5], [0.9, 0.8], [1.0, 0.3], [1e-310, 0.5], [1e-310] * 3):
            w = np.array(w)
            res, neg = fit_from_weights(w), fit_from_weights(-w)
            assert neg.theta_hat == -res.theta_hat


class TestDegenerateData:
    def test_all_degenerate_raises_no_data(self):
        ds = Dataset.from_arrays([LN2, 2.0], [1.0, LN2])
        with pytest.raises(NoDataError):
            fit(ds)

    def test_empty_dataset_raises_no_data(self):
        with pytest.raises(NoDataError):
            fit(Dataset.from_arrays([], []))

    def test_degenerates_are_dropped_and_counted(self):
        ds = Dataset.from_arrays([LN2, 0.1, 1.0], [1.0, 0.2, 1.5])
        res = fit(ds)
        assert res.dropped == 1
        assert res.n_effective == 2


class TestFitResultShape:
    def test_json_has_pinned_keys(self):
        res = fit_from_weights(np.array([0.4, -0.6, 0.2]))
        doc = res.to_json_dict()
        assert set(doc) == {"theta_hat", "loglik", "at_boundary", "n_effective", "dropped"}

    def test_loglik_dominates_reference_thetas(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            ds = sample(int(rng.integers(3, 50)), float(rng.uniform(-1, 1)), int(rng.integers(0, 2**31)))
            res = fit(ds)
            for t in (-1.0, 0.0, 1.0):
                assert res.loglik >= log_likelihood(ds, t) - 1e-12


class TestProfileLoglik:
    """The log-likelihood profiled over a grid of theta values."""

    def test_zero_at_theta_zero(self):
        ds = sample(20, 0.5, 3)
        assert log_likelihood(ds, 0.0) == 0.0

    def test_monotone_for_positive_weights(self):
        ds = Dataset.from_arrays([0.1, 0.0, 0.25], [0.2, 0.3, 0.05])
        assert np.all(ds.weights > 0)
        values = [log_likelihood(ds, t) for t in np.linspace(-1, 1, 21)]
        assert np.all(np.diff(values) > 0)

    def test_minus_inf_sentinel(self):
        ds = Dataset.from_arrays([0.0], [0.0])  # weight exactly 1
        pts = [log_likelihood(ds, t) for t in (-1.0, 0.0, 1.0)]
        assert pts[0] == float("-inf")
        assert pts[1] == 0.0
        assert pts[2] == pytest.approx(math.log(2.0))

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValueError):
            log_likelihood(sample(5, 0.0, 1), 1.5)
