import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

from fgmexp import model
from fgmexp.model import (
    DataFormatError,
    Dataset,
    PoleError,
    c_shift,
    density,
    log_likelihood,
    log_likelihood_weights,
    read_csv,
    sample,
    score,
    score_weights,
    validate_theta,
    write_csv,
)

LN2 = math.log(2.0)


# valid values (-0.0 and ln 2 among them) and every kind of bad one
_coordinate = st.one_of(
    st.floats(min_value=0.0, max_value=50.0),
    st.sampled_from([0.0, -0.0, LN2, 1e-300, 1e300, 1.7976931348623157e308]),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0, -5e-324]),
)


def dataset(pairs):
    x, y = zip(*pairs)
    return Dataset.from_arrays(x, y)


class TestObservation:
    """One point, as a one-row dataset."""

    def test_accepts_first_quadrant(self):
        ds = dataset([(0.0, 3.5)])
        assert (ds.x[0], ds.y[0]) == (0.0, 3.5)

    @pytest.mark.parametrize("x,y", [(-1.0, 0.0), (0.0, -0.5), (float("nan"), 1.0), (1.0, float("inf"))])
    def test_rejects_bad_coordinates(self, x, y):
        with pytest.raises(ValueError):
            dataset([(x, y)])

    def test_weight_at_origin_is_one(self):
        assert dataset([(0.0, 0.0)]).weights[0] == 1.0


class TestTheta:
    @pytest.mark.parametrize("t", [-1.0, 0.0, 1.0, 0.25])
    def test_accepts_interval(self, t):
        assert validate_theta(t) == t

    @pytest.mark.parametrize("t", [-1.0000001, 1.5, float("nan"), float("inf")])
    def test_rejects_outside(self, t):
        with pytest.raises(ValueError):
            validate_theta(t)


class TestDataset:
    def test_weights_recomputed_from_observations(self):
        ds = dataset([(0.0, 0.0), (1.0, 2.0)])
        expected = (2 * np.exp(-1.0) - 1) * (2 * np.exp(-2.0) - 1)
        assert ds.weights[0] == 1.0
        assert ds.weights[1] == pytest.approx(expected, rel=0, abs=0)
        assert ds.n == 2

    def test_weights_are_frozen(self):
        ds = dataset([(1.0, 1.0)])
        with pytest.raises(ValueError):
            ds.weights[0] = 0.5

    def test_degenerate_indices_at_ln2(self):
        ds = dataset([(1.0, 1.0), (LN2, 3.0), (0.5, LN2)])
        assert ds.degenerate_indices == (1, 2)

    def test_weights_bounded(self):
        rng = np.random.default_rng(5)
        ds = Dataset.from_arrays(rng.exponential(size=500), rng.exponential(size=500))
        assert np.all(np.abs(ds.weights) <= 1.0)

    def test_columns_are_frozen_float64(self):
        ds = Dataset.from_arrays([1, 2], [0.5, 3.0])
        for arr in (ds.x, ds.y, ds.weights):
            assert arr.dtype == np.float64
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert ds.x.tolist() == [1.0, 2.0] and ds.y.tolist() == [0.5, 3.0]

    def test_from_arrays_copies_its_input(self):
        x = np.array([1.0, 2.0])
        ds = Dataset.from_arrays(x, [0.5, 3.0])
        x[0] = 9.0
        assert ds.x[0] == 1.0

    def test_only_constructor_is_from_arrays(self):
        with pytest.raises(TypeError):
            Dataset([(0.1, 0.2)])

    def test_equal_datasets_hash_alike(self):
        a = Dataset.from_arrays([0.1, LN2], [0.2, 0.4])
        b = Dataset.from_arrays(np.array([0.1, LN2]), (0.2, 0.4))
        assert a == b and hash(a) == hash(b)
        assert a.degenerate_indices == (1,)
        assert a != Dataset.from_arrays([0.1, LN2], [0.2, 0.5])
        assert len({a, b, Dataset.from_arrays([0.1, LN2], [0.2, 0.5])}) == 2

    def test_a_dataset_equals_no_other_type(self):
        # __eq__ leaves any other type to it, so a dataset equals neither
        # its columns nor a tuple of them
        a = Dataset.from_arrays([0.1, 2.0], [0.2, 0.4])
        assert a.__eq__((a.x, a.y)) is NotImplemented
        assert a != (a.x, a.y) and a != "a"

    def test_negative_zero_is_zero(self):
        # a valid coordinate; equal by value, so the hash must not see its sign bit
        neg = Dataset.from_arrays([-0.0], [1.0])
        pos = Dataset.from_arrays([0.0], [1.0])
        assert neg == pos and hash(neg) == hash(pos)
        assert neg.weights.tobytes() == pos.weights.tobytes()

    @pytest.mark.parametrize("x,y", [(-1.0, 0.0), (0.0, -0.5), (float("nan"), 1.0), (1.0, float("inf"))])
    def test_from_arrays_rejects_first_bad_point_like_observation(self, x, y):
        # the first bad point is reported exactly as it is on its own
        with pytest.raises(ValueError) as want:
            Dataset.from_arrays([x], [y])
        with pytest.raises(ValueError) as got:
            Dataset.from_arrays([1.0, x, -5.0], [1.0, y, 1.0])
        assert str(got.value) == str(want.value)

    @given(st.lists(st.tuples(_coordinate, _coordinate), max_size=12))
    def test_from_arrays_checks_points_as_a_loop_does(self, points):
        # the reference: each point in turn through the per-point rule; the
        # first bad one raises, with its own message, whatever follows it
        x = [px for px, _ in points]
        y = [py for _, py in points]
        try:
            for px, py in points:
                model._check_point(px, py)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Dataset.from_arrays(x, y)
            assert str(got.value) == str(exc)
            return
        ds = Dataset.from_arrays(np.array(x), np.array(y))
        assert ds.x.tobytes() == np.array(x, dtype=float).tobytes()
        assert ds.y.tobytes() == np.array(y, dtype=float).tobytes()
        w = model._weights(np.array([x, y], dtype=float)).tolist()
        assert ds.weights.tolist() == w
        assert ds.degenerate_indices == tuple(i for i, v in enumerate(w) if v == 0.0)

    def test_from_arrays_of_empty_arrays_is_the_empty_dataset(self):
        for empty in ([], np.array([]), np.empty(0)):
            ds = Dataset.from_arrays(empty, empty)
            assert ds.n == 0 and ds.degenerate_indices == ()
            assert ds.weights.dtype == np.float64 and ds.weights.size == 0

    def test_from_arrays_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            Dataset.from_arrays([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            Dataset.from_arrays([[1.0]], [[1.0]])

    def test_weight_one_only_at_origin(self):
        ds = dataset([(0.0, 0.0), (1e-9, 0.0)])
        assert ds.weights[0] == 1.0
        assert ds.weights[1] < 1.0


class TestDensity:
    def test_origin(self):
        assert density(0.0, 0.0, 0.5) == 1.5

    def test_independence_at_theta_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, y = rng.exponential(), rng.exponential()
            assert density(x, y, 0.0) == pytest.approx(math.exp(-(x + y)), rel=1e-15)

    def test_ln2_kills_association_term(self):
        assert density(LN2, 3.0, 0.7) == pytest.approx(0.5 * math.exp(-3.0), rel=1e-15)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x, y = rng.exponential(), rng.exponential()
            theta = float(rng.uniform(-1, 1))
            assert density(x, y, theta) >= 0.0

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(ValueError):
            density(1.0, 1.0, 1.5)

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
    def test_integrates_to_one(self, theta):
        val, _ = integrate.dblquad(
            lambda y, x: density(x, y, theta), 0.0, 20.0, 0.0, 20.0,
            epsabs=1e-9,
        )
        assert val == pytest.approx(1.0, abs=1e-4)


class TestLogLikelihood:
    def test_zero_at_theta_zero(self):
        ds = dataset([(0.3, 0.7), (2.0, 0.1)])
        assert log_likelihood(ds, 0.0) == 0.0

    def test_single_term_frozen_value(self):
        assert log_likelihood_weights(np.array([0.5]), 1.0) == pytest.approx(
            0.4054651081081644, abs=1e-12
        )

    def test_two_term_frozen_value(self):
        ll = log_likelihood_weights(np.array([0.5, -0.5]), 0.8)
        assert ll == pytest.approx(-0.17435338714477783, abs=1e-12)

    def test_full_form_subtracts_constant(self):
        ds = dataset([(0.3, 0.7), (2.0, 0.1)])
        free = log_likelihood(ds, 0.4)
        full = log_likelihood(ds, 0.4, include_constant=True)
        assert full == pytest.approx(free - 3.1, rel=1e-12)

    def test_full_form_sums_points_left_to_right(self):
        ds = sample(300, 0.2, 8)
        xy_sum = 0.0
        for x, y in zip(ds.x.tolist(), ds.y.tolist()):
            xy_sum += x + y
        full = log_likelihood(ds, 0.4, include_constant=True)
        assert full == log_likelihood(ds, 0.4) - xy_sum

    def test_minus_inf_sentinel_at_matched_boundary(self):
        # weight exactly +1 (origin) against theta = -1 zeroes the density
        ds = dataset([(0.0, 0.0), (1.0, 1.0)])
        assert log_likelihood(ds, -1.0) == float("-inf")
        assert log_likelihood(ds, 1.0) > 0.0


@pytest.mark.parametrize("call", [log_likelihood_weights, score_weights],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("weights,theta", [
    ([math.inf, 0.5], 0.0),
    ([math.nan, 0.5], 0.5),
    ([math.inf, 0.5], 0.5),
    ([0.5, -math.inf], -1.0),
    ([1.5, 0.5], 0.5),
    ([0.25, -1.0000000000000002], 0.0),
])
def test_weight_entry_points_share_the_range_rule(call, weights, theta):
    # the package's error, as fit_from_weights gives, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^weights must be finite and lie in \[-1, 1\]$"):
            call(weights, theta)


class TestScore:
    def test_theta_zero_gives_weight_sum(self):
        ds = dataset([(0.2, 0.9), (1.4, 0.3), (3.0, 2.2)])
        assert score(ds, 0.0) == float(np.sum(ds.weights))

    def test_symmetric_weights_cancel(self):
        assert score_weights(np.array([0.5, -0.5]), 0.0) == 0.0

    def test_single_weight_frozen_value(self):
        assert score_weights(np.array([0.5]), 0.4) == pytest.approx(0.5 / 1.2, rel=1e-15)

    def test_zero_weights_contribute_nothing(self):
        base = score_weights(np.array([0.4, -0.2]), 0.3)
        padded = score_weights(np.array([0.4, 0.0, -0.2, 0.0]), 0.3)
        assert padded == base

    def test_pole_error_names_index(self):
        ds = dataset([(1.0, 1.0), (0.0, 0.0)])  # second weight exactly 1
        with pytest.raises(PoleError) as err:
            score(ds, -1.0)
        assert err.value.index == 1

    def test_matches_finite_difference(self):
        # derivative of the constant-free log-likelihood, 100 random pairs
        rng = np.random.default_rng(314)
        h = 1e-5
        for _ in range(100):
            n = int(rng.integers(5, 60))
            ds = sample(n, float(rng.uniform(-1, 1)), int(rng.integers(0, 2**31)))
            theta = float(rng.uniform(-0.9, 0.9))
            s = score(ds, theta)
            fd = (log_likelihood(ds, theta + h) - log_likelihood(ds, theta - h)) / (2 * h)
            assert fd == pytest.approx(s, rel=1e-6)

    def test_strictly_decreasing_in_theta(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ds = sample(int(rng.integers(2, 30)), float(rng.uniform(-1, 1)), int(rng.integers(0, 2**31)))
            grid = np.linspace(-0.99, 0.99, 50)
            vals = [score(ds, t) for t in grid]
            assert np.all(np.diff(vals) < 0.0)


class TestCShift:
    def test_reciprocal_of_nonzero_weights_in_order(self):
        ds = dataset([(0.1, 0.4), (LN2, 2.0), (1.5, 0.2)])
        shift = c_shift(ds)
        w = ds.weights
        assert shift.degenerate_indices == (1,)
        assert np.array_equal(shift.values, 1.0 / w[[0, 2]])

    def test_origin_gives_c_one(self):
        shift = c_shift(dataset([(0.0, 0.0)]))
        assert shift.values[0] == 1.0
        assert shift.degenerate_indices == ()

    def test_all_magnitudes_at_least_one(self):
        rng = np.random.default_rng(3)
        ds = Dataset.from_arrays(rng.exponential(size=300), rng.exponential(size=300))
        assert np.all(np.abs(c_shift(ds).values) >= 1.0)

    def test_empty_when_all_degenerate(self):
        shift = c_shift(dataset([(LN2, 1.0), (2.0, LN2)]))
        assert shift.values.size == 0
        assert shift.degenerate_indices == (0, 1)


class TestSample:
    def test_deterministic_in_seed(self):
        a = sample(50, 0.3, 123)
        b = sample(50, 0.3, 123)
        assert a == b
        c = sample(50, 0.3, 124)
        assert a != c

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample(0, 0.5, 1)
        with pytest.raises(ValueError):
            sample(10, 1.5, 1)

    @pytest.mark.parametrize("n", [model._MAX_SAMPLE_SIZE + 1, 2**62, 2**63, 10**30])
    def test_rejects_a_size_whose_draws_numpy_cannot_index(self, n):
        # each size fails the check before any allocation
        assert 2 * 8 * model._MAX_SAMPLE_SIZE <= np.iinfo(np.intp).max
        with pytest.raises(ValueError, match=r"^sample size must be at most \d+, got \d+$"):
            sample(n, 0.3, 1)

    def test_coordinates_strictly_positive_and_finite(self):
        ds = sample(5000, -1.0, 77)
        x, y = ds.x, ds.y
        assert np.all(x > 0) and np.all(y > 0)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))

    def test_independence_at_theta_zero(self):
        # with no association the second stream is untouched uniform inversion
        ds0 = sample(1000, 0.0, 55)
        r = abs(np.corrcoef(ds0.x, ds0.y)[0, 1])
        assert r < 0.08

    def test_exponential_marginal_ks(self):
        ds = sample(20000, 0.8, 11)
        assert stats.kstest(ds.x, "expon").statistic < 0.02

    @pytest.mark.parametrize("theta", [5e-13, -5e-13, 1e-13])
    def test_tiny_dependence_matches_a_50_digit_root(self, theta):
        # the conditional quantile v against the root 2t/((1 + A) + sqrt(D))
        # taken to 50 digits on the same (u, t) draws, through
        # y = -log1p(-v): 4 eps relative in v, carried by dy/dv = 1/(1 - v),
        # plus 4 eps relative in y for log1p; at these A, v and t differ by
        # up to about 5e-13 relative, so t in place of v fails the bound
        n, seed = 2000, 2025
        draws = np.random.default_rng(seed).integers(1, 1 << 53, size=2 * n) * 0.5**53
        got = sample(n, theta, seed).y.tolist()
        with mpmath.workdps(50):
            for u, t, y in zip(draws[:n].tolist(), draws[n:].tolist(), got):
                a = mpmath.mpf(theta) * (1 - 2 * mpmath.mpf(u))
                v = 2 * t / ((1 + a) + mpmath.sqrt((1 + a) ** 2 - 4 * a * t))
                want = -mpmath.log1p(-v)
                bound = 4.0 * np.finfo(float).eps * (float(v) / (1.0 - float(v)) + float(want))
                assert abs(y - want) <= bound

    def test_correlation_tracks_association(self):
        # empirical correlation approximates theta/4 (constant confirmed by
        # quadrature in the acceptance suite)
        ds = sample(100000, 0.8, 11)
        assert np.corrcoef(ds.x, ds.y)[0, 1] == pytest.approx(0.2, abs=0.02)


class TestCsvRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        ds = sample(40, 0.6, 9)
        path = tmp_path / "data.csv"
        write_csv(path, ds)
        assert read_csv(path) == ds

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(DataFormatError) as err:
            read_csv(path)
        assert err.value.line_no == 1

    def test_rejects_non_numeric_row_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n1.0,zzz\n")
        with pytest.raises(DataFormatError) as err:
            read_csv(path)
        assert err.value.line_no == 3

    def test_rejects_negative_row_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n-1.0,2.0\n")
        with pytest.raises(DataFormatError) as err:
            read_csv(path)
        assert err.value.line_no == 2

    def test_rejects_wrong_arity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0,3.0\n")
        with pytest.raises(DataFormatError):
            read_csv(path)

    def test_empty_after_header_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        assert read_csv(path).n == 0


def test_sample_and_write_csv_hold_little_beyond_the_dataset(tmp_path):
    # sample fills the dataset's own buffer and forms the weights a block
    # at a time; write_csv formats a block of rows at a time.  The dataset
    # is 24 bytes a row (x, y and the weights)
    n = 100_000
    sample(10, 0.3, 1)  # first-call set-up, outside the measurement
    if tracemalloc.is_tracing():
        pytest.skip("the process is already tracing its allocations")
    tracemalloc.start()
    try:
        data = sample(n, 0.3, 42)
        sampled = tracemalloc.get_traced_memory()[1] / n
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        write_csv(tmp_path / "data.csv", data)
        written = (tracemalloc.get_traced_memory()[1] - held) / n
    finally:
        tracemalloc.stop()
    assert sampled <= 40, f"sample peaked at {sampled:.1f} bytes per row"
    assert written <= 10, f"write_csv peaked at {written:.1f} bytes per row beyond the dataset"
