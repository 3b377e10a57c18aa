"""The input contract of every public entry point.

Each test draws adversarial inputs: strings, None, bools and complex
values; 0-d, 2-D and object arrays; huge ints and tiny Fractions; NaN
and +-inf; and every numpy integer and float dtype.  A call must return
what the same call returns on the canonical form of its input (exact
Fractions or floats, a float64 weight vector, a float theta, Python
ints), or, where the input has no canonical form, raise a documented
exception type with one of the package's own messages.  The canonical
forms are written out here from the README's table, not taken from the
package.
"""

import dataclasses
import json
import re
import warnings
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fgmexp
from fgmexp import cli, mldegree, mle, model, polynomials, roots
from fgmexp.cli import run_campaign
from fgmexp.mldegree import ml_degree_algebraic, ml_degree_report, profile
from fgmexp.mle import NoDataError, fit, fit_from_weights
from fgmexp.model import (
    PoleError,
    log_likelihood_weights,
    sample,
    score_weights,
    validate_theta,
)
from fgmexp.polynomials import Poly, ScalarModeError, build_k, root_multiplicity
from fgmexp.roots import complex_roots, score_root_from_weights

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
FLOAT_DTYPES = [np.float16, np.float32, np.float64, np.longdouble]
RATIONAL = (Fraction, int, np.integer, np.bool_)
FLOAT = (float, np.floating)

# every message a bad input may get, and the types that carry them
MESSAGES = [
    r"shift values must be one-dimensional, all rational or all float",
    r"need at least one shift value",
    r"shift values must be nonzero",
    r"shift values must be finite and nonzero",
    r"all \d+ shift values equal .*",
    r"weights must be one-dimensional bools, integers or floats",
    r"weights must be finite and lie in \[-1, 1\]",
    r"score root needs at least one nonzero weight",
    r"all observations have zero weight; .*",
    r"score undefined at theta=.*",
    r"association parameter must be a real number in \[-1, 1\], got .*",
    r"(sample size|seed|trials|n_max) must be an integer >= \d+, got .*",
    r"sample size must be at most \d+, got .*",
    r"coefficients of a rational polynomial must be one-dimensional and all rational",
    r"points of a rational polynomial must be rational",
    r"every point is a root of the zero polynomial",
    r"root finding needs degree >= 1",
    r"the root census needs coefficients and residual scales within the float range",
]
DOCUMENTED = (ValueError, ScalarModeError, PoleError, OverflowError)

SETTINGS = settings(max_examples=150, deadline=None)


def outcome(call, *args):
    """What a call gives: its result in a comparable form, or the type
    and message of what it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = call(*args)
    except Exception as exc:  # noqa: BLE001 -- every outcome is compared
        return ("raised", type(exc), str(exc))
    if isinstance(result, model.Dataset):
        return ("returned", result.x.tobytes(), result.y.tobytes())
    if isinstance(result, dict):
        return ("returned", json.dumps(result, sort_keys=True))
    if isinstance(result, mldegree.MultiplicityProfile):
        return ("returned", result.mode, repr(list(result.values)), result.mults.tolist())
    if hasattr(result, "to_json_dict"):
        return ("returned", json.dumps(result.to_json_dict(), sort_keys=True))
    return ("returned", repr(result))


def check(call, raw, canonical):
    """``call(*raw)`` gives what ``call(*canonical)`` gives, or, when
    ``canonical`` is None, raises a documented type with a package
    message."""
    got = outcome(call, *raw)
    if canonical is not None:
        assert got == outcome(call, *canonical)
        return
    assert got[0] == "raised", got
    assert issubclass(got[1], DOCUMENTED), got
    assert any(re.fullmatch(m, got[2]) for m in MESSAGES), got


# -- adversarial values -------------------------------------------------------

def numpy_scalars(dtypes):
    return st.one_of(*[hnp.from_dtype(np.dtype(t)) for t in dtypes])


huge_ints = st.integers(10**300, 10**420) | st.integers(-(10**420), -(10**300))
tiny_fractions = st.builds(lambda s, k: Fraction(s, 10**k), st.sampled_from((1, -1)),
                           st.integers(300, 420))
numpy_fractions = st.builds(lambda a, b: Fraction(np.int64(a), np.int64(b)),
                            st.integers(-(2**40), 2**40), st.integers(1, 2**20))
bad_values = st.one_of(
    st.sampled_from(["1.5", "2", "", None, 1j, np.complex128(2 + 0j), [1.0], (2,)]),
    st.complex_numbers(max_magnitude=5),
    st.text(max_size=3),
)
rational_values = st.one_of(
    st.integers(-30, 30), huge_ints, st.booleans(), st.sampled_from([np.True_, np.False_]),
    st.fractions(max_denominator=50), tiny_fractions, numpy_fractions,
    numpy_scalars(INT_DTYPES),
)
float_values = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf")]),
    numpy_scalars(FLOAT_DTYPES),
)

all_dtypes = st.sampled_from([*INT_DTYPES, *FLOAT_DTYPES, np.bool_, np.complex128, "U3"])


def arrays(elements):
    """0-d, 1-D and 2-D arrays of every dtype, and object arrays of
    ``elements``."""
    shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
    return st.one_of(hnp.arrays(all_dtypes, shapes),
                     st.lists(elements, max_size=6).map(_object_array))


def _object_array(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


class OneShot:
    """Values to be passed as an iterator, which can be read only once."""

    def __init__(self, values):
        self.values = values


@st.composite
def sequences(draw, families):
    """A list, a tuple or an iterator of values of one family, now and
    then with one value of another; or an array."""
    family = draw(st.sampled_from(families))
    values = draw(st.lists(family, max_size=6))
    if values and draw(st.integers(0, 4)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.one_of(*families, bad_values))
    form = draw(st.sampled_from([list, tuple, OneShot, np.ndarray]))
    return draw(arrays(st.one_of(*families))) if form is np.ndarray else form(values)


def split(raw):
    """The argument to pass, and the values the canonical form is made of."""
    return (iter(raw.values), raw.values) if isinstance(raw, OneShot) else (raw, raw)


# -- canonical forms ----------------------------------------------------------

def exact(v):
    """A rational value as a Fraction of Python ints."""
    if isinstance(v, Fraction):
        return Fraction(int(v.numerator), int(v.denominator))
    return Fraction(int(v))


def canonical_shifts(values):
    """All-rational values as Fractions of Python ints, all-float values
    as a float64 array, in one dimension; None for anything else.  An
    array of a bool, integer or float dtype has the kind of its dtype,
    and one of any other dtype but object has no kind, even when it is
    empty."""
    kind = None
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype.kind not in "biufO":
            return None
        kind = {"b": RATIONAL, "i": RATIONAL, "u": RATIONAL, "f": FLOAT}.get(values.dtype.kind)
    values = list(values)
    if kind is not FLOAT and all(isinstance(v, RATIONAL) for v in values):
        return [exact(v) for v in values]
    if kind is not RATIONAL and all(isinstance(v, FLOAT) for v in values):
        # an array, which keeps the kind of no values
        return np.array([float(v) for v in values], dtype=np.float64)
    return None


def canonical_weights(raw):
    """The float64 vector of a one-dimensional bool, integer or float
    array, as numpy makes one of the values; None for anything else, an
    iterator among them (numpy makes it a 0-d object array)."""
    try:
        arr = np.asarray(raw)
    except ValueError:
        return None
    if arr.ndim != 1 or arr.dtype.kind not in "biuf":
        return None
    return arr.astype(np.float64)


def canonical_theta(theta):
    """A float for a real number in [-1, 1], compared exactly."""
    if isinstance(theta, (float, int, np.floating, np.integer, Fraction)) and -1 <= theta <= 1:
        return float(theta)
    return None


def canonical_coeffs(values):
    """Coefficients as :func:`canonical_shifts` makes them, when they are
    rational; no values of either kind are the zero polynomial."""
    coeffs = canonical_shifts(values)
    if coeffs is None or (len(coeffs) and isinstance(coeffs, np.ndarray)):
        return None
    return coeffs


def canonical_point(value):
    """A point of a rational polynomial as a Fraction of Python ints."""
    return exact(value) if isinstance(value, RATIONAL) else None


def canonical_int(value, low, high=float("inf")):
    if isinstance(value, (int, np.integer)) and low <= value <= high:
        return int(value)
    return None


# the bound on a sample size, from the README's table
MAX_SAMPLE_SIZE = 2**59 - 1


shift_inputs = st.one_of(sequences([rational_values]), sequences([float_values]),
                         sequences([rational_values, float_values, bad_values]))
weight_values = st.one_of(st.floats(-1, 1), st.integers(-1, 1), st.booleans(),
                          numpy_scalars([*INT_DTYPES, *FLOAT_DTYPES]), float_values,
                          huge_ints, tiny_fractions)
weight_inputs = st.one_of(sequences([weight_values]), sequences([weight_values, bad_values]))
theta_values = st.one_of(
    st.floats(-1, 1), float_values, st.integers(-2, 2), huge_ints, st.booleans(),
    st.fractions(min_value=-2, max_value=2), tiny_fractions,
    st.sampled_from([Fraction(10**20 + 1, 10**20), -Fraction(10**20 + 1, 10**20)]),
    numpy_scalars([*INT_DTYPES, *FLOAT_DTYPES]), bad_values,
    hnp.arrays(np.float64, ()),
)


def int_values(low, high):
    """Integers from ``low`` to ``high`` in every integer type, and the
    values below ``low`` and the non-integers an integer check must
    refuse.  No huge valid size: it would allocate."""
    return st.one_of(
        st.integers(low, high),
        st.integers(low, high).flatmap(lambda v: st.sampled_from(
            [t(v) for t in INT_DTYPES if np.iinfo(t).min <= v <= np.iinfo(t).max])),
        st.sampled_from([True, False]),
        st.integers(-(10**420), low - 1),
        st.floats(), st.sampled_from([2.0, np.float64(3.0), Fraction(3), "3"]),
        bad_values,
    )


# -- one test per entry point -------------------------------------------------

@pytest.mark.parametrize("entry_point", [profile, build_k, ml_degree_algebraic, ml_degree_report],
                         ids=lambda f: f.__name__)
@SETTINGS
@given(raw=shift_inputs)
def test_shift_values(entry_point, raw):
    arg, values = split(raw)
    canonical = canonical_shifts(values)
    check(entry_point, [arg], None if canonical is None else [canonical])


@pytest.mark.parametrize("entry_point", [fit_from_weights, score_root_from_weights],
                         ids=lambda f: f.__name__)
@SETTINGS
@given(raw=weight_inputs)
def test_weights(entry_point, raw):
    arg, _ = split(raw)
    canonical = canonical_weights(arg)
    check(entry_point, [arg], None if canonical is None else [canonical])


@pytest.mark.parametrize("entry_point", [log_likelihood_weights, score_weights],
                         ids=lambda f: f.__name__)
@SETTINGS
@given(raw=weight_inputs, theta=theta_values)
def test_weights_and_theta(entry_point, raw, theta):
    arg, _ = split(raw)
    weights, t = canonical_weights(arg), canonical_theta(theta)
    valid = weights is not None and t is not None
    check(entry_point, [arg, theta], [weights, t] if valid else None)


@SETTINGS
@given(theta=theta_values)
def test_validate_theta(theta):
    t = canonical_theta(theta)
    check(validate_theta, [theta], None if t is None else [t])


# sizes past the bound, which are refused before anything is allocated
too_large_sizes = st.integers(MAX_SAMPLE_SIZE + 1, 10**30) | st.sampled_from(
    [np.int64(MAX_SAMPLE_SIZE + 1), np.int64(2**63 - 1), np.uint64(2**64 - 1)])


@SETTINGS
@given(n=int_values(1, 12) | too_large_sizes, theta=theta_values,
       seed=st.one_of(int_values(0, 2**40), huge_ints))
def test_sample(n, theta, seed):
    args = [canonical_int(n, 1, MAX_SAMPLE_SIZE), canonical_theta(theta), canonical_int(seed, 0)]
    check(sample, [n, theta, seed], None if None in args else args)


@pytest.mark.parametrize("kind", ["rational", "float"])
@SETTINGS
@given(data=st.data())
def test_poly_coefficients(kind, data):
    # every shift input, or float values now and then with a stray one:
    # only rational values make a polynomial
    raw = data.draw(shift_inputs if kind == "rational" else sequences([float_values]))
    arg, values = split(raw)
    canonical = canonical_coeffs(values)
    check(Poly, [arg], None if canonical is None else [canonical])


def times_linear(coeffs, r):
    """The ascending coefficients of (theta - r) times those given."""
    return [-r * a + b for a, b in zip([*coeffs, 0], [0, *coeffs])]


@pytest.mark.parametrize("entry_point", [Poly.eval, root_multiplicity],
                         ids=["Poly.eval", "root_multiplicity"])
@SETTINGS
@given(coeffs=st.lists(st.fractions(max_denominator=50), max_size=4),
       point=st.one_of(rational_values, float_values, bad_values), repeats=st.integers(0, 3))
def test_rational_points(entry_point, coeffs, point, repeats):
    # a rational point is a root of p that many times more
    r = canonical_point(point)
    for _ in range(repeats if r is not None else 0):
        coeffs = times_linear(coeffs, r)
    p = Poly(coeffs)
    check(entry_point, [p, point], None if r is None else [p, r])


@settings(max_examples=60, deadline=None)
@given(trials=int_values(1, 2), n_max=int_values(2, 6), seed=st.integers(0, 2**31))
def test_run_campaign(trials, n_max, seed):
    args = [canonical_int(trials, 1), canonical_int(n_max, 2), seed]
    check(run_campaign, [trials, n_max, seed], None if None in args else args)


# -- the decisions the contract makes -----------------------------------------

@given(st.lists(st.booleans(), max_size=6))
def test_bool_list_and_bool_array_agree(bools):
    for entry_point in (profile, build_k, ml_degree_algebraic, ml_degree_report, Poly):
        assert outcome(entry_point, bools) == outcome(entry_point, np.array(bools, dtype=bool))
    p = Poly([-1, 1])
    for b in bools:
        for entry_point in (Poly.eval, root_multiplicity):
            assert outcome(entry_point, p, b) == outcome(entry_point, p, np.bool_(b))


@pytest.mark.parametrize("call", [
    lambda: build_k(np.array([], dtype="U3")),
    lambda: profile(np.array([], dtype=complex)),
    lambda: Poly(np.array([], dtype=complex)),
], ids=["build_k", "profile", "rational Poly"])
def test_empty_array_of_neither_kind_has_no_kind(call):
    # its dtype decides, so no values do not make it rational
    with pytest.raises(ScalarModeError):
        call()


def test_fraction_of_numpy_integers_is_exact():
    # six shifts near 2**40 / 3 whose parts are numpy integers: products
    # of them wrap in int64, so they must enter the arithmetic as ints
    c = [Fraction(np.int64(2**40 + k), np.int64(3)) for k in range(1, 7)]
    ints = [Fraction(2**40 + k, 3) for k in range(1, 7)]
    assert type(c[0].numerator) is np.int64
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert build_k(c) == build_k(ints)
        doc = ml_degree_report(c)
    assert doc == ml_degree_report(ints)
    assert doc["oracle"] == {"formula": 5, "algebraic": 5, "agree": True}


def test_numpy_integer_fractions_as_coefficients_and_points():
    # 2**62 times 2**20 wraps in int64; the parts must enter as ints
    big = Fraction(np.int64(2**62), np.int64(1))
    small = Fraction(np.int64(1), np.int64(2**20))
    point = Fraction(np.int64(2**40), np.int64(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert Poly([big, small]) == Poly([Fraction(2**62), Fraction(1, 2**20)])
        value = Poly([1, 1, 1]).eval(point)
        k = build_k([-point, -point, 5])
        assert root_multiplicity(k, point) == 2
    assert value == Poly([1, 1, 1]).eval(Fraction(2**40, 3))
    assert type(value.numerator) is int


@pytest.mark.parametrize("call", [
    lambda: profile(["1.5", "2"]),
    lambda: profile([10**400, 0.5]),
    lambda: profile([Fraction(1, 10**400), 0.5]),
    lambda: profile(np.ones((2, 2))),
    lambda: ml_degree_report(np.ones((2, 2))),
    lambda: fit_from_weights(np.full((2, 2), 0.5)),
    lambda: fit_from_weights(["0.5", "0.2"]),
    lambda: sample(2.5, 0.3, 1),
    lambda: sample(5, 0.3, None),
    lambda: model.log_likelihood(sample(5, 0.3, 1), "0.5"),
    lambda: run_campaign(2.5, 5, 1),
    lambda: validate_theta(10**400),
    # a bool is an int, so bools and floats are a mixture
    lambda: profile([True, 0.5]),
    lambda: Poly([0.5, 1]),
    lambda: Poly(["1/3", 1]),
    lambda: Poly(np.array([1.5, 2.5])),
    lambda: root_multiplicity(build_k([Fraction(1, 2), Fraction(1, 2), Fraction(3)]), -0.5),
    lambda: root_multiplicity(build_k([Fraction(1, 2), Fraction(1, 2), Fraction(3)]), "-1/2"),
    lambda: Poly([1, 1]).eval(0.5),
    lambda: Poly([1.0, float("inf")]),
    lambda: sample(2**59, 0.3, 1),
    lambda: complex_roots(Poly([3])),
    lambda: complex_roots(Poly([1, 10**400])),
    lambda: complex_roots(Poly((10**300, Fraction(1, 10**10)))),
], ids=[
    "profile of strings", "profile of a huge int and a float",
    "profile of a tiny Fraction and a float", "profile of a 2-D array", "report of a 2-D array",
    "fit of a 2-D array", "fit of strings", "sample of a float size", "sample with no seed",
    "log-likelihood at a string theta", "campaign of a float trial count", "theta a huge int",
    "profile of a bool and a float", "rational Poly of a float", "rational Poly of a string",
    "rational Poly of a float array", "multiplicity at a float",
    "multiplicity at a string", "rational Poly at a float", "float Poly of an infinity",
    "sample of a size past the bound", "census of a constant", "census past the float range",
    "census of a companion entry past the float range",
])
def test_probe_gets_a_package_error(call):
    check(call, [], None)


def test_all_zero_weights_of_any_type_are_no_data():
    with pytest.raises(NoDataError):
        fit_from_weights([0, False, 0.0, np.int8(0)])


# -- immutable public records --------------------------------------------------

# the package docstring promises that every public type is immutable
PUBLIC_CLASSES = sorted(
    {obj for module in (fgmexp, model, polynomials, roots, mldegree, mle, cli)
     for obj in map(module.__dict__.get, module.__all__)
     if isinstance(obj, type) and not issubclass(obj, BaseException)},
    key=lambda cls: cls.__name__,
)
MUTABLE = (list, dict, set, bytearray)


def _failing_campaign():
    """A campaign with failure entries: every multiplicity reads 0."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "root_multiplicity", lambda h, z: 0)
        return run_campaign(5, 6, 1, [[2, 2]])

RECORDS = {
    "exact profile": lambda: profile([Fraction(1, 2), 3, Fraction(1, 2)]),
    "float profile": lambda: profile(np.array([2.0, 2.0, 3.0])),
    "census": lambda: complex_roots(Poly((1, 2, 1))),
    "fit": lambda: fit(sample(50, 0.3, 1)),
    "campaign": lambda: run_campaign(5, 6, 1, [[2, 2], "n"]),
    "failing campaign": lambda: _failing_campaign(),
    "c_shift": lambda: model.c_shift(sample(50, 0.3, 1)),
    "sample": lambda: sample(50, 0.3, 1),
    "Poly": lambda: Poly([1, Fraction(1, 3), 2]),
}


@pytest.mark.parametrize("cls", PUBLIC_CLASSES, ids=lambda cls: cls.__name__)
def test_every_public_record_type_is_frozen(cls):
    # a frozen dataclass, or a named tuple, which is a tuple
    if dataclasses.is_dataclass(cls):
        assert cls.__dataclass_params__.frozen
    else:
        assert issubclass(cls, tuple)


def is_mutable(value):
    return isinstance(value, MUTABLE) or (isinstance(value, np.ndarray) and value.flags.writeable)


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_public_records_hold_no_mutable_field(make):
    # each field, each item of a tuple field, and each value of an item
    # that is a mapping
    record = make()
    assert type(record) in PUBLIC_CLASSES
    fields = ([f.name for f in dataclasses.fields(record)] if dataclasses.is_dataclass(record)
              else record._fields)
    for name in fields:
        value = getattr(record, name)
        assert not is_mutable(value), name
        for item in value if isinstance(value, tuple) else ():
            assert not is_mutable(item), name
            for inner in item.values() if isinstance(item, Mapping) else ():
                assert not is_mutable(inner), name
