"""Command-line front end.

Four subcommands, all emitting a single JSON document on stdout:

* ``sample``    -- write a seeded simulated dataset as CSV
* ``fit``       -- maximum likelihood fit of a CSV dataset
* ``mldegree``  -- ML-degree report for explicit rational shifts or a dataset
* ``verify``    -- randomized cross-check campaign over exact rationals

Exit codes: 0 success (including the structured all-equal answer),
1 verification failures, 2 malformed data or a bad argument, 3
statistical degeneracy (no usable observations).  Every argument rule
lives in the argument's argparse type, so every bad argument (a negative
``sample --seed`` and a zero ``mldegree --c`` shift among them) exits 2
with argparse's usage message, and the subcommands see only parsed
values.  The ``--c`` type checks each literal with the library's own
exact shift-value check, so the rule and its message live only in
:mod:`~fgmexp.polynomials`.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import mldegree, mle, model, polynomials

__all__ = ["VerificationCampaign", "run_campaign", "main"]


@dataclass(frozen=True)
class VerificationCampaign:
    """Outcome of a randomized verification run.

    ``repetition_patterns`` records the forced multiplicity shapes as a
    tuple, each shape a tuple or ``"n"``, or None when each trial draws
    its own.  A passing campaign has an empty ``failures`` tuple; skipped
    trials (the excluded all-equal shape) are noted separately, in the
    ``skipped`` tuple, and do not fail the campaign.  Each failure and
    skipped entry is a read-only mapping whose shift list ``c`` is a
    tuple, so the record cannot be changed through them.
    """

    trials: int
    n_range: tuple[int, int]
    repetition_patterns: tuple | None
    seed: int
    failures: tuple = ()
    skipped: tuple = ()
    checks_run: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "n_range": list(self.n_range),
            "patterns": self.repetition_patterns,
            "seed": self.seed,
            "checks_run": self.checks_run,
            "skipped": _entries_json(self.skipped),
            "failures": _entries_json(self.failures),
            "passed": self.passed,
        }


def _entries_json(entries: tuple) -> tuple[dict, ...]:
    """Failure or skipped entries as the dicts they print as, ``c`` a
    list."""
    return tuple({**entry, "c": list(entry["c"])} for entry in entries)


def _random_pair(rng: random.Random, bound: int = 20) -> tuple[int, int]:
    """A random rational as its lowest-terms (numerator, denominator)
    pair."""
    # numerators and denominators in [1, bound] with random sign, so the
    # values land both inside and outside the data-realizable |c| >= 1
    num = rng.randint(1, bound)
    den = rng.randint(1, bound)
    sign = rng.choice((1, -1))
    g = math.gcd(num, den)
    return sign * num // g, den // g


def _distinct_rationals(rng: random.Random, count: int) -> list[Fraction]:
    # the default draw holds 510 distinct values; a larger count draws
    # from a range holding more than twice as many, about 1.2 bound**2
    bound = 20 if count <= 510 else math.isqrt(2 * count) + 1
    # lowest-terms pairs of ints hash at C speed, where Fractions do not;
    # a Fraction is built only for a new value
    seen: set[tuple[int, int]] = set()
    out: list[Fraction] = []
    while len(out) < count:
        pair = _random_pair(rng, bound)
        if pair not in seen:
            seen.add(pair)
            out.append(Fraction(*pair))
    return out


def _random_pattern(rng: random.Random, n: int) -> tuple[int, ...]:
    """Multiplicities (each >= 2) of the repeated groups; () = all distinct."""
    max_l = min(3, n // 2)
    l = rng.randint(0, max_l)
    if l == 0:
        return ()
    mults = [2] * l
    budget = n - 2 * l
    for i in range(l):
        if budget <= 0:
            break
        extra = rng.randint(0, budget)
        mults[i] += extra
        budget -= extra
    rng.shuffle(mults)
    return tuple(mults)


def _materialize(rng: random.Random, n: int, pattern: tuple[int, ...]) -> list[Fraction]:
    m = sum(pattern)
    singles = n - m
    values = _distinct_rationals(rng, len(pattern) + singles)
    c: list[Fraction] = []
    for mult, v in zip(pattern, values):
        c.extend([v] * mult)
    c.extend(values[len(pattern):])
    rng.shuffle(c)
    return c


def _trial_checks(c: list[Fraction]) -> list[dict]:
    """The three cross-checks on one exact shift multiset, which is read
    once for both routes."""
    failures = []
    kind, shifts, values = polynomials._linear_factors(c)
    prof = mldegree._profile(kind, shifts, values)
    md_formula = mldegree.ml_degree_formula(prof)
    md_algebraic, h = mldegree._algebraic_count_and_h(kind, shifts)
    if md_formula != md_algebraic:
        failures.append(
            {
                "check": "ml-degree-formula-vs-algebraic",
                "detail": f"formula {md_formula} != algebraic {md_algebraic}",
            }
        )
    # h = k' has degree exactly n - 1, so the algebraic count
    # n - 1 - deg gcd(h, k) gives the gcd degree without a second gcd
    gcd_degree = len(c) - 1 - md_algebraic
    has_repeat = prof.l > 0
    if (gcd_degree >= 1) != has_repeat:
        failures.append(
            {
                "check": "common-zero-iff-repeat",
                "detail": f"gcd degree {gcd_degree} vs repeats {has_repeat}",
            }
        )
    for zero, mult in mldegree.common_zeros(prof):
        observed = polynomials.root_multiplicity(h, zero)
        if observed != mult:
            failures.append(
                {
                    "check": "repeated-shift-multiplicity",
                    "detail": f"value {-zero}: multiplicity {observed} != {mult}",
                }
            )
    return failures


def run_campaign(
    trials: int, n_max: int, seed: int, patterns: list | None = None
) -> VerificationCampaign:
    """Run the randomized cross-check campaign.

    Each trial draws a size n in [2, n_max], a repetition pattern (forced
    via ``patterns`` or random), and distinct random rationals to fill
    it, then runs the three checks of :func:`_trial_checks`.  A forced
    shape raises n to its size, sum(shape), plus one for a single group,
    so such a trial can run above ``n_max``, while ``n_range`` still
    reports [2, n_max].  The all-equal shape is recorded as skipped,
    since no ML-degree is defined there.  Failure records carry the full
    shift list for reproduction and are sorted before emission.

    ``trials`` and ``n_max`` are integers (an int, a bool or a numpy
    integer), ``trials >= 1`` and ``n_max >= 2``, checked by the one
    integer check of :mod:`~fgmexp.model`; anything else is a
    ValueError.  ``seed`` seeds ``random.Random``.
    """
    trials = model._integer(trials, 1, "trials")
    n_max = model._integer(n_max, 2, "n_max")
    rng = random.Random(seed)
    failures, skipped, checks_run = [], [], 0
    for trial in range(trials):
        n = rng.randint(2, n_max)
        if patterns:
            shape = rng.choice(patterns)
            if shape == "n":
                pattern = (n,)
            else:
                pattern = tuple(shape)
                n = max(n, sum(pattern))
                if len(pattern) == 1 and sum(pattern) == n:
                    n += 1  # keep one singleton so the shape is not all-equal
        else:
            pattern = _random_pattern(rng, n)
        if len(pattern) == 1 and pattern[0] == n:
            value = Fraction(*_random_pair(rng))
            skipped.append(MappingProxyType(
                {
                    "trial": trial,
                    "c": (str(value),) * n,
                    "note": "all shift values equal: excluded case, boundary MLE applies",
                }
            ))
            continue
        c = _materialize(rng, n, pattern)
        for failure in _trial_checks(c):
            failure["trial"] = trial
            failure["c"] = tuple(map(str, c))
            failures.append(MappingProxyType(failure))
        checks_run += 1
    failures.sort(key=lambda f: (f["trial"], f["check"]))
    if patterns is not None:
        patterns = tuple(shape if shape == "n" else tuple(shape) for shape in patterns)
    return VerificationCampaign(trials, (2, n_max), patterns, seed, tuple(failures),
                                tuple(skipped), checks_run)


# -- subcommands -------------------------------------------------------------


def _emit(doc: dict, pretty: bool) -> None:
    print(json.dumps(doc, indent=2 if pretty else None))


def cmd_sample(args) -> int:
    data = model.sample(args.n, args.theta, args.seed)
    try:
        model.write_csv(args.out, data)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    _emit({"out": args.out, "n": args.n, "theta": args.theta, "seed": args.seed}, args.pretty)
    return 0


def _load(path) -> model.Dataset | None:
    """The dataset at ``path``, or None after reporting why not to stderr."""
    try:
        return model.read_csv(path)
    except model.DataFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    return None


def cmd_fit(args) -> int:
    if (data := _load(args.in_path)) is None:
        return 2
    try:
        result = mle.fit(data)
    except mle.NoDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(result.to_json_dict(), args.pretty)
    return 0


def cmd_mldegree(args) -> int:
    values = args.c
    if values is None:
        if (data := _load(args.in_path)) is None:
            return 2
        shift = model.c_shift(data)
        del data  # the shifts are all the report needs; free the columns before it runs
        if shift.values.size == 0:
            print("error: no usable observations (all weights are zero)", file=sys.stderr)
            return 3
        values = shift.values
    try:
        doc = mldegree.ml_degree_report(values)
    except mldegree.AllEqualError as exc:
        _emit(
            {
                "mode": "exact" if args.c is not None else "approx",
                "n": exc.n,
                "all_equal": True,
                "boundary_mle": exc.boundary_mle,
                "message": str(exc),
            },
            args.pretty,
        )
        return 0
    if args.c is None:
        doc["dropped"] = len(shift.degenerate_indices)
    _emit(doc, args.pretty)
    return 0


def cmd_verify(args) -> int:
    campaign = run_campaign(args.trials, args.n_max, args.seed, args.pattern)
    _emit(campaign.to_json_dict(), args.pretty)
    return 0 if campaign.passed else 1


# -- argument parsing ---------------------------------------------------------


def _int_arg(low: int, name: str, high: int | None = None):
    """Argument type: an integer no less than ``low`` (and no more than
    ``high``, if given), by the model's one integer check."""
    return _value_arg(lambda text: model._integer(int(text), low, name, high))


def _pattern_arg(text: str):
    """Argument type: ``"n"`` (all equal), or a tuple of multiplicities >= 2."""
    if text.strip() == "n":
        return "n"
    return tuple(map(_int_arg(2, "multiplicity"), text.split(",")))


def _value_arg(parse):
    """Argument type from a parser that raises ValueError, whose message
    becomes the usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _shift_arg(text: str) -> Fraction:
    """Argument type: a ``p/q`` literal that the shift-value rule of
    :mod:`~fgmexp.polynomials` accepts as one value."""
    value = polynomials.parse_rational(text)
    polynomials._linear_factors([value])
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgmexp",
        description="FGM bivariate exponential: sampling, fitting, ML-degree.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common], help="write a simulated CSV dataset")
    p.add_argument("--n", type=_int_arg(1, "sample size", model._MAX_SAMPLE_SIZE),
                   required=True, help="sample size")
    p.add_argument("--theta", type=_value_arg(lambda text: model.validate_theta(float(text))),
                   required=True, help="association in [-1, 1]")
    p.add_argument("--seed", type=_int_arg(0, "seed"), required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", parents=[common], help="maximum likelihood fit from CSV")
    p.add_argument("--in", dest="in_path", required=True, help="input CSV path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mldegree", parents=[common], help="ML-degree report")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--c", nargs="+", type=_value_arg(_shift_arg),
                       help="explicit nonzero shift values as p/q literals (exact)")
    group.add_argument("--in", dest="in_path", help="dataset CSV path (approximate)")
    p.set_defaults(func=cmd_mldegree, c=None, in_path=None)

    p = sub.add_parser("verify", parents=[common], help="randomized cross-check campaign")
    p.add_argument("--trials", type=_int_arg(1, "trials"), default=500)
    p.add_argument("--n-max", dest="n_max", type=_int_arg(2, "n_max"), default=10)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--pattern",
        action="append",
        type=_pattern_arg,
        help="force repetition shapes, e.g. '2,2' or '3'; 'n' means all equal "
        "(repeatable; default draws a random shape per trial); a trial grows "
        "to hold its shape, above --n-max if need be",
    )
    p.set_defaults(func=cmd_verify)
    # a token that starts with "-" and a digit, or "-." and a digit, is a
    # value: -9/12, -1.5, -.5 and -1e-3 alike (no option starts so)
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
