import hashlib
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fgmexp import cli, mldegree, model, polynomials
from fgmexp.cli import main, run_campaign


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestSample:
    def test_writes_reproducible_csv(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _ = run_cli(capsys, "sample", "--n", "5", "--theta", "0", "--seed", "1", "--out", str(p1))
        code2, _ = run_cli(capsys, "sample", "--n", "5", "--theta", "0", "--seed", "1", "--out", str(p2))
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == "x,y"
        assert len(p1.read_text().splitlines()) == 6

    def test_csv_bytes_match_golden_hash(self, tmp_path):
        # digest of this file as csv.writer wrote it; writing the
        # columns in one join must reproduce it byte for byte; the second
        # digest is of the sample drawn on numpy's AVX2 and baseline loops
        path = tmp_path / "g.csv"
        assert main(["sample", "--n", "1000", "--theta", "0.3", "--seed", "42",
                     "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() in (
            "fca709933b6bb11757b032bd6377cab9f6623e29b94385d48eae446974018cd6",
            "f7ad46c9e2eda534e917f62cddb1495b144bed00eaafbbb509854a5277787254",
        )

    def test_rejects_theta_out_of_range_before_io(self, tmp_path):
        out = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as err:
            main(["sample", "--n", "5", "--theta", "1.5", "--seed", "1", "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    def test_negative_exponent_theta_is_a_value(self, tmp_path, capsys):
        code, doc = run_cli(capsys, "sample", "--n", "3", "--theta", "-1e-3", "--seed", "1",
                            "--out", str(tmp_path / "f.csv"))
        assert code == 0
        assert doc["theta"] == -1e-3

    def test_rejects_zero_n(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--n", "0", "--theta", "0", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s.csv"
        assert main(["sample", "--n", "3", "--theta", "0.3", "--seed", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")


# every row at x = ln 2 has weight 0, and a header alone has no rows
DEGENERATE_ROWS = f"{math.log(2.0)!r},1.0\n{math.log(2.0)!r},2.5\n"
NO_DATA = {
    "fit": "error: all observations have zero weight; the likelihood is flat in theta "
           "and no MLE exists\n",
    "mldegree": "error: no usable observations (all weights are zero)\n",
}


def check_no_usable_rows(tmp_path, capsys, sub, rows):
    path = tmp_path / "none.csv"
    path.write_text("x,y\n" + rows)
    assert main([sub, "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == NO_DATA[sub]


class TestFit:
    def test_symmetric_weights_fit_zero(self, tmp_path, capsys):
        # weights come out exactly (0.5, -0.5) for these coordinates
        path = tmp_path / "sym.csv"
        path.write_text(f"x,y\n{-math.log(0.75)!r},0.0\n{math.log(4.0)!r},0.0\n")
        code, doc = run_cli(capsys, "fit", "--in", str(path))
        assert code == 0
        assert doc["theta_hat"] == 0.0
        assert doc["at_boundary"] is False
        assert set(doc) == {"theta_hat", "loglik", "at_boundary", "n_effective", "dropped"}

    def test_all_degenerate_rows_exit_3(self, tmp_path, capsys):
        check_no_usable_rows(tmp_path, capsys, "fit", DEGENERATE_ROWS)

    def test_empty_after_header_exit_3(self, tmp_path, capsys):
        check_no_usable_rows(tmp_path, capsys, "fit", "")

    def test_malformed_row_exit_2_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\nbogus,3.0\n")
        assert main(["fit", "--in", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["fit", "--in", str(tmp_path / "nope.csv")]) == 2

    def test_round_trip_sample_fit(self, tmp_path, capsys):
        # 50 seeded (n, theta) combinations consume without error
        rng = np.random.default_rng(17)
        for i in range(50):
            n = int(rng.integers(1, 40))
            theta = float(rng.uniform(-1, 1))
            path = tmp_path / f"rt{i}.csv"
            code, _ = run_cli(
                capsys, "sample", "--n", str(n), "--theta", repr(theta), "--seed", str(i), "--out", str(path)
            )
            assert code == 0
            code, doc = run_cli(capsys, "fit", "--in", str(path))
            assert code == 0
            assert -1.0 <= doc["theta_hat"] <= 1.0


@pytest.mark.parametrize("rows", [DEGENERATE_ROWS, ""], ids=["all degenerate rows", "empty after header"])
def test_mldegree_no_usable_rows_exit_3(tmp_path, capsys, rows):
    check_no_usable_rows(tmp_path, capsys, "mldegree", rows)


@pytest.mark.parametrize("sub", ["fit", "mldegree"])
def test_undecodable_bytes_exit_2_with_line_number(tmp_path, capsys, sub):
    path = tmp_path / "bin.csv"
    path.write_bytes(b"x,y\n1.0,2.0\n\xff\xfe\n")
    assert main([sub, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3: cannot decode byte 0xff" in captured.err


@pytest.mark.parametrize("sub", ["fit", "mldegree"])
def test_field_over_the_csv_size_limit_exit_2_with_line_number(tmp_path, capsys, sub):
    path = tmp_path / "long.csv"
    path.write_text("x,y\n0.5,0.25\n" + "1" * 200000 + ",0.5\n")
    assert main([sub, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3: field larger than field limit" in captured.err


# digests of the compact JSON on stdout, taken before the campaign reused
# the algebraic route's gcd instead of computing its own
@pytest.mark.parametrize("argv,digest", [
    (["verify", "--seed", "7"],
     "c272d1643d219448aac8feccf5823c275898a5ff267343ff8ced10f9621ce253"),
    (["verify", "--n-max", "12", "--pattern", "2,2", "--pattern", "3", "--pattern", "n"],
     "4f81b00958a6ae02dfc274dfa23b8291e030a2cd560ed13e4f03ae27e486e7c0"),
    (["mldegree", "--c", "1", "1", "2", "-9/12", "5"],
     "04804f95f54e1fca93795df8a14ebb511091e8295a30c3d62009a6159d5ef328"),
    # a repeated shift with a 1329-bit denominator, the shape of
    # 1e-4299 1e-4299 1, whose gcd took 89 modular images before the
    # count deflated h
    (["mldegree", "--c", "1e-400", "1e-400", "1"],
     "999c3118dbfbd09f691168b8887b3ec94aeeda29b584c61b8c013b883a702326"),
])
def test_output_matches_golden_hash(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _repeated_groups_csv(path):
    """A seeded sample with copies of rows 7, 2, 2 and 5 appended, so
    rows 2, 5 and 7 form groups of sizes 3, 2 and 2 whose first
    appearances are not in the order of their shift values."""
    assert main(["sample", "--n", "200", "--theta", "0.3", "--seed", "42", "--out", str(path)]) == 0
    lines = path.read_text().splitlines(keepends=True)
    rows = lines[1:]
    path.write_text("".join(lines + [rows[7], rows[2], rows[2], rows[5]]))


def _all_equal_csv(path):
    path.write_text("x,y\n0.1,0.2\n0.1,0.2\n0.1,0.2\n")


# the fit of the sample rests on numpy's exp, log1p and log; its digest
# on numpy's AVX2 and baseline loops, which round differently from its
# AVX-512 ones
OTHER_LOOPS = {
    "52a12bd4fa5f1a7b8b94389579be5f253653d05636e91f58c4029adb3af76480":
        "3611dd0ceef17902a1d783b8408cf5bf08fe83152f0518320e67c14f71d01532",
}


# digests of the compact JSON on stdout, taken before the multiplicity
# profile became two columns
@pytest.mark.parametrize("make,sub,digest", [
    (_repeated_groups_csv, "fit",
     "52a12bd4fa5f1a7b8b94389579be5f253653d05636e91f58c4029adb3af76480"),
    (_repeated_groups_csv, "mldegree",
     "1804835492a7f66caa4e7a02b4d6aef98a8b71c15a4bec74723742e5474e35e2"),
    (_all_equal_csv, "fit",
     "d6ee8a9eb38f00f73db8fde18af25d426bddf4172c1aafde8973dd33dd53099d"),
    (_all_equal_csv, "mldegree",
     "cfb3b4564ae7fcdb0b0dc3ce27ecbfe2bb3fb9f5d452cfed3fb7e910836ea497"),
])
def test_dataset_output_matches_golden_hash(tmp_path, capsys, make, sub, digest):
    path = tmp_path / "d.csv"
    make(path)
    capsys.readouterr()
    assert main([sub, "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() in (digest, OTHER_LOOPS.get(digest))


class TestMlDegree:
    def test_worked_example(self, capsys):
        code, doc = run_cli(capsys, "mldegree", "--c", "1", "1", "2")
        assert code == 0
        assert doc["ml_degree"] == 1
        assert doc["common_zeros"] == [{"value": "-1", "mult": 1}]
        assert doc["oracle"]["agree"] is True

    def test_distinct_pair(self, capsys):
        code, doc = run_cli(capsys, "mldegree", "--c", "2", "-4")
        assert code == 0
        assert doc["ml_degree"] == 1
        assert doc["common_zeros"] == []

    def test_negative_fraction_literals(self, capsys):
        code, doc = run_cli(capsys, "mldegree", "--c", "-9/12", "-3/4", "5")
        assert code == 0
        assert doc["n"] == 3 and doc["p"] == 2  # -9/12 == -3/4

    @pytest.mark.parametrize("c", [
        ["-1.5", "-1.5", "2"],
        ["-1e-3", "-1e-3", "2"],
        ["-.5", "-.5", "2"],
        ["2", "-1.5", "-1.5"],
        ["-9/12", "-9/12", "5"],
    ])
    def test_negative_decimal_and_exponent_literals_are_values(self, capsys, c):
        # a token of "-" and a digit, or "-." and a digit, is a value, not
        # an option, wherever it stands; the repeated value is reported
        # as its common zero
        code, doc = run_cli(capsys, "mldegree", "--c", *c)
        assert code == 0
        value = min(c, key=polynomials.parse_rational)
        assert doc["common_zeros"] == [{"value": str(-polynomials.parse_rational(value)), "mult": 1}]

    def test_all_equal_is_an_answer_not_a_failure(self, capsys):
        code, doc = run_cli(capsys, "mldegree", "--c", "3", "3", "3", "3")
        assert code == 0
        assert doc["all_equal"] is True
        assert doc["boundary_mle"] == 1

    def test_all_equal_negative_boundary(self, capsys):
        code, doc = run_cli(capsys, "mldegree", "--c", "-2", "-2")
        assert code == 0
        assert doc["boundary_mle"] == -1

    def test_dataset_input_uses_approx_mode(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        run_cli(capsys, "sample", "--n", "8", "--theta", "0.4", "--seed", "5", "--out", str(path))
        code, doc = run_cli(capsys, "mldegree", "--in", str(path))
        assert code == 0
        assert doc["mode"] == "approx"
        assert doc["ml_degree"] == 7  # continuous data: all distinct
        assert "caveat" in doc
        assert doc["dropped"] == 0

    def test_bad_literal_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["mldegree", "--c", "x/y"])
        assert err.value.code == 2

    def test_requires_exactly_one_input(self):
        with pytest.raises(SystemExit) as err:
            main(["mldegree"])
        assert err.value.code == 2


def zero_exponents(patch):
    """Make every trial measure each common zero's multiplicity as 0,
    with the count itself left right."""
    real = mldegree._algebraic_count_and_exponents
    patch.setattr(mldegree, "_algebraic_count_and_exponents",
                  lambda kind, shifts: (real(kind, shifts)[0], {}))


class TestVerify:
    def test_default_campaign_passes(self, capsys):
        # stock invocation: 500 trials, n up to 10, seed 7
        code, doc = run_cli(capsys, "verify")
        assert code == 0
        assert doc["passed"] is True
        assert doc["failures"] == []
        assert doc["trials"] == 500 and doc["n_range"] == [2, 10]
        assert doc["checks_run"] + len(doc["skipped"]) == 500

    def test_forced_all_equal_pattern_is_skipped(self, capsys):
        code, doc = run_cli(capsys, "verify", "--trials", "1", "--n-max", "6", "--seed", "3", "--pattern", "n")
        assert code == 0
        assert doc["checks_run"] == 0
        assert len(doc["skipped"]) == 1
        assert "excluded" in doc["skipped"][0]["note"]

    def test_forced_shapes(self, capsys):
        code, doc = run_cli(
            capsys, "verify", "--trials", "20", "--n-max", "9", "--seed", "11",
            "--pattern", "2,2", "--pattern", "3",
        )
        assert code == 0
        assert doc["checks_run"] == 20

    def test_zero_trials_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--trials", "0"])
        assert err.value.code == 2

    def test_bad_n_max_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--trials", "1", "--n-max", "1"])
        assert err.value.code == 2

    def test_wrong_algebraic_count_fails_both_checks_that_use_it(self, monkeypatch):
        # n - 1 is the count of a multiset without repeats, so both the
        # formula cross-check and the common-zero biconditional must fail
        real = mldegree._algebraic_count_and_exponents
        monkeypatch.setattr(mldegree, "_algebraic_count_and_exponents",
                            lambda kind, shifts: (len(shifts) - 1, real(kind, shifts)[1]))
        campaign = run_campaign(5, 8, 3, patterns=[(2, 2)])
        assert campaign.checks_run == 5
        checks = [(f["trial"], f["check"]) for f in campaign.failures]
        assert checks == [
            (t, check) for t in range(5)
            for check in ("common-zero-iff-repeat", "ml-degree-formula-vs-algebraic")
        ]

    def test_wrong_multiplicity_fails_once_per_repeated_value(self, monkeypatch):
        # each repeated shift is checked at its common zero and reported
        # by the shift itself, with the multiplicity its group implies;
        # the count stays right and every measured exponent reads 0
        zero_exponents(monkeypatch)
        campaign = run_campaign(5, 8, 3, patterns=[(2, 3)])
        assert campaign.checks_run == 5
        assert [f["check"] for f in campaign.failures] == ["repeated-shift-multiplicity"] * 10
        for failure in campaign.failures:
            value, mult = re.fullmatch(r"value (\S+): multiplicity 0 != (\d+)", failure["detail"]).groups()
            assert failure["c"].count(value) == int(mult) + 1

    def test_one_gcd_per_checked_trial(self, monkeypatch):
        # the count takes deg gcd(h, k) off k's linear factors, once
        calls = []
        real_count = polynomials._gcd_exponents
        monkeypatch.setattr(polynomials, "_gcd_exponents",
                            lambda pairs, h: calls.append(1) or real_count(pairs, h))
        campaign = run_campaign(40, 9, 5)
        assert campaign.passed
        assert campaign.checks_run > 0
        assert len(calls) == campaign.checks_run

    def test_one_build_of_k_per_checked_trial(self, monkeypatch):
        # the multiplicity check runs on the h that the algebraic count built
        calls = []
        real_build_k = polynomials._build_k
        monkeypatch.setattr(polynomials, "_build_k",
                            lambda pairs: calls.append(1) or real_build_k(pairs))
        campaign = run_campaign(40, 9, 5, patterns=[(2,), (3, 2), (2, 2, 2)])
        assert campaign.passed
        assert campaign.checks_run == 40
        assert len(calls) == campaign.checks_run

    def test_exact_route_builds_no_poly(self, monkeypatch, capsys):
        # the count runs on k's integer vector from _build_k to the
        # exponents, the all-equal value included; a Poly is built only
        # at the public edge (build_k, build_h, gcd and Poly's methods),
        # by Poly() or by the private constructor that wraps Fractions
        def refuse(*args):
            raise AssertionError("the exact route built a Poly")

        monkeypatch.setattr(polynomials.Poly, "__init__", refuse)
        monkeypatch.setattr(polynomials, "_poly", refuse)
        doc = mldegree.ml_degree_report([Fraction(-3, 7), 2, Fraction(-3, 7), Fraction(5, 3)])
        assert doc["oracle"] == {"formula": 2, "algebraic": 2, "agree": True}
        with pytest.raises(mldegree.AllEqualError) as got:
            mldegree.ml_degree_algebraic([0.1] * 3)
        assert (got.value.value, got.value.n) == (Fraction(0.1), 3)
        assert run_campaign(20, 24, 11, [(2,), (2, 2), (3,)]).passed
        assert main(["mldegree", "--c", "-3/7", "-3/7", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"]["agree"]

    def test_one_grouping_per_checked_trial(self, monkeypatch):
        calls = []
        real_profile = mldegree._profile
        monkeypatch.setattr(mldegree, "_profile",
                            lambda *args, **kw: calls.append(1) or real_profile(*args, **kw))
        campaign = run_campaign(40, 9, 5)
        assert campaign.passed
        assert campaign.checks_run > 0
        assert len(calls) == campaign.checks_run

    def test_one_read_of_the_shifts_per_checked_trial(self, monkeypatch):
        calls = []
        real_read = polynomials._linear_factors
        monkeypatch.setattr(polynomials, "_linear_factors", lambda c: calls.append(1) or real_read(c))
        campaign = run_campaign(40, 9, 5)
        assert campaign.passed
        assert campaign.checks_run > 0
        assert len(calls) == campaign.checks_run

    def test_campaign_draws_the_values_of_the_fraction_set_draw(self):
        # the draw that kept a set of Fractions, copied: the same values in
        # the same order, each a Fraction, from the same calls on the rng
        def fraction_set_materialize(rng, n, pattern):
            seen, values = set(), []
            while len(values) < len(pattern) + n - sum(pattern):
                num, den = rng.randint(1, 20), rng.randint(1, 20)
                v = Fraction(rng.choice((1, -1)) * num, den)
                if v not in seen:
                    seen.add(v)
                    values.append(v)
            c = [v for mult, v in zip(pattern, values) for _ in range(mult)]
            c.extend(values[len(pattern):])
            rng.shuffle(c)
            return c

        for seed in range(200):
            for n in range(2, 25):
                for pattern in [(), (2,), (2, 2), (3,), (4, 3)]:
                    got_rng, want_rng = random.Random(seed), random.Random(seed)
                    got = cli._materialize(got_rng, n, pattern)
                    want = fraction_set_materialize(want_rng, n, pattern)
                    assert got == want and all(type(v) is Fraction for v in got)
                    assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("shape,n", [((2, 2, 2), 6), ((5,), 6)])
    def test_a_forced_shape_can_raise_a_trial_above_n_max(self, monkeypatch, shape, n):
        # the trial grows to hold the shape, plus one singleton for a lone
        # group, while the report keeps the drawn range [2, n_max]
        sizes = []
        real = cli._trial_checks
        monkeypatch.setattr(cli, "_trial_checks", lambda c: sizes.append(len(c)) or real(c))
        campaign = run_campaign(1, 3, 1, [shape])
        assert (campaign.checks_run, sizes) == (1, [n])
        assert campaign.to_json_dict()["n_range"] == [2, 3]

    def test_trial_needing_more_than_510_distinct_values_finishes(self):
        # seed 5 draws n = 639 for the shape (2,): 638 distinct values,
        # more than the 510 of the default draw, so the draw widens
        campaign = run_campaign(1, 800, 5, [(2,)])
        assert (campaign.checks_run, campaign.passed) == (1, True)
        values = cli._distinct_rationals(random.Random(1), 2000)
        assert len(set(values)) == 2000

    def test_entries_are_read_only(self, monkeypatch):
        zero_exponents(monkeypatch)
        campaign = run_campaign(20, 3, 1, ["n", (2,)])
        doc = json.dumps(campaign.to_json_dict())
        for entry in campaign.failures + campaign.skipped:
            with pytest.raises(TypeError):
                entry["c"] = []
            assert isinstance(entry["c"], tuple)
        assert campaign.failures and campaign.skipped
        assert json.dumps(campaign.to_json_dict()) == doc

    def test_campaign_api_records_failures_sorted(self):
        campaign = run_campaign(30, 6, 123)
        assert campaign.passed
        assert campaign.failures == tuple(sorted(
            campaign.failures, key=lambda f: (f["trial"], f["check"])
        ))


# each line of the table: the option whose rule the call breaks, then the
# call's arguments; the CI workflow runs the same table through the
# console script
BAD_ARGUMENTS = [
    (words[0], words[1:])
    for words in map(str.split, (Path(__file__).parent / "bad_arguments.txt").read_text().splitlines())
    if words and not words[0].startswith("#")
]


@pytest.mark.parametrize("option,argv", BAD_ARGUMENTS,
                         ids=[" ".join(argv) for _, argv in BAD_ARGUMENTS])
def test_bad_argument_is_a_usage_error(tmp_path, monkeypatch, capsys, option, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "sample":
        argv = argv + ["--out", "never.csv"]
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: fgmexp {argv[0]} ")
    assert f"error: argument {option}: " in captured.err
    assert not any(tmp_path.iterdir())


def test_sample_size_past_the_model_bound_is_a_usage_error():
    # the table holds the first size the model refuses, and one far past
    # it; both are rejected before anything is drawn
    sizes = {argv[2] for option, argv in BAD_ARGUMENTS if option == "--n"}
    assert {str(model._MAX_SAMPLE_SIZE + 1), str(10**30)} <= sizes


class TestOutputModes:
    def test_pretty_flag_indents(self, capsys):
        main(["mldegree", "--c", "1", "2", "--pretty"])
        out = capsys.readouterr().out
        assert out.startswith("{\n")
        json.loads(out)

    def test_compact_is_single_line(self, capsys):
        main(["mldegree", "--c", "1", "2"])
        out = capsys.readouterr().out
        assert out.count("\n") == 1


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fgmexp", "sample", "--n", "3", "--theta", "0.2",
             "--seed", "9", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
        doc = json.loads(proc.stdout)
        assert doc["n"] == 3

    def test_exit_code_surfaces_through_interpreter(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fgmexp", "fit", "--in", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert "no MLE exists" in proc.stderr
