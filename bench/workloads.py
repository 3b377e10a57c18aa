"""The four benchmark workloads.

Each workload makes its inputs from the workload seed alone, runs one
operation at a time against the package's public functions, and checks
every output afterwards, outside the timed operation, against
:mod:`reference`.  ``run`` may raise; the runner counts that as a failed
operation.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from contextlib import nullcontext, redirect_stdout
from fractions import Fraction

import numpy as np

import reference as ref


class CaseFailed(Exception):
    """An operation finished without the result it should give."""


class Workload:
    name = ""
    # operations the program is known to get wrong at the seed; they are
    # still run, checked and counted as failed
    known_defect = None
    # how strongly the operation time follows the yardstick's: the slope of
    # log operation CPU time on log yardstick time while the machine's speed
    # drifts, fitted on the 2-core VM the benchmark was defined on.  A
    # slowdown of the host's core hits the yardstick's interpreter and
    # numpy work in full but big-integer Euclid only about a third as much,
    # so scaling by the plain ratio would over-correct that workload.
    speed_elasticity = 1.0

    def __init__(self, pkg, seed: int, workdir: str, smoke: bool):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def make_inputs(self) -> list:
        raise NotImplementedError

    def warm_up(self, inputs: list) -> None:
        for spec in [s for s in inputs[:8] if not self.is_known_defect(s)][:4]:
            self.run(spec, None)

    def run(self, spec, tracer):
        raise NotImplementedError

    def check(self, spec, output) -> str | None:
        """First disagreement with the reference as "kind: detail", or None."""
        raise NotImplementedError

    def rows(self, spec) -> int:
        raise NotImplementedError

    def label(self, spec) -> str:
        """Case name used to group failures in the report."""
        return "all"

    def is_known_defect(self, spec) -> bool:
        return False


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


class DataPipeline(Workload):
    """In-process ``cli.main``: sample -> fit --in -> mldegree --in."""

    name = "data-pipeline"
    THETAS = (-0.5, 0.3)
    POOL = 64

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 2_000 if self.smoke else 100_000
        self._files = itertools.count()

    def make_inputs(self):
        seeds = np.random.default_rng([self.seed, 1]).integers(0, 2**31, size=self.POOL)
        return [(self.n, self.THETAS[i % 2], int(s)) for i, s in enumerate(seeds)]

    def warm_up(self, inputs):
        out = self.run((1_000, 0.3, self.seed), None)
        os.remove(out[0])

    def _cli(self, sub: str, argv: list, tracer) -> dict:
        buf = io.StringIO()
        with redirect_stdout(buf), _span(tracer, f"cli.{sub}"):
            code = self.pkg.cli.main([sub] + argv)
        if code != 0:
            raise CaseFailed(f"{sub} exited with {code}")
        return json.loads(buf.getvalue())

    def run(self, spec, tracer):
        n, theta, seed = spec
        path = os.path.join(self.workdir, f"pass-{next(self._files)}.csv")
        docs = {
            "sample": self._cli("sample", ["--n", str(n), "--theta", repr(theta),
                                           "--seed", str(seed), "--out", path], tracer),
            "fit": self._cli("fit", ["--in", path], tracer),
            "mldegree": self._cli("mldegree", ["--in", path], tracer),
        }
        return path, docs

    def check(self, spec, output):
        n, theta, seed = spec
        path, docs = output
        try:
            with open(path) as fh:
                header = fh.readline().strip()
            loaded = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        finally:
            os.remove(path)
        if header != "x,y":
            return f"csv: header {header!r}"
        x, y = ref.sample_xy(n, theta, seed)
        if loaded.shape != (n, 2) or not (np.array_equal(loaded[:, 0], x)
                                          and np.array_equal(loaded[:, 1], y)):
            return "csv: does not parse back to the sampled arrays"
        if docs["sample"] != {"out": path, "n": n, "theta": theta, "seed": seed}:
            return f"sample: output {docs['sample']}"
        w = ref.weights(x, y)
        eff = w[w != 0.0]
        fit = docs["fit"]
        if fit["n_effective"] != eff.size or fit["dropped"] != n - eff.size:
            return f"fit: counts {fit['n_effective']}/{fit['dropped']}"
        th = fit["theta_hat"]
        if fit["at_boundary"]:
            return f"fit: boundary {th} on n={n} sampled at theta={theta}"
        if not ref.score(eff, th - 1e-9) > 0.0 > ref.score(eff, th + 1e-9):
            return f"fit: score does not change sign across theta_hat={th!r} +- 1e-9"
        ll = ref.loglik(eff, th)
        if abs(fit["loglik"] - ll) > 1e-9 * max(1.0, abs(ll)):
            return f"fit: loglik {fit['loglik']!r} != {ll!r}"
        md = docs["mldegree"]
        want = ref.ml_degree_counts(ref.approx_groups(1.0 / eff))
        got = {key: md.get(key) for key in want}
        if got != want or md.get("dropped") != n - eff.size:
            return f"mldegree: {got} != {want}"
        if md["p"] == md["n"] and md["ml_degree"] != md["n"] - 1:
            return f"mldegree: ml_degree {md['ml_degree']} with p == n == {md['n']}"
        return None

    def rows(self, spec):
        return spec[0]


class McSmall(Workload):
    """Monte-Carlo study in memory: sample(50, theta, s) then mle.fit."""

    name = "mc-small"
    THETAS = (-1.0, -0.5, 0.0, 0.5, 1.0)
    N = 50
    POOL = 1 << 16
    # the sign-flip check refits, as costly as the operation itself, so it
    # runs on every FLIP_EVERY-th input (all five theta values take turns)
    FLIP_EVERY = 4
    # sampled shifts are never all equal, so every TIED_EVERY-th input is
    # instead 50 copies of one sampled point, for the all-equal branch
    TIED_EVERY = 20

    def make_inputs(self):
        rng = np.random.default_rng([self.seed, 2])
        seeds = rng.integers(0, 2**31, size=self.POOL)
        tx, ty = ref.sample_xy(self.POOL // self.TIED_EVERY + 1, 0.0, int(rng.integers(2**31)))
        specs = []
        for i, s in enumerate(seeds):
            k, r = divmod(i, self.TIED_EVERY)
            tied = (float(tx[k]), float(ty[k])) if r == 0 else None
            specs.append((self.THETAS[i % 5], int(s), i % self.FLIP_EVERY == 0, tied))
        return specs

    def warm_up(self, inputs):
        for spec in inputs[:200]:
            self.run(spec, None)

    def run(self, spec, tracer):
        theta, seed, _, tied = spec
        if tied is None:
            data = self.pkg.model.sample(self.N, theta, seed)
        else:
            data = self.pkg.model.Dataset.from_arrays(np.full(self.N, tied[0]),
                                                      np.full(self.N, tied[1]))
        return data.weights, self.pkg.mle.fit(data)

    def check(self, spec, output):
        theta, seed, flip, tied = spec
        got_w, res = output
        if tied is None:
            w = ref.weights(*ref.sample_xy(self.N, theta, seed))
        else:
            w = ref.weights(np.full(self.N, tied[0]), np.full(self.N, tied[1]))
        if got_w.shape != w.shape or not np.allclose(got_w, w, rtol=0.0, atol=1e-14):
            return "weights: differ from the sampled data"
        eff = w[w != 0.0]
        if res.n_effective != eff.size:
            return f"fit: n_effective {res.n_effective} != {eff.size}"
        ll = ref.loglik(eff, res.theta_hat)
        if abs(res.loglik - ll) > 1e-9 * max(1.0, abs(ll)):
            return f"fit: loglik {res.loglik!r} != {ll!r} at theta_hat={res.theta_hat!r}"
        best = ref.grid_loglik_max(eff)
        if res.loglik < best - ref.GRID_SLACK:
            return f"grid: loglik {res.loglik!r} below grid maximum {best!r}"
        if flip:
            flipped = self.pkg.mle.fit_from_weights(-got_w).theta_hat
            if flipped != -res.theta_hat:
                return f"flip: theta(-w) = {flipped!r} != -{res.theta_hat!r}"
        return None

    def rows(self, spec):
        return self.N

    def label(self, spec):
        return f"theta={spec[0]}" + (" tied" if spec[3] else "")


class ExactOracle(Workload):
    """Exact-rational ML-degree oracle: campaign trials and reports."""

    name = "exact-oracle"
    speed_elasticity = 0.35
    PATTERNS = [(2,), (2, 2), (3,), (2, 2, 2), (4, 3)]
    # one cycle of operations; a number is a report at that size.  Reports
    # repeat few values, so nearly every shift is distinct and each one runs
    # the long Euclid that dominates the exact oracle.  The mix puts the
    # median latency in the middle of the n=16 reports and p90 in the
    # middle of the n=24 ones, not in a gap between two kinds of operation.
    CYCLE = ("campaign", 16, 24, "patterns", 16, 20, "campaign", 16, 24, 16)
    REPORT_PATTERNS = [(), (2,), (2, 2), (3,), (2, 2, 2)]
    CYCLES = 64

    def __init__(self, *args):
        super().__init__(*args)
        if self.smoke:
            self.n_max, self.sizes = 8, {16: 6, 20: 8, 24: 10}
        else:
            self.n_max, self.sizes = 20, {16: 16, 20: 20, 24: 24}
        self._sympy_checked: dict[tuple, int] = {}

    def make_inputs(self):
        rng = random.Random(f"exact-oracle:{self.seed}")
        patterns = itertools.cycle(self.REPORT_PATTERNS)
        specs = []
        for _ in range(self.CYCLES):
            for kind in self.CYCLE:
                if kind == "campaign":
                    specs.append(("campaign", rng.randrange(2**31), None))
                elif kind == "patterns":
                    specs.append(("campaign", rng.randrange(2**31), self.PATTERNS))
                else:
                    specs.append(("report", _rational_multiset(rng, self.sizes[kind],
                                                               next(patterns))))
        return specs

    def warm_up(self, inputs):
        self.pkg.cli.run_campaign(2, 6, self.seed)
        c = _rational_multiset(random.Random(self.seed), 6, (2,))
        self.pkg.mldegree.ml_degree_report(list(c))

    def run(self, spec, tracer):
        if spec[0] == "campaign":
            return self.pkg.cli.run_campaign(1, self.n_max, spec[1], spec[2])
        return self.pkg.mldegree.ml_degree_report(list(spec[1]))

    def check(self, spec, output):
        if spec[0] == "campaign":
            if output.trials != 1 or output.checks_run + len(output.skipped) != 1:
                return f"campaign: ran {output.checks_run} checks"
            if not output.passed:
                return f"campaign: failed {output.failures}"
            return None
        c = spec[1]
        want = ref.exact_counts(c)
        got = {key: output.get(key) for key in ("n", "p", "l", "m", "ml_degree")}
        if got != {key: want[key] for key in got}:
            return f"report: {got} != {want}"
        md = want["ml_degree"]
        if output.get("oracle") != {"formula": md, "algebraic": md, "agree": True}:
            return f"oracle: {output.get('oracle')} != {md}"
        zeros = sorted((Fraction(z["value"]), z["mult"]) for z in output["common_zeros"])
        if zeros != want["common_zeros"]:
            return f"common zeros: {zeros} != {want['common_zeros']}"
        if c not in self._sympy_checked:
            self._sympy_checked[c] = ref.sympy_ml_degree(c)
        if self._sympy_checked[c] != md:
            return f"sympy: deg h - deg gcd(h, k) = {self._sympy_checked[c]} != {md}"
        return None

    def rows(self, spec):
        # campaign trials draw their own shift values; only reports count
        return len(spec[1]) if spec[0] == "report" else 0

    def label(self, spec):
        if spec[0] == "campaign":
            return "campaign" if spec[2] is None else "campaign-patterns"
        return f"report n={len(spec[1])}"


def _rational_multiset(rng: random.Random, n: int, pattern: tuple[int, ...]) -> tuple[Fraction, ...]:
    """n rationals p/q with 1 <= |p|, q <= 20: one distinct value per entry
    of ``pattern``, repeated that many times, and distinct singletons."""
    values: list[Fraction] = []
    while len(values) < len(pattern) + n - sum(pattern):
        v = Fraction(rng.choice((1, -1)) * rng.randint(1, 20), rng.randint(1, 20))
        if v not in values:
            values.append(v)
    c = [v for v, k in zip(values, pattern) for _ in range(k)] + values[len(pattern):]
    rng.shuffle(c)
    return tuple(c)


class RootCensus(Workload):
    """Float root census of h on sampled shifts, c = 1/w.

    Not listed in BENCHMARK.json: its known defect fails a share of its
    operations that varies from run to run, and a listed workload may
    fail none.  Run it by name.
    """

    name = "root-census"
    known_defect = ("float census loses realness (ROADMAP aim 3): at the seed about 1 in 8 "
                    "cases at n=50 and every case at n>=100 fail, with non-real zeros or "
                    "OverflowError")
    # n=50 twice, so that no latency percentile falls between two sizes
    SIZES = (20, 50, 50, 100, 150)
    THETA = 0.3
    POOL = 1024

    def make_inputs(self):
        seeds = np.random.default_rng([self.seed, 4]).integers(0, 2**31, size=self.POOL)
        specs = []
        for i, s in enumerate(seeds):
            n = self.SIZES[i % len(self.SIZES)]
            w = ref.weights(*ref.sample_xy(n, self.THETA, int(s)))
            specs.append((n, int(s), 1.0 / w[w != 0.0]))
        return specs

    def run(self, spec, tracer):
        return self.pkg.roots.complex_roots(self.pkg.polynomials.build_h(spec[2]))

    def check(self, spec, output):
        return ref.census_failure(spec[2], output.roots, output.multiplicities,
                                  output.residuals)

    def rows(self, spec):
        return len(spec[2])

    def label(self, spec):
        return f"n={spec[0]}"

    def is_known_defect(self, spec):
        return spec[0] >= 50


WORKLOADS = {cls.name: cls for cls in (DataPipeline, McSmall, ExactOracle, RootCensus)}
