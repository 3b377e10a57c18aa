"""Span tracing around the package's public functions.

While installed, each traced function is replaced, at its module
attribute and at every other module attribute bound to the same object
(``mle`` reaches ``log_likelihood_weights`` through its own name), by a
wrapper that records one span: name, start, end, parent span and the
index of the benchmark operation that caused it.  Times are process CPU
time, like the operation times they are compared with.  Spans stay in
memory and are written out once, when the run ends.  Nothing in the
package is edited; uninstalling restores every attribute.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from contextlib import contextmanager
from time import process_time

from reference import nonreal_count

# (span name, module, attribute); "Dataset." entries are class attributes.
# Construction of a Dataset is timed at its __init__ and from_arrays, which
# nest and are counted once.
TRACED = (
    ("model.sample", "model", "sample"),
    ("model.write_csv", "model", "write_csv"),
    ("model.read_csv", "model", "read_csv"),
    ("model.dataset", "model", "Dataset.__init__"),
    ("model.dataset", "model", "Dataset.from_arrays"),
    ("model.c_shift", "model", "c_shift"),
    ("model.log_likelihood_weights", "model", "log_likelihood_weights"),
    ("polynomials.build_k", "polynomials", "build_k"),
    ("polynomials.build_h", "polynomials", "build_h"),
    ("polynomials.gcd", "polynomials", "gcd"),
    ("polynomials.divmod_exact", "polynomials", "divmod_exact"),
    ("polynomials.root_multiplicity", "polynomials", "root_multiplicity"),
    ("roots.complex_roots", "roots", "complex_roots"),
    ("roots.score_root", "roots", "score_root_from_weights"),
    ("mldegree.profile", "mldegree", "profile"),
    ("mldegree.report", "mldegree", "ml_degree_report"),
    ("mldegree.algebraic", "mldegree", "ml_degree_algebraic"),
    ("mle.fit", "mle", "fit"),
    ("mle.fit", "mle", "fit_from_weights"),
    ("cli.verify", "cli", "run_campaign"),
)

MODULES = ("model", "polynomials", "roots", "mldegree", "mle", "cli")

NAME, START, END, PARENT, OP, NESTED, RAISED, NO_ROOT = range(8)


class Tracer:
    """Records spans while installed; ``op`` tags spans with the operation."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        self._build_patches()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op,
                self._active[name] > 0, False, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._active[name] += 1
        span[START] = process_time()
        return span

    def _close(self, span: list) -> None:
        span[END] = process_time()
        self._stack.pop()
        self._active[span[NAME]] -= 1

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span[RAISED] = True
            raise
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                self._close(span)
            if after is not None:
                after(self, span, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _build_patches(self) -> None:
        pkg = self.package
        modules = [pkg] + [getattr(pkg, m) for m in MODULES]
        wrappers: dict[int, object] = {}
        for name, module, attr in TRACED:
            owner = getattr(pkg, module)
            if attr.startswith("Dataset."):
                cls = owner.Dataset
                raw = cls.__dict__.get(attr.split(".", 1)[1])
                if raw is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((cls, attr.split(".", 1)[1], raw, new))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value, hit[1]))

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)

    # -- output ------------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "meta": meta,
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "op", "raised"],
            "spans": [[index[s[NAME]], s[START], s[END], s[PARENT], s[OP], s[RAISED]]
                      for s in self.spans],
            "counts": dict(self.counts),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- counters taken at the span boundaries ------------------------------------


def _after_dataset_source(tracer, span, args, kwargs, result):
    tracer.counts["model.rows"] += len(result.weights)


def _after_write_csv(tracer, span, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    tracer.counts["model.csv_bytes"] += os.path.getsize(path)


def _after_divmod(tracer, span, args, kwargs, result):
    parent = span[PARENT]
    if parent < 0 or tracer.spans[parent][NAME] != "polynomials.gcd":
        return
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in result[1].coeffs), default=0)
    if bits > tracer.counts["polynomials.max_coeff_bits"]:
        tracer.counts["polynomials.max_coeff_bits"] = bits


def _after_score_root(tracer, span, args, kwargs, result):
    # mark the enclosing fits: a boundary fit that searched for a root and
    # found none took the endpoint branch, one that never searched took the
    # all-equal branch
    if result is None:
        parent = span[PARENT]
        while parent >= 0:
            tracer.spans[parent][NO_ROOT] = True
            parent = tracer.spans[parent][PARENT]


def _after_fit(tracer, span, args, kwargs, result):
    if span[NESTED]:
        return
    if not result.at_boundary:
        branch = "interior"
    elif span[NO_ROOT]:
        branch = "endpoint"
    else:
        branch = "all_equal"
    tracer.counts[f"mle.branch_{branch}"] += 1


def _after_complex_roots(tracer, span, args, kwargs, result):
    scale = max([1.0] + [abs(z) for z in result.roots])
    tracer.counts["roots.census_nonreal"] += nonreal_count(result.roots, scale)


_AFTER = {
    "model.sample": _after_dataset_source,
    "model.read_csv": _after_dataset_source,
    "model.write_csv": _after_write_csv,
    "polynomials.divmod_exact": _after_divmod,
    "roots.score_root": _after_score_root,
    "mle.fit": _after_fit,
    "roots.complex_roots": _after_complex_roots,
}


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals from the recorded spans.

    ``<name>_s`` sums a span name's duration, counting a span nested in a
    span of the same name once.  ``<module>.self_s`` sums, over the spans
    of that module, the duration not covered by child spans.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    total: Counter = Counter()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    raised: Counter = Counter()
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        calls[s[NAME]] += 1
        raised[s[NAME]] += s[RAISED]
        if not s[NESTED]:
            total[s[NAME]] += dur
        self_s[s[NAME].split(".", 1)[0]] += dur - child[i]
    c = tracer.counts
    return {
        "model.sample_s": total["model.sample"],
        "model.write_csv_s": total["model.write_csv"],
        "model.read_csv_s": total["model.read_csv"],
        "model.dataset_s": total["model.dataset"],
        "model.c_shift_s": total["model.c_shift"],
        "model.self_s": self_s["model"],
        "model.rows": c["model.rows"],
        "model.csv_bytes": c["model.csv_bytes"],
        "mldegree.profile_s": total["mldegree.profile"],
        "mldegree.profile_calls": calls["mldegree.profile"],
        "mldegree.report_s": total["mldegree.report"],
        "mldegree.algebraic_s": total["mldegree.algebraic"],
        "mldegree.self_s": self_s["mldegree"],
        "polynomials.build_k_s": total["polynomials.build_k"],
        "polynomials.build_h_s": total["polynomials.build_h"],
        "polynomials.gcd_s": total["polynomials.gcd"],
        "polynomials.root_multiplicity_s": total["polynomials.root_multiplicity"],
        "polynomials.divmod_exact_calls": calls["polynomials.divmod_exact"],
        "polynomials.max_coeff_bits": c["polynomials.max_coeff_bits"],
        "polynomials.self_s": self_s["polynomials"],
        "roots.score_root_s": total["roots.score_root"],
        "roots.score_root_calls": calls["roots.score_root"],
        "roots.complex_roots_s": total["roots.complex_roots"],
        "roots.census_nonreal": c["roots.census_nonreal"],
        "roots.census_raised": raised["roots.complex_roots"],
        "roots.self_s": self_s["roots"],
        "mle.fit_s": total["mle.fit"],
        "mle.self_s": self_s["mle"],
        "mle.branch_interior": c["mle.branch_interior"],
        "mle.branch_all_equal": c["mle.branch_all_equal"],
        "mle.branch_endpoint": c["mle.branch_endpoint"],
        "cli.sample_s": total["cli.sample"],
        "cli.fit_s": total["cli.fit"],
        "cli.mldegree_s": total["cli.mldegree"],
        "cli.verify_s": total["cli.verify"],
        "cli.self_s": self_s["cli"],
    }


def time_within(tracer: Tracer, name: str, ancestor: str) -> float:
    """Duration of ``name`` spans that run inside an ``ancestor`` span."""
    spans = tracer.spans
    total = 0.0
    for s in spans:
        if s[NAME] != name or s[NESTED]:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != ancestor:
            parent = spans[parent][PARENT]
        if parent >= 0:
            total += s[END] - s[START]
    return total


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_bits"):
        return "bits"
    return "count"
