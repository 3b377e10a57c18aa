"""Benchmark of the fgmexp package: one workload per process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``.  One client thread calls the package in a closed loop for
``--seconds`` seconds: each operation starts when the previous one has
returned and its output has been checked, untimed, against an
independent reference (``reference.py``).  Times are CPU times scaled to
a reference machine speed by an interleaved yardstick.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
each operation untraced and traced on the same input, reports the
per-layer metrics of the traced half and ``trace.overhead_frac``, the
traced time over the untraced time, minus one; the spans are written to
``bench/out/``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` shrinks the inputs for the
smoke test.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

# One client thread; keep BLAS from starting threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
CASE_CAP_S = 30.0
# CPU seconds the yardstick takes at the reference speed (its median on the
# 2-core Xeon VM the benchmark was defined on), and the least wall time
# between two yardsticks
YARDSTICK_REF_S = 0.007
YARDSTICK_EVERY_S = 0.1
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "rows_per_s": "rows/s",
    "success_frac": "frac",
    "peak_rss_mb": "MB",
}


class CaseTimeout(BaseException):
    """An operation ran past the per-case cap.  A BaseException, so that no
    ``except Exception`` in the package can swallow it."""


class _Alarm:
    """Raises CaseTimeout in the main thread when an armed case overruns."""

    def __init__(self, cap: float):
        self.cap = cap
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise CaseTimeout(f"exceeded the {self.cap:g} s per-case cap")

    def arm(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.cap)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def import_package():
    src = ROOT / "src"
    if not (src / "fgmexp" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("fgmexp")
    if Path(pkg.__file__).resolve().parent != src / "fgmexp":
        raise SystemExit(f"error: fgmexp imported from {pkg.__file__}, not {src}")
    for name in tracing.MODULES:
        importlib.import_module(f"fgmexp.{name}")
    return pkg


def pin_to_current_cpu() -> None:
    """Keep the process on the CPU it runs on now.  On a shared host the
    CPUs run at different speeds, and a process that migrates mixes both
    speeds into one latency distribution."""
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass  # no affinity control here; run unpinned


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as each run of
    the command-line tool pays it (numpy included)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
            "import fgmexp, fgmexp.cli; print(time.process_time() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpython": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    exported without .git has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fgmexp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def yardstick() -> float:
    """CPU seconds of a fixed mix of interpreter, big-rational, small-array
    and LAPACK work that never touches the package: a probe of the
    machine's current speed, which drifts on a shared host."""
    start = process_time()
    s = 0
    for i in range(30_000):
        s += i * i
    f = Fraction(1, 3)
    for i in range(600):
        f = f * Fraction(i + 1, i + 2) + 1
    w = np.linspace(-0.9, 0.9, 50)
    for i in range(300):
        s += float(np.sum(w / (1.0 + 0.3 * w)))
    m = np.diag(np.arange(1.0, 41.0)) + np.eye(40, k=1)
    for _ in range(10):
        np.linalg.eigvals(m)
    a = np.arange(2_000.0)
    for _ in range(60):
        a = np.sqrt(a + 1.0)
    return process_time() - start


class Record(NamedTuple):
    spec: object
    error: str | None  # what it raised or the check's verdict; None if right
    seconds: float     # CPU seconds of the operation alone
    traced: bool
    window: int        # taken between yardsticks ``window`` and ``window + 1``


def _attempt(workload, spec, alarm, tracer, window) -> Record:
    """Run one operation, timed, then check its output untimed."""
    output, error = None, None
    if tracer is not None:
        tracer.install()
    alarm.arm()
    start = process_time()
    try:
        output = workload.run(spec, tracer)
    except CaseTimeout as exc:
        error = f"CaseTimeout: {exc}"
    except Exception as exc:  # the case fails; the benchmark goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = process_time() - start
        alarm.disarm()
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        try:
            error = workload.check(spec, output)
        except Exception as exc:  # a malformed output fails its case
            error = f"check raised {type(exc).__name__}: {exc}"
    return Record(spec, error, seconds, tracer is not None, window)


def closed_loop(workload, inputs, seconds, tracer):
    """Run operations back to back, each checked when it returns, until
    ``seconds`` have passed.

    Returns the records and the yardstick times: one before the first
    operation, then one after each operation that ends a tenth of a second
    or more after the last yardstick, and one at the end, so that every
    operation lies between two yardsticks taken close around it.  With a
    tracer, every input runs untraced and then traced.
    """
    alarm = _Alarm(CASE_CAP_S)
    records, yard = [], [yardstick()]
    start = last_yard = perf_counter()
    i = 0
    while not records or perf_counter() - start < seconds:
        spec = inputs[i % len(inputs)]
        records.append(_attempt(workload, spec, alarm, None, len(yard) - 1))
        if tracer is not None:
            tracer.op = i
            records.append(_attempt(workload, spec, alarm, tracer, len(yard) - 1))
        i += 1
        if perf_counter() - last_yard >= YARDSTICK_EVERY_S:
            yard.append(yardstick())
            last_yard = perf_counter()
    yard.append(yardstick())
    return records, yard


def scaled_seconds(records, yard, elasticity: float) -> np.ndarray:
    """Operation CPU times at the reference speed: each is scaled by the
    ratio of the reference to the mean of the two yardsticks around it,
    raised to the workload's speed elasticity, so that the machine's drift
    during a run cancels."""
    y = np.asarray(yard)
    local = 0.5 * (y[:-1] + y[1:])
    ratio = YARDSTICK_REF_S / local[[r.window for r in records]]
    return np.array([r.seconds for r in records]) * ratio ** elasticity


def end_to_end(workload, records, seconds, setup_s) -> dict:
    ok = [r.error is None for r in records]
    busy = float(np.sum(seconds))
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(ok) / busy,
        "op_p50_ms": float(np.percentile(seconds, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(seconds, 90)) * 1e3,
        "rows_per_s": sum(workload.rows(r.spec) for r, good in zip(records, ok) if good) / busy,
        "success_frac": sum(ok) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def amdahl_lines(tracer, layers: dict, op_s: float, workload: str) -> list[str]:
    """Upper bounds on the saving from each layer, from its share of the
    traced operation time: a layer that took no time at all would save its
    share and no more."""
    lines = []
    shares = sorted(((v / op_s, k) for k, v in layers.items()
                     if k.endswith("_s") and v > 0.0), reverse=True)
    for share, key in shares:
        lines.append(f"amdahl: {key:34s} {share:7.2%} of op time -> ops_per_s at most "
                     f"x{1.0 / max(1.0 - share, 1e-9):.3g} if it took no time")
    if workload == "data-pipeline" and layers["cli.fit_s"] > 0.0:
        in_fit = tracing.time_within(tracer, "mldegree.profile", "cli.fit")
        lines.append(f"amdahl: fit can save at most mldegree.profile inside it / cli.fit_s "
                     f"= {in_fit / layers['cli.fit_s']:.2%}")
        front = layers["cli.fit_s"] + layers["cli.mldegree_s"]
        covered = layers["mldegree.profile_s"] + layers["model.read_csv_s"]
        lines.append(f"amdahl: mldegree.profile_s + model.read_csv_s (CSV parse and Dataset "
                     f"construction) = {covered / front:.2%} of cli.fit_s + cli.mldegree_s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    pkg = import_package()
    pin_to_current_cpu()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up, repeated: a fresh import, input generation and warm-up,
        # each scaled by the mean of the yardsticks taken right before and
        # right after it
        setups, yard = [], [yardstick()]
        for _ in range(SETUP_REPEATS):
            t = import_seconds()
            start = process_time()
            workload = WORKLOADS[args.workload](pkg, args.seed, str(workdir), args.smoke)
            inputs = workload.make_inputs()
            workload.warm_up(inputs)
            t += process_time() - start
            yard.append(yardstick())
            setups.append(t * YARDSTICK_REF_S / (0.5 * (yard[-2] + yard[-1])))
        setup_s = statistics.median(setups)

        tracer = tracing.Tracer(pkg) if args.trace else None
        records, yard = closed_loop(workload, inputs, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = machine()
    failed = [r for r in records if r.error is not None]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"operations: attempted={len(records)} failed={len(failed)} "
          f"failed_frac={len(failed) / len(records):.6g}")
    print(f"machine speed: {len(yard)} yardsticks, {min(yard) * 1e3:.3f} to "
          f"{max(yard) * 1e3:.3f} ms, mean {statistics.fmean(yard) * 1e3:.3f} ms; reference "
          f"{YARDSTICK_REF_S * 1e3:g} ms")
    if workload.known_defect:
        print(f"known defect: {workload.known_defect}")
    by_case = Counter((workload.label(r.spec), r.error.split(":")[0]) for r in failed)
    for (case, reason), count in sorted(by_case.items()):
        print(f"failed: {case}: {count} x {reason}")
    correct = all(workload.is_known_defect(r.spec) for r in failed)

    if args.trace:
        layers = tracing.layer_metrics(tracer)
        plain_s = sum(r.seconds for r in records if not r.traced)
        traced_s = sum(r.seconds for r in records if r.traced)
        layers["trace.ops"] = sum(r.traced for r in records)
        layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
        for line in amdahl_lines(tracer, layers, traced_s, args.workload):
            print(line)
        if tracer.missing:
            print("not traced (absent): " + ", ".join(tracer.missing))
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(str(path), {"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, **info})
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}
    else:
        values = end_to_end(workload, records,
                            scaled_seconds(records, yard, workload.speed_elasticity), setup_s)
        beyond = int(len(records) * 0.1)
        print(f"latency: {len(records)} samples; {beyond} beyond p90"
              + ("" if beyond >= 10 else " (fewer than 10: p90 is a rough figure)"))
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for key, m in metrics.items():
        print(f"metric: {key:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
