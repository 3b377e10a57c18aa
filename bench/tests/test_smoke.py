"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/tests

Each workload runs for one second, untraced and traced, and must print
every metric that BENCHMARK.json names, with its unit.  The workloads
BENCHMARK.json lists must not fail a single operation; root-census,
which is left out of it for its known defect, may fail only on its
known-defect cases.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))

from report import run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PASSING = {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = run_workload(workload, seed=3, seconds=1, trace=trace, smoke=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    for name in expected:
        assert any(line.startswith("metric: ") and line.split()[1] == name for line in lines)
    assert result["attempted"] >= 1
    assert result["correct"]
    if workload in PASSING:
        assert result["failed"] == 0
        assert any(line.startswith("operations:") and line.endswith(" failed_frac=0")
                   for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "mc-small", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
