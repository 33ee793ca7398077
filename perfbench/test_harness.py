"""Tests of the benchmark harness itself. They run real workloads (about a
minute in all), so the package's test suite does not collect them::

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_computed_counts_repeat_across_traced_runs(workload):
    first = run.run_operation(workload, None, True, 0)
    second = run.run_operation(workload, None, True, 1)
    assert first["problems"] == [] and second["problems"] == []
    for name in probe.COUNT_METRICS:
        assert first["layers"][name] == second["layers"][name], name
    # every workload integrates and projects a kernel
    assert first["layers"]["dynamics.integrate_ips.rhs_calls"] > 0
    assert first["layers"]["dynamics.project_kernel.kernel_evals"] > 0


def test_reference_tolerance_admits_rounding_and_catches_wrong_answers():
    refine = workloads.WORKLOADS["refine"]
    errors = json.loads(workloads.REFERENCES.read_text())["refine"]["errors"]
    rounded = [e * (1 + 1e-13) for e in errors]
    wrong = [e * (1 + 1e-6) for e in errors]
    assert workloads.compare_references(refine, {"errors": rounded}) == []
    assert workloads.compare_references(refine, {"errors": wrong}) != []


def test_fails_without_the_program(tmp_path):
    # a checkout that holds only the benchmark
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refine"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
