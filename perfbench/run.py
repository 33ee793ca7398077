"""fractalips benchmark: four seeded workloads, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload refine|bernoulli|meanfield|simulate|all]
                             [--seed N] [--seconds S] [--trace 0|1]

A run repeats one workload in fresh processes (``child.py``), one operation
per process, until ``--seconds`` have passed (default: ``run_seconds`` of
BENCHMARK.json; ``--workload all`` shares them out evenly), and reports
medians over the operations. Every operation's output is checked; a failed
check, an exception or a non-zero CLI exit counts as a failed operation.

With ``--trace 0`` it reports ``wall_s``, ``setup_s`` and ``peak_rss_mb``.
The two times are scaled to a reference CPU speed by the probes of
``speed.py``, timed in the same process around the pipeline call; the
unscaled medians are printed too.
With ``--trace 1`` it alternates untraced and traced operations and reports
the per-layer metrics of BENCHMARK.json, among them the unscaled median
times of the untraced operations; the difference between the traced and
untraced median wall times is ``process.trace_overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of a
run, with every sample and the environment, goes to ``perfbench/out/``.
The exit code is 0 only if every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import BENCHMARK, COUNT_METRICS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# names and units come from BENCHMARK.json; the workloads are defined in workloads.py
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

# Two OpenBLAS threads on a two-core machine spread the meanfield pipeline
# by about +-20% between runs, one thread by about +-5%: pin to one.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the slowest operation takes about 8 s with set-up; anything near this is a hang
CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("FRACTALIPS_MAX_EVALS", None)  # every workload fits the default budget
    return env


def run_operation(workload: str, seed: int | None, traced: bool, index: int) -> dict:
    """One operation in a fresh process; returns its record."""
    run_id = f"{workload}-{os.getpid()}-{index}"
    workdir = OUT / "work" / run_id
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--workdir", str(workdir), "--trace", str(int(traced)), "--run-id", run_id,
    ]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{workload}.npz")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"problems": [f"exit code {proc.returncode} without a result"]}
    if proc.returncode != 0:
        record.setdefault("problems", []).append(f"exit code {proc.returncode}")
    if record.get("problems"):
        sys.stderr.write(proc.stderr)
    if "setup_end" in record:
        record["raw_setup_s"] = record["setup_end"] - spawned
        record["setup_s"] = record["raw_setup_s"] * record["setup_scale"]
        record["wall_s"] = record["raw_wall_s"] * record["wall_scale"]
    record["traced"] = traced
    return record


def run_workload(workload: str, seed: int | None, seconds: float, trace: bool) -> list[dict]:
    """Operations until ``seconds`` have passed; traced ones alternate in."""
    records = []
    began = time.monotonic()
    while True:
        traced = trace and len(records) % 2 == 1
        records.append(run_operation(workload, seed, traced, len(records)))
        enough = len(records) >= (2 if trace else 1)
        if enough and time.monotonic() - began >= seconds:
            return records


def summarize(records: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """Median metrics over the passed operations, and any inconsistency."""
    passed = [r for r in records if not r["problems"]]
    plain = [r for r in passed if not r["traced"]]
    if not trace:
        return {
            name: {"value": statistics.median(r[name] for r in plain), "unit": unit,
                   "samples": len(plain)}
            for name, unit in END_TO_END.items() if plain
        }, []
    traced = [r for r in passed if r["traced"]]
    if not traced or not plain:
        return {}, ["no traced or no untraced operation passed"]
    issues = []
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name == "process.cpu_s":
            values = [r["cpu_s"] for r in traced]
        elif name in ("process.raw_wall_s", "process.raw_setup_s"):
            # unscaled times of the untraced operations
            values = [r[name.removeprefix("process.")] for r in plain]
        elif name == "process.trace_overhead_s":
            values = [statistics.median(r["wall_s"] for r in traced)
                      - statistics.median(r["wall_s"] for r in plain)]
        else:
            values = [r["layers"][name] for r in traced]
        if name in COUNT_METRICS and len(set(values)) > 1:
            issues.append(f"{name} differs between traced operations: {values}")
        metrics[name] = {"value": statistics.median(values), "unit": unit,
                         "samples": len(values)}
    return metrics, issues


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fractalips benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's acceptance seed)")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"],
                        help="run length, shared by the workloads of --workload all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fractalips" / "__init__.py").is_file():
        print(f"no fractalips sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    attempted = failed = 0
    issues = []
    combined = {}
    seconds = args.seconds / len(names)
    for name in names:
        records = run_workload(name, args.seed, seconds, bool(args.trace))
        metrics, more = summarize(records, bool(args.trace))
        issues += [f"{name}: {issue}" for issue in more]
        bad = [r for r in records if r["problems"]]
        for r in bad:
            issues += [f"{name}: {p}" for p in r["problems"]]
        attempted += len(records)
        failed += len(bad)
        first = next((r for r in records if "environment" in r), {})
        env = dict(first.get("environment", {}), nproc=os.cpu_count(), workload=name,
                   seed=first.get("seed", args.seed), seconds=seconds,
                   trace=args.trace)
        print(f"environment {json.dumps(env, sort_keys=True)}")
        passed = [r for r in records if not r["problems"] and not r["traced"]]
        for metric in ("raw_wall_s", "raw_setup_s") if passed and not args.trace else ():
            value = statistics.median(r[metric] for r in passed)
            print(f"{name:10s} {metric:46s} {value:14.6g} s      "
                  f"(median of {len(passed)}, unscaled)")
        for metric, m in metrics.items():
            print(f"{name:10s} {metric:46s} {m['value']:14.6g} {m['unit']:6s} "
                  f"(median of {m['samples']})")
            combined[metric if len(names) == 1 else f"{name}.{metric}"] = {
                "value": m["value"], "unit": m["unit"]}
        with open(OUT / f"result-{name}-trace{args.trace}.json", "w") as fh:
            json.dump({"environment": env, "metrics": metrics, "records": records},
                      fh, indent=1, sort_keys=True)
    for issue in issues:
        print(f"FAILED {issue}", file=sys.stderr)
    correct = failed == 0 and not issues
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
