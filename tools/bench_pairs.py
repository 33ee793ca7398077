"""Compare a parent commit with the working tree on the benchmark, in pairs.

Usage, from the root of the repository::

    python3 tools/bench_pairs.py --topic ensemble_rk4 --parent HEAD \
        [--workload bernoulli --workload refine ...] [--pairs 10] [--seed N]

The parent commit's committed files are exported to a temporary directory
(``git archive``: a fresh checkout, as the benchmark itself is run on), and
the working tree's files, those git tracks or would track (no ``__pycache__``
and nothing else that ``.gitignore`` names), are copied to another. For
each workload the script then runs ``perfbench/run.py --workload W`` once per
side per pair, with the benchmark's own default run length, alternating which
side runs first, and reads each run's medians from
``perfbench/out/result-W-trace0.json`` of that side. It writes
``BENCH_<topic>.json`` at the repository root: for every workload and for
``wall_s``, ``setup_s``, ``peak_rss_mb``, ``process.raw_wall_s`` and
``process.raw_setup_s`` (the unscaled times), each side's per-run medians
with their median and quartiles, the fraction of pairs the working tree won
(ties count for neither), and the operations attempted and failed on each
side.

Every run has ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``,
so each operation compiles the package from its source, as the benchmark's
own runs on a fresh checkout do: their recorded ``peak_rss_mb`` medians
match runs made that way (``bernoulli`` 43.84-43.97 MB and ``refine``
43.23-43.34 MB at one commit) and not runs that load the package from a
warmed bytecode cache (42.80-42.82 and 42.05-42.08 MB). Neither side has a
``.pyc`` of the package that the other lacks, which alone moves peak RSS by
megabytes; numpy's modules load from their installed bytecode on both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# metric name in BENCH_*.json -> key of an operation record in result-*.json
METRICS = {
    "wall_s": "wall_s",
    "setup_s": "setup_s",
    "peak_rss_mb": "peak_rss_mb",
    "process.raw_wall_s": "raw_wall_s",
    "process.raw_setup_s": "raw_setup_s",
}


def export(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` to ``dest``; return its hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored, files to
    ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, listed):
        if (ROOT / name).is_file():  # a deleted tracked file is listed too
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(checkout: Path, workload: str, seed: int | None) -> dict:
    """One ``perfbench/run.py`` run, writing no bytecode; per-metric medians
    over its operations."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads(
        (checkout / "perfbench" / "out" / f"result-{workload}-trace0.json").read_text()
    )
    passed = [r for r in result["records"] if not r["problems"]]
    out = {"attempted": summary["attempted"], "failed": summary["failed"]}
    for name, key in METRICS.items():
        out[name] = statistics.median(r[key] for r in passed) if passed else None
    return out


def quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: dict) -> dict:
    """Per-metric medians, quartiles and win fraction of the pairs run."""
    pairs = list(zip(runs["parent"], runs["change"]))
    report = {
        side: {"attempted": sum(r["attempted"] for r in runs[side]),
               "failed": sum(r["failed"] for r in runs[side])}
        for side in ("parent", "change")
    }
    for name in METRICS:
        valid = [(p[name], c[name]) for p, c in pairs
                 if p[name] is not None and c[name] is not None]
        if not valid:
            continue
        entry = {}
        for i, side in enumerate(("parent", "change")):
            values = [v[i] for v in valid]
            entry[side] = {"median": statistics.median(values),
                           "quartiles": quartiles(values), "runs": values}
        # every metric here is better when lower
        entry["change_wins"] = sum(c < p for p, c in valid) / len(valid)
        entry["change_pct"] = 100.0 * (
            entry["change"]["median"] / entry["parent"]["median"] - 1.0
        )
        report[name] = entry
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", action="append",
                        help="repeat for several (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's own)")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        for path in sides.values():
            path.mkdir()
        sha = export(args.parent, sides["parent"])
        copy_worktree(sides["change"])
        report = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], workload, args.seed))
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"{json.dumps(runs[side][-1])}", flush=True)
            report[workload] = summarize(runs)
    seed = "each workload's default" if args.seed is None else args.seed
    out = {
        "topic": args.topic,
        "parent_commit": sha,
        "protocol": (
            f"{args.pairs} pairs per workload of `python3 perfbench/run.py --workload W`"
            f" (seed: {seed}), one run on an export of the parent commit and one on"
            " a copy of the working tree, alternating which runs first, with"
            " PYTHONDONTWRITEBYTECODE=1 and no bytecode cache for either; each run's value is"
            " its median over the operations that passed; medians and quartiles"
            " are over the runs; change_wins is the fraction of pairs in which the"
            " working tree's value was lower"
        ),
        "command": " ".join(sys.argv),
        "machine": {"platform": platform.platform(), "python": platform.python_version()},
        "workloads": report,
    }
    path = ROOT / f"BENCH_{args.topic}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
