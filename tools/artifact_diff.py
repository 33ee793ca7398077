"""Check that a commit and the working tree write the same CLI artifacts.

Usage, from the root of the repository::

    python3 tools/artifact_diff.py --parent HEAD

The parent commit's committed files are exported to a temporary directory
(``export`` of ``tools/bench_pairs.py``). Every subcommand that writes
artifacts (integrate, project, transfer, simulate, rate, vlasov, modulus)
then runs on every config below, once with the parent's ``src`` and once
with the working tree's, each in a fresh process with BLAS pinned to one
thread. The configs are twenty small ones written here (three models,
each on a deterministic, a symmetric Bernoulli and an asymmetric Bernoulli
graph; the symmetric Bernoulli one again at level 5 alone with five seeds,
whose stack of graphs is integrated in groups of members within
``LOOP_GRAPH_BYTES``, each group drawn just before its own ``integrate_ips``
call; the asymmetric Bernoulli one again at level 6 alone with a skewed
measure, whose draws are each over that bound, so each member is a group of
its own; the deterministic Kuramoto one again with
``ell_levels = 2,4``, whose ``vlasov`` integrates level 4's dense graph and
level 6's ``BlockGraph`` as one union; a Cantor
set with a non-uniform measure; an inline IFS with unequal ratios under its
natural measure, whose weights come from the similarity dimension, at
sublevel 2 and at sublevel 0; an inline 3-D tetrahedral gasket, whose kernel
distances sum three axes; the gasket's maps written inline with
``matrix=``; ``rate`` reaching level 6, and its ``BlockGraph`` built from
the displacement classes, on the gasket with a skewed measure and a zero
frequency amplitude and on ``interval-3``; and a nan kernel value with an
infinite horizon,
which every subcommand refuses) and the ``refine``, ``meanfield`` and ``simulate``
configs of ``perfbench/workloads.py`` at their default seeds. ``modulus``
exits 2 on the unequal-ratio IFS, which has no common linear part.

Each run's exit code and the bytes of every file it writes are compared;
``manifest.json`` is compared without its ``wall_time_s``. ``validate`` also
runs on every config, and its exit code and standard output are compared in
the same way, the output as one more artifact; the lines it gains or loses
are printed below its line. The script prints one line per run, naming what
differs, and a summary, and exits 1 if any exit code or artifact differs.
For an artifact that differs only in its numbers (CSV fields, JSON values)
it also prints the largest relative difference between them, so a change at
the rounding level shows as one.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
from workloads import WORKLOADS  # noqa: E402

SUBCOMMANDS = ("integrate", "project", "transfer", "simulate", "rate", "vlasov", "modulus")

SMALL_CONFIG = """\
[ifs]
preset = {preset}

[measure]
p = {p}

[kernel]
name = {kernel}

[model]
name = {model}
coupling_strength = 1.0
damping = 0.5
omega = {omega}

[levels]
levels = 2,3,4
ell_levels = 1,2
sublevel = 2

[time]
T = 0.1
dt = 0.01
output_stride = 5

[quadrature]
level = 6
samples = 5000
tail = 30

[modulus]
max_ell = 6

[graph]
kind = {kind}
symmetric = {symmetric}

[seeds]
seeds = 1,2
"""

# three homotheties with unequal ratios, so no common linear part
UNEQUAL_IFS = """\
[ifs]
dimension = 2
maps = 3
map1 = ratio=0.5 translation=0.0,0.0
map2 = ratio=0.3 translation=0.7,0.0
map3 = ratio=0.25 translation=0.2,0.6
"""

# the Sierpinski tetrahedron: four maps of ratio 1/2 in dimension 3
TETRA_IFS = """\
[ifs]
dimension = 3
maps = 4
map1 = ratio=0.5 translation=0,0,0
map2 = ratio=0.5 translation=0.5,0,0
map3 = ratio=0.5 translation=0.25,0.4330127018922193,0
map4 = ratio=0.5 translation=0.25,0.14433756729740643,0.408248290463863
"""

# the gasket's maps, each with its linear part given as a matrix
MATRIX_IFS = """\
[ifs]
dimension = 2
maps = 3
map1 = ratio=0.5 matrix=0.5,0,0,0.5 translation=0.0,0.0
map2 = ratio=0.5 matrix=0.5,0,0,0.5 translation=0.25,0.4330127018922193
map3 = ratio=0.5 matrix=0.5,0,0,0.5 translation=0.5,0.0
"""

GRAPHS = {
    "deterministic": ("deterministic", "true"),
    "bernoulli": ("bernoulli", "true"),
    "bernoulli_asym": ("bernoulli", "false"),
}


def configs() -> dict:
    """Config text by name."""
    out = {}
    for model in ("kuramoto", "kuramoto_inertia", "consensus"):
        for graph, (kind, symmetric) in GRAPHS.items():
            out[f"{model}_{graph}"] = SMALL_CONFIG.format(
                preset="sg", p="natural", kernel="expdist", model=model,
                omega="field", kind=kind, symmetric=symmetric,
            )
    out["cantor_gaussian"] = SMALL_CONFIG.format(
        preset="cantor", p="0.7,0.3", kernel="gaussian", model="kuramoto",
        omega="zero", kind="deterministic", symmetric="true",
    )
    out["unequal_natural"] = SMALL_CONFIG.replace(
        "[ifs]\npreset = {preset}\n", UNEQUAL_IFS).format(
        p="natural", kernel="expdist", model="kuramoto", omega="field",
        kind="deterministic", symmetric="true",
    )
    # one node per cell: the smallest row blocks of the all-pairs projection
    out["unequal_sublevel0"] = out["unequal_natural"].replace(
        "sublevel = 2\n", "sublevel = 0\n")
    out["tetra_3d"] = SMALL_CONFIG.replace(
        "[ifs]\npreset = {preset}\n", TETRA_IFS).format(
        p="natural", kernel="expdist", model="kuramoto", omega="field",
        kind="deterministic", symmetric="true",
    )
    out["inline_matrix"] = SMALL_CONFIG.replace(
        "[ifs]\npreset = {preset}\n", MATRIX_IFS).format(
        p="natural", kernel="expdist", model="kuramoto", omega="field",
        kind="deterministic", symmetric="true",
    )
    # one level whose stack of five Bernoulli graphs (2.36 MB) is over
    # LOOP_GRAPH_BYTES, so simulate integrates it in groups of members
    out["bernoulli_groups"] = out["kuramoto_bernoulli"].replace(
        "levels = 2,3,4\n", "levels = 5\n").replace("seeds = 1,2\n", "seeds = 1,2,3,4,5\n")
    # vlasov at levels 4 and 6 (m = 2): 52 KB of dense graph and a 1.34 MB
    # factored BlockGraph, one union within LOOP_GRAPH_BYTES
    out["vlasov_blockgraph_union"] = out["kuramoto_deterministic"].replace(
        "ell_levels = 1,2\n", "ell_levels = 2,4\n")
    # skewed p and a frequency field of amplitude 0 on sg: rate reaches level
    # 6, whose BlockGraph integrate_levels builds from the class table
    out["sg_skewed_table"] = out["kuramoto_deterministic"].replace(
        "p = natural\n", "p = 0.5,0.3,0.2\n").replace(
        "levels = 2,3,4\n", "levels = 2,3,4,5\n").replace(
        "omega = field\n", "omega = field\nomega_scale = 0\n")
    # a 1-D lattice, whose displacement classes are keyed by the displacement
    # itself: rate reaches level 6, a BlockGraph of 729 cells
    out["interval3_table"] = SMALL_CONFIG.format(
        preset="interval-3", p="natural", kernel="expdist", model="kuramoto",
        omega="field", kind="deterministic", symmetric="true",
    ).replace("levels = 2,3,4\n", "levels = 2,3,4,5\n")
    # asymmetric Bernoulli draws on sg at level 6 under a skewed measure:
    # each 729 x 729 draw (4.25 MB, over LOOP_GRAPH_BYTES) is a member group
    # of its own, drawn in place just before its RK4 loop
    out["bernoulli_asym_level6"] = out["kuramoto_bernoulli_asym"].replace(
        "p = natural\n", "p = 0.5,0.3,0.2\n").replace(
        "levels = 2,3,4\n", "levels = 6\n").replace("T = 0.1\n", "T = 0.05\n")
    # non-finite floats, which every subcommand refuses
    out["nonfinite"] = out["kuramoto_deterministic"].replace(
        "name = expdist\n", "name = constant\nvalue = nan\n").replace(
        "T = 0.1\n", "T = inf\n")
    for name in ("refine", "meanfield", "simulate"):
        workload = WORKLOADS[name]
        out[f"workload_{name}"] = workload.config(workload.default_seed)
    return out


def run(src: Path, subcommand: str, config: Path, out: Path):
    """The finished CLI process; its output is captured."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "fractalips.cli", subcommand, "--config", str(config),
         "--output", str(out)],
        cwd=out.parent, env=env, capture_output=True,
    )


def artifacts(directory: Path) -> dict:
    """File name -> bytes; the manifest without its wall time."""
    if not directory.is_dir():
        return {}
    out = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        out[path.name] = data
    return out


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def max_relative_difference(a: bytes, b: bytes) -> float | None:
    """The largest relative difference between the numbers of two files that
    differ in nothing else; None if their other text differs."""
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return None
    worst = 0.0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def compare(codes: dict, files: dict) -> tuple[list[str], int, float]:
    """What differs between the parent's and the change's exit code and
    files, the count of differing files and their largest relative
    difference in numbers only."""
    problems, differing, worst = [], 0, 0.0
    if codes["parent"] != codes["change"]:
        problems.append(f"exit code {codes['parent']} -> {codes['change']}")
    for fname in sorted(files["parent"].keys() | files["change"].keys()):
        old, new = files["parent"].get(fname), files["change"].get(fname)
        if old != new:
            differing += 1
            rel = None if old is None or new is None else (
                max_relative_difference(old, new))
            if rel is None:
                problems.append(f"{fname} differs")
            else:
                worst = max(worst, rel)
                problems.append(f"{fname} differs, max rel {rel:.2g}")
    return problems, differing, worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        checkout = tmp / "checkout"
        checkout.mkdir()
        sha = export(args.parent, checkout)
        sides = {"parent": checkout / "src", "change": ROOT / "src"}
        runs = compared = differing = code_changes = validate_changes = 0
        worst = 0.0
        for name, text in configs().items():
            config = tmp / f"{name}.ini"
            config.write_text(text)
            for subcommand in SUBCOMMANDS:
                codes, files = {}, {}
                for side, src in sides.items():
                    out = tmp / side / name / subcommand
                    out.parent.mkdir(parents=True, exist_ok=True)
                    codes[side] = run(src, subcommand, config, out).returncode
                    files[side] = artifacts(out)
                runs += 1
                compared += len(files["parent"].keys() | files["change"].keys())
                problems, n, rel = compare(codes, files)
                code_changes += codes["parent"] != codes["change"]
                differing += n
                worst = max(worst, rel)
                print(f"{name} {subcommand}: exit {codes['change']}, "
                      f"{len(files['change'])} files"
                      + ("" if not problems else " -- " + "; ".join(problems)),
                      flush=True)
            reports = {
                side: run(src, "validate", config, tmp / side / name / "validate")
                for side, src in sides.items()
            }
            problems, _, _ = compare(
                {side: proc.returncode for side, proc in reports.items()},
                {side: {"stdout": proc.stdout} for side, proc in reports.items()},
            )
            validate_changes += bool(problems)
            print(f"{name} validate: exit {reports['change'].returncode}"
                  + ("" if not problems else " -- " + "; ".join(problems)), flush=True)
            old = reports["parent"].stdout.decode().splitlines()
            new = reports["change"].stdout.decode().splitlines()
            for line in old:
                if line not in new:
                    print(f"  - {line}")
            for line in new:
                if line not in old:
                    print(f"  + {line}")
    print(f"parent {sha}: {runs} runs, {code_changes} exit codes differ; "
          f"{compared} artifacts compared, {differing} differ"
          + (f" (in numbers only: max rel {worst:.2g})" if worst else "")
          + f"; validate differs on {validate_changes} of {len(configs())} configs")
    return 1 if differing or code_changes or validate_changes else 0


if __name__ == "__main__":
    sys.exit(main())
