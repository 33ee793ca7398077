"""Peak RSS and seconds of one graph build, in a fresh process.

Usage, from the root of the repository::

    python3 tools/graph_build.py --preset sg --level 8 [--sublevel 2] [--parent HEAD]
    python3 tools/graph_build.py --level 7 --seeds 1,2,3 [--asymmetric] [--parent HEAD]

A child process, with BLAS pinned to one thread, imports ``fractalips`` from
``src`` and times one ``integrate_levels`` call on the level alone, with the
expdist kernel, the uniform measure and T = 0: the kernel projection and the
graph that its ``graph`` step builds, and no RK4 step. The graph is the
deterministic one, or with ``--seeds`` the stack of one Bernoulli graph per
seed (symmetric draws unless ``--asymmetric``). It prints the seconds of
that call, and of its stages where the package has them (the kernel
projection ``dynamics._projection`` and the factoring of a ``BlockGraph``,
``dynamics._compressed``; a stage under another name is left out), and the
child's peak RSS (``ru_maxrss``) at its end, the import of numpy, of the
package and of what a Bernoulli draw imports included, then the bytes the
built graph holds before its batch runs: for a ``DeferredStack`` its
``KernelMatrix``, else the graph's own bytes, and for a ``BlockGraph`` the
rank of each upper block's factors or "dense" for a block stored as it is. Members that the build itself drew
are reported too. With ``--seeds`` the child then takes one RK4 step on the
graph, which draws its member groups as the level's batch would, and
prints the bytes of the largest group and the seconds of its draw (one
``stack_graphs`` call), after the peak RSS is read. With ``--parent`` the
same build runs first on that commit's committed files, exported as
``tools/bench_pairs.py`` exports them.

Each side has a ``PYTHONPYCACHEPREFIX`` of its own, filled by one untimed
build before the measured one, so neither side compiles a module from
source in the build it reports, and neither loads bytecode that the other
lacks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

CHILD = """
import json, resource, sys, time
import numpy as np
from fractalips import (PiecewiseConstantField, SelfSimilarMeasure, builtin_kernels,
                        dynamics, integrate_levels, kuramoto_model, preset)

couplings, integrate_ips = [], dynamics.integrate_ips
dynamics.integrate_ips = lambda model, coupling, *args: (
    couplings.append(coupling) or integrate_ips(model, coupling, *args))
stages, draws, stack_graphs = {}, [], dynamics.stack_graphs


def timed(name, stage):
    def run(*args, **kwargs):
        start = time.perf_counter()
        try:
            return stage(*args, **kwargs)
        finally:
            stages[name] = stages.get(name, 0.0) + time.perf_counter() - start
    return run


def drawing(*args):
    start = time.perf_counter()
    stack = stack_graphs(*args)
    draws.append((stack.weights.nbytes, time.perf_counter() - start))
    return stack


for name, attr in (("projection", "_projection"), ("factoring", "_compressed")):
    if hasattr(dynamics, attr):
        setattr(dynamics, attr, timed(name, getattr(dynamics, attr)))
dynamics.stack_graphs = drawing

name, m, sublevel = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
seeds = [int(s) for s in sys.argv[4].split(",")] if sys.argv[4] else None
symmetric = sys.argv[5] == "symmetric"
meas = SelfSimilarMeasure.uniform(preset(name))
kernel = builtin_kernels(meas.ifs.dimension)["expdist"]
field = PiecewiseConstantField(meas.k, m, np.zeros(meas.k**m))
# what a draw imports (numpy.random and, through it, hashlib), before the
# build: whether or not the build draws, its peak and the draw time exclude it
np.random.Generator(np.random.Philox(0))
start = time.perf_counter()
integrate_levels(meas, kernel, [m], sublevel, lambda m: kuramoto_model(1.0),
                 lambda m: field, T=0.0, dt=1.0, output_stride=1,
                 graph_seeds=seeds, symmetric=symmetric)
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
(coupling,) = couplings
graph = coupling.weights
held = graph.km.entries.nbytes if hasattr(graph, "km") else graph.nbytes
built, draws[:] = sum(b for b, _ in draws), []
if seeds:  # one step draws every member group, as the level's batch does
    integrate_ips(kuramoto_model(1.0), coupling, field, 1.0, 1.0)
group = max(draws, default=(0, 0.0))
ranks = [C[0].shape[1] if isinstance(C, tuple) else "dense"
         for C in getattr(graph, "upper", {}).values()]
print(json.dumps({"seconds": seconds, "stages": stages, "peak_rss_mb": peak,
                  "layout": type(graph).__name__, "held": held, "built_draws": built,
                  "group": group[0], "draw_s": group[1], "ranks": ranks}))
"""


def build(src: Path, pycache: Path, preset: str, level: int, sublevel: int, seeds: str,
          symmetric: bool) -> dict:
    """The child's seconds and peak RSS for one build with ``src``, reading
    and writing bytecode under ``pycache``; ``seeds`` is "" for the
    deterministic graph."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(pycache),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, preset, str(level), str(sublevel), seeds,
         "symmetric" if symmetric else "asymmetric"],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="sg")
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--sublevel", type=int, default=2)
    parser.add_argument("--seeds", default="",
                        help="comma-separated graph seeds: build a Bernoulli stack")
    parser.add_argument("--asymmetric", action="store_true",
                        help="with --seeds, draw every edge independently")
    parser.add_argument("--parent", help="a commit to measure first")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        if args.parent:
            sides[f"parent {export(args.parent, Path(tmp))}"] = Path(tmp) / "src"
        sides["working tree"] = ROOT / "src"
        for i, (side, src) in enumerate(sides.items()):
            pycache = Path(tmp) / f"pycache-{i}"
            for _ in range(2):  # the first, untimed, fills the side's bytecode cache
                result = build(src, pycache, args.preset, args.level, args.sublevel,
                               args.seeds, not args.asymmetric)
            graph = (f"{'asymmetric' if args.asymmetric else 'symmetric'} Bernoulli seeds "
                     f"{args.seeds}" if args.seeds else "deterministic")
            ranks = ", ".join(map(str, result["ranks"]))
            stages = "".join(f", {name} {s:.3f} s" for name, s in result["stages"].items())
            print(f"{side}: {args.preset} level {args.level} sublevel {args.sublevel} "
                  f"{graph}: "
                  f"peak RSS {result['peak_rss_mb']:.1f} MB, {result['seconds']:.3f} s"
                  f"{stages}; "
                  f"{result['layout']} holding {result['held']:,} B before its batch"
                  + (f", upper blocks {ranks}" if ranks else "")
                  + (f", {result['built_draws']:,} B drawn by the build"
                     if result["built_draws"] else "")
                  + (f"; largest member group {result['group']:,} B, drawn in "
                     f"{result['draw_s']:.3f} s" if result["group"] else ""),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
