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
that call and the child's peak RSS (``ru_maxrss``) at its end, the import
of numpy and of the package included, then the bytes the built graph
stores and, for a ``BlockGraph``, the rank of each upper block's factors or
"dense" for a block stored as it is. With ``--parent`` the same build runs
first on that commit's committed files, exported as
``tools/bench_pairs.py`` exports them.
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

graphs, integrate_ips = [], dynamics.integrate_ips
dynamics.integrate_ips = lambda model, coupling, *args: (
    graphs.append(coupling.weights) or integrate_ips(model, coupling, *args))

name, m, sublevel = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
seeds = [int(s) for s in sys.argv[4].split(",")] if sys.argv[4] else None
symmetric = sys.argv[5] == "symmetric"
meas = SelfSimilarMeasure.uniform(preset(name))
kernel = builtin_kernels(meas.ifs.dimension)["expdist"]
start = time.perf_counter()
integrate_levels(meas, kernel, [m], sublevel, lambda m: kuramoto_model(1.0),
                 lambda m: PiecewiseConstantField(meas.k, m, np.zeros(meas.k**m)),
                 T=0.0, dt=1.0, output_stride=1, graph_seeds=seeds, symmetric=symmetric)
seconds = time.perf_counter() - start
(graph,) = graphs
ranks = [C[0].shape[1] if isinstance(C, tuple) else "dense"
         for C in getattr(graph, "upper", {}).values()]
print(json.dumps({"seconds": seconds,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "layout": type(graph).__name__, "nbytes": graph.nbytes, "ranks": ranks}))
"""


def build(src: Path, preset: str, level: int, sublevel: int, seeds: str,
          symmetric: bool) -> dict:
    """The child's seconds and peak RSS for one build with ``src``; ``seeds``
    is "" for the deterministic graph."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
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
        for side, src in sides.items():
            result = build(src, args.preset, args.level, args.sublevel, args.seeds,
                           not args.asymmetric)
            graph = (f"{'asymmetric' if args.asymmetric else 'symmetric'} Bernoulli seeds "
                     f"{args.seeds}" if args.seeds else "deterministic")
            ranks = ", ".join(map(str, result["ranks"]))
            print(f"{side}: {args.preset} level {args.level} sublevel {args.sublevel} "
                  f"{graph}: "
                  f"peak RSS {result['peak_rss_mb']:.1f} MB, {result['seconds']:.3f} s; "
                  f"{result['layout']} of {result['nbytes']:,} B"
                  + (f", upper blocks {ranks}" if ranks else ""),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
