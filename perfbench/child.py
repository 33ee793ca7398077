"""One operation of one workload, in a fresh process.

Started by ``run.py`` with BLAS pinned to one thread and ``PYTHONPATH``
pointing at the checkout's ``src``. Prints one JSON line: the monotonic time
set-up ended (``run.py`` subtracts its spawn time to get the raw set-up
time), the pipeline's raw wall and CPU time, the speed scales of ``speed.py``
measured around the pipeline call, the process's peak RSS, the output
problems found, and with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def blas_environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # the OpenBLAS that numpy wheels bundle answers how many threads it uses
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance criterion's)")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced run writes its spans")
    args = parser.parse_args()

    import fractalips

    if not Path(fractalips.__file__).resolve().is_relative_to(SRC):
        print(f"fractalips was imported from {fractalips.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import speed
    from workloads import WORKLOADS, compare_references

    probe = None
    if args.trace:
        from probe import Probe

        probe = Probe(args.run_id)
        probe.install(fractalips)

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    record = {"seed": seed}
    try:
        call = workload.setup(seed, args.workdir)
        setup_end = time.monotonic()
        before = speed.probe_times()
        start, cpu_start = time.monotonic(), time.process_time()
        result = call()
        end, cpu_end = time.monotonic(), time.process_time()
    except Exception:  # an operation that fails is counted, not fatal
        traceback.print_exc()
        record["problems"] = ["the pipeline raised an exception"]
        print(json.dumps(record))
        return 1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    after = speed.probe_times()
    record.update(
        environment=blas_environment(),
        setup_end=setup_end,
        raw_wall_s=end - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=cpu_end - cpu_start,
        probes=[before, after],
        wall_scale=speed.scale(before, after, workload.speed_mix),
        setup_scale=speed.scale(before, after, speed.SETUP_MIX),
    )
    if probe is not None:
        record["layers"] = probe.metrics()
        if args.spans is not None:
            probe.write(args.spans)
    try:
        problems, quantities = workload.check(result, seed, args.workdir)
        if seed == workload.default_seed and not problems:
            problems += compare_references(workload, quantities)
    except Exception:
        traceback.print_exc()
        problems, quantities = ["the output check raised an exception"], {}
    record["problems"] = problems
    record["quantities"] = quantities
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
