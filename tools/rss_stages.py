"""Resident memory around the stages of one benchmark operation.

Usage, from the root of the repository::

    python3 tools/rss_stages.py --workload simulate [--seed N]

One operation of ``perfbench/child.py`` runs in a fresh process, with the
environment ``perfbench/run.py`` gives its children (BLAS pinned to one
thread, ``src`` on the path). Wrappers around the stages below print, on
standard error, the process's current RSS (``/proc/self/statm``) and its
peak so far (``ru_maxrss``), in MB, before and after each call; a call made
inside another stage is indented under it, and prints before it. The child's
own JSON record follows on standard output. The wrappers replace the names
in the package's loaded modules of that process only; no file changes.

The stages are the kernel projection, the factoring of a ``BlockGraph``,
each Bernoulli stack draw, each RK4 loop, the trajectory discrepancy, the
Vlasov table, the rate fit and each CSV write. The batches run finest
first. A Bernoulli level that runs alone is drawn one member group at a
time inside its RK4 loop, so each group's ``stack_graphs`` draw is listed
nested under that ``integrate_ips`` stage; a union's levels are drawn when
its batch starts, so their draws are listed at the top level, before the
union's ``integrate_ips``. A stage the package does not define under that
name (a commit from before it, or after a rename) is listed as missing and
not wrapped. The first line whose "after" peak reaches the
operation's ``peak_rss_mb`` names the stage that set it; a peak that rises
between one line's "after" and the next line's "before" was set by code the
stages do not wrap, and one already reached before the first stage by
set-up or by the speed probes of ``perfbench/speed.py``.
"""

from __future__ import annotations

import argparse
import functools
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = (
    ("dynamics", "_projection"),
    ("dynamics", "_compressed"),
    ("dynamics", "stack_graphs"),
    ("dynamics", "integrate_ips"),
    ("analysis", "traj_error"),
    ("analysis", "vlasov_self_convergence"),
    ("analysis", "rate_fit"),
    ("cli", "write_csv"),
)


def rss_mb() -> tuple[float, float]:
    """The current and the peak resident set size of this process, in MB as
    ``peak_rss_mb`` counts them (2^20 bytes).  The kernel syncs its peak
    lazily, so the current size can read above it."""
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1]) * resource.getpagesize() / 2**20
    return resident, max(resident, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def install(package) -> None:
    """Wrap every stage wherever the package's loaded modules name it."""
    modules = [mod for key, mod in sys.modules.items()
               if mod is not None and key.split(".")[0] == package.__name__]
    depth = [0]
    for home, attr in STAGES:
        original = getattr(sys.modules[f"{package.__name__}.{home}"], attr, None)
        if original is None:
            print(f"{home}.{attr}: missing, not wrapped", file=sys.stderr)
            continue

        @functools.wraps(original)
        def staged(*args, _original=original, _name=f"{home}.{attr}", **kwargs):
            before = rss_mb()
            depth[0] += 1
            try:
                return _original(*args, **kwargs)
            finally:
                depth[0] -= 1
                after = rss_mb()
                print(f"{'  ' * depth[0]}{_name:<36} {before[0]:7.2f} {before[1]:7.2f}"
                      f"  -> {after[0]:7.2f} {after[1]:7.2f}", file=sys.stderr)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, staged)


def operation() -> int:
    """``perfbench/child.py``'s operation, on the arguments of this process,
    with every stage wrapped."""
    import fractalips
    import fractalips.cli  # noqa: F401  (every module that names a stage)
    import child

    install(fractalips)
    print(f"{'stage':<36} {'before: now':>11} {'peak':>7}  -> {'after: now':>10} "
          f"{'peak':>7}   (MB)", file=sys.stderr)
    return child.main()


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS, child_env

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance criterion's)")
    args = parser.parse_args()
    paths = [str(ROOT / "tools"), str(ROOT / "perfbench"), str(ROOT / "src")]
    code = f"import sys; sys.path[:0] = {paths!r}; import rss_stages; " \
           "sys.exit(rss_stages.operation())"
    with tempfile.TemporaryDirectory() as work:
        cmd = [sys.executable, "-c", code, "--workload", args.workload, "--workdir", work]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        return subprocess.run(cmd, env=child_env(), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
