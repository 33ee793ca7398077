"""CPU speed probes: fixed work in the benchmark's own code, timed in the
operation's process just before and just after the pipeline call.

The machines this benchmark runs on are shared: neighbours slow the CPU by up
to 1.7x for tens of seconds at a time, and interpreter-bound code suffers
most. A probe of the same kind of work, timed around the pipeline, slows by
about as much, so ``raw time x reference probe time / measured probe time``
is the time the pipeline would have taken at the reference speed. The
probes never call fractalips, so no change to the package moves them.

Each workload's ``speed_mix`` was fitted to the kind of work the workload
does today. A change that moves a workload's time between kinds of work
(say, from per-call dispatch into one large GEMM) is corrected less well and
must be judged on the unscaled times as well, which the traced run reports
as ``process.raw_wall_s`` and ``process.raw_setup_s``. Re-fit a
``speed_mix`` or ``REFERENCE_S`` only in a change of its own, never together
with a change to the package.
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds (before + after) on a quiet two-core Xeon VM at 2.1 GHz with
# one OpenBLAS thread: the reference speed the scaled metrics refer to.
REFERENCE_S = {"dispatch": 0.42, "matvec": 0.14, "elementwise": 0.133}


def _dispatch(rng) -> None:
    # RK4 on an 81-cell Kuramoto system: many small numpy calls, as in
    # fractalips' integrator at coarse levels
    n = 81
    G = rng.random((n, n)) / n
    omega = rng.random((n, 1))
    u = rng.random((n, 1))

    def rhs(u):
        ph = 2.0 * np.pi * u[:, 0]
        s, c = np.sin(ph), np.cos(ph)
        return np.broadcast_to(omega, u.shape) + (c * (G @ s) - s * (G @ c))[:, None]

    dt = 1e-3
    for _ in range(3600):
        k1 = rhs(u)
        k2 = rhs(u + (dt / 2) * k1)
        k3 = rhs(u + (dt / 2) * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _matvec(rng) -> None:
    # dense matrix-vector products at n = 729, the finest coupling graph
    G = rng.random((729, 729))
    v = rng.random(729)
    for _ in range(400):
        G @ v


def _elementwise(rng) -> None:
    # exp(-|x - y|) over blocks of point pairs, as in kernel projection; the
    # blocks stay near 2 MB so that the probe does not set the process's
    # peak RSS
    x = rng.random((1000, 1, 2))
    y = rng.random((1, 500, 2))
    for _ in range(4):
        for i in range(0, 1000, 125):
            np.exp(-np.sqrt(np.sum((x[i : i + 125] - y) ** 2, axis=-1)))


PROBES = {"dispatch": _dispatch, "matvec": _matvec, "elementwise": _elementwise}
ALL = tuple(PROBES)
# importing numpy, scipy and fractalips is interpreter-bound
SETUP_MIX = ("dispatch",)


def probe_times() -> dict:
    """Seconds each probe takes now."""
    rng = np.random.default_rng(0)
    out = {}
    for name, probe in PROBES.items():
        start = time.perf_counter()
        probe(rng)
        out[name] = time.perf_counter() - start
    return out


def scale(before: dict, after: dict, mix) -> float:
    """Reference over measured probe time for the probes in ``mix``, each
    probe weighted equally."""
    slowdown = sum((before[p] + after[p]) / REFERENCE_S[p] for p in mix)
    return len(mix) / slowdown
