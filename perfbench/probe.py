"""Spans and computed counts recorded around fractalips' public functions.

The probe wraps each traced function from outside the package: it replaces
the function object in every ``fractalips`` module namespace that holds it,
so calls made through ``from .x import f`` are seen too. The Kuramoto model
factories are wrapped so that every ``ModelSpec`` they return carries traced
``drift`` and ``coupling_term`` callables. Nothing under ``src/`` changes.

Spans (name, start, end, parent span) stay in flat arrays in memory while the
pipeline runs and are written out once, when the run ends. Counts are
computed from call arguments (and, for CSV size, from the file written), so
they repeat exactly between runs of the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Count hooks run after a successful call with the probe and the call's
# arguments bound to parameter names.


def _attractor_points(probe, call):
    probe.counts["geometry.attractor_points.points"] += call["ifs"].k ** int(call["m"])


def _evaluate_on_points(probe, call):
    probe.counts["quadrature.evaluate_on_points.points"] += int(call["pts"].shape[0])


def _project_kernel(probe, call):
    level, sublevel = int(call["m"]), int(call["sublevel"])
    probe.counts["dynamics.project_kernel.kernel_evals"] += (
        call["meas"].k ** (level + sublevel)
    ) ** 2
    probe.kernel_keys.add((level, sublevel))


def _integrate_ips(probe, call):
    coupling = call["coupling"]
    steps = int(round(call["T"] / call["dt"]))
    probe.counts["dynamics.integrate_ips.rk4_steps"] += steps
    probe.counts["dynamics.integrate_ips.rhs_calls"] += 4 * steps
    probe.counts["dynamics.integrate_ips.cell_steps"] += steps * coupling.k**coupling.level


def _write_csv(probe, call):
    probe.counts["cli.write_csv.rows"] += len(call["rows"])
    probe.counts["cli.write_csv.bytes"] += os.path.getsize(call["path"])


def _kuramoto_coupling(probe, args, kwargs):
    # called once per RHS evaluation, so it reads the weights positionally
    # instead of binding; sin/cos splitting makes two dense n x n
    # matrix-vector products per call, each 2 n^2 flops over n^2 float64
    # weights read
    n = int(args[0].shape[0])
    probe.counts["dynamics.coupling_term.flop"] += 4 * n * n
    probe.counts["dynamics.coupling_term.bytes"] += 2 * 8 * n * n


# (span name, home module, attribute, count hook)
TRACED = (
    ("geometry.attractor_points", "geometry", "attractor_points", _attractor_points),
    ("quadrature.evaluate_on_points", "quadrature", "evaluate_on_points",
     _evaluate_on_points),
    ("transfer.martingale_level", "transfer", "martingale_level", None),
    ("transfer.coarsen", "transfer", "coarsen", None),
    ("dynamics.project_kernel", "dynamics", "project_kernel", _project_kernel),
    ("dynamics.assemble_deterministic", "dynamics", "assemble_deterministic", None),
    ("dynamics.sample_bernoulli", "dynamics", "sample_bernoulli", None),
    ("dynamics.integrate_ips", "dynamics", "integrate_ips", _integrate_ips),
    ("analysis.traj_error", "analysis", "traj_error", None),
    ("analysis.wasserstein", "analysis", "wasserstein_distance", None),
    ("analysis.vlasov_self_convergence", "analysis", "vlasov_self_convergence", None),
    ("experiments.kuramoto_refinement_errors", "experiments",
     "kuramoto_refinement_errors", None),
    ("experiments.bernoulli_gap_medians", "experiments", "bernoulli_gap_medians", None),
    ("cli.parse_config", "cli", "parse_config", None),
    ("cli.run", "cli", "main", None),
    ("cli.write_csv", "cli", "write_csv", _write_csv),
)

MODEL_FACTORIES = ("kuramoto_model", "kuramoto_inertia_model")

# the benchmark's definition: workloads and metrics with their units
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
# every per-layer metric, in report order, with its unit
LAYER_METRICS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# metrics computed from call arguments: they must repeat exactly
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items()
    if unit in ("count", "ratio", "GFLOP", "GB", "MB")
)


class Probe:
    """In-memory span recorder for one run of one pipeline."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = defaultdict(int)
        self.kernel_keys = set()  # distinct (level, sublevel) projected

    def register(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, nid: int, fn, count=None, bind=True):
        """``fn`` recording one span named ``self.names[nid]`` per call.

        ``count`` runs after the call, with the arguments bound to
        parameter names, or as given when ``bind`` is false.
        """
        stack, start, end = self.stack, self.start, self.end
        name_of, parent_of = self.name_of, self.parent_of
        clock = time.perf_counter
        signature = inspect.signature(fn) if count is not None and bind else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(nid)
            parent_of.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if count is not None:
                if bind:
                    count(self, signature.bind(*args, **kwargs).arguments)
                else:
                    count(self, args, kwargs)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the traced names in every loaded module of ``package``."""
        prefix = package.__name__
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == prefix or key.startswith(prefix + "."))
        ]
        for name, home, attr, count in TRACED:
            original = getattr(sys.modules[f"{prefix}.{home}"], attr)
            wrapped = self.wrap(self.register(name), original, count)
            self._replace(modules, original, wrapped)
        drift_id = self.register("dynamics.drift")
        coupling_id = self.register("dynamics.coupling_term")
        for attr in MODEL_FACTORIES:
            original = getattr(sys.modules[f"{prefix}.dynamics"], attr)
            wrapped = self._wrap_factory(original, drift_id, coupling_id)
            self._replace(modules, original, wrapped)

    @staticmethod
    def _replace(modules, original, wrapped) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def _wrap_factory(self, factory, drift_id, coupling_id):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            spec = factory(*args, **kwargs)
            spec.drift = self.wrap(drift_id, spec.drift)
            if spec.coupling_term is not None:
                spec.coupling_term = self.wrap(
                    coupling_id, spec.coupling_term, _kuramoto_coupling, bind=False
                )
            return spec

        return traced_factory

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name_of, dtype=np.int32),
            "parent": np.frombuffer(self.parent_of, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez(path, run_id=np.array(self.run_id), **self.spans())

    def metrics(self) -> dict:
        """Per-layer metrics of this run, keyed as in ``LAYER_METRICS``."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child_time = np.bincount(
            sp["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time
        n_names = len(self.names)
        calls = np.bincount(sp["name"], minlength=n_names)
        self_s = np.bincount(sp["name"], weights=self_time, minlength=n_names)
        total_s = np.bincount(sp["name"], weights=dur, minlength=n_names)
        by_name = {
            name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
            for i, name in enumerate(self.names)
        }
        out = {}
        for key in LAYER_METRICS:
            layer, _, field = key.rpartition(".")
            if field == "calls":
                out[key] = by_name[layer][0]
            elif field == "self_s":
                out[key] = by_name[layer][1]
        c = self.counts
        pk_calls = by_name["dynamics.project_kernel"][0]
        cell_steps = c["dynamics.integrate_ips.cell_steps"]
        out.update({
            "geometry.attractor_points.points": c["geometry.attractor_points.points"],
            "quadrature.evaluate_on_points.points": c["quadrature.evaluate_on_points.points"],
            "dynamics.project_kernel.kernel_evals": c["dynamics.project_kernel.kernel_evals"],
            "dynamics.project_kernel.distinct_ratio":
                len(self.kernel_keys) / pk_calls if pk_calls else 0.0,
            "dynamics.integrate_ips.rk4_steps": c["dynamics.integrate_ips.rk4_steps"],
            "dynamics.integrate_ips.rhs_calls": c["dynamics.integrate_ips.rhs_calls"],
            "dynamics.integrate_ips.cell_steps": cell_steps,
            # inclusive time: the whole RK4 loop, coupling and drift included
            "dynamics.integrate_ips.us_per_cell_step":
                1e6 * by_name["dynamics.integrate_ips"][2] / cell_steps if cell_steps else 0.0,
            "dynamics.coupling_term.gflop": c["dynamics.coupling_term.flop"] / 1e9,
            "dynamics.coupling_term.gbytes_computed": c["dynamics.coupling_term.bytes"] / 1e9,
            "cli.write_csv.rows": c["cli.write_csv.rows"],
            "cli.write_csv.mb": c["cli.write_csv.bytes"] / 1e6,
        })
        return out
