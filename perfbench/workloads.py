"""The four benchmark workloads: inputs made from a seed, and output checks.

Each workload mirrors an acceptance criterion or a CLI subcommand; all run on
the ``expdist`` kernel with T = 1 and dt = 1e-3. ``setup`` builds the inputs
(config parse + validate for CLI workloads, measure + kernel for library
workloads) and returns the pipeline call. ``speed_mix`` names the probes of
``speed.py`` whose kind of work dominates the workload, and so scale its
wall time. ``check`` returns the problems
found in its result (none when the output is right) and the result's
reference quantities.

On a workload's default seed those quantities are compared with references
recorded from the seed code (``references.json``) and the criterion's own
assertions are applied. On any other seed only finiteness, shapes and
schema are checked, because the criteria's monotonicity claims are
statistical and need not hold for every field draw.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import fractalips
from fractalips import cli, experiments
from speed import ALL

REFERENCES = Path(__file__).with_name("references.json")
# admits summation-order changes; a wrong answer moves these by far more
REL_TOL = 1e-9

COMMON = """\
[kernel]
name = expdist

[time]
T = 1.0
dt = 1e-3
output_stride = {stride}
"""

REFINE_CONFIG = """\
[ifs]
preset = sg

[model]
name = kuramoto
coupling_strength = 1.0
omega = field

[levels]
levels = 2,3,4,5
sublevel = 2

[seeds]
seeds = {seeds}
"""

MEANFIELD_CONFIG = """\
[ifs]
preset = sg

[model]
name = kuramoto
coupling_strength = 1.0
omega = zero

[levels]
levels = 2
ell_levels = 2,3,4
sublevel = 2

[seeds]
seeds = {seeds}
"""

# three maps of ratio 1/2; map1 is rotated by pi, so the maps share no linear
# part and the attractor has no translation structure
SIMULATE_CONFIG = """\
[ifs]
dimension = 2
maps = 3
map1 = ratio=0.5 angle=3.141592653589793 translation=0.5,0.4330127018922193
map2 = ratio=0.5 translation=0.5,0.0
map3 = ratio=0.5 translation=0.25,0.4330127018922193

[model]
name = kuramoto
coupling_strength = 1.0
omega = field

[levels]
levels = {levels}
sublevel = 2

[graph]
kind = bernoulli

[seeds]
seeds = {seeds}
"""

BERNOULLI_GRAPH_SEEDS = range(5)
MEANFIELD_SEEDS = 2
SIMULATE_SEEDS = 3
SIMULATE_LEVELS = (4, 5)


def compare_references(workload, quantities: dict) -> list[str]:
    """Problems where ``quantities`` differ from the recorded references."""
    with open(REFERENCES) as fh:
        refs = json.load(fh)[workload.name]
    problems = []
    if sorted(quantities) != sorted(refs):
        return [f"reference keys {sorted(refs)} but got {sorted(quantities)}"]
    for key, want in refs.items():
        _close(key, quantities[key], want, problems)
    return problems


def _close(name, got, want, problems):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.allclose(got, want, rtol=REL_TOL, atol=0.0):
        problems.append(f"{name}: {got.tolist()} differs from reference {want.tolist()}")


def _finite(name, values, problems):
    if not np.all(np.isfinite(values)):
        problems.append(f"{name}: non-finite values")


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class CliWorkload:
    """A ``fractalips`` subcommand on a config generated from the seed."""

    subcommand = ""

    def config(self, seed: int) -> str:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path):
        cfg_path = workdir / "config.ini"
        cfg_path.write_text(self.config(seed))
        out = workdir / "out"
        cfg = cli.parse_config(cfg_path, output_override=str(out))
        diags = cli.validate(cfg, self.subcommand)
        if diags:
            raise ValueError(f"generated config is invalid: {diags}")
        argv = [self.subcommand, "--config", str(cfg_path), "--output", str(out)]
        return lambda: cli.main(argv)

    def check(self, result, seed: int, workdir: Path):
        if result != 0:
            return [f"fractalips {self.subcommand} exited with code {result}"], {}
        out = workdir / "out"
        expected = self.expected_files(seed)
        found = sorted(p.name for p in out.iterdir())
        if found != sorted(expected + ["manifest.json"]):
            return [f"artifact set {found} is not {sorted(expected)} + manifest.json"], {}
        manifest = json.loads((out / "manifest.json").read_text())
        problems = []
        if manifest["outputs"] != sorted(expected) or manifest["subcommand"] != self.subcommand:
            problems.append(f"manifest.json does not list the outputs: {manifest}")
        more, quantities = self.check_outputs(out, seed)
        return problems + more, quantities

    def expected_files(self, seed: int) -> list[str]:
        raise NotImplementedError

    def check_outputs(self, out: Path, seed: int):
        raise NotImplementedError


class Refine(CliWorkload):
    """``fractalips rate`` on sg, levels 2-5 (acceptance criterion 06)."""

    name = "refine"
    subcommand = "rate"
    default_seed = 2026
    speed_mix = ALL

    def config(self, seed):
        return REFINE_CONFIG.format(seeds=seed) + COMMON.format(stride=10)

    def expected_files(self, seed):
        return ["rate.csv", "rate.json"]

    def check_outputs(self, out, seed):
        problems = []
        report = json.loads((out / "rate.json").read_text())
        errors = np.array(report["errors"])
        if report["levels"] != [2, 3, 4, 5] or errors.shape != (4,):
            return [f"rate.json has levels {report['levels']} and {errors.size} errors"], {}
        _finite("errors", errors, problems)
        if np.any(errors <= 0):
            problems.append(f"errors must be positive: {errors.tolist()}")
        header, rows = _read_csv(out / "rate.csv")
        if header != ["level", "error", "bound", "fitted_alpha"] or len(rows) != 4:
            problems.append(f"rate.csv has header {header} and {len(rows)} rows")
        elif [float(r[1]) for r in rows] != errors.tolist():
            problems.append("rate.csv and rate.json disagree on the errors")
        if seed == self.default_seed:
            # criterion 06
            if not np.all(np.diff(errors) < 0):
                problems.append(f"e_m not strictly decreasing: {errors.tolist()}")
            if np.median(errors[1:] / errors[:-1]) > 0.75:
                problems.append("median refinement ratio above 0.75")
            if not 0.6 <= report["fitted_alpha"] <= 1.2:
                problems.append(f"fitted alpha {report['fitted_alpha']} outside [0.6, 1.2]")
        return problems, {"errors": errors.tolist()}


class Bernoulli:
    """``experiments.bernoulli_gap_medians`` on sg (acceptance criterion 07)."""

    name = "bernoulli"
    default_seed = 2026
    speed_mix = ("dispatch",)

    def setup(self, seed, workdir):
        meas = fractalips.SelfSimilarMeasure.uniform(fractalips.preset("sg"))
        kern = fractalips.builtin_kernels(2)["expdist"]
        return lambda: experiments.bernoulli_gap_medians(
            meas, kern, [2, 3, 4, 5], seeds=BERNOULLI_GRAPH_SEEDS,
            coupling_strength=0.5, T=1.0, dt=1e-3, field_seed=seed,
            sublevel=2, output_stride=10,
        )

    def check(self, result, seed, workdir):
        levels, medians, per_seed = result
        problems = []
        if levels.tolist() != [2, 3, 4, 5] or medians.shape != (4,) or per_seed.shape != (
            4, len(BERNOULLI_GRAPH_SEEDS)
        ):
            return [f"unexpected shapes {levels.shape}, {medians.shape}, {per_seed.shape}"], {}
        _finite("per-seed gaps", per_seed, problems)
        if np.any(per_seed < 0) or not np.array_equal(medians, np.median(per_seed, axis=1)):
            problems.append("gaps are negative or medians do not match the per-seed gaps")
        # criterion 07
        if seed == self.default_seed and not np.all(np.diff(medians) <= 0):
            problems.append(f"medians not nonincreasing: {medians.tolist()}")
        return problems, {"medians": medians.tolist()}


class Meanfield(CliWorkload):
    """``fractalips vlasov`` on sg, m = 2, l = 2,3,4 (acceptance criterion 08)."""

    name = "meanfield"
    subcommand = "vlasov"
    default_seed = 0
    speed_mix = ALL

    def config(self, seed):
        seeds = ",".join(str(seed + i) for i in range(MEANFIELD_SEEDS))
        return MEANFIELD_CONFIG.format(seeds=seeds) + COMMON.format(stride=20)

    def expected_files(self, seed):
        return ["vlasov.csv", "vlasov_summary.csv"]

    def check_outputs(self, out, seed):
        problems = []
        header, rows = _read_csv(out / "vlasov.csv")
        n_times = 1000 // 20 + 1
        if header != ["seed", "ell_coarse", "ell_fine", "t", "distance"] or len(
            rows
        ) != MEANFIELD_SEEDS * 2 * n_times:
            return [f"vlasov.csv has header {header} and {len(rows)} rows"], {}
        dist = np.array([float(r[4]) for r in rows])
        _finite("distances", dist, problems)
        if np.any(dist < 0):
            problems.append("negative W1 distance")
        header, rows = _read_csv(out / "vlasov_summary.csv")
        pairs = [(int(r[0]), int(r[1])) for r in rows]
        if header != ["ell_coarse", "ell_fine", "median_max_distance"] or pairs != [
            (2, 3), (3, 4)
        ]:
            return problems + [f"vlasov_summary.csv has header {header}, pairs {pairs}"], {}
        medians = np.array([float(r[2]) for r in rows])
        worst = dist.reshape(MEANFIELD_SEEDS, 2, n_times).max(axis=2)
        if not np.array_equal(medians, np.median(worst, axis=0)):
            problems.append("summary medians do not match vlasov.csv")
        # criterion 08
        if seed == self.default_seed and not medians[1] < medians[0]:
            problems.append(f"distances not decreasing: {medians.tolist()}")
        return problems, {"medians": medians.tolist()}


class Simulate(CliWorkload):
    """``fractalips simulate`` with Bernoulli graphs on an inline IFS."""

    name = "simulate"
    subcommand = "simulate"
    default_seed = 1
    speed_mix = ALL

    def config(self, seed):
        seeds = ",".join(str(seed + i) for i in range(SIMULATE_SEEDS))
        levels = ",".join(map(str, SIMULATE_LEVELS))
        return SIMULATE_CONFIG.format(seeds=seeds, levels=levels) + COMMON.format(stride=10)

    def runs(self, seed):
        """(level, graph seed, file stem) of every trajectory written."""
        return [
            (m, s, f"trajectory_m{m}_seed{s}")
            for m in SIMULATE_LEVELS
            for s in range(seed, seed + SIMULATE_SEEDS)
        ]

    def expected_files(self, seed):
        return [
            f"{stem}{ext}" for _, _, stem in self.runs(seed) for ext in (".csv", ".meta.json")
        ]

    def check_outputs(self, out, seed):
        problems = []
        n_times = 1000 // 10 + 1
        times = np.arange(n_times) * 1e-3 * 10
        quantities = {}
        for m, graph_seed, stem in self.runs(seed):
            n = 3**m
            header, rows = _read_csv(out / f"{stem}.csv")
            if header != ["t", "cell_index", "component", "value"] or len(rows) != n_times * n:
                problems.append(f"{stem}.csv has header {header} and {len(rows)} rows")
                continue
            table = np.array(rows, dtype=np.float64).reshape(n_times, n, 4)
            if not (
                np.allclose(table[:, 0, 0], times, rtol=0, atol=1e-12)
                and np.array_equal(table[0, :, 1], np.arange(n))
                and not table[:, :, 2].any()
            ):
                problems.append(f"{stem}.csv: time grid or cell indexing is wrong")
            values = table[:, :, 3]
            _finite(stem, values, problems)
            # |du/dt| <= |omega| + K sum_v G_wv <= 1 + 1
            if np.any(np.abs(values - values[0]) > 2.0 * times[:, None] + 1e-9):
                problems.append(f"{stem}.csv: phases moved faster than the model allows")
            meta = json.loads((out / f"{stem}.meta.json").read_text())
            if (meta["level"], meta["seed"], meta["coupling"]) != (m, graph_seed, "bernoulli"):
                problems.append(f"{stem}.meta.json describes another run: {meta}")
            # two moments stand in for the whole trajectory; the plain sum would
            # not do, as a symmetric graph conserves it
            quantities[stem] = [float((values**2).sum()),
                                float((values * np.arange(1, n + 1)).sum())]
        return problems, quantities


WORKLOADS = {w.name: w for w in (Refine(), Bernoulli(), Meanfield(), Simulate())}

