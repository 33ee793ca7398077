"""Experiment driver: INI configs in, CSV/JSON artifacts out.

Subcommands dispatch the library pipelines and write schema-stable CSVs
(RFC 4180, 17 significant digits, locale-independent) plus a manifest JSON
carrying the config hash, library version, seeds, and wall time.  All
randomness flows from seeds in the config; reruns are byte-identical except
for the manifest's wall-time field.

Exit codes: 0 ok; a refusal exits with the code ``EXIT_CODES`` gives its
error: 2 invalid config, 3 budget exceeded, 4 numerical abort, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    lipschitz_norm_estimate,
    median,
    modulus_profile,
    projection_error,
    rate_fit,
    vlasov_self_convergence,
)
from .dynamics import (
    builtin_kernels,
    builtin_models,
    integrate_levels,
    project_kernel,
    step_count,
)
from .errors import BudgetExceededError, ConfigError, NumericalAbortError
from .experiments import level_data, refinement_errors, uniform_phase_sampler
from .geometry import (
    IFS,
    Similitude,
    fixed_point_centroid,
    has_common_linear_part,
    preset,
)
from .quadrature import (
    SelfSimilarMeasure,
    integrate_mc,
    integrate_qmc,
    stationary_mean,
)
from .symbolic import DEFAULT_ENUMERATION_CAP, ProbabilityVector
from .transfer import (
    kernel_to_graphon,
    martingale_level,
    transfer_to_interval,
)

# the finest level whose step picture ``transfer`` writes: 3^6 = 729 cells on sg
TRANSFER_MAX_LEVEL = 6


def _test_functions(d: int) -> dict:
    fns = {
        "one": lambda x: np.ones(len(x)),
        "coord1": (lambda x: x) if d == 1 else (lambda x: x[..., 0]),
    }
    if d >= 2:
        fns["coord2"] = lambda x: x[..., 1]
        fns["coordsum"] = lambda x: x[..., 0] + x[..., 1]
        fns["expdiff"] = lambda x: np.exp(-np.abs(x[..., 0] - x[..., 1]))
        fns["gauss"] = lambda x: np.exp(-np.sum((x - 0.5) ** 2, axis=-1))
    else:
        fns["expdiff"] = lambda x: np.exp(-np.abs(x - 0.5))
        fns["gauss"] = lambda x: np.exp(-((x - 0.5) ** 2))
    return fns


def _ini(key: str, default, least=None):
    """A field set by the INI key ``section.name``, or else ``default``; an
    integer field (or each entry of a tuple) must be at least ``least``."""
    return field(default=default, metadata={"ini": key, "least": least})


# the type of a field's default picks the ConfigParser getter of its value
_GETTERS = {str: "get", int: "getint", float: "getfloat", bool: "getboolean",
            tuple: "getints"}


@dataclass
class ExperimentConfig:
    """Parsed and validated experiment settings.

    Each ``_ini`` field declares one plain INI key, which ``parse_config``
    reads and ``validate`` accepts, and checks against its ``least`` value.
    """

    ifs: IFS
    ifs_label: str
    p: ProbabilityVector
    function_name: str = _ini("function.name", "expdiff")
    kernel_name: str = _ini("kernel.name", "expdist")
    kernel_value: float = _ini("kernel.value", 1.0)
    model_name: str = _ini("model.name", "kuramoto")
    coupling_strength: float = _ini("model.coupling_strength", 1.0)
    damping: float = _ini("model.damping", 1.0)
    omega_mode: str = _ini("model.omega", "field")
    omega_scale: float = _ini("model.omega_scale", 1.0)
    levels: tuple = _ini("levels.levels", (2, 3, 4, 5), least=0)
    ell_levels: tuple = _ini("levels.ell_levels", (2, 3, 4), least=1)
    sublevel: int = _ini("levels.sublevel", 2, least=0)
    T: float = _ini("time.T", 1.0)
    dt: float = _ini("time.dt", 1e-3)
    output_stride: int = _ini("time.output_stride", 10, least=1)
    quad_level: int = _ini("quadrature.level", 10, least=0)
    quad_samples: int = _ini("quadrature.samples", 100000, least=1)
    quad_tail: int = _ini("quadrature.tail", 40, least=1)
    graph_kind: str = _ini("graph.kind", "deterministic")
    graph_symmetric: bool = _ini("graph.symmetric", True)
    modulus_p: float = _ini("modulus.p", 2.0)
    modulus_max_ell: int = _ini("modulus.max_ell", 9)
    seeds: tuple = _ini("seeds.seeds", (1,), least=0)
    output_dir: str = _ini("experiment.output_dir", "out")
    raw_items: dict = field(default_factory=dict)

    def measure(self) -> SelfSimilarMeasure:
        return SelfSimilarMeasure(self.ifs, self.p)

    def kernel(self):
        kernels = builtin_kernels(self.ifs.dimension)
        if self.kernel_name == "constant":
            return kernels["constant"](self.kernel_value)
        return kernels[self.kernel_name]

    def model(self):  # built once per run: only its params change with the level
        return builtin_models()[self.model_name](self.coupling_strength, self.damping, 0.0)

    def omega_amplitude(self) -> float:
        """The amplitude of the frequency field: ``omega_scale`` with
        ``model.omega = field``, 0 with ``zero``, and ValueError otherwise."""
        if self.omega_mode not in ("field", "zero"):
            raise ValueError(f"model omega must be 'field' or 'zero', not {self.omega_mode!r}")
        return self.omega_scale if self.omega_mode == "field" else 0.0

    def test_function(self):
        return _test_functions(self.ifs.dimension)[self.function_name]

    def config_hash(self) -> str:
        payload = json.dumps(
            sorted(
                (k, v)
                for k, v in self.raw_items.items()
                if k != "experiment.output_dir"
            ),
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


_INI_FIELDS = tuple(f for f in fields(ExperimentConfig) if "ini" in f.metadata)
# the declared keys plus those parse_config reads by hand; validate matches
# the ifs.map<i> lines by their prefix
_KNOWN_KEYS = {"ifs.preset", "ifs.dimension", "ifs.maps", "measure.p"} | {
    f.metadata["ini"] for f in _INI_FIELDS
}


def _parse_map_line(text: str, dimension: int) -> Similitude:
    tokens = [tok.split("=", 1) for tok in text.split()]
    if any(len(tok) != 2 for tok in tokens):
        raise ConfigError(f"map definition tokens must be key=value: {text!r}")
    parts = dict(tokens)
    if "translation" not in parts or "ratio" not in parts:
        raise ConfigError(f"map definition needs ratio= and translation=: {text!r}")
    try:
        ratio = float(parts["ratio"])
        trans = np.array([float(v) for v in parts["translation"].split(",")])
        if trans.shape != (dimension,):
            raise ConfigError(f"translation has wrong dimension in {text!r}")
        if "matrix" in parts:
            mat = np.array([float(v) for v in parts["matrix"].split(",")])
            if mat.size != dimension * dimension:
                raise ConfigError(f"matrix needs {dimension * dimension} entries")
            return Similitude(ratio, mat.reshape(dimension, dimension), trans)
        if "angle" in parts:
            if dimension != 2:
                raise ConfigError("rotation angles are only supported in dimension 2")
            return Similitude.rotation_2d(ratio, float(parts["angle"]), trans)
        return Similitude.homothety(ratio, trans)
    except ValueError as exc:
        raise ConfigError(f"bad map definition {text!r}: {exc}") from exc


def _collect_items(cp: configparser.ConfigParser) -> dict:
    items = {}
    for section in cp.sections():
        for key, value in cp.items(section):
            items[f"{section}.{key}"] = value.strip()
    return items


def parse_config(path: str | Path, preset_override: str | None = None,
                 output_override: str | None = None) -> ExperimentConfig:
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"),
        converters={"ints": lambda raw: tuple(int(v) for v in raw.split(","))},
    )
    cp.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    try:
        items = _collect_items(cp)
    except configparser.Error as exc:  # e.g. a lone % in a value
        raise ConfigError(f"malformed config: {exc}") from exc

    ifs_label = preset_override or items.get("ifs.preset")
    if ifs_label:
        try:
            ifs = preset(ifs_label)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        if not cp.has_section("ifs"):
            raise ConfigError("config needs an [ifs] section (preset or inline maps)")
        try:
            dimension = cp.getint("ifs", "dimension")
            count = cp.getint("ifs", "maps")
        except (configparser.Error, ValueError) as exc:
            raise ConfigError(f"inline IFS needs dimension and maps: {exc}") from exc
        maps = []
        for i in range(1, count + 1):
            raw = items.get(f"ifs.map{i}")
            if raw is None:
                raise ConfigError(f"missing map{i} in [ifs]")
            maps.append(_parse_map_line(raw, dimension))
        try:
            ifs = IFS(tuple(maps))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        ifs_label = "inline"

    praw = items.get("measure.p", "natural")
    if praw == "natural":
        p = SelfSimilarMeasure.natural_measure(ifs).p
    else:
        try:
            p = ProbabilityVector(tuple(float(v) for v in praw.split(",")))
        except ValueError as exc:
            raise ConfigError(f"bad probability vector {praw!r}: {exc}") from exc
        if p.k != ifs.k:
            raise ConfigError("probability vector length must match the map count")

    # keys left out keep their dataclass defaults
    try:
        values = {
            f.name: getattr(cp, _GETTERS[type(f.default)])(*f.metadata["ini"].split("."))
            for f in _INI_FIELDS
            if f.metadata["ini"] in items
        }
    except ValueError as exc:
        raise ConfigError(f"bad numeric value in config: {exc}") from exc
    if output_override:
        values["output_dir"] = output_override
    return ExperimentConfig(ifs=ifs, ifs_label=ifs_label, p=p, raw_items=items,
                            **values)


def validate(cfg: ExperimentConfig, subcommand: str | None = None) -> list[str]:
    """Collect human-readable diagnostics; an empty list means clean.

    With no subcommand, the diagnostics of every subcommand, each once: the
    list is empty only when every run accepts the config."""
    if subcommand is None:
        return list(dict.fromkeys(d for s in SUBCOMMANDS for d in validate(cfg, s)))
    diags = []
    for key in cfg.raw_items:
        section, name = key.split(".", 1)
        if section not in {known.split(".")[0] for known in _KNOWN_KEYS}:
            diags.append(f"unknown section [{section}]")
        elif key not in _KNOWN_KEYS and not (
            section == "ifs" and name.startswith("map")
        ):
            diags.append(f"unknown key {key}")
    k = cfg.ifs.k
    top = max(cfg.levels) + max(cfg.sublevel, 1)
    if k**top > DEFAULT_ENUMERATION_CAP:
        diags.append(
            f"level cap violation: k^(max level + sublevel) = {k}^{top} exceeds "
            f"{DEFAULT_ENUMERATION_CAP}"
        )
    if cfg.function_name not in _test_functions(cfg.ifs.dimension):
        diags.append(f"unknown test function {cfg.function_name!r}")
    if cfg.kernel_name not in builtin_kernels(cfg.ifs.dimension):
        diags.append(f"unknown kernel {cfg.kernel_name!r}")
    if cfg.graph_kind not in ("deterministic", "bernoulli"):
        diags.append(f"unknown graph kind {cfg.graph_kind!r}")
    if cfg.graph_kind == "bernoulli":
        known = cfg.kernel_name in builtin_kernels(cfg.ifs.dimension)
        if not (known and cfg.kernel().unit_range):
            diags.append(
                f"kernel {cfg.kernel_name!r} is not certified to take values in "
                "[0, 1]; Bernoulli sampling will reject it"
            )
    if subcommand == "modulus" and not has_common_linear_part(cfg.ifs):
        diags.append(
            "modulus mode requires an IFS whose maps share a common linear part"
        )
    # project fits the modulus, and a rate, only where _fits_modulus holds
    modulus_fit = subcommand == "modulus" or subcommand == "project" and _fits_modulus(cfg)
    # rate_fit drops levels 0 and 1, the modulus fit keeps them
    fitted = sorted({m for m in cfg.levels if m >= 2 or subcommand == "modulus"})
    if (modulus_fit or subcommand == "rate") and len(fitted) < 3:
        diags.append(f"{subcommand} mode needs at least 3 levels to fit a rate; "
                     f"it fits levels {fitted}")
    if cfg.function_name == "one" and modulus_fit:
        diags.append(f"{subcommand} mode fits the decay of the modulus, which is "
                     "zero for the constant function 'one'")
    if subcommand == "transfer" and max(cfg.levels) > TRANSFER_MAX_LEVEL:
        diags.append(f"transfer mode writes levels up to {TRANSFER_MAX_LEVEL}, "
                     f"not {max(cfg.levels)}")
    if subcommand == "vlasov" and len(cfg.ell_levels) < 2:
        diags.append("vlasov mode needs at least 2 refinement levels")
    if cfg.model_name not in builtin_models():
        diags.append(f"unknown model {cfg.model_name!r}")
    elif subcommand == "vlasov" and cfg.model().state_dim != 1:
        diags.append(f"vlasov mode compares scalar states only, and {cfg.model_name!r} "
                     "has more than one state component")
    if subcommand in ("rate", "vlasov") and cfg.graph_kind == "bernoulli":
        diags.append(f"{subcommand} mode integrates the deterministic graph only, "
                     "not a bernoulli one")
    try:  # omega_amplitude owns the rule of model.omega
        cfg.omega_amplitude()
    except ValueError as exc:
        diags.append(str(exc))
    for f in _INI_FIELDS:
        key, least, value = f.metadata["ini"], f.metadata["least"], getattr(cfg, f.name)
        low = min(value, default=least) if isinstance(value, tuple) else value
        if least is not None and low < least:
            diags.append(f"{key} must be >= {least}, not {low}")
        if isinstance(value, tuple) and len(set(value)) < len(value):
            diags.append(f"{key} repeats a value: {','.join(map(str, value))}")
        # step_count owns the rules of the time grid
        if (isinstance(value, float) and not math.isfinite(value)
                and f.name not in ("T", "dt")):
            diags.append(f"{key} must be finite, not {value}")
    if -math.inf < cfg.modulus_p <= 0:  # a non-finite p is reported above
        diags.append(f"modulus.p must be > 0, not {cfg.modulus_p}")
    try:
        step_count(cfg.T, cfg.dt)
    except ValueError as exc:
        diags.append(str(exc))
    return diags


# ---------------------------------------------------------------------------
# artifact writing


@dataclass(frozen=True)
class _Lines:
    """A sized iterable of CSV lines, each formatted as it is read, so that
    ``write_csv`` streams them and no list of all of them is held."""

    line: str
    columns: tuple  # broadcast views, one per %-field
    size: int

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        # .flat walks the broadcast views without copying them to full size
        return map(self.line.__mod__, zip(*(c.flat for c in self.columns)))


def _columns(template: str, *columns) -> _Lines:
    """CSV lines from columns broadcast to one shape, each line formatted by
    one %-template: ``%d`` for integers, ``%.17g`` for floats (as
    ``format(x, ".17g")``) and ``%s`` for text, which must need no quoting;
    a field without ``%`` is literal.  A column smaller than the lines (a
    trajectory's times) is formatted once per element, then broadcast."""
    shape = np.broadcast_shapes(*map(np.shape, columns))
    columns = iter(columns)
    parts, items = template.split(","), []
    for i, fmt in enumerate(parts):
        if "%" in fmt:
            col = np.asarray(next(columns))
            if col.shape != shape:
                col = np.fromiter(map(fmt.__mod__, col.ravel().tolist()), object,
                                  col.size).reshape(col.shape)
                parts[i] = "%s"
            items.append(col)
    line = ",".join(parts) + csv.excel.lineterminator
    return _Lines(line, tuple(np.broadcast_arrays(*items)), math.prod(shape))


def write_csv(path: Path, header, rows) -> None:
    """Write the header and ``rows``, any sized iterable of lines (those of
    ``_columns``), line by line."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(rows)


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out: Path, subcommand: str, cfg: ExperimentConfig,
                   outputs: list[str], started: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "config_hash": cfg.config_hash(),
        "library_version": __version__,
        "seeds": list(cfg.seeds),
        "ifs": cfg.ifs_label,
        "outputs": sorted(outputs),
        "wall_time_s": time.time() - started,
    }
    _write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# subcommand pipelines


def run_integrate(cfg: ExperimentConfig, out: Path) -> list[str]:
    meas = cfg.measure()
    anchor = fixed_point_centroid(cfg.ifs)
    d = cfg.ifs.dimension
    one = _test_functions(d)["one"]
    ident = lambda x: x
    rows = []
    total = integrate_qmc(meas, one, cfg.quad_level, anchor=anchor)
    rows.append(("total_mass", "qmc", 0, total, 1.0, abs(total - 1.0)))
    ref = stationary_mean(meas)
    bary_qmc = np.atleast_1d(integrate_qmc(meas, ident, cfg.quad_level, anchor=anchor))
    for c in range(d):
        rows.append(
            ("barycenter", "qmc", c, bary_qmc[c], ref[c], abs(bary_qmc[c] - ref[c]))
        )
    for seed in cfg.seeds:
        est = np.atleast_1d(
            integrate_mc(meas, ident, cfg.quad_samples, cfg.quad_tail, seed)
        )
        for c in range(d):
            rows.append(
                (f"barycenter_seed{seed}", "mc", c, est[c], ref[c], abs(est[c] - ref[c]))
            )
    write_csv(out / "integrate.csv",
              ("quantity", "method", "component", "value", "reference", "abs_error"),
              _columns("%s,%s,%d,%.17g,%.17g,%.17g", *zip(*rows)))
    return ["integrate.csv"]


def _fits_modulus(cfg: ExperimentConfig) -> bool:
    """Whether ``project`` fits the modulus to bound its errors."""
    return has_common_linear_part(cfg.ifs) and cfg.p.is_uniform


def run_project(cfg: ExperimentConfig, out: Path) -> list[str]:
    meas = cfg.measure()
    phi = cfg.test_function()
    levels = sorted(cfg.levels)
    errors = [projection_error(meas, phi, m, 2.0, max(cfg.sublevel, 2)) for m in levels]
    # without a modulus fit the bound and fitted_alpha fields stay empty
    template, fitted = "%d,%.17g,%.17g,,", ()
    if _fits_modulus(cfg):
        mls, omega = modulus_profile(
            meas, phi, levels, 2.0, max(cfg.modulus_max_ell, levels[-1]), cfg.sublevel
        )
        lam = cfg.ifs.maps[0].ratio
        rep = lipschitz_norm_estimate(mls, omega, lam)
        fit = rate_fit(errors, lam, levels=levels, k=cfg.ifs.k,
                       lip_norm=rep.lip_norm)
        template, fitted = "%d,%.17g,%.17g,%.17g,%.17g", (fit.bound, fit.fitted_alpha)
    write_csv(out / "projection.csv",
              ("level", "p", "error", "bound", "fitted_alpha"),
              _columns(template, levels, 2.0, errors, *fitted))
    return ["projection.csv"]


def run_transfer(cfg: ExperimentConfig, out: Path) -> list[str]:
    """The test function's step picture at the top level, which ``validate``
    keeps at most ``TRANSFER_MAX_LEVEL``, and the kernel's graphon picture at
    level min(max(levels), 4)."""
    meas = cfg.measure()
    m = min(max(cfg.levels), TRANSFER_MAX_LEVEL)
    fld = martingale_level(meas, cfg.test_function(), m, cfg.sublevel)
    step = transfer_to_interval(fld, cfg.p)
    write_csv(out / "transfer_step.csv",
              ("cell_index", "left", "right", "width", "value"),
              _columns("%d,%.17g,%.17g,%.17g,%.17g", np.arange(step.n_cells),
                       step.breakpoints[:-1], step.breakpoints[1:], step.widths,
                       step.values[:, 0]))

    km = project_kernel(meas, cfg.kernel(), min(m, 4), cfg.sublevel)
    img = kernel_to_graphon(km, cfg.p)
    rows, cols = img.values.shape
    write_csv(out / "graphon_pixels.csv", ("row", "col", "value"),
              _columns("%d,%d,%.17g", np.arange(rows)[:, None], np.arange(cols),
                       img.values))
    return ["transfer_step.csv", "graphon_pixels.csv"]


def run_simulate(cfg: ExperimentConfig, out: Path) -> list[str]:
    meas = cfg.measure()
    graph_seeds = cfg.seeds if cfg.graph_kind == "bernoulli" else None
    levels = sorted(cfg.levels)
    model = cfg.model()
    data = level_data(meas, model, cfg.seeds[0], cfg.omega_amplitude(), cfg.sublevel)
    # the kernel, frequencies and phases depend on the level only; the graph
    # seeds share them, and a deterministic run integrates the shared graph
    # of rate and vlasov, one trajectory per level
    series = integrate_levels(meas, cfg.kernel(), levels, cfg.sublevel, *data, cfg.T,
                              cfg.dt, cfg.output_stride, graph_seeds, cfg.graph_symmetric)
    outputs = []
    for m, trajs in zip(levels, series):
        for seed, traj in zip(graph_seeds, trajs) if graph_seeds else [(None, trajs)]:
            stem = f"trajectory_m{m}" + ("" if seed is None else f"_seed{seed}")
            outputs += _write_trajectory(out, stem, traj, model, seed, cfg)
    return outputs


def _write_trajectory(out: Path, stem: str, traj, model, seed,
                      cfg: ExperimentConfig) -> list[str]:
    """The trajectory's CSV and its sidecar: the run that made it, with the
    graph's seed (None for the deterministic graph)."""
    _, cells, comps = traj.values.shape
    write_csv(out / f"{stem}.csv", ("t", "cell_index", "component", "value"),
              _columns("%.17g,%d,%d,%.17g", traj.times[:, None, None],
                       np.arange(cells)[:, None], np.arange(comps), traj.values))
    meta = {
        "model": model.name,
        "level": traj.level,
        "k": traj.k,
        "dt": cfg.dt,
        "T": cfg.T,
        "output_stride": cfg.output_stride,
        "coupling": "deterministic" if seed is None else "bernoulli",
        "seed": seed,
        "config_hash": cfg.config_hash(),
    }
    _write_json(out / f"{stem}.meta.json", meta)
    return [f"{stem}.csv", f"{stem}.meta.json"]


def run_rate(cfg: ExperimentConfig, out: Path) -> list[str]:
    levels, errors, _ = refinement_errors(
        cfg.measure(), cfg.kernel(), cfg.levels, cfg.model(), cfg.T, cfg.dt, cfg.seeds[0],
        cfg.sublevel, cfg.output_stride, cfg.omega_amplitude())
    lam = max(m.ratio for m in cfg.ifs.maps)
    fit = rate_fit(errors, lam, levels=levels)
    # fitted envelope C lambda^(alpha m) with C matched to the worst level
    env = float(np.max(errors * lam ** (-fit.fitted_alpha * levels)))
    bounds = env * lam ** (fit.fitted_alpha * levels)
    write_csv(out / "rate.csv", ("level", "error", "bound", "fitted_alpha"),
              _columns("%d,%.17g,%.17g,%.17g", levels, errors, bounds,
                       fit.fitted_alpha))
    report = {
        "levels": [int(m) for m in levels],
        "errors": [float(e) for e in errors],
        "bounds": [float(b) for b in bounds],
        "fitted_alpha": fit.fitted_alpha,
        "lambda": lam,
        "config_hash": cfg.config_hash(),
        "seeds": list(cfg.seeds),
    }
    _write_json(out / "rate.json", report)
    return ["rate.csv", "rate.json"]


def run_vlasov(cfg: ExperimentConfig, out: Path) -> list[str]:
    meas = cfg.measure()
    m = min(cfg.levels)
    model_builder, _ = level_data(meas, cfg.model(), cfg.seeds[0], cfg.omega_amplitude(),
                                  cfg.sublevel)
    table = vlasov_self_convergence(
        meas, model_builder, cfg.kernel(), uniform_phase_sampler, m, cfg.ell_levels, cfg.T,
        cfg.dt, cfg.seeds, cfg.sublevel, cfg.output_stride)
    pairs = np.array(table.ell_pairs)
    write_csv(out / "vlasov.csv",
              ("seed", "ell_coarse", "ell_fine", "t", "distance"),
              _columns("%d,%d,%d,%.17g,%.17g", np.array(table.seeds)[:, None, None],
                       pairs[:, :1], pairs[:, 1:], table.times, table.distances))
    worst = table.distances.max(axis=2)  # (seeds, pairs)
    write_csv(out / "vlasov_summary.csv",
              ("ell_coarse", "ell_fine", "median_max_distance"),
              _columns("%d,%d,%.17g", pairs[:, 0], pairs[:, 1],
                       median(worst, axis=0)))
    return ["vlasov.csv", "vlasov_summary.csv"]


def run_modulus(cfg: ExperimentConfig, out: Path) -> list[str]:
    meas = cfg.measure()
    phi = cfg.test_function()
    levels = sorted(cfg.levels)
    # compute one extra level so the lambda^(l+1) scaling column is exact
    mls, omega = modulus_profile(
        meas, phi, levels + [levels[-1] + 1], cfg.modulus_p,
        max(cfg.modulus_max_ell, levels[-1] + 1), cfg.sublevel
    )
    omega_main = omega[: len(levels)]
    omega_shifted = omega[1 : len(levels) + 1]
    lam = cfg.ifs.maps[0].ratio
    rep = lipschitz_norm_estimate(np.array(levels), omega_main, lam)
    write_csv(out / "modulus.csv",
              ("level", "omega_p", "omega_p_shifted", "fitted_alpha"),
              _columns("%d,%.17g,%.17g,%.17g", levels, omega_main, omega_shifted,
                       rep.fitted_alpha))
    report = {
        "p": cfg.modulus_p,
        "lambda": lam,
        "fitted_alpha": rep.fitted_alpha,
        "lip_norm": rep.lip_norm,
        "levels": [int(m) for m in levels],
        "omega_p": [float(v) for v in omega_main],
        "omega_p_shifted": [float(v) for v in omega_shifted],
        "tau_scalings": "omega_p uses tau = lambda^l tau_ij; omega_p_shifted "
                        "uses tau = lambda^(l+1) tau_ij",
        "config_hash": cfg.config_hash(),
        "seeds": list(cfg.seeds),
        "function": cfg.function_name,
    }
    _write_json(out / "modulus.json", report)
    return ["modulus.csv", "modulus.json"]


_RUNNERS = {
    "integrate": run_integrate,
    "project": run_project,
    "transfer": run_transfer,
    "simulate": run_simulate,
    "rate": run_rate,
    "vlasov": run_vlasov,
    "modulus": run_modulus,
}
SUBCOMMANDS = tuple(_RUNNERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalips",
        description="Experiments for particle systems on self-similar networks",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS + ("validate",):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="INI config path")
        sp.add_argument("--output", default=None, help="output directory")
        sp.add_argument("--preset", default=None, help="IFS preset override")
    return parser


# the exit code of each refusal, looked up along the exception's classes;
# any other exception keeps its traceback
EXIT_CODES = {ConfigError: 2, BudgetExceededError: 3, NumericalAbortError: 4, OSError: 5}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.preset, args.output)
        if args.subcommand == "validate":
            print("\n".join(validate(cfg)) or "config ok")
            return 0
        diags = validate(cfg, args.subcommand)
        if diags:
            raise ConfigError(*diags)
        started = time.time()
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        outputs = _RUNNERS[args.subcommand](cfg, out)
        write_manifest(out, args.subcommand, cfg, outputs, started)
    except tuple(EXIT_CODES) as exc:
        # a ConfigError holds one diagnostic per argument
        for message in exc.args if isinstance(exc, ConfigError) else (exc,):
            print(f"error: {message}", file=sys.stderr)
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
