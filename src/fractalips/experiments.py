"""Reusable experiment pipelines behind the CLI and the acceptance suite.

Each pipeline builds its data from explicit seeds only (random fields are
low-order trigonometric polynomials with seeded coefficients, so they are
Lipschitz and consistent across refinement levels).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .analysis import median, traj_error
from .dynamics import integrate_levels, kuramoto_model
from .quadrature import SelfSimilarMeasure
from .transfer import PiecewiseConstantField, coarsen, martingale_level


def random_trig_field(seed, dimension: int, amplitude: float = 1.0,
                      offset: float = 0.0):
    """A seeded random Lipschitz function: a sum of three plane waves.

    Sampling the field once (rather than white noise per cell) keeps its
    level-m projections consistent under coarsening, which is what the
    refinement benchmarks require.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n_modes = 3
    amps = rng.uniform(-1.0, 1.0, size=n_modes) * (amplitude / n_modes)
    freqs = rng.uniform(0.5, 2.0, size=(n_modes, dimension))
    shifts = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)

    def f(x):
        xa = np.asarray(x, dtype=np.float64)
        if dimension == 1:
            xa = xa[..., None]
        acc = np.full(xa.shape[:-1], float(offset))
        for a, w, s in zip(amps, freqs, shifts):
            acc = acc + a * np.sin(2.0 * np.pi * (xa @ w) + s)
        return acc

    return f


def kuramoto_fields(seed, dimension: int, omega_scale: float = 1.0):
    """The seeded (frequency, initial phase) fields of the Kuramoto runs."""
    return (
        random_trig_field((seed, 1), dimension, amplitude=omega_scale),
        random_trig_field((seed, 2), dimension, offset=0.5),
    )


def level_data(meas: SelfSimilarMeasure, model, seed, omega_scale: float, sublevel: int,
               fine: int | None = None):
    """The ``(model_builder, init_builder)`` of ``integrate_levels`` for the
    Kuramoto data of ``seed``: the fields of ``kuramoto_fields``.

    The frequency field, of amplitude ``omega_scale``, becomes the model's
    params if it has params and the amplitude is not 0; else the one model
    serves every level.  The phases fill the first state component and the
    others are 0.  Each field is projected at every level, or with ``fine``
    projected once at that level and coarsened, so that all levels
    discretize one and the same pair of data functions.
    """
    omega_fn, phase_fn = kuramoto_fields(seed, meas.ifs.dimension, omega_scale)

    def projected(fn):
        if fine is None:
            return lambda m: martingale_level(meas, fn, m, sublevel)
        top = martingale_level(meas, fn, fine, sublevel)
        return lambda m: coarsen(top, m, meas.p)

    model_builder = lambda m: model
    if model.params is not None and omega_scale != 0:
        omega = projected(omega_fn)
        model_builder = lambda m: replace(model, params=omega(m))
    phases, pad = projected(phase_fn), ((0, 0), (0, model.state_dim - 1))
    initial = lambda m: PiecewiseConstantField(meas.k, m, np.pad(phases(m).values, pad))
    return model_builder, initial


def refinement_errors(meas: SelfSimilarMeasure, kernel, levels, model, T: float = 1.0,
                      dt: float = 1e-3, seed: int = 0, sublevel: int = 2,
                      output_stride: int = 10, omega_scale: float = 1.0):
    """The continuum-limit self-convergence series e_m = ||u^m - u^(m+1)|| of ``model``.

    Its data is that of ``level_data``, projected once at the finest level
    and coarsened to every coarser level.
    """
    levels = sorted(int(m) for m in levels)
    needed = sorted(set(levels) | {m + 1 for m in levels})
    series = integrate_levels(
        meas, kernel, needed, sublevel,
        *level_data(meas, model, seed, omega_scale, sublevel, fine=needed[-1]),
        T, dt, output_stride)
    trajs = dict(zip(needed, series))
    errors = np.array([traj_error(trajs[m], trajs[m + 1], meas).max_error for m in levels])
    return np.array(levels), errors, trajs


def kuramoto_refinement_errors(meas: SelfSimilarMeasure, kernel, levels,
                               coupling_strength: float = 1.0, T: float = 1.0,
                               dt: float = 1e-3, seed: int = 0, sublevel: int = 2,
                               output_stride: int = 10, omega_scale: float = 1.0):
    """``refinement_errors`` of the Kuramoto model of ``coupling_strength``."""
    return refinement_errors(meas, kernel, levels, kuramoto_model(coupling_strength),
                             T, dt, seed, sublevel, output_stride, omega_scale)


def bernoulli_gap_medians(
    meas: SelfSimilarMeasure,
    kernel,
    levels,
    seeds,
    coupling_strength: float = 1.0,
    T: float = 1.0,
    dt: float = 1e-3,
    field_seed: int = 0,
    sublevel: int = 2,
    output_stride: int = 10,
):
    """Median over seeds of ||u^m - u_random^m|| per level.

    The deterministic and W-random systems share the projected kernel, data,
    and time grid; only the Bernoulli edge draws differ across seeds.
    """
    levels = sorted(int(m) for m in levels)
    seeds = tuple(int(s) for s in seeds)
    # member 0 of each level is the deterministic system, members 1.. its
    # Bernoulli draws
    series = integrate_levels(
        meas, kernel, levels, sublevel,
        *level_data(meas, kuramoto_model(coupling_strength), field_seed, 1.0, sublevel),
        T, dt, output_stride, graph_seeds=(None, *seeds))
    per_seed = np.array([[traj_error(base, t, meas).max_error for t in draws]
                         for base, *draws in series]).reshape(len(levels), len(seeds))
    medians = [float(median(row)) for row in per_seed]
    return np.array(levels), np.array(medians), per_seed


def uniform_phase_sampler(rng, cell_index: int, n: int):
    """i.i.d. uniform phases within each coarse cell (the mean-field setup)."""
    return rng.random((n, 1))
