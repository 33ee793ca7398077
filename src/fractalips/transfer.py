"""Piecewise-constant fields on cylinder partitions and their interval images.

A level-m field assigns one state vector to every level-m cell, indexed
lexicographically.  Conditional-expectation levels of a function form a
martingale; pushing the same coefficients onto the canonical interval
cylinders realizes the measure isomorphism between the attractor and [0, 1]
as a step function, and kernels become pixel images on the unit square.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import attractor_points
from .quadrature import (
    SelfSimilarMeasure,
    cell_means,
    evaluate_on_points,
    pairwise_sum,
)
from .symbolic import ProbabilityVector, check_level_size, level_weights


def _as_2d(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2:
        raise ValueError("field values must be a 1-D or 2-D array")
    return v


@dataclass(frozen=True)
class PiecewiseConstantField:
    """Level-m coefficients over the k**m cells, one state vector per cell."""

    k: int
    level: int
    values: np.ndarray

    def __post_init__(self):
        v = _as_2d(self.values)
        if v.shape[0] != self.k**self.level:
            raise ValueError(
                f"expected {self.k ** self.level} coefficients, got {v.shape[0]}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def state_dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class KernelMatrix:
    """Cell-averaged kernel values W_wv on the level-m partition."""

    k: int
    level: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        n = self.k**self.level
        if e.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("kernel entries must be finite")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def martingale_level(
    meas: SelfSimilarMeasure, phi, m: int, sublevel: int, anchor=None
) -> PiecewiseConstantField:
    """The conditional expectation of phi on level-m cells.

    Coefficient at w is the cell average of phi over K_w, estimated by QMC at
    ``sublevel`` extra levels; all nodes are evaluated in one pass and
    regrouped per cell.
    """
    pts = attractor_points(meas.ifs, m + sublevel, anchor)
    vals = evaluate_on_points(phi, pts)
    return PiecewiseConstantField(meas.k, m, cell_means(vals, meas.p, sublevel))


def coarsen(
    field: PiecewiseConstantField, target_level: int, p: ProbabilityVector | None = None
) -> PiecewiseConstantField:
    """Measure-weighted averaging over descendants (conditional expectation)."""
    if target_level > field.level:
        raise ValueError("target level must not exceed the field level")
    delta = field.level - target_level
    if delta == 0:
        return field
    if p is None:
        p = ProbabilityVector.uniform(field.k)
    values = cell_means(field.values, p, delta)
    return PiecewiseConstantField(field.k, target_level, values)


@dataclass(frozen=True)
class StepFunction:
    """A step function on [0, 1]: cells [b_i, b_{i+1}) with the last closed.

    ``widths`` carries the exact cell masses used to build the breakpoints,
    so integrals against Lebesgue measure reuse the cylinder-measure weights
    verbatim.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=np.float64)
        v = _as_2d(self.values)
        w = np.asarray(self.widths, dtype=np.float64)
        if b.ndim != 1 or b.shape[0] != v.shape[0] + 1:
            raise ValueError("need one more breakpoint than cells")
        if w.shape != (v.shape[0],):
            raise ValueError("widths must match the cell count")
        if np.any(np.diff(b) < 0):
            raise ValueError("breakpoints must be nondecreasing")
        for name, arr in (("breakpoints", b), ("values", v), ("widths", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        idx = np.clip(idx, 0, self.n_cells - 1)
        out = self.values[idx]
        return out[..., 0] if self.values.shape[1] == 1 else out

    def integral(self) -> np.ndarray:
        return pairwise_sum(self.widths[:, None] * self.values)

    def l1_norm(self) -> float:
        mag = np.abs(self.values[:, 0]) if self.values.shape[1] == 1 else np.linalg.norm(
            self.values, axis=1
        )
        return float(pairwise_sum(self.widths * mag))


def interval_breakpoints(k: int, m: int, p: ProbabilityVector | None = None):
    """Breakpoints and widths of the level-m interval cylinders.

    Uniform p gives the exact base-k grid i/k**m; general p gives cumulative
    Bernoulli masses in lexicographic order.
    """
    n = check_level_size(k, m)
    if p is None:
        p = ProbabilityVector.uniform(k)
    widths = level_weights(p, m)
    if p.is_uniform:
        breaks = np.arange(n + 1, dtype=np.float64) / n
    else:
        breaks = np.concatenate([[0.0], np.cumsum(widths)])
        breaks[-1] = 1.0
    return breaks, widths


def transfer_to_interval(
    field: PiecewiseConstantField, p: ProbabilityVector | None = None
) -> StepFunction:
    """The step function on [0, 1] with the same coefficients on the interval
    cylinders Q_w (Q_w = [idx/k^m, (idx+1)/k^m) for the natural measure).

    Indicator fields map to indicator steps cell-exactly; integrals against
    the cell masses are preserved verbatim.
    """
    breaks, widths = interval_breakpoints(field.k, field.level, p)
    return StepFunction(breaks, field.values, widths)


@dataclass(frozen=True)
class PixelImage:
    """A kernel as a square pixel image on the unit square."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("pixel values must be square")
        if e.shape != (v.shape[0] + 1,):
            raise ValueError("need one more edge than pixels per axis")
        e.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "values", v)


def kernel_to_graphon(km: KernelMatrix, p: ProbabilityVector | None = None) -> PixelImage:
    """Pixel image of the cell-averaged kernel on the interval cylinders.

    Entry (w, v) lands at pixel (index of w, index of v); the shared index
    map keeps symmetric matrices symmetric images.
    """
    edges, _ = interval_breakpoints(km.k, km.level, p)
    return PixelImage(edges, km.entries)
