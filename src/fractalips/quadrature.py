"""Integration against self-similar measures.

Two routes: quasi-Monte-Carlo over the level-m address nodes x_w = f_w(x0)
(measure-weighted, so a constant integrates to exactly its value), and a
Monte-Carlo estimator driven by the ergodic average along a random symbol
sequence.  Cell averages are QMC on a sub-attractor and feed the Galerkin
projections.

Callables must be vectorized: they are evaluated once on a point array of
shape (N, d), or (N,) when d = 1, and return (N,) scalars or (N, s) vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    IFS,
    attractor_points,
    compose,
    fixed_point,
    has_common_linear_part,
    natural_probability_weights,
)
from .symbolic import (
    ProbabilityVector,
    Word,
    check_eval_budget,
    check_level_size,
    level_weights,
)


def pairwise_sum(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum with a fixed pairwise (binary tree) reduction order.

    Zero-pads to the next power of two and folds halves, so the result is
    bit-stable for a given length regardless of any outer partitioning.  The
    first fold writes into one buffer of half that length, and the others
    fold it in place: no padded copy of x is made.
    """
    x = np.asarray(x, dtype=np.float64)
    x = np.moveaxis(x, axis, 0)
    n = x.shape[0]
    if n < 2:
        return x[0] if n else np.zeros(x.shape[1:], dtype=np.float64)
    half = 1 << ((n - 1).bit_length() - 1)
    buf = x[:half].copy()
    buf[:n - half] += x[half:]
    buf[n - half:] += 0.0  # the zero padding, which turns -0.0 into 0.0
    while half > 1:
        half //= 2
        buf[:half] += buf[half:2 * half]
    return buf[0].copy()


def cell_means(values: np.ndarray, p: ProbabilityVector, sublevel: int) -> np.ndarray:
    """nu-weighted means over consecutive blocks of k**sublevel rows.

    Rows are level-(m + sublevel) nodes in lexicographic order, so block w
    holds the descendants of the level-m cell K_w and its mean is the
    conditional expectation E(phi | level m) there.  Trailing state axes are
    kept.  Uniform p divides a pairwise sum by the block size, so constants
    (with short mantissas) come out exactly; any other p pairwise-sums the
    values weighted by the sub-cylinder masses nu(K_{wu}) / nu(K_w).
    """
    values = np.asarray(values, dtype=np.float64)
    n_sub = p.k**sublevel
    blocks = values.reshape(len(values) // n_sub, n_sub, -1)
    if p.is_uniform:
        means = pairwise_sum(blocks, axis=1) / n_sub
    else:
        means = pairwise_sum(blocks * level_weights(p, sublevel)[:, None], axis=1)
    return means.reshape((-1,) + values.shape[1:])


def evaluate_on_points(phi, pts: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized phi on an (N, d) point array; returns (N,) or (N, s).

    Points are passed as (N,) when d == 1.  Exceptions from phi propagate.
    """
    n, d = pts.shape
    vals = np.asarray(phi(pts[:, 0] if d == 1 else pts), dtype=np.float64)
    if vals.ndim not in (1, 2) or vals.shape[0] != n:
        raise ValueError(
            f"phi returned shape {vals.shape} for {n} points; callables must be "
            "vectorized: take all points at once and return (N,) or (N, s)"
        )
    return vals


@dataclass(frozen=True)
class SelfSimilarMeasure:
    """An IFS together with a probability vector p.

    Cylinder masses are the Bernoulli products nu(K_w) = p_{w_1} ... p_{w_n},
    which realizes the stationary (self-similar) measure exactly on cells.
    """

    ifs: IFS
    p: ProbabilityVector

    def __post_init__(self):
        if self.p.k != self.ifs.k:
            raise ValueError("probability vector length must equal the map count")

    @classmethod
    def uniform(cls, ifs: IFS) -> "SelfSimilarMeasure":
        return cls(ifs, ProbabilityVector.uniform(ifs.k))

    @classmethod
    def natural_measure(cls, ifs: IFS) -> "SelfSimilarMeasure":
        """p_i = r_i**s; coincides with uniform for equal-ratio systems."""
        return cls(ifs, ProbabilityVector(tuple(natural_probability_weights(ifs))))

    @property
    def k(self) -> int:
        return self.ifs.k

    def weights(self, m: int) -> np.ndarray:
        return level_weights(self.p, m)


def integrate_qmc(meas: SelfSimilarMeasure, phi, m: int, anchor=None):
    """sum_{|w|=m} nu(K_w) phi(f_w(anchor)).

    For the natural measure this is the uniform average over the level-m
    address nodes; a constant integrates exactly.  The anchor-induced bias is
    of order ratio**m * |anchor - mean(nu)| for affine integrands, so the
    fixed-point centroid is a good anchor for moment computations.
    """
    pts = attractor_points(meas.ifs, m, anchor)
    vals = evaluate_on_points(phi, pts)
    return cell_means(vals, meas.p, m)[0]


def _mc_window_points(ifs: IFS, symbols: np.ndarray, M: int, tail: int) -> np.ndarray:
    """(M, k, d) array: row j, slot i = f_{s_{j+1} .. s_{j+tail}}(p_i).

    p_i is the fixed point of f_i, so each entry is the exact projection of
    the word (window, i, i, i, ...); only the window length truncates the
    ergodic suffix.
    """
    k, d = ifs.k, ifs.dimension
    fps = np.array([fixed_point(f) for f in ifs.maps])  # (k, d)
    ts = np.array([f.translation for f in ifs.maps])  # (k, d)
    if has_common_linear_part(ifs) and np.allclose(
        ifs.maps[0].matrix, ifs.maps[0].ratio * np.eye(d), rtol=0, atol=1e-14
    ):
        # homothety fast path: f_w is r^tail * x + T with T a geometric
        # convolution of the window translations
        r = ifs.maps[0].ratio
        T = np.zeros((M, d))
        for l in range(tail - 1, -1, -1):
            T = r * T + ts[symbols[l : l + M] - 1]
        return (r**tail) * fps[None, :, :] + T[:, None, :]
    As = np.array([f.matrix for f in ifs.maps])  # (k, d, d)
    S = np.broadcast_to(fps[None, :, :], (M, k, d)).copy()
    for l in range(tail - 1, -1, -1):
        sel = symbols[l : l + M] - 1
        S = np.einsum("jab,jib->jia", As[sel], S) + ts[sel][:, None, :]
    return S


def integrate_mc(
    meas: SelfSimilarMeasure, phi, M: int, tail: int = 40, seed: int = 0
):
    """Ergodic Monte-Carlo estimate of the integral of phi.

    Draws a symbol string of length M + tail i.i.d. from p, slides a window
    of depth ``tail`` along it, and closes each window with every constant
    tail (i, i, ...) evaluated exactly at the fixed point of f_i:

        S_M = (1/(M k)) sum_j sum_i phi(f_{window_j}(fixed point of f_i))

    Deterministic for a given seed (counter-based Philox streams).  The
    window truncation error is of order ratio**tail * Lip(phi) * diam(K).
    """
    if M < 1:
        raise ValueError("need M >= 1")
    if tail < 1:
        raise ValueError("need tail >= 1")
    k = meas.k
    check_eval_budget(M * k)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if meas.p.is_uniform:
        symbols = rng.integers(1, k + 1, size=M + tail)
    else:
        symbols = rng.choice(np.arange(1, k + 1), size=M + tail, p=meas.p.as_array())
    pts = _mc_window_points(meas.ifs, symbols, M, tail)  # (M, k, d)
    flat = pts.reshape(M * k, meas.ifs.dimension)
    vals = evaluate_on_points(phi, flat)
    if vals.ndim == 1:
        return float(pairwise_sum(vals)) / (M * k)
    return pairwise_sum(vals, axis=0) / (M * k)


def cell_average(meas: SelfSimilarMeasure, phi, w: Word, sublevel: int, anchor=None):
    """The nu-average of phi over the cell K_w, via QMC on the sub-attractor.

    Equals integrate_qmc of phi o f_w at level ``sublevel`` under the same
    measure: the sub-cylinder weights already sum to one.
    """
    check_level_size(meas.k, len(w) + sublevel)
    sub = attractor_points(meas.ifs, sublevel, anchor)
    fw = compose(meas.ifs, w)
    pts = fw(sub)
    vals = evaluate_on_points(phi, pts)
    return cell_means(vals, meas.p, sublevel)[0]


def stationary_mean(meas: SelfSimilarMeasure) -> np.ndarray:
    """The exact mean of the stationary measure.

    Stationarity gives b = sum_i p_i f_i(b), a linear fixed-point equation
    solved directly: (I - sum p_i A_i) b = sum p_i t_i.
    """
    d = meas.ifs.dimension
    parr = meas.p.as_array()
    A = sum(p * f.matrix for p, f in zip(parr, meas.ifs.maps))
    t = sum(p * f.translation for p, f in zip(parr, meas.ifs.maps))
    return np.linalg.solve(np.eye(d) - A, t)


def stationarity_residual(meas: SelfSimilarMeasure, m: int) -> float:
    """max over level m of |nu(K_w) - p_{w_1} nu(K_{w_2..w_m})|, read from
    the ``weights`` every pipeline uses.

    Zero in exact arithmetic by the Bernoulli product formula; the returned
    value is pure rounding noise.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    shifted = np.kron(meas.p.as_array(), meas.weights(m - 1))
    return float(np.max(np.abs(meas.weights(m) - shifted)))
