"""Verification machinery: discrepancy norms, moduli of continuity,
convergence-rate fits, and empirical-measure distances.

The fractal L^p modulus replaces Euclidean translations by the sibling-cell
vectors tau_ij scaled to level l; pairs (x, x + tau) are produced by cylinder
matching, which under-approximates the admissible set and therefore yields a
lower-bound estimator feeding an empirical rate fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dynamics import Trajectory, integrate_levels
from .geometry import (
    attractor_points,
    common_contraction_ratio,
    has_common_linear_part,
)
from .quadrature import (
    SelfSimilarMeasure,
    cell_means,
    evaluate_on_points,
    pairwise_sum,
)
from .transfer import PiecewiseConstantField


@dataclass(frozen=True)
class TrajectoryError:
    """Per-time L^2(K, nu) discrepancy between two trajectories."""

    times: np.ndarray
    errors: np.ndarray
    max_error: float


def traj_error(
    coarse: Trajectory, fine: Trajectory, meas: SelfSimilarMeasure
) -> TrajectoryError:
    """sup over the shared time grid of || u^m - u^m' ||_{L^2(K, nu)}, each
    coarse state copied to its level-m' descendants."""
    if fine.level < coarse.level:
        raise ValueError("the second trajectory must be at least as fine")
    if coarse.k != fine.k:
        raise ValueError("alphabet sizes differ")
    if coarse.times.shape != fine.times.shape or not np.array_equal(
        coarse.times, fine.times
    ):
        raise ValueError("time grids do not match")
    if coarse.state_dim != fine.state_dim:
        raise ValueError("state dimensions differ")
    delta = fine.level - coarse.level
    # one temporary of the fine trajectory's size: the differences are
    # squared in place
    diff = np.repeat(coarse.values, coarse.k**delta, axis=1)
    np.subtract(diff, fine.values, out=diff)
    sq = np.sum(np.multiply(diff, diff, out=diff), axis=2)  # (T, n_fine)
    sq *= meas.weights(fine.level)
    errs = np.sqrt(np.maximum(pairwise_sum(sq, axis=1), 0.0))
    return TrajectoryError(coarse.times, errs, float(errs.max()))


def projection_error(
    meas: SelfSimilarMeasure,
    phi,
    m: int,
    p_exponent: float = 2.0,
    sublevel: int = 3,
) -> float:
    """|| phi - phi^m ||_{L^p(K, nu)} with phi^m the level-m cell averages.

    Both phi and its projection are evaluated on the same level-(m+sublevel)
    QMC nodes, so a field that is already piecewise constant at level m comes
    out exactly zero.
    """
    if sublevel < 2:
        raise ValueError("sublevel must be >= 2")
    k = meas.k
    pts = attractor_points(meas.ifs, m + sublevel)
    vals = evaluate_on_points(phi, pts)
    if vals.ndim == 1:
        vals = vals[:, None]
    blocks = vals.reshape(k**m, k**sublevel, vals.shape[1])
    resid = blocks - cell_means(vals, meas.p, sublevel)[:, None, :]
    mag = np.linalg.norm(resid, axis=2) if vals.shape[1] > 1 else np.abs(resid[:, :, 0])
    total = cell_means(mag.reshape(-1) ** p_exponent, meas.p, m + sublevel)[0]
    return float(total) ** (1.0 / p_exponent)


def _modulus_single_level(
    meas: SelfSimilarMeasure, phi, ell: int, p_exponent: float, sublevel: int
) -> float:
    """max over ordered sibling pairs of the matched-pair L^p difference at
    translation scale A^ell tau_ij.

    |b_j - b_i| is |b_i - b_j| to the bit, and rounding is monotone, so each
    unordered pair is visited once, with the larger of its two weights."""
    k = meas.k
    pts = attractor_points(meas.ifs, ell + 1 + sublevel)
    vals = evaluate_on_points(phi, pts)
    if vals.ndim > 1:
        raise ValueError("the modulus is defined for scalar-valued functions")
    blocks = vals.reshape(k**ell, k, k**sublevel)
    parr = meas.p.as_array()
    best = 0.0
    for i, j in combinations(range(k), 2):
        # x in K_{w i u}  <->  x + tau in K_{w j u}; same (w, u) indices,
        # and nu(K_{w i u}) = p_i nu(K_{w u})
        diff = np.abs(blocks[:, j, :] - blocks[:, i, :])
        term = max(parr[i], parr[j]) * cell_means(
            diff.reshape(-1) ** p_exponent, meas.p, ell + sublevel
        )[0]
        best = max(best, float(term) ** (1.0 / p_exponent))
    return best


def modulus_profile(
    meas: SelfSimilarMeasure,
    phi,
    levels,
    p_exponent: float = 2.0,
    max_ell: int | None = None,
    sublevel: int = 2,
):
    """omega_p(phi, m) for each requested m, sharing per-level work.

    Returns (levels, omega) with omega[m] = max over l in [m, max_ell] of the
    matched-pair difference norm; nonincreasing in m by construction.
    """
    levels = sorted(int(m) for m in levels)
    if max_ell is None:
        max_ell = levels[-1] + 2
    if max_ell < levels[-1]:
        raise ValueError("max_ell must be >= the largest requested level")
    if not has_common_linear_part(meas.ifs):
        raise ValueError(
            "the fractal modulus requires an IFS with a common linear part"
        )
    common_contraction_ratio(meas.ifs)
    singles = {
        ell: _modulus_single_level(meas, phi, ell, p_exponent, sublevel)
        for ell in range(levels[0], max_ell + 1)
    }
    omega = []
    for m in levels:
        omega.append(max(singles[ell] for ell in range(m, max_ell + 1)))
    return np.array(levels), np.array(omega)


@dataclass(frozen=True)
class ModulusReport:
    """Fitted decay of the modulus: omega_p(phi, m) ~ C lambda^(alpha m)."""

    fitted_alpha: float
    lip_norm: float


def lipschitz_norm_estimate(levels, omega, lam: float) -> ModulusReport:
    """Least-squares decay exponent of log omega against m log lambda, and
    the generalized Lipschitz norm sup_m lambda^(-alpha m) omega(m) at the
    fitted alpha."""
    levels = np.asarray(levels, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    keep = omega > 0
    if np.count_nonzero(keep) < 3:
        raise ValueError("need at least 3 levels with positive omega to fit")
    if not np.all(keep):
        warnings.warn("dropping non-positive omega values from the fit")
    x = levels[keep] * np.log(lam)
    y = np.log(omega[keep])
    alpha = float(np.polyfit(x, y, 1)[0])
    lip = float(np.max(omega[keep] * lam ** (-alpha * levels[keep])))
    return ModulusReport(fitted_alpha=alpha, lip_norm=lip)


def lp_projection_bound(
    k: int, lam: float, alpha: float, lip_norm: float, m, p_exponent: float = 2.0
):
    """The piecewise-constant projection error bound
    k^(1/p-1) (k-1)^(1/p) / (1 - lambda^alpha) * lip * lambda^(alpha m)."""
    m = np.asarray(m, dtype=np.float64)
    pref = k ** (1.0 / p_exponent - 1.0) * (k - 1.0) ** (1.0 / p_exponent)
    return pref / (1.0 - lam**alpha) * lip_norm * lam ** (alpha * m)


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay exponent of a level-indexed error sequence."""

    fitted_alpha: float
    alpha_capped: float  # min(alpha, 1): the Lipschitz scale tops out at 1
    capped: bool
    bound: np.ndarray | None = None
    below_bound: bool | None = None
    floor_replaced: int = 0


def rate_fit(
    errors,
    lam: float,
    levels,
    k: int | None = None,
    p_exponent: float = 2.0,
    lip_norm: float | None = None,
) -> RateFit:
    """Fit errors ~ C lambda^(alpha m) and optionally compare against the
    projection bound evaluated with an estimated Lipschitz norm.

    Levels 0 and 1 are discarded from the fit (prefactor-dominated range);
    non-positive errors are replaced by a quadrature floor with a warning.
    Fitted alpha above 1 is reported verbatim with a cap note.
    """
    errors = np.asarray(errors, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.float64)
    if len(errors) != len(levels):
        raise ValueError("errors and levels must have equal length")
    keep = levels >= 2
    if np.count_nonzero(keep) < 3:
        raise ValueError("need at least 3 levels m >= 2 to fit a rate")
    errs = errors.copy()
    floor = 1e-15 * max(1.0, float(np.max(np.abs(errs))) if errs.size else 1.0)
    bad = errs <= 0
    if np.any(bad):
        warnings.warn(
            f"replacing {int(bad.sum())} non-positive errors by the quadrature "
            f"floor {floor:.3g}"
        )
        errs[bad] = floor
    x = levels[keep] * np.log(lam)
    y = np.log(errs[keep])
    alpha = float(np.polyfit(x, y, 1)[0])
    capped = alpha > 1.0 + 1e-9
    alpha_capped = min(alpha, 1.0)
    bound = None
    below = None
    if k is not None and lip_norm is not None:
        bound = lp_projection_bound(k, lam, alpha_capped, lip_norm, levels, p_exponent)
        below = bool(np.all(errs <= bound))
    return RateFit(
        fitted_alpha=alpha,
        alpha_capped=alpha_capped,
        capped=capped,
        bound=bound,
        below_bound=below,
        floor_replaced=int(bad.sum()),
    )


def _sorted_with_cdf(values, weights):
    """The values sorted, and cdf[i] = the mass of the i smallest of them
    (cdf[0] = 0, cdf[-1] = 1)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("only scalar states are supported")
    if len(values) == 0:
        raise ValueError("a distribution needs at least one value")
    order = np.argsort(values)
    if weights is None:
        return values[order], np.arange(len(values) + 1) / len(values)
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != len(values):
        raise ValueError("values and weights differ in length")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if not 0 < np.sum(weights) < np.inf:
        raise ValueError("weights must have a positive, finite sum")
    cum = np.concatenate(([0.0], np.cumsum(weights[order])))
    return values[order], cum / cum[-1]


def wasserstein_distance(u_values, v_values, u_weights=None, v_weights=None) -> float:
    """1-Wasserstein distance between two weighted point sets on the line.

    W1 is the integral of |U - V| over the line, with U and V the CDFs; both
    are step functions that change only at the pooled values, so the
    integral is a dot product with the gaps between successive pooled
    values.  Weights default to uniform and are normalized by their sum.
    This is scipy.stats.wasserstein_distance's algorithm and validation,
    and it returns the same floats.
    """
    u_sorted, u_cdf = _sorted_with_cdf(u_values, u_weights)
    v_sorted, v_cdf = _sorted_with_cdf(v_values, v_weights)
    pooled = np.sort(np.concatenate((u_sorted, v_sorted)))
    left = pooled[:-1]
    cdf_gap = np.abs(
        u_cdf[u_sorted.searchsorted(left, "right")]
        - v_cdf[v_sorted.searchsorted(left, "right")]
    )
    return float(np.dot(cdf_gap, np.diff(pooled)))


@dataclass(frozen=True)
class VlasovConvergenceTable:
    """nu-integrated W1 proxies between successive local-refinement levels."""

    times: np.ndarray
    ell_pairs: tuple
    seeds: tuple
    distances: np.ndarray  # (n_seeds, n_pairs, n_times)


def vlasov_self_convergence(
    meas: SelfSimilarMeasure,
    model_builder,
    kernel,
    init_sampler,
    m: int,
    ells,
    T: float,
    dt: float,
    seeds,
    sublevel: int = 2,
    output_stride: int = 10,
) -> VlasovConvergenceTable:
    """Empirical-measure self-convergence across local refinement levels.

    For each seed and each l, the level-(m+l) system starts from states drawn
    i.i.d. within every coarse cell by ``init_sampler(rng, coarse_index, n)``;
    ``model_builder(level)`` supplies the model.  The reported distance at
    time t is the nu-weighted sum over coarse cells of the W1 proxy between
    the local empirical measures at successive l.
    """
    ells = sorted(int(e) for e in ells)
    if len(ells) < 2:
        raise ValueError("need at least two refinement levels")
    if any(e < 1 for e in ells):
        raise ValueError("refinement levels must be >= 1")
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    k = meas.k
    coarse_masses = meas.weights(m)
    models = {m + ell: model_builder(m + ell) for ell in ells}
    if any(model.state_dim != 1 for model in models.values()):
        raise ValueError("the self-convergence table currently handles scalar states")

    def initial(level):
        # one field per seed, each coarse cell's states drawn i.i.d.
        n_fine, inits = k ** (level - m), []
        for seed in seeds:
            entropy = np.random.SeedSequence(entropy=(seed, level - m))
            rng = np.random.Generator(np.random.Philox(entropy))
            inits.append(PiecewiseConstantField(k, level, np.concatenate(
                [np.reshape(init_sampler(rng, ci, n_fine), (n_fine, -1))
                 for ci in range(k**m)])))
        return inits

    # trajs[ell][i]: seed i's trajectory at level m + ell; all seeds of one
    # level are one ensemble on the shared graph
    series = integrate_levels(meas, kernel, [m + ell for ell in ells], sublevel,
                              models.get, initial, T, dt, output_stride)
    trajs = dict(zip(ells, series))
    times = trajs[ells[0]][0].times
    # atoms[ell]: (seeds, times, coarse cells, k^ell), each cell's states
    # sorted.  Uniform atoms and k^lo dividing k^hi make W1 the mean gap
    # between the hi sorted states and the lo ones repeated k^(hi-lo) times.
    atoms = {
        ell: np.sort(
            np.stack([tr.values[..., 0] for tr in trajs[ell]]).reshape(
                len(seeds), len(times), k**m, k**ell
            ),
            axis=-1,
        )
        for ell in ells
    }
    pairs = tuple(zip(ells[:-1], ells[1:]))
    per_pair = []
    for lo, hi in pairs:
        w1 = np.mean(
            np.abs(np.repeat(atoms[lo], k ** (hi - lo), axis=-1) - atoms[hi]), axis=-1
        )  # (seeds, times, coarse cells)
        per_pair.append(pairwise_sum(coarse_masses * w1, axis=-1))
    return VlasovConvergenceTable(
        times=times,
        ell_pairs=pairs,
        seeds=seeds,
        distances=np.stack(per_pair, axis=1),  # (n_seeds, n_pairs, n_times)
    )
