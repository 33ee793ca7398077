"""Galerkin assembly and time integration of self-similar particle systems.

The level-m system couples one state per cell through cell-averaged kernel
weights:

    du_w/dt = f(t, u_w) + sum_{|v|=m} W_wv D(u_w, u_v) nu(K_v)

with either deterministic weights W_wv (cell averages of a kernel) or
Bernoulli samples xi_wv of those averages.  Time stepping is classical
fixed-step RK4; the spatial error under study dominates the time error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalAbortError
from .geometry import attractor_points, has_common_linear_part
from .quadrature import (
    SelfSimilarMeasure,
    check_eval_budget,
)
from .symbolic import check_level_size, level_weights
from .transfer import KernelMatrix, PiecewiseConstantField, martingale_level


@dataclass
class ModelSpec:
    """Intrinsic drift plus pairwise interaction.

    ``drift(t, u, params) -> (N, s)`` and ``interaction(u, v) -> (..., s)``
    (must broadcast).  ``coupling_term(weights, u)``, when given, computes
    sum_v G_wv D(u_w, u_v) directly and is used as a fast path; it must agree
    with ``interaction``.  ``params`` holds optional per-cell constants such
    as oscillator frequencies (they obey d(lambda)/dt = 0).

    The declared interaction bound is spot-checked on a small state grid at
    construction; models with coupling strength k declare a bound of |k|.
    """

    name: str
    state_dim: int
    drift: Callable
    interaction: Callable
    interaction_bound: float = 1.0
    params: np.ndarray | None = None
    coupling_term: Callable | None = None
    spot_check: bool = True

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError("state_dim must be >= 1")
        if self.params is not None:
            self.params = np.atleast_2d(np.asarray(self.params, dtype=np.float64))
        if self.spot_check:
            self._spot_check_interaction()

    def _spot_check_interaction(self):
        grid = np.linspace(-1.2, 1.2, 5)
        u = np.stack([grid] * self.state_dim, axis=-1)  # (5, s)
        d = np.asarray(self.interaction(u[:, None, :], u[None, :, :]))
        mag = np.abs(d).max()
        if mag > self.interaction_bound * (1.0 + 1e-9):
            raise ValueError(
                f"sampled |D| = {mag:.3g} exceeds the declared bound "
                f"{self.interaction_bound:.3g}"
            )


@dataclass(frozen=True)
class CouplingGraph:
    """The level-m coupling weights, already scaled by the cell masses.

    Deterministic entries are W_wv * nu(K_v); Bernoulli entries are
    xi_wv * nu(K_v) with xi in {0, 1}.
    """

    k: int
    level: int
    kind: str
    weights: np.ndarray
    seed: int | None = None
    symmetric: bool = False

    def __post_init__(self):
        if self.kind not in ("deterministic", "bernoulli"):
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        w = np.asarray(self.weights, dtype=np.float64)
        n = self.k**self.level
        if w.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} weight matrix, got {w.shape}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class Trajectory:
    """States on a fixed output time grid; one field per recorded time."""

    k: int
    level: int
    times: np.ndarray
    values: np.ndarray  # (n_times, k**level, state_dim)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[0] != t.shape[0]:
            raise ValueError("values must be (n_times, n_cells, state_dim)")
        if v.shape[1] != self.k**self.level:
            raise ValueError("cell count does not match the level")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def state_dim(self) -> int:
        return self.values.shape[2]

    def field_at(self, i: int) -> PiecewiseConstantField:
        return PiecewiseConstantField(self.k, self.level, self.values[i])


def project_kernel(
    meas: SelfSimilarMeasure, kernel, m: int, sublevel: int, anchor=None
) -> KernelMatrix:
    """Cell averages of the kernel over all K_w x K_v pairs at level m.

    Uses the tensorized sub-cylinder nodes of the product system (K x K is
    the attractor of the paired maps (f_i, f_j)).  When the kernel declares
    ``translation_invariant = True`` (W depends on x - y only) and the maps
    share a linear part, level-m cells are translates of each other and
    W_wv depends only on the displacement between K_w and K_v: each
    displacement class is evaluated once, on one representative pair, and
    copied to its other pairs.  Otherwise every pair is evaluated, in row
    blocks that bound memory.
    """
    k = meas.k
    n_cells = check_level_size(k, m)
    n_sub = k**sublevel
    n_fine = n_cells * n_sub
    check_eval_budget(n_fine * n_fine)
    pts = attractor_points(meas.ifs, m + sublevel, anchor)
    # sub-cylinder masses relative to the largest one, normalized once at
    # the end: uniform p gives weights of exactly 1, so a constant kernel
    # projects to exactly itself and stays admissible for Bernoulli sampling
    parr = meas.p.as_array()
    q = level_weights(parr / parr.max(), sublevel)
    x = pts[:, 0] if meas.ifs.dimension == 1 else pts
    cells = x.reshape(n_cells, n_sub, *x.shape[1:])

    invariant = getattr(kernel, "translation_invariant", False)
    if invariant and has_common_linear_part(meas.ifs):
        # x_w = f_w(anchor) = A^m anchor + t_w, so x_w - x_v = t_w - t_v
        first, inverse = _displacement_classes(pts[::n_sub])
        rows, cols = np.divmod(first, n_cells)
        values = np.empty(len(first), dtype=np.float64)
        # first is ascending, so each row's representatives are contiguous:
        # one block per row
        bounds = np.flatnonzero(np.diff(rows, prepend=-1, append=n_cells))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sums = _block_sums(kernel, cells, q, rows[lo : lo + 1], cols[lo:hi])
            values[lo:hi] = sums[0]
        entries = values[inverse].reshape(n_cells, n_cells)
    else:
        entries = np.empty((n_cells, n_cells), dtype=np.float64)
        # keep each evaluated block under ~2^22 pairs
        rows_per_chunk = max(1, (1 << 22) // (n_fine * n_sub))
        for w0 in range(0, n_cells, rows_per_chunk):
            w1 = min(n_cells, w0 + rows_per_chunk)
            entries[w0:w1] = _block_sums(kernel, cells, q, slice(w0, w1), slice(None))
    return KernelMatrix(k, m, entries / q.sum() ** 2)


def _block_sums(kernel, cells, q, rows, cols) -> np.ndarray:
    """q-weighted kernel sums over the sub-cylinder nodes of K_w x K_v for
    every w in ``rows`` and v in ``cols`` (index arrays or slices)."""
    xs, ys = cells[rows], cells[cols]
    n_sub = len(q)
    flat = (-1,) + cells.shape[2:]
    block = np.asarray(
        kernel(xs.reshape(flat)[:, None], ys.reshape(flat)[None, :]), dtype=np.float64
    )
    block = block.reshape(len(xs), n_sub, len(ys), n_sub)
    return np.einsum("aubv,u,v->ab", block, q, q)


def _displacement_classes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the ordered pairs (w, v) of the points t by t_w - t_v.

    Returns, in ascending order, the flat index w * n + v of the first pair
    of each class, and for every pair the number of its class.
    Displacements are rounded to a grid of 2^-40 times the largest one: far
    above the rounding of the coordinates, and below the gap between
    distinct displacements of the lattice presets at every level the
    enumeration cap admits (cantor at level 24 comes closest, with a gap of
    7.8 grid steps).  Displacements closer than one step may share a class;
    their entries then differ by at most the kernel's Lipschitz constant
    times the step.
    """
    n = len(t)
    disp = [(c[:, None] - c[None, :]).ravel() for c in t.T]
    # |keys| <= 2^40, so the integer keys cannot overflow
    scale = max(float(np.abs(a).max()) for a in disp) or 1.0
    keys = [np.rint(a * (2.0**40 / scale)).astype(np.int64) for a in disp]
    order = np.lexsort(keys)  # stable: each class starts with its first pair
    new_class = np.zeros(n * n, dtype=bool)
    new_class[0] = True
    for key in keys:
        sorted_key = key[order]
        new_class[1:] |= sorted_key[1:] != sorted_key[:-1]
    first = order[new_class]
    # renumber the classes in the order of their first pair
    renumber = np.empty(len(first), dtype=np.int64)
    renumber[np.argsort(first)] = np.arange(len(first))
    inverse = np.empty(n * n, dtype=np.int64)
    inverse[order] = renumber[np.cumsum(new_class) - 1]
    return np.sort(first), inverse


def project_initial(
    meas: SelfSimilarMeasure, g, m: int, sublevel: int, anchor=None
) -> PiecewiseConstantField:
    """Cell averages of the initial datum (the Galerkin initial condition)."""
    return martingale_level(meas, g, m, sublevel, anchor)


def assemble_deterministic(km: KernelMatrix, meas: SelfSimilarMeasure) -> CouplingGraph:
    """Scale kernel averages by the cell masses: entry (w, v) = W_wv nu(K_v).

    The diagonal is kept; the coupling sum runs over all level-m words.
    """
    masses = meas.weights(km.level)
    return CouplingGraph(
        km.k, km.level, "deterministic", km.entries * masses[None, :]
    )


def sample_bernoulli(
    km: KernelMatrix,
    meas: SelfSimilarMeasure,
    seed: int,
    symmetric: bool = True,
) -> CouplingGraph:
    """Independent Bernoulli edges with success probabilities W_wv.

    Requires all entries in [0, 1] (the admissible nonnegative-kernel case),
    up to a rounding slack of 1e-12: the uniform draws lie in [0, 1), so an
    entry of 1 + eps is drawn like 1 and one of -eps like 0.  With
    ``symmetric`` the strict upper triangle is sampled and mirrored; the
    diagonal is sampled once.  Deterministic per seed.
    """
    P = km.entries
    if P.min() < -1e-12 or P.max() > 1.0 + 1e-12:
        raise ValueError(
            "Bernoulli sampling requires kernel averages in [0, 1]; "
            f"got range [{P.min():.3g}, {P.max():.3g}]"
        )
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draw = rng.random(P.shape)
    xi = (draw < P).astype(np.float64)
    if symmetric:
        upper = np.triu(xi, k=1)
        xi = upper + upper.T + np.diag(np.diag(xi))
    masses = meas.weights(km.level)
    return CouplingGraph(
        km.k, km.level, "bernoulli", xi * masses[None, :], seed=seed,
        symmetric=symmetric,
    )


def _generic_coupling(model: ModelSpec, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    dvals = np.asarray(model.interaction(u[:, None, :], u[None, :, :]))
    return np.einsum("wv,wvs->ws", weights, dvals)


def _rhs(model: ModelSpec, weights: np.ndarray, t: float, u: np.ndarray) -> np.ndarray:
    out = np.asarray(model.drift(t, u, model.params), dtype=np.float64)
    if model.coupling_term is not None:
        out = out + model.coupling_term(weights, u)
    else:
        out = out + _generic_coupling(model, weights, u)
    return out


def step_count(T: float, dt: float) -> int:
    """The number of steps of size dt that reach T exactly.

    Raises ValueError unless T/dt is a whole number to a relative 1e-9, so a
    run never stops short of T (or overshoots it) without a word.
    """
    ratio = T / dt
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-9 * max(ratio, 1.0):
        raise ValueError(f"T = {T:g} is not a whole multiple of dt = {dt:g}")
    return n_steps


def integrate_ips(
    model: ModelSpec,
    coupling: CouplingGraph,
    initial: PiecewiseConstantField,
    T: float,
    dt: float,
    output_stride: int = 1,
) -> Trajectory:
    """Classical RK4 on the coupled cell system up to time T.

    The state is recorded at t = 0 and every ``output_stride`` steps (plus
    the final step).  Aborts with a diagnostic if the state leaves the
    finite range.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if output_stride < 1:
        raise ValueError(f"output_stride must be >= 1, not {output_stride}")
    n_steps = step_count(T, dt)
    n = coupling.k**coupling.level
    if initial.k != coupling.k or initial.level != coupling.level:
        raise ValueError("initial field and coupling graph levels differ")
    if initial.state_dim != model.state_dim:
        raise ValueError("initial field state dimension does not match the model")
    if model.params is not None and model.params.shape[0] not in (1, n):
        raise ValueError("per-cell parameter count does not match the level")

    u = initial.values.astype(np.float64).copy()
    times = [0.0]
    states = [u.copy()]
    for step in range(n_steps):
        t = step * dt
        k1 = _rhs(model, coupling.weights, t, u)
        k2 = _rhs(model, coupling.weights, t + dt / 2, u + (dt / 2) * k1)
        k3 = _rhs(model, coupling.weights, t + dt / 2, u + (dt / 2) * k2)
        k4 = _rhs(model, coupling.weights, t + dt, u + dt * k3)
        u = u + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(u)):
            bad = int(np.count_nonzero(~np.isfinite(u).all(axis=1)))
            raise NumericalAbortError(
                f"non-finite state after step {step + 1} (t = {t + dt:.6g}); "
                f"{bad} of {n} cells affected"
            )
        if (step + 1) % output_stride == 0 or step + 1 == n_steps:
            times.append((step + 1) * dt)
            states.append(u.copy())
    meta = {
        "model": model.name,
        "level": coupling.level,
        "k": coupling.k,
        "dt": dt,
        "T": T,
        "output_stride": output_stride,
        "coupling": coupling.kind,
        "seed": coupling.seed,
    }
    return Trajectory(coupling.k, coupling.level, np.array(times), np.array(states), meta)


# ---------------------------------------------------------------------------
# built-in model library


def kuramoto_model(coupling_strength: float, frequencies=0.0) -> ModelSpec:
    """Phase oscillators: du_w = omega_w + K sum_v G_wv sin(2 pi (u_v - u_w)).

    Phases are kept unwrapped in R; reduce mod 1 in diagnostics only.
    ``frequencies`` may be a field, an array, or a constant.
    """
    K = float(coupling_strength)
    omega = frequencies.values if isinstance(frequencies, PiecewiseConstantField) else frequencies
    omega = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    if omega.ndim == 1:
        omega = omega[:, None]

    def drift(t, u, params):
        return np.broadcast_to(params, u.shape)

    def interaction(u, v):
        return K * np.sin(2.0 * np.pi * (v - u))

    def coupling_term(G, u):
        # sin(b - a) = sin b cos a - cos b sin a turns the coupling sum into
        # two matrix-vector products
        ph = 2.0 * np.pi * u[:, 0]
        s, c = np.sin(ph), np.cos(ph)
        out = K * (c * (G @ s) - s * (G @ c))
        return out[:, None]

    return ModelSpec(
        name="kuramoto",
        state_dim=1,
        drift=drift,
        interaction=interaction,
        interaction_bound=max(abs(K), 1e-12),
        params=omega,
        coupling_term=coupling_term,
    )


def kuramoto_inertia_model(
    coupling_strength: float, damping: float, frequencies=0.0
) -> ModelSpec:
    """Second-order Kuramoto: state (phase, velocity), coupling drives the
    velocity equation."""
    K = float(coupling_strength)
    gamma = float(damping)
    omega = frequencies.values if isinstance(frequencies, PiecewiseConstantField) else frequencies
    omega = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    if omega.ndim == 1:
        omega = omega[:, None]

    def drift(t, u, params):
        out = np.empty_like(u)
        out[:, 0] = u[:, 1]
        out[:, 1] = -gamma * u[:, 1] + params[:, 0]
        return out

    def interaction(u, v):
        out = np.zeros(np.broadcast_shapes(u.shape, v.shape))
        out[..., 1] = K * np.sin(2.0 * np.pi * (v[..., 0] - u[..., 0]))
        return out

    def coupling_term(G, u):
        ph = 2.0 * np.pi * u[:, 0]
        s, c = np.sin(ph), np.cos(ph)
        out = np.zeros_like(u)
        out[:, 1] = K * (c * (G @ s) - s * (G @ c))
        return out

    return ModelSpec(
        name="kuramoto_inertia",
        state_dim=2,
        drift=drift,
        interaction=interaction,
        interaction_bound=max(abs(K), 1e-12),
        params=omega,
        coupling_term=coupling_term,
    )


def consensus_model(interaction_fn=None, bound: float = 4.0) -> ModelSpec:
    """Opinion pooling: du_w = sum_v G_wv D(u_v - u_w); default D = identity."""
    h = interaction_fn if interaction_fn is not None else (lambda z: z)

    def drift(t, u, params):
        return np.zeros_like(u)

    def interaction(u, v):
        return h(v - u)

    coupling_term = None
    if interaction_fn is None:
        def coupling_term(G, u):  # noqa: F811 - identity fast path
            rowsums = G.sum(axis=1)
            return G @ u - rowsums[:, None] * u

    return ModelSpec(
        name="consensus",
        state_dim=1,
        drift=drift,
        interaction=interaction,
        interaction_bound=bound,
        coupling_term=coupling_term,
    )


def builtin_models() -> dict:
    """Catalog of model factories keyed by name."""
    return {
        "kuramoto": kuramoto_model,
        "kuramoto_inertia": kuramoto_inertia_model,
        "consensus": consensus_model,
    }


# ---------------------------------------------------------------------------
# kernel presets (all Lipschitz)


def _pair_distance(x, y, d: int):
    if d == 1:
        return np.abs(x - y)
    return np.sqrt(np.sum((x - y) ** 2, axis=-1))


def _declare(W, translation_invariant: bool, unit_range: bool):
    W.translation_invariant = translation_invariant
    W.unit_range = unit_range
    return W


def builtin_kernels(d: int) -> dict:
    """Named kernels W(x, y); ``constant`` is a factory of the value.

    Each kernel declares two attributes: ``translation_invariant`` (W depends
    on x - y only, which lets ``project_kernel`` evaluate one cell pair per
    displacement) and ``unit_range`` (values lie in [0, 1], as Bernoulli
    sampling requires).  Plain callables declare neither.
    """

    def expdist(x, y):
        return np.exp(-_pair_distance(x, y, d))

    def gaussian(x, y):
        return np.exp(-_pair_distance(x, y, d) ** 2)

    def constant(value: float = 1.0):
        def W(x, y):
            shape = np.broadcast_shapes(np.shape(x), np.shape(y))
            if d > 1:
                shape = shape[:-1]
            return np.full(shape, float(value))

        return _declare(W, True, 0.0 <= float(value) <= 1.0)

    return {
        "expdist": _declare(expdist, True, True),
        "gaussian": _declare(gaussian, True, True),
        "constant": constant,
    }
