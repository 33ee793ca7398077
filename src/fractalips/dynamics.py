"""Galerkin assembly and time integration of self-similar particle systems.

The level-m system couples one state per cell through cell-averaged kernel
weights:

    du_w/dt = f(t, u_w) + sum_{|v|=m} W_wv D(u_w, u_v) nu(K_v)

with either deterministic weights W_wv (cell averages of a kernel) or
Bernoulli samples xi_wv of those averages.  Time stepping is classical
fixed-step RK4; the spatial error under study dominates the time error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate, combinations
from typing import Callable

import numpy as np

from .errors import NumericalAbortError
from .geometry import attractor_points, has_common_linear_part
from .quadrature import SelfSimilarMeasure
from .symbolic import check_eval_budget, check_level_size, level_weights
from .transfer import KernelMatrix, PiecewiseConstantField

# the largest deterministic graph that level_graph keeps dense, the 2 MiB of
# a per-core L2 cache: on sg at level 6 the dense graph (4.25 MB) overflows it
DENSE_GRAPH_BYTES = 2 << 20
# the most graph bytes that one RK4 loop of integrate_levels reads, for a
# union of levels or a group of a level's members: four fifths of that
# cache (1.68 MB), so that the rest of the loop's data stays in the cache
# beside them.  Measured on the benchmark (10 pairs each):
# levels 2-5 of sg (0.53 MB) and level 6's factored BlockGraph (1.34 MB)
# ran 7 % slower as one loop than as two, while the simulate workload's
# union of Bernoulli stacks (1.57 MB) ran slower as two loops.
LOOP_GRAPH_BYTES = DENSE_GRAPH_BYTES * 4 // 5


@dataclass
class ModelSpec:
    """Intrinsic drift plus the coupling sum.

    The integrator evaluates every member of an ensemble at once, so u is
    (E, n, s): E members, n cells, state dimension s.
    ``drift(t, u, params)`` returns an array that broadcasts to u's shape.
    ``coupling_term(G, u)`` returns sum_v G_wv D(u_w, u_v) for every member
    as an (E, n, s) array.  G is either one (n, n) graph that every member
    shares (an array or a ``BlockGraph``) or an (E, n, n) stack with one
    graph per member, and for each RK4 loop of ``integrate_levels`` a
    ``BlockDiagonal`` of either; ``graph_product`` applies all of them.
    ``pairwise_coupling`` builds it from a broadcasting D, for every layout.
    ``params`` holds optional per-cell constants such as oscillator
    frequencies (they obey d(lambda)/dt = 0), given as a field, an array or
    a constant.  A constant or a 1-D array becomes one column, one value per
    cell; a 2-D array has one row per cell, or one row for every cell.
    """

    name: str
    state_dim: int
    drift: Callable
    coupling_term: Callable
    params: np.ndarray | None = None

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError("state_dim must be >= 1")
        if isinstance(self.params, PiecewiseConstantField):
            self.params = self.params.values
        if self.params is not None:
            params = np.asarray(self.params, dtype=np.float64)
            self.params = params.reshape(-1, 1) if params.ndim < 2 else params


@dataclass(frozen=True)
class BlockGraph:
    """G = W diag(nu) for a symmetric W whose k diagonal blocks are one matrix.

    Blocks are cut by the first symbol of the cell words.  ``diagonal`` is
    the shared diagonal block, ``upper`` maps (i, j), i < j, to block (i, j),
    whose transpose is block (j, i), and ``masses`` holds the nu(K_v): k(k -
    1)/2 + 1 of the k^2 blocks are stored.  ``_compressed`` builds it from
    the class gather of the grouped kernel projection: an upper block is
    either the block itself or its low-rank factors (U, V) with U V within
    ``GRAPH_TOL`` of it.  ``np.asarray`` gives the dense G, which is W
    diag(nu) exactly only when every block is stored; ``pairwise_coupling``
    densifies a factored graph that way.
    """

    diagonal: np.ndarray
    upper: dict
    masses: np.ndarray
    ndim = 2

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.masses),) * 2

    @property
    def nbytes(self) -> int:  # the blocks and factors a product reads
        return self.diagonal.nbytes + sum(
            sum(f.nbytes for f in C) if isinstance(C, tuple) else C.nbytes
            for C in self.upper.values())

    def __array__(self, dtype=None, copy=None):
        b = len(self.diagonal)
        W = np.empty((len(self.masses) // b, b) * 2)
        for i in range(len(W)):
            W[i, :, i] = self.diagonal
        for (i, j), C in self.upper.items():
            W[i, :, j] = C[0] @ C[1] if isinstance(C, tuple) else C
            W[j, :, i] = W[i, :, j].T
        return np.multiply(W.reshape(self.shape), self.masses, out=W.reshape(self.shape))


# a CouplingGraph stores an upper block of a BlockGraph as factors U V that
# keep the graph within GRAPH_TOL of its blocks in the row-sum norm,
# ||G~ - G||_inf <= GRAPH_TOL ||G||_inf, so every product G~ x is within
# GRAPH_TOL ||G||_inf ||x||_inf of G x; ACA_TOL is the Frobenius-estimate
# stop of the cross approximation that builds them
GRAPH_TOL = 1e-12
ACA_TOL = 3e-14


def _compressed(block: Callable, k: int, masses: np.ndarray) -> BlockGraph:
    """The ``BlockGraph`` of G = W diag(masses) for the symmetric W of k x k
    blocks whose block (i, j), i <= j, has the rows and columns (slices) that
    ``block(i, j, rows, cols)`` gathers: the diagonal block gathered whole,
    and each upper block as its adaptive cross approximation factors (U, V)
    where they compress it, else gathered whole.

    The tolerance of a block is its share of GRAPH_TOL ||G||_inf: each
    block-row meets k - 1 upper blocks or their transposes, so a block is
    factored only if U V changes no row sum of |G - G~| of either block-row
    by more than GRAPH_TOL ||G||_inf / (k - 1), checked exactly against the
    block's entries.  No upper block is ever held whole beside its factors:
    the factors read only their pivot rows and columns, and one pass over
    the block's rows, gathered 2^13 entries at a time, takes both its |G|
    row sums and those of |C - U V|; the checks are decided once ||G||_inf
    is known.
    """
    b = len(masses) // k
    nu = masses.reshape(k, b)
    upper = {ij: partial(block, *ij) for ij in combinations(range(k), 2)}
    diagonal = _gathered(partial(block, 0, 0), np.empty((b, b)))
    # the row sums of |G|, block-row by block-row: D's, then each upper
    # block's and its transpose's
    sums = _abs_sums(diagonal.__getitem__, b, nu[0], nu.T)[0][0].T  # (k, b)
    factors = {}
    for (i, j), C in upper.items():
        UV = _low_rank(C, b, b)
        (rows, cols), *residual = _abs_sums(C, b, nu[i], nu[j], UV)
        sums[i] += rows
        sums[j] += cols
        factors[i, j] = UV, residual
    bound = GRAPH_TOL * sums.max() / (k - 1)
    for ij, C in upper.items():
        UV, residual = factors.pop(ij)
        if residual and all(s.max() <= bound for s in residual[0]):
            upper[ij] = UV[:, :b].T, UV[:, b:]
        else:
            del UV  # before the block is gathered
            upper[ij] = _gathered(C, np.empty((b, b)))
    return BlockGraph(diagonal, upper, masses)


def _low_rank(C: Callable, p: int, q: int) -> np.ndarray | None:
    """The rows of U^T and V, as one (r, p + q) array, of the factors U V of
    the p x q block whose rows and columns (slices) ``C(rows, cols)``
    gathers, or None when they take a rank of a third of its smaller side
    (the factors would hold more than two thirds of its bytes).
    ``_compressed`` keeps them only if they pass its exact check.

    Partially pivoted adaptive cross approximation (Bebendorf, Numer. Math.
    86, 2000): each term is a residual row of C scaled by its largest entry
    and the residual column through that entry, and the next row is the free
    one where that column is largest.  It stops when a term's Frobenius norm
    falls below ACA_TOL times the running estimate of ||U V||_F; that last,
    negligible term is dropped.
    """
    cap = min(p, q) // 3
    UV = np.empty((cap, p + q))  # one buffer for both factors
    U, V = UV[:, :p], UV[:, p:]  # term r is U[r] V[r]^T
    free = np.ones(p, dtype=bool)
    r, i, frob = 0, 0, 0.0
    while r < cap and free.any():
        free[i] = False
        row = C(slice(i, i + 1))[0] - U[:r, i] @ V[:r]
        j = np.argmax(np.abs(row))
        if row[j] == 0.0:  # row i is reproduced already
            i = np.argmax(free)
            continue
        V[r] = row / row[j]
        U[r] = C(slice(None), slice(j, j + 1))[:, 0] - V[:r, j] @ U[:r]
        size = (U[r] @ U[r]) * (V[r] @ V[r])
        frob += size + 2.0 * (U[:r] @ U[r]) @ (V[:r] @ V[r])
        if size <= ACA_TOL * ACA_TOL * frob:
            break
        i = np.argmax(np.where(free, np.abs(U[r]), -1.0))
        r += 1
    del U, V
    if r == cap:
        return None
    # shrunk in place, not copied: a copy leaves the buffer's heap space
    # behind as a hole among live arrays, which raised the peak RSS of the
    # benchmark pipelines; no view of the buffer is left to move
    UV.resize((r, p + q), refcheck=False)
    return UV


def _row_blocks(n: int, width: int, entries: int = 1 << 13):
    """Slices of the rows of an n x ``width`` matrix, ``entries`` at a time so
    that no temporary holds more (2^13: 64 KiB of float64; at 256 KiB they
    raised the peak RSS of the benchmark pipelines that build these graphs)."""
    step = max(1, entries // width)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _gathered(C: Callable, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the block whose rows (slices) ``C(rows)`` gathers."""
    for rows in _row_blocks(*out.shape):
        out[rows] = C(rows)
    return out


def _abs_sums(C: Callable, n: int, left: np.ndarray, right: np.ndarray, UV=None) -> list:
    """[(|B| right, left |B|)] for the n-row matrix B whose rows (slices)
    ``C(rows)`` returns, taken by ``_row_blocks``; with the rows ``UV`` of
    the factors U^T and V of ``_low_rank``, followed by the same pair for
    B - U V, from the same gathered rows."""
    terms = 1 if UV is None else 2
    out, back = [[] for _ in range(terms)], [0.0] * terms
    for rows in _row_blocks(n, len(right)):
        blocks = [C(rows)]
        if UV is not None:
            e = UV[:, :n][:, rows].T @ UV[:, n:]
            blocks.append(np.subtract(blocks[0], e, out=e))
        for t, B in enumerate(blocks):
            a = np.abs(B)
            out[t].append(a @ right)
            back[t] = back[t] + left[rows] @ a
    return [(np.concatenate(o), s) for o, s in zip(out, back)]


@dataclass(frozen=True)
class BlockDiagonal:
    """Independent systems side by side, their graphs on the diagonal: all
    shared (n_i, n_i) graphs or all (E, n_i, n_i) stacks, (N, N) or (E, N, N)
    as a whole.  ``integrate_levels`` builds one for each RK4 loop."""

    blocks: tuple

    @property
    def shape(self) -> tuple[int, ...]:
        n = sum(g.shape[-1] for g in self.blocks)
        return self.blocks[0].shape[:-2] + (n, n)

    @property
    def ndim(self) -> int:
        return len(self.shape)


@dataclass(frozen=True)
class DeferredStack:
    """The (E, n, n) stack of ``stack_graphs(km, meas, seeds, symmetric)``,
    drawn only when sliced: ``stack[a:b]`` is the C-order stack of members
    a to b - 1, drawn by ``stack_graphs`` with the same per-seed bits.  It
    is the graph ``level_graph`` builds for a Bernoulli level, which
    ``integrate_levels`` draws one member group at a time, each just before
    its RK4 loop; ``integrate_ips`` draws one handed to it whole.  Until
    then it holds the n x n ``KernelMatrix`` only.  The kernel averages are
    checked against [0, 1] here, before any member is drawn.
    """

    km: KernelMatrix
    meas: SelfSimilarMeasure
    seeds: tuple
    symmetric: bool
    ndim = 3

    def __post_init__(self):
        _check_probabilities(self.km.entries, self.seeds)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.seeds),) + self.km.entries.shape

    @property
    def nbytes(self) -> int:  # of the whole stack, as if it were drawn
        return len(self.seeds) * self.km.entries.nbytes

    def __getitem__(self, members: slice) -> np.ndarray:
        return stack_graphs(self.km, self.meas, self.seeds[members], self.symmetric).weights


@dataclass(frozen=True)
class CouplingGraph:
    """The level-m coupling weights, already scaled by the cell masses.

    Deterministic entries are W_wv * nu(K_v); Bernoulli entries are
    xi_wv * nu(K_v) with xi in {0, 1}.  ``weights`` is one (n, n) graph,
    shared by every member of an ensemble, or an (E, n, n) stack with one
    graph per member.  A shared graph may also be a ``BlockGraph``, a stack
    a ``DeferredStack`` whose members are drawn when it is sliced, and
    either layout a ``BlockDiagonal`` of independent systems; these are
    stored as they are given.  In ``integrate_levels`` a drawn graph lives
    until its RK4 loop ends.
    """

    k: int
    level: int
    weights: np.ndarray | BlockGraph | BlockDiagonal

    def __post_init__(self):
        w = self.weights
        if not isinstance(w, (BlockGraph, BlockDiagonal, DeferredStack)):
            # the layouts graph_product reads fastest (OpenBLAS, one thread):
            # a shared graph with its transpose C-contiguous, for the GEMM of
            # all members' rows; a stack C-contiguous, for each member's two
            # rows at n = 243.  Copies only when the layout differs.
            w = np.asarray(w, dtype=np.float64)
            w = np.ascontiguousarray(w) if w.ndim == 3 else np.ascontiguousarray(w.T).T
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)
        n = self.k**self.level
        if w.ndim not in (2, 3) or w.shape[-2:] != (n, n):
            raise ValueError(
                f"expected a {n}x{n} weight matrix or a stack of them, got {w.shape}"
            )


@dataclass(frozen=True)
class Trajectory:
    """States on a fixed output time grid; one field per recorded time."""

    k: int
    level: int
    times: np.ndarray
    values: np.ndarray  # (n_times, k**level, state_dim)

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


def project_kernel(
    meas: SelfSimilarMeasure, kernel, m: int, sublevel: int
) -> KernelMatrix:
    """Cell averages of the kernel over all K_w x K_v pairs at level m.

    Uses the tensorized sub-cylinder nodes of the product system (K x K is
    the attractor of the paired maps (f_i, f_j)).  When the kernel declares
    ``translation_invariant = True`` (W(x, y) = w(x - y), w even) and the
    maps share a linear part, level-m cells are translates of each other and
    W_wv depends only on the displacement +-delta between K_w and K_v: each
    class is evaluated once, on its first pair, and W is filled block by
    block from the class values, so it is exactly symmetric (ValueError if w
    is not even).  Otherwise every pair is its own class.  Each row's pairs
    are one batch: K_w's nodes against the nodes of the cells of its classes.
    """
    W = _projection(meas, kernel, m, sublevel)
    if callable(W):  # the diagonal blocks repeat (0, 0), block (j, i) is (i, j)^T
        k, b = meas.k, meas.k**(m - 1)
        blocks = np.empty((k, b, k, b))
        upper = list(combinations(range(k), 2))
        for i, j in [(0, 0), *upper]:
            _gathered(partial(W, i, j), blocks[i, :, j])
        for i in range(1, k):
            blocks[i, :, i] = blocks[0, :, 0]
        for i, j in upper:
            blocks[j, :, i] = blocks[i, :, j].T
        W = blocks.reshape(k * b, k * b)
    return KernelMatrix(meas.k, m, W)


def _projection(meas: SelfSimilarMeasure, kernel, m: int, sublevel: int):
    """``project_kernel``'s W, or for a grouped projection its class gather
    ``block(i, j, rows=slice(None), cols=slice(None))``: the entries of the
    rows and columns (slices) of block (i, j), i <= j, of the k x k blocks
    cut by the first symbol."""
    k = meas.k
    n_cells = check_level_size(k, m)
    n_sub = k**sublevel
    invariant = getattr(kernel, "translation_invariant", False)
    grouped = invariant and m > 0 and has_common_linear_part(meas.ifs)  # level 0: no blocks
    # the budget charges the evaluations made: grouping compares all
    # n_cells^2 anchor pairs, then evaluates n_sub^2 pairs per class
    check_eval_budget(n_cells**2 if grouped else (n_cells * n_sub) ** 2)
    pts = attractor_points(meas.ifs, m + sublevel)
    # sub-cylinder masses relative to the largest one, normalized once at
    # the end: uniform p gives weights of exactly 1, so a constant kernel
    # projects to exactly itself and stays admissible for Bernoulli sampling
    parr = meas.p.as_array()
    q = level_weights(parr / parr.max(), sublevel)
    x = pts[:, 0] if meas.ifs.dimension == 1 else pts
    cells = x.reshape(n_cells, n_sub, *x.shape[1:])

    if grouped:
        # x_w = f_w(anchor) = A^m anchor + t_w, so x_w - x_v = t_w - t_v
        first, number, keys = _class_table(pts[::n_sub], n_cells // k)
        check_eval_budget((len(first) + 1) * n_sub * n_sub)  # + 1: evenness check
        rows, cols = np.divmod(first, n_cells)
        # first is ascending, so each row's representatives are contiguous
        bounds = np.flatnonzero(np.diff(rows, prepend=-1, append=n_cells))
        blocks = ((rows[lo], cols[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:]))
    else:
        # no translation structure: every pair is its own class
        blocks = ((w, slice(None)) for w in range(n_cells))
    values = np.concatenate([_block_sums(kernel, cells, q, [w], c)[0] for w, c in blocks])
    if grouped:
        # w must be even: the last class (not the zero displacement, unless
        # it is the only one) evaluated the other way round
        pair = values[-1], _block_sums(kernel, cells, q, cols[-1:], rows[-1:])[0, 0]
    elif invariant:
        # every pair was evaluated: compare the corners (0, n - 1) and (n - 1, 0)
        pair = values[n_cells - 1], values[-n_cells]
    if invariant and abs(pair[1] - pair[0]) > 1e-12 * abs(pair[0]):
        raise ValueError("a translation_invariant kernel must be even: W(x, y) = W(y, x)")
    values /= q.sum() ** 2
    if not grouped:
        return values.reshape(n_cells, n_cells)
    if not np.all(np.isfinite(values)):  # as KernelMatrix checks W
        raise ValueError("kernel entries must be finite")
    values = values.take(number, mode="clip")  # by key; a key of no pair reads any class
    return lambda i, j, rows=slice(None), cols=slice(None): values[keys(i, j, rows, cols)]


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


def _distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` by one sort: without index outputs np.unique imports
    numpy.ma (12 ms and 1.25 MB of RSS per process)."""
    a = np.sort(a, axis=None)
    keep = np.empty(a.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _class_table(t: np.ndarray, b: int):
    """Group the ordered pairs (w, v) of the points t by +-(t_w - t_v), so
    that (w, v) and (v, w) share a class, in row blocks of the b x b blocks.

    Returns, in ascending order, the flat index w * n + v of the first pair
    of each class, the class of each key, and ``keys(i, j, rows, cols)``,
    the keys of the rows and columns (slices, all by default) of block (i,
    j), i <= j.  Only block (0, 0) and the blocks i < j are keyed: the
    diagonal blocks repeat (0, 0), as t_w = f_w(anchor) under one linear
    part.  An axis ranks the displacements of its distinct coordinates, if
    at most b, else those of the keyed blocks.
    Displacements are rounded to a grid of 2^-40 times the largest one: far
    above the rounding of the coordinates, and below the gap between
    distinct displacements of the lattice presets at every level the
    enumeration cap admits (cantor at level 24 comes closest, with a gap of
    7.8 grid steps).  Displacements closer than one step may share a class;
    their entries then differ by at most the kernel's Lipschitz constant
    times the step.
    """
    n, step = len(t), 2.0**40 / (float(np.ptp(t, axis=0).max()) or 1.0)
    # the keyed blocks, 2^16 pairs at a time: no temporary of a block's size
    keyed = [(i, j, rows) for i, j in [(0, 0), *combinations(range(n // b), 2)]
             for rows in _row_blocks(b, b, 1 << 16)]

    def ranked(f, count):  # f on all pairs: on the keyed ones, and mirrored, count - 1 - f
        seen = _distinct(np.concatenate([_distinct(f(*key)) for key in keyed]))
        return _distinct(np.concatenate([seen, count - 1 - seen]))

    def keys(i, j, rows=slice(None), cols=slice(None), fold=False):
        key = 0  # rint is odd, so -delta keys (span - 1) - key
        for rank, count, levels in stages:
            key *= count
            key += rank(i, j, rows, cols)
            key = key if levels is None else levels.searchsorted(key)
        return np.minimum(key, span - 1 - key, out=key) if fold else key

    stages, span = [], 1  # per axis: its ranks, their count, the levels of the keys
    for x in t.T:
        vals, idx = np.unique(x, return_inverse=True)
        if len(vals) <= b:
            levels, r = np.unique(np.rint((vals[:, None] - vals) * step), return_inverse=True)
            c = idx.reshape(-1, b)  # r[u, v] of vals[u] - vals[v] is flat at u * len(vals) + v
            rank = lambda i, j, rows, cols, r=r.reshape(-1), c=c, cu=c * len(vals): \
                r[cu[i, rows, None] + c[j, cols]]
        else:
            def grid(i, j, rows=slice(None), cols=slice(None), x=x.reshape(-1, b)):
                return np.rint((x[i, rows, None] - x[j, cols]) * step)

            levels = ranked(grid, 1)  # mirrored to -d
            rank = lambda i, j, rows, cols, g=grid, lv=levels: lv.searchsorted(g(i, j, rows, cols))
        stages.append([rank, len(levels), None])
        span *= len(levels)
        if span > n * n:  # ranking the keys, mirrored, keeps that symmetry
            stages[-1][2] = levels = ranked(keys, span)
            span = len(levels)

    first = np.full(span, n * n)
    for i, j, rows in keyed:  # the flat index w * n + v of each pair
        flat = np.arange(i * b, (i + 1) * b)[rows, None] * n + np.arange(j * b, (j + 1) * b)
        np.minimum.at(first, keys(i, j, rows, fold=True), flat)
    number = np.argsort(np.argsort(first))  # keys in the order of their first pairs
    mirror = np.arange(span)  # and each key's mirror, (span - 1) - key, in its class
    number = number[np.minimum(mirror, span - 1 - mirror, out=mirror)]
    return np.sort(first)[:np.count_nonzero(first < n * n)], number, keys


def assemble_deterministic(km: KernelMatrix, meas: SelfSimilarMeasure) -> CouplingGraph:
    """Scale kernel averages by the cell masses: entry (w, v) = W_wv nu(K_v).

    The diagonal is kept; the coupling sum runs over all level-m words.  The
    graph is dense, in the Fortran order that ``CouplingGraph`` keeps for
    one graph, so it is not copied.
    """
    masses = meas.weights(km.level)
    return CouplingGraph(km.k, km.level, np.multiply(km.entries, masses, order="F"))


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

    The one-member ``stack_graphs`` draw, as one shared graph: it holds the
    drawn member and ``CouplingGraph``'s Fortran-order copy of it.
    """
    return CouplingGraph(km.k, km.level, stack_graphs(km, meas, (seed,), symmetric).weights[0])


def _check_probabilities(P: np.ndarray, seeds) -> None:
    """Refuse P if a seed draws from it and an entry lies outside [0, 1]
    beyond the slack of ``sample_bernoulli``."""
    drawn = any(seed is not None for seed in seeds)
    if drawn and (P.min() < -1e-12 or P.max() > 1.0 + 1e-12):
        raise ValueError(
            "Bernoulli sampling requires kernel averages in [0, 1]; "
            f"got range [{P.min():.3g}, {P.max():.3g}]"
        )


def stack_graphs(
    km: KernelMatrix, meas: SelfSimilarMeasure, seeds, symmetric: bool = True
) -> CouplingGraph:
    """One graph per ensemble member, stacked into one (E, n, n) coupling.

    Member i is the dense deterministic graph W_wv nu(K_v) when ``seeds[i]``
    is None and otherwise the Bernoulli draw of ``sample_bernoulli`` with
    that seed: uniform draws from the seed's Philox stream compared with W,
    with ``symmetric`` mirrored from the upper triangle, then scaled by the
    masses.  The entries are checked against [0, 1] once, before any draw.
    Each member is written straight into its slice of the stack, in C
    order, so beside the E n x n stack nothing of graph size is held.  A
    ``DeferredStack`` calls it on each member group it draws, which is how
    ``integrate_levels`` draws every Bernoulli level.
    """
    seeds = tuple(seeds)
    _check_probabilities(km.entries, seeds)
    masses = meas.weights(km.level)
    weights = np.empty((len(seeds),) + km.entries.shape)
    for member, seed in zip(weights, seeds):
        if seed is None:
            np.multiply(km.entries, masses, out=member)
            continue
        np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(out=member)
        np.less(member, km.entries, out=member)
        if symmetric:
            for row in range(1, len(member)):
                member[row, :row] = member[:row, row]
        member *= masses
    return CouplingGraph(km.k, km.level, weights)


def graph_product(G: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_v G_wv x_v along the last axis of x: (E, c, n) -> (E, c, n).

    A shared (n, n) graph multiplies the c rows of all E members in one GEMM,
    which reads G once; an (E, n, n) stack multiplies each member's rows by
    its own graph in one batched matmul.  A ``BlockGraph`` folds the masses
    into x, since G_wv = W_wv nu_v, and makes one GEMM of its diagonal block
    with every block-row, then two per upper block C (C and C^T), or for
    the factors C ~ U V that ``level_graph`` keeps four thin ones,
    (z_j V^T) U^T and (z_i U) V.  A ``BlockDiagonal`` writes each block's
    product, as its system alone makes it, into the block's slice of the
    output.
    """
    if isinstance(G, BlockDiagonal):
        y, lo = np.empty(x.shape), 0
        x2, y2 = x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1])
        for g in G.blocks:
            hi = lo + g.shape[-1]
            if isinstance(g, BlockGraph):
                y[..., lo:hi] = graph_product(g, x[..., lo:hi])
            else:  # a shared graph's one GEMM is on the (E c, N) views
                a, b = (x2, y2) if g.ndim == 2 else (x, y)
                np.matmul(a[..., lo:hi], g.swapaxes(-1, -2), out=b[..., lo:hi])
            lo = hi
        return y
    if isinstance(G, BlockGraph):
        b = len(G.diagonal)
        z = (x * G.masses).reshape(-1, len(G.masses) // b, b)
        y = (z.reshape(-1, b) @ G.diagonal).reshape(z.shape)
        for (i, j), C in G.upper.items():
            if isinstance(C, tuple):
                U, V = C
                y[:, i] += (z[:, j] @ V.T) @ U.T
                y[:, j] += (z[:, i] @ U) @ V
            else:
                y[:, i] += z[:, j] @ C.T
                y[:, j] += z[:, i] @ C
        return y.reshape(x.shape)
    if G.ndim == 2:
        return (x.reshape(-1, x.shape[-1]) @ G.swapaxes(-1, -2)).reshape(x.shape)
    return x @ G.swapaxes(-1, -2)


def pairwise_coupling(interaction: Callable, bound: float, state_dim: int = 1) -> Callable:
    """The ``coupling_term`` of a pairwise interaction D: sum_v G_wv D(u_w, u_v).

    ``interaction(u, v) -> (..., s)`` must broadcast; it is evaluated on all
    n^2 cell pairs of every member.  |D| <= ``bound`` is spot-checked once,
    here, on a small grid of states of dimension ``state_dim``; models with
    coupling strength k declare a bound of |k|.
    """
    grid = np.linspace(-1.2, 1.2, 5)
    u = np.stack([grid] * state_dim, axis=-1)  # (5, s)
    mag = np.abs(np.asarray(interaction(u[:, None, :], u[None, :, :]))).max()
    if mag > bound * (1.0 + 1e-9):
        raise ValueError(
            f"sampled |D| = {mag:.3g} exceeds the declared bound {bound:.3g}"
        )

    def coupling_term(G, u):
        if isinstance(G, BlockDiagonal):  # each block on its own slice of the cells
            cuts = [0, *accumulate(g.shape[-1] for g in G.blocks)]
            return np.concatenate([coupling_term(g, u[..., lo:hi, :])
                                   for g, lo, hi in zip(G.blocks, cuts, cuts[1:])], axis=-2)
        dvals = np.asarray(interaction(u[..., :, None, :], u[..., None, :, :]))
        return np.einsum("...wv,...wvs->...ws", np.asarray(G), dvals)

    return coupling_term


def _rhs(model: ModelSpec, weights: np.ndarray, t: float, u: np.ndarray) -> np.ndarray:
    out = np.asarray(model.drift(t, u, model.params), dtype=np.float64)
    return out + model.coupling_term(weights, u)


def step_count(T: float, dt: float) -> int:
    """The number of steps of size dt that reach T exactly.

    Raises ValueError unless dt > 0, T >= 0, both are finite and T/dt is a
    whole number to a relative 1e-9, so a run never stops short of T (or
    overshoots it) without a word.
    """
    if not (0 < dt < math.inf and T >= 0 and math.isfinite(T / dt)):
        raise ValueError(
            "the time grid needs a finite dt > 0 and a finite T >= 0, "
            f"not T = {T:g} and dt = {dt:g}"
        )
    ratio = T / dt
    n_steps = round(ratio)
    if abs(ratio - n_steps) > 1e-9 * max(ratio, 1.0):
        raise ValueError(f"T = {T:g} is not a whole multiple of dt = {dt:g}")
    return n_steps


def _ensemble(model: ModelSpec, coupling: CouplingGraph, initial):
    """The initial fields, the member count, and whether ``integrate_ips``
    returns one Trajectory per member (when either input is stacked)."""
    single = isinstance(initial, PiecewiseConstantField)
    fields = (initial,) if single else tuple(initial)
    n_graphs = coupling.weights.shape[0] if coupling.weights.ndim == 3 else 1
    members = max(n_graphs, len(fields))
    if {n_graphs, len(fields)} - {1, members}:
        raise ValueError(
            f"{n_graphs} graphs and {len(fields)} initial fields do not form one ensemble"
        )
    for f in fields:
        if f.k != coupling.k or f.level != coupling.level:
            raise ValueError("initial field and coupling graph levels differ")
        if f.state_dim != model.state_dim:
            raise ValueError("initial field state dimension does not match the model")
    if model.params is not None and len(model.params) not in (1, coupling.k**coupling.level):
        raise ValueError("per-cell parameter count does not match the level")
    return fields, members, coupling.weights.ndim == 3 or not single


def integrate_ips(
    model: ModelSpec,
    coupling: CouplingGraph,
    initial,
    T: float,
    dt: float,
    output_stride: int = 1,
):
    """Classical RK4 on the coupled cell system up to time T, for every
    member of an ensemble at once.

    The members share the model and the time grid.  They differ in their
    graphs when ``coupling`` holds an (E, n, n) stack, and in their initial
    data when ``initial`` is a sequence of E fields; one graph or one field
    serves every member.  One RK4 loop runs, and each of its stages
    evaluates all members together; a ``DeferredStack`` is drawn whole
    before it.  Returns one Trajectory per member, in order, when either
    input is stacked, and the Trajectory otherwise.

    The state is recorded at t = 0 and every ``output_stride`` steps (plus
    the final step).  Aborts with a diagnostic naming the member if a state
    leaves the finite range.
    """
    if output_stride < 1:
        raise ValueError(f"output_stride must be >= 1, not {output_stride}")
    n_steps = step_count(T, dt)
    n = coupling.k**coupling.level
    fields, members, listed = _ensemble(model, coupling, initial)
    graphs = coupling.weights
    graphs = graphs[:] if isinstance(graphs, DeferredStack) else graphs

    recorded = [
        s for s in range(1, n_steps + 1) if s % output_stride == 0 or s == n_steps
    ]
    states = np.empty((members, 1 + len(recorded), n, model.state_dim))
    states[:, 0] = np.stack([f.values for f in fields])
    u, out = states[:, 0].copy(), 1
    for step in range(n_steps):
        t = step * dt
        k1 = _rhs(model, graphs, t, u)
        k2 = _rhs(model, graphs, t + dt / 2, u + (dt / 2) * k1)
        k3 = _rhs(model, graphs, t + dt / 2, u + (dt / 2) * k2)
        k4 = _rhs(model, graphs, t + dt, u + dt * k3)
        u = u + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(u)):
            bad = ~np.isfinite(u).all(axis=2)
            where = ", ".join(
                f"member {e} ({np.count_nonzero(bad[e])} of {n} cells)"
                for e in np.flatnonzero(bad.any(axis=1))
            )
            raise NumericalAbortError(
                f"non-finite state after step {step + 1} (t = {t + dt:.6g}) in {where}"
            )
        if (step + 1) % output_stride == 0 or step + 1 == n_steps:
            states[:, out] = u
            out += 1
    times = np.array([0, *recorded]) * dt
    trajs = [Trajectory(coupling.k, coupling.level, times, v) for v in states]
    return trajs if listed else trajs[0]


def level_graph(meas: SelfSimilarMeasure, kernel, m: int, sublevel: int,
                graph_seeds=None, symmetric: bool = True) -> CouplingGraph:
    """The graph that ``integrate_levels`` integrates for level m.

    With ``graph_seeds`` it is the ``DeferredStack`` of ``stack_graphs(km,
    meas, graph_seeds, symmetric)``: it keeps the n x n ``KernelMatrix`` km,
    never the E n x n stack.  Without, it is ``assemble_deterministic``'s W
    diag(nu), except for a grouped projection over ``DENSE_GRAPH_BYTES``:
    that level's ``BlockGraph`` is built by ``_compressed`` from the class
    gather, without W or any whole upper block it factors.  So this is the
    one place that decides the layout of a level's graph.
    """
    if graph_seeds is None and 8 * meas.k**(2 * m) > DENSE_GRAPH_BYTES:
        W = _projection(meas, kernel, m, sublevel)  # grouped: its gather, never W
        if callable(W):
            return CouplingGraph(meas.k, m, _compressed(W, meas.k, meas.weights(m)))
        return assemble_deterministic(KernelMatrix(meas.k, m, W), meas)
    km = project_kernel(meas, kernel, m, sublevel)
    if graph_seeds is None:
        return assemble_deterministic(km, meas)
    return CouplingGraph(meas.k, m, DeferredStack(km, meas, tuple(graph_seeds), symmetric))


def integrate_levels(meas: SelfSimilarMeasure, kernel, levels, sublevel: int,
                     model_builder, init_builder, T: float, dt: float,
                     output_stride: int, graph_seeds=None, symmetric: bool = True) -> list:
    """What ``integrate_ips`` returns for the level-m Galerkin system of each
    m in ``levels``, in order: model_builder(m), ``level_graph(meas, kernel,
    m, sublevel, graph_seeds, symmetric)`` and init_builder(m).  Every level's
    graph is built, finest first, before any RK4 step, so a level that the
    budget, the level cap, the evenness or finiteness checks or the [0, 1]
    check of a ``DeferredStack`` refuses fails before any integration.

    This is the one place that decides what each RK4 loop holds; every loop
    is one ``integrate_ips`` call.  Consecutive levels whose models are
    equal but for their params (of one width), with the same member count
    and layout (shared graphs or stacks), whose graphs fit
    ``LOOP_GRAPH_BYTES`` together form one batch.  A ``BlockGraph`` counts
    the bytes it stores, the low-rank factors of its upper blocks where
    ``_compressed`` keeps them: sg level 6 (1.34 MB) joins level 4 (1.40 MB
    together) but not levels 2-5 (1.87 MB).  A batch of one level whose
    stack, one graph per member, is over ``LOOP_GRAPH_BYTES`` runs in even
    groups of members within it, one loop after the other; any other batch
    is one group.  Each loop runs the N cells of its batch's disjoint union
    at level 1 on a ``BlockDiagonal`` graph, on the params of each level, so
    every trajectory keeps the bits of its level run alone.  A
    ``NumericalAbortError`` names the loop's level, or the union's levels,
    and for one group of several its members, counted from 0 within it.

    A graph lives only while it integrates.  The batches run finest first,
    so the finest batch, where a series peaks, holds no coarse drawn stack
    or trajectory.  Each group's members are drawn just before its loop,
    the batch's kernel matrices go once its last group is drawn, and each
    group's graphs go when its loop ends.  So a series holds at most the
    largest group, the kernel matrices of the levels still to run and the
    trajectories already made.
    """
    levels = list(levels)
    graphs = {m: level_graph(meas, kernel, m, sublevel, graph_seeds, symmetric)
              for m in sorted(set(levels), reverse=True)}
    models, couplings = [model_builder(m) for m in levels], [graphs[m] for m in levels]
    del graphs  # from here each graph is held by its levels' entries of couplings
    ensembles = [_ensemble(model, c, init_builder(m))
                 for model, c, m in zip(models, couplings, levels)]
    starts = [0, *accumulate(c.k**c.level for c in couplings)]
    # (key, bytes) per level, in a comprehension that binds no graph past it
    keyed = [((e[1], c.weights.ndim, replace(model, params=None), np.shape(model.params)[1:]),
              c.weights.nbytes) for model, c, e in zip(models, couplings, ensembles)]
    batches, used = [], 0
    for i, (key, nbytes) in enumerate(keyed):
        used += nbytes
        if not batches or batches[-1][0] != key or used > LOOP_GRAPH_BYTES:
            batches.append((key, []))
            used = nbytes
        batches[-1][1].append(i)
    results = [[] for _ in levels]
    for _, batch in sorted(batches, key=lambda b: -max(levels[i] for i in b[1])):
        lo, hi = starts[batch[0]], starts[batch[-1] + 1]
        model, members = models[batch[0]], ensembles[batch[0]][1]
        if model.params is not None:  # one row serves each cell of its level
            model = replace(model, params=np.concatenate([np.broadcast_to(
                models[i].params, (starts[i + 1] - starts[i], model.params.shape[1]))
                for i in batch]))
        weights, sets = [couplings[i].weights for i in batch], [ensembles[i][0] for i in batch]
        for i in batch:  # from here only weights, then each group, holds the graphs
            couplings[i] = None
        # stacks of one graph per member run in even groups within LOOP_GRAPH_BYTES
        split = all(w.ndim == 3 and w.shape[0] == members for w in weights)
        size = sum(w.nbytes for w in weights)
        groups = -(-members // max(1, LOOP_GRAPH_BYTES * members // size)) if split else 1
        cuts = [members * g // groups for g in range(groups + 1)]
        for a, b in zip(cuts, cuts[1:]):
            coupling = CouplingGraph(hi - lo, 1, BlockDiagonal(tuple(
                w[a:b] if w.ndim == 3 else w for w in weights)))
            if b == members:  # the last group is drawn: its kernel matrices go
                del weights
            # a level's one field serves each member, as in integrate_ips
            fields = [PiecewiseConstantField(hi - lo, 1, np.concatenate(
                [f[e % len(f)].values for f in sets])) for e in range(a, b)]
            try:
                trajs = integrate_ips(model, coupling, fields, T, dt, output_stride)
            except NumericalAbortError as exc:  # name the loop's levels, and its members
                held = ", ".join(f"{levels[i]} ({starts[i + 1] - starts[i]} cells)" for i in batch)
                held = f"the union of levels {held}" if len(batch) > 1 else f"level {held}"
                where = held if groups == 1 else f"the group of members {a}-{b - 1} of {held}"
                raise NumericalAbortError(f"{exc}, {where}") from exc
            del coupling  # the group's graphs, before the next group draws its own
            for i in batch:
                results[i] += [Trajectory(meas.k, levels[i], t.times,
                                          t.values[:, starts[i] - lo:starts[i + 1] - lo])
                               for t in trajs]
    return [r if e[2] else r[0] for r, e in zip(results, ensembles)]


# ---------------------------------------------------------------------------
# built-in model library


def _phase_coupling(G: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """sum_v G_wv sin(2 pi (phase_v - phase_w)) for every member.

    sin(b - a) = sin b cos a - cos b sin a turns the sum into products of G
    with the sines and the cosines, which one ``graph_product`` computes.
    """
    ph = 2.0 * np.pi * phase
    sc = np.empty(phase.shape[:-1] + (2, phase.shape[-1]))
    np.sin(ph, out=sc[..., 0, :])
    np.cos(ph, out=sc[..., 1, :])
    g = graph_product(G, sc)
    return sc[..., 1, :] * g[..., 0, :] - sc[..., 0, :] * g[..., 1, :]


def kuramoto_model(coupling_strength: float, frequencies=0.0) -> ModelSpec:
    """Phase oscillators: du_w = omega_w + K sum_v G_wv sin(2 pi (u_v - u_w)).

    Phases are kept unwrapped in R; reduce mod 1 in diagnostics only.
    ``frequencies`` may be a field, an array, or a constant.
    """
    K = float(coupling_strength)

    def drift(t, u, params):
        return params

    def coupling_term(G, u):
        return (K * _phase_coupling(G, u[..., 0]))[..., None]

    return ModelSpec(
        name="kuramoto",
        state_dim=1,
        drift=drift,
        coupling_term=coupling_term,
        params=frequencies,
    )


def kuramoto_inertia_model(
    coupling_strength: float, damping: float, frequencies=0.0
) -> ModelSpec:
    """Second-order Kuramoto: state (phase, velocity), coupling drives the
    velocity equation."""
    K = float(coupling_strength)
    gamma = float(damping)

    def drift(t, u, params):
        out = np.empty_like(u)
        out[..., 0] = u[..., 1]
        out[..., 1] = -gamma * u[..., 1] + params[:, 0]
        return out

    def coupling_term(G, u):
        out = np.zeros_like(u)
        out[..., 1] = K * _phase_coupling(G, u[..., 0])
        return out

    return ModelSpec(
        name="kuramoto_inertia",
        state_dim=2,
        drift=drift,
        coupling_term=coupling_term,
        params=frequencies,
    )


def consensus_model(coupling_strength: float = 1.0) -> ModelSpec:
    """Opinion pooling: du_w = K sum_v G_wv (u_v - u_w); one
    ``graph_product`` of the rows [u, 1] gives both sums."""
    K = float(coupling_strength)

    def coupling_term(G, u):
        x = u[..., 0]
        rows = np.stack([x, np.ones_like(x)], axis=-2)
        gx, degree = np.moveaxis(graph_product(G, rows), -2, 0)
        return (K * (gx - degree * x))[..., None]

    def drift(t, u, params):
        return np.zeros_like(u)

    return ModelSpec(name="consensus", state_dim=1, drift=drift, coupling_term=coupling_term)


def builtin_models() -> dict:
    """Catalog of model factories keyed by name.

    Every factory takes ``(coupling_strength, damping, frequencies)`` and
    ignores what its model does not use; consensus uses only the strength.  The
    catalog is built on every call, from the factories the module holds then.
    """
    return {
        "kuramoto": lambda K, damping, omega: kuramoto_model(K, omega),
        "kuramoto_inertia": kuramoto_inertia_model,
        "consensus": lambda K, damping, omega: consensus_model(K),
    }


# ---------------------------------------------------------------------------
# kernel presets (all Lipschitz)


def _pair_distance(x, y, d: int):
    if d == 1:
        return np.abs(x - y)
    # summed axis by axis, ((a + b) + c): np.sum's order on a last axis this
    # short, so the same bits, without its reduction overhead per pair
    sq = (x[..., 0] - y[..., 0]) ** 2
    for i in range(1, d):
        sq += (x[..., i] - y[..., i]) ** 2
    return np.sqrt(sq)


def _declare(W, translation_invariant: bool, unit_range: bool):
    W.translation_invariant = translation_invariant
    W.unit_range = unit_range
    return W


def builtin_kernels(d: int) -> dict:
    """Named kernels W(x, y); ``constant`` is a factory of the value.

    Each kernel declares two attributes: ``translation_invariant`` (W(x, y) =
    w(x - y) with w even, which lets ``project_kernel`` evaluate one cell
    pair per displacement +-delta) and ``unit_range`` (values lie in [0, 1],
    as Bernoulli sampling requires).  Plain callables declare neither.
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
