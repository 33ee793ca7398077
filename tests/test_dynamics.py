import functools
import itertools
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalips import (
    IFS,
    BudgetExceededError,
    CouplingGraph,
    KernelMatrix,
    ModelSpec,
    NumericalAbortError,
    PiecewiseConstantField,
    ProbabilityVector,
    SelfSimilarMeasure,
    Similitude,
    assemble_deterministic,
    attractor_points,
    builtin_kernels,
    builtin_models,
    coarsen,
    consensus_model,
    graph_product,
    integrate_ips,
    integrate_levels,
    kuramoto_inertia_model,
    kuramoto_model,
    martingale_level,
    pairwise_coupling,
    preset,
    project_kernel,
    sample_bernoulli,
    stack_graphs,
)
from fractalips import analysis, cli, dynamics, experiments
from fractalips.analysis import traj_error, vlasov_self_convergence
from fractalips.dynamics import (DENSE_GRAPH_BYTES, LOOP_GRAPH_BYTES, BlockDiagonal, BlockGraph,
                                 DeferredStack, level_graph, step_count)
from fractalips.experiments import (
    bernoulli_gap_medians,
    kuramoto_fields,
    kuramoto_refinement_errors,
    refinement_errors,
    uniform_phase_sampler,
)
from fractalips.geometry import default_anchor
from fractalips.symbolic import level_weights

# the inline IFS of the simulate benchmark: map1 is rotated by pi, so the maps
# share no linear part
ROTATED = IFS(
    (
        Similitude.rotation_2d(0.5, math.pi, [0.5, 0.4330127018922193]),
        Similitude.homothety(0.5, [0.5, 0.0]),
        Similitude.homothety(0.5, [0.25, 0.4330127018922193]),
    )
)


def constant_graph(k, level, value):
    n = k**level
    return CouplingGraph(k, level, np.full((n, n), value / n))


def kuramoto_interaction(K):
    """The Kuramoto D(u, v) = K sin(2 pi (v - u))."""
    return lambda u, v: K * np.sin(2.0 * np.pi * (v - u))


def inertia_interaction(K):
    """The second-order Kuramoto D: the phase coupling drives the velocity."""

    def D(u, v):
        out = np.zeros(np.broadcast_shapes(u.shape, v.shape))
        out[..., 1] = K * np.sin(2.0 * np.pi * (v[..., 0] - u[..., 0]))
        return out

    return D


def dense_reference(meas, kernel, m, sublevel):
    """The kernel projection without displacement classes: every node pair
    in one block, contracted with the relative sub-cylinder weights."""
    n_cells, n_sub = meas.k**m, meas.k**sublevel
    pts = attractor_points(meas.ifs, m + sublevel)
    x = pts[:, 0] if meas.ifs.dimension == 1 else pts
    parr = meas.p.as_array()
    q = level_weights(parr / parr.max(), sublevel)
    block = np.asarray(kernel(x[:, None], x[None, :]), dtype=np.float64)
    block = block.reshape(n_cells, n_sub, n_cells, n_sub)
    return np.einsum("aubv,u,v->ab", block, q, q) / q.sum() ** 2


def skewed_p(k):
    w = np.arange(1.0, k + 1.0)
    return ProbabilityVector(tuple(w / w.sum()))


class TestProjectKernel:
    def test_constant_kernel(self, sg_measure):
        kern = builtin_kernels(2)["constant"](0.6)
        km = project_kernel(sg_measure, kern, 2, 2)
        np.testing.assert_allclose(km.entries, 0.6, rtol=1e-14)

    def test_unit_constant_kernel_is_exact_and_bernoulli_admissible(self, sg_measure):
        # the projected unit kernel must not round above 1, or Bernoulli
        # sampling rejects it
        km = project_kernel(sg_measure, builtin_kernels(2)["constant"](1.0), 2, 2)
        assert np.all(km.entries == 1.0)
        g = sample_bernoulli(km, sg_measure, seed=3)
        assert np.all(g.weights == sg_measure.weights(2)[None, :])

    def test_product_kernel_factorizes(self, sg_measure):
        # W(x, y) = a(x) b(y): Fubini on the tensorized nodes gives
        # entry(w, v) = avg(a | K_w) * avg(b | K_v)
        from fractalips import cell_average, Word

        a = lambda x: np.exp(-x[..., 0])
        b = lambda y: 1.0 + 0.5 * y[..., 1]
        W = lambda x, y: a(x) * b(y)
        km = project_kernel(sg_measure, W, 1, 3)
        anchor = default_anchor(sg_measure.ifs)
        for wi in range(3):
            for vi in range(3):
                aw = cell_average(sg_measure, lambda x: a(x[:, None, :])[:, 0],
                                  Word(3, (wi + 1,)), 3, anchor=anchor)
                bv = cell_average(sg_measure, lambda y: b(y[:, None, :])[:, 0],
                                  Word(3, (vi + 1,)), 3, anchor=anchor)
                assert km.entries[wi, vi] == pytest.approx(aw * bv, rel=1e-12)

    def test_symmetric_kernel_symmetric_matrix(self, sg_measure):
        kern = builtin_kernels(2)["expdist"]
        km = project_kernel(sg_measure, kern, 3, 2)
        np.testing.assert_allclose(km.entries, km.entries.T, atol=1e-12)

    def test_interval_kernel(self, interval2_measure):
        W = lambda x, y: np.exp(-np.abs(x - y))
        km = project_kernel(interval2_measure, W, 2, 3)
        assert km.entries.shape == (4, 4)
        assert np.all(km.entries > 0) and np.all(km.entries <= 1)


class TestDisplacementClasses:
    @pytest.mark.parametrize("name, top", [
        ("sg", 5), ("sg3", 2), ("cantor", 5), ("interval-3", 5),
    ])
    @pytest.mark.parametrize("kernel_name", ["expdist", "gaussian", "constant"])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_grouped_matches_dense_oracle(self, name, top, kernel_name, uniform):
        ifs = preset(name)
        kern = builtin_kernels(ifs.dimension)[kernel_name]
        if kernel_name == "constant":
            kern = kern(0.7)
        assert kern.translation_invariant
        undeclared = lambda x, y: kern(x, y)  # noqa: E731 - takes the dense path
        p = ProbabilityVector.uniform(ifs.k) if uniform else skewed_p(ifs.k)
        meas = SelfSimilarMeasure(ifs, p)
        for m in range(1, top + 1):
            grouped = project_kernel(meas, kern, m, 2).entries
            dense = project_kernel(meas, undeclared, m, 2).entries
            np.testing.assert_allclose(grouped, dense, rtol=1e-13, atol=0)

    def test_one_pair_per_displacement_class(self, sg_measure):
        kern = builtin_kernels(2)["expdist"]
        evaluated = []

        def counted(x, y):
            out = kern(x, y)
            evaluated.append(out.size)
            return out

        counted.translation_invariant = True
        project_kernel(sg_measure, counted, 4, 2)
        # the 6561 cell pairs of sg at level 4 have 721 distinct displacements,
        # 361 up to sign; one class is evaluated again the other way round
        assert sum(evaluated) == (361 + 1) * 9 * 9

    def test_budget_charges_the_evaluations_made(self, sg_measure, monkeypatch):
        # sg at level 4, sublevel 2: grouping compares 81^2 = 6,561 anchor
        # pairs and evaluates 361 classes (+-delta) and one evenness check of
        # 9 x 9 node pairs (29,322); every pair would be 729^2 = 531,441
        kern = builtin_kernels(2)["expdist"]
        monkeypatch.setenv("FRACTALIPS_MAX_EVALS", "100000")
        project_kernel(sg_measure, kern, 4, 2)
        with pytest.raises(BudgetExceededError):
            project_kernel(sg_measure, lambda x, y: kern(x, y), 4, 2)
        monkeypatch.setenv("FRACTALIPS_MAX_EVALS", "29321")
        with pytest.raises(BudgetExceededError):
            project_kernel(sg_measure, kern, 4, 2)
        monkeypatch.setenv("FRACTALIPS_MAX_EVALS", "6560")
        with pytest.raises(BudgetExceededError):
            project_kernel(sg_measure, kern, 4, 2)

    def test_undeclared_kernel_unchanged(self, sg_measure):
        W = lambda x, y: np.exp(-np.sqrt(np.sum((x - y) ** 2, axis=-1)))  # noqa: E731
        for m, sublevel in itertools.product((1, 2, 3), (0, 1, 2)):
            np.testing.assert_array_equal(
                project_kernel(sg_measure, W, m, sublevel).entries,
                dense_reference(sg_measure, W, m, sublevel),
            )

    def test_maps_without_common_linear_part_unchanged(self):
        kern = builtin_kernels(2)["expdist"]
        for p in (ProbabilityVector.uniform(3), skewed_p(3)):
            meas = SelfSimilarMeasure(ROTATED, p)
            for m, sublevel in itertools.product((1, 2, 3), (0, 1, 2)):
                np.testing.assert_array_equal(
                    project_kernel(meas, kern, m, sublevel).entries,
                    dense_reference(meas, kern, m, sublevel),
                )

    def test_ungrouped_projection_holds_one_row_block_at_a_time(self):
        # m = 5, sublevel 2: W is 0.45 MiB, while the temporaries of all
        # 2187^2 node pairs at once would take several hundred MiB
        kern = builtin_kernels(2)["expdist"]
        meas = SelfSimilarMeasure.uniform(ROTATED)
        tracemalloc.start()
        try:
            project_kernel(meas, kern, 5, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_grouped_projection_holds_two_n2_arrays_at_most(self, sg_measure):
        # m = 6: one n^2 array of int64 or float64 is 4 MiB; the class keys,
        # their ranks, the gathered entries and their quotient were 3.2 of them
        tracemalloc.start()
        try:
            project_kernel(sg_measure, builtin_kernels(2)["expdist"], 6, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * 729**2

    def test_near_equal_ratios_match_dense_oracle(self):
        # ratios 0.5 and 0.500002 share no linear part, so no cell pair may
        # stand in for another
        ifs = IFS((Similitude.homothety(0.5, [0.0]),
                   Similitude.homothety(0.500002, [0.5])))
        kern = builtin_kernels(1)["expdist"]
        meas = SelfSimilarMeasure.uniform(ifs)
        for m in (1, 3, 6):
            np.testing.assert_allclose(
                project_kernel(meas, kern, m, 2).entries,
                project_kernel(meas, lambda x, y: kern(x, y), m, 2).entries,
                rtol=1e-13, atol=0,
            )

    def test_generic_translations_match_dense_oracle(self):
        # a common linear part but no lattice: the per-axis displacement
        # ranks multiply past n^2 and are ranked again
        ifs = IFS(tuple(Similitude.homothety(0.3, t)
                        for t in ([0.0, 0.0], [0.61, 0.13], [0.29, 0.57])))
        kern = builtin_kernels(2)["expdist"]
        meas = SelfSimilarMeasure(ifs, skewed_p(3))
        grouped = project_kernel(meas, kern, 3, 1).entries
        np.testing.assert_array_equal(grouped, grouped.T)
        np.testing.assert_allclose(
            grouped, dense_reference(meas, kern, 3, 1), rtol=1e-13, atol=0
        )

    def test_declared_odd_kernel_rejected(self, sg_measure):
        # on ROTATED the maps share no linear part, so every pair is evaluated
        def odd(x, y):
            return (x - y)[..., 0]

        odd.translation_invariant = True
        for meas in (sg_measure, SelfSimilarMeasure.uniform(ROTATED)):
            with pytest.raises(ValueError, match="must be even"):
                project_kernel(meas, odd, 2, 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_catalog_kernels_equal_the_axis_sum_oracle(self, d):
        # bit for bit, on the (a, 1, d) x (1, b, d) blocks of _block_sums and
        # on flat (N, d) pairs
        rng = np.random.Generator(np.random.Philox(10 + d))
        tail = () if d == 1 else (d,)
        shapes = [((12, 1) + tail, (1, 30) + tail), ((200,) + tail, (200,) + tail)]
        kernels = builtin_kernels(d)
        for sx, sy in shapes:
            x, y = rng.uniform(-2.0, 2.0, sx), rng.uniform(-2.0, 2.0, sy)
            dist = np.abs(x - y) if d == 1 else np.sqrt(np.sum((x - y) ** 2, axis=-1))
            np.testing.assert_array_equal(kernels["expdist"](x, y), np.exp(-dist))
            np.testing.assert_array_equal(kernels["gaussian"](x, y), np.exp(-dist**2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_catalog_kernels_are_even(self, d):
        rng = np.random.Generator(np.random.Philox(d))
        shape = (200,) if d == 1 else (200, d)
        x, y = rng.uniform(-2.0, 2.0, shape), rng.uniform(-2.0, 2.0, shape)
        for name, kern in builtin_kernels(d).items():
            kern = kern(0.7) if name == "constant" else kern
            np.testing.assert_array_equal(kern(x, y), kern(y, x))

    def test_catalog_declares_ranges(self):
        kernels = builtin_kernels(2)
        assert kernels["expdist"].unit_range and kernels["gaussian"].unit_range
        assert kernels["constant"](1.0).unit_range
        assert kernels["constant"](0.0).unit_range
        assert not kernels["constant"](-0.1).unit_range
        assert not kernels["constant"](1.5).unit_range


class TestProjectInitial:
    def test_constant(self, sg_measure):
        f = martingale_level(sg_measure, lambda x: np.full(len(x), 2.5), 2, 3)
        np.testing.assert_array_equal(f.values[:, 0], 2.5)

    def test_indicator_of_first_cell(self, sg_measure):
        # 1_{K_(1)} on SG: cell 1 lies strictly below the line
        # x + y/sqrt(3) = 1/2 (its two contact points sit on the line)
        s3 = np.sqrt(3.0)
        phi = lambda x: (x[:, 0] + x[:, 1] / s3 < 0.5 - 1e-9).astype(float)
        f = martingale_level(sg_measure, phi, 1, 6)
        np.testing.assert_allclose(f.values[:, 0], [1.0, 0.0, 0.0], atol=1e-12)


class TestAssemble:
    def test_unit_kernel_rows_sum_to_one(self, sg_measure):
        km = KernelMatrix(3, 1, np.ones((3, 3)))
        g = assemble_deterministic(km, sg_measure)
        np.testing.assert_allclose(g.weights.sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(g.weights, 1.0 / 3.0, rtol=1e-12)

    def test_zero_kernel(self, sg_measure):
        km = KernelMatrix(3, 2, np.zeros((9, 9)))
        g = assemble_deterministic(km, sg_measure)
        assert np.all(g.weights == 0)

    def test_negative_kernels_allowed_in_deterministic_path(self, sg_measure):
        km = KernelMatrix(3, 1, np.full((3, 3), -0.4))
        g = assemble_deterministic(km, sg_measure)
        np.testing.assert_allclose(g.weights, -0.4 / 3.0, rtol=1e-12)

    def test_level_zero_is_one_cell(self, sg_measure):
        # one cell of mass 1: the graph is W itself, alone or in a stack
        km = project_kernel(sg_measure, builtin_kernels(2)["expdist"], 0, 2)
        assert km.entries.shape == (1, 1)
        expected = km.entries * sg_measure.weights(0)[None, :]
        np.testing.assert_array_equal(assemble_deterministic(km, sg_measure).weights,
                                      expected)
        np.testing.assert_array_equal(stack_graphs(km, sg_measure, (None,)).weights,
                                      expected[None])


# level-m graphs over DENSE_GRAPH_BYTES: k = 3 and 2, uniform and skewed p
BLOCK_CASES = [(name, m, uniform) for name, m in (("sg", 6), ("interval-3", 6), ("cantor", 10))
               for uniform in (True, False)]


def exact_graph(meas, kernel, m, sublevel):
    """The BlockGraph of the exact blocks of W diag(nu), sliced from
    ``project_kernel``'s W: the oracle of the graph ``_compressed`` builds."""
    k, b = meas.k, meas.k**(m - 1)
    W = project_kernel(meas, kernel, m, sublevel).entries.reshape(k, b, k, b)
    return BlockGraph(W[0, :, 0].copy(), {(i, j): (W[i, :, j].copy(),)
                                          for i, j in itertools.combinations(range(k), 2)},
                      meas.weights(m))


def factored(exact):
    """``_compressed`` on the exact blocks of a BlockGraph, gathered by
    slicing them."""
    def block(i, j, rows=slice(None), cols=slice(None)):
        return (exact.diagonal if i == j else exact.upper[i, j][0])[rows, cols]

    return dynamics._compressed(block, len(exact.masses) // len(exact.diagonal), exact.masses)


@functools.lru_cache(maxsize=None)
def factored_case(name, m, uniform, kernel="expdist"):
    """(exact blocks, their factored graph, the graph level_graph builds
    from the class gather) of a kernel on a preset, sublevel 1: expdist, or
    ``constant`` of 0.5."""
    ifs = preset(name)
    meas = SelfSimilarMeasure(ifs, ProbabilityVector.uniform(ifs.k) if uniform
                              else skewed_p(ifs.k))
    kernels = builtin_kernels(ifs.dimension)
    kernel = kernels["constant"](0.5) if kernel == "constant" else kernels[kernel]
    exact = exact_graph(meas, kernel, m, 1)
    return exact, factored(exact), level_graph(meas, kernel, m, 1).weights


def stored(graph):
    """The arrays a BlockGraph holds: its diagonal block, then the factors
    of each upper block."""
    return [graph.diagonal, *(f for C in graph.upper.values() for f in C)]


@pytest.fixture(scope="module", params=BLOCK_CASES, ids=lambda c: f"{c[0]}-m{c[1]}-{c[2]}")
def block_case(request):
    """(measure, grouped kernel projection, dense graph, table-built graph,
    exact blocks) of one block case."""
    name, m, uniform = request.param
    ifs = preset(name)
    meas = SelfSimilarMeasure(ifs, ProbabilityVector.uniform(ifs.k) if uniform else skewed_p(ifs.k))
    kernel = builtin_kernels(ifs.dimension)["expdist"]
    km = project_kernel(meas, kernel, m, 1)
    return (meas, km, km.entries * meas.weights(m)[None, :],
            level_graph(meas, kernel, m, 1).weights, exact_graph(meas, kernel, m, 1))


class TestBlockGraph:
    @pytest.mark.parametrize("rows", [2, 4, 20])
    def test_product_matches_dense(self, block_case, rows):
        meas, km, dense, table, exact = block_case
        graph = factored(exact)
        rng = np.random.Generator(np.random.Philox(rows))
        x = rng.uniform(0.0, 1.0, (2, rows, len(dense)))
        # the projection's exact blocks are the dense graph, bit for bit
        assert np.asarray(exact).tobytes() == dense.tobytes()
        for g in (graph, table):
            assert isinstance(g, BlockGraph)
            assert g.shape == dense.shape and g.ndim == 2
            np.testing.assert_allclose(
                graph_product(g, x), graph_product(dense, x), rtol=1e-13, atol=0
            )
        # the table builds the exact blocks' factors, bit for bit
        assert table.upper.keys() == graph.upper.keys()
        for a, b in zip(stored(table), stored(graph), strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name, m, kernel", [
        ("sg", 6, "expdist"), ("sg", 7, "expdist"), ("interval-3", 6, "expdist"),
        ("cantor", 10, "expdist"), ("sg", 6, "constant")],
        ids=["sg-6", "sg-7", "interval-3-6", "cantor-10", "sg-6-constant"])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "skewed"])
    def test_factored_product_is_within_the_bound(self, name, m, kernel, uniform):
        # ||G~ x - G x||_inf <= 1e-12 ||G||_inf ||x||_inf against the exact
        # blocks; both kernels are positive, so ||G||_inf is the largest row
        # sum.  ACA meets every row of a constant block reproduced by its
        # first term, so each upper block factors at rank 1
        exact, graph, table = factored_case(name, m, uniform, kernel)
        for g in (graph, table):
            ranks = {U.shape[1] for U, V in g.upper.values()}  # every block factored
            assert kernel != "constant" or ranks == {1}
        assert graph.nbytes < exact.nbytes
        norm = graph_product(exact, np.ones((1, 1, exact.shape[0]))).max()
        rng = np.random.Generator(np.random.Philox(m))
        for rows in (2, 20):
            x = rng.uniform(-1.0, 1.0, (2, rows, exact.shape[0]))
            error = np.abs(graph_product(graph, x) - graph_product(exact, x)).max()
            assert error <= 1e-12 * norm * np.abs(x).max()

    @pytest.mark.parametrize("name, m", [("sg", 6), ("sg", 7), ("interval-3", 6),
                                         ("cantor", 10)])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "skewed"])
    def test_gathered_factors_equal_the_exact_blocks_factors(self, name, m, uniform):
        # the build from the class gather, which never holds an upper block
        # whole, stores what factoring the sliced exact blocks stores
        exact, graph, table = factored_case(name, m, uniform)
        assert table.upper.keys() == graph.upper.keys()
        for a, b in zip(stored(table), stored(graph), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert table.masses.tobytes() == exact.masses.tobytes()

    @pytest.mark.parametrize("name, m", [("sg", 5), ("sg", 6), ("sg3", 4), ("cantor", 10),
                                         ("interval-3", 6)])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "skewed"])
    def test_w_is_filled_as_from_whole_blocks(self, name, m, uniform):
        # project_kernel fills W 2^13 entries at a time; W is what the
        # BlockGraph of the whole gathered blocks, of unit masses, gives
        ifs = preset(name)
        meas = SelfSimilarMeasure(ifs, ProbabilityVector.uniform(ifs.k) if uniform
                                  else skewed_p(ifs.k))
        kernel = builtin_kernels(ifs.dimension)["expdist"]
        block = dynamics._projection(meas, kernel, m, 1)
        whole = BlockGraph(block(0, 0), {(i, j): (block(i, j),) for i, j in
                                         itertools.combinations(range(ifs.k), 2)},
                           np.ones(ifs.k**m))
        W = project_kernel(meas, kernel, m, 1).entries
        assert W.tobytes() == np.asarray(whole).tobytes()

    def test_factors_are_what_nbytes_counts(self, sg_measure):
        exact = exact_graph(sg_measure, builtin_kernels(2)["expdist"], 6, 1)
        graph = factored(exact)
        assert graph.nbytes == sum(a.nbytes for a in stored(graph))
        ranks = [U.shape[1] for U, _ in graph.upper.values()]
        assert graph.nbytes == 243**2 * 8 + sum(ranks) * 2 * 243 * 8
        # a third of the block's side at most: the factors hold at most two
        # thirds of its bytes
        assert graph.nbytes <= 1.4e6 and max(ranks) <= 243 // 3
        assert CouplingGraph(3, 6, graph).weights is graph  # stored as it is
        np.testing.assert_allclose(np.asarray(graph), np.asarray(exact), rtol=1e-11, atol=0)

    def test_a_block_whose_rank_does_not_pay_stays_dense(self, sg_measure):
        # an even, translation-invariant kernel whose profile oscillates
        # across the gasket: its off-diagonal blocks have no low rank
        def wave(x, y):
            return np.cos(40.0 * np.sqrt(((x - y) ** 2).sum(axis=-1)))

        wave.translation_invariant = True
        exact = exact_graph(sg_measure, wave, 6, 1)
        for graph in (factored(exact), level_graph(sg_measure, wave, 6, 1).weights):
            assert all(len(C) == 1 for C in graph.upper.values())
            assert graph.nbytes == exact.nbytes
            for a, b in zip(stored(graph), stored(exact), strict=True):
                assert a.tobytes() == b.tobytes()

    def test_factors_that_fail_the_exact_check_are_not_kept(self, sg_measure, monkeypatch):
        # a loose stop leaves ranks far too low for GRAPH_TOL, so the exact
        # check refuses every block's factors
        monkeypatch.setattr(dynamics, "ACA_TOL", 1e-3)
        kernel = builtin_kernels(2)["expdist"]
        exact = exact_graph(sg_measure, kernel, 6, 1)
        for graph in (factored(exact), level_graph(sg_measure, kernel, 6, 1).weights):
            assert all(len(C) == 1 for C in graph.upper.values())
            for a, b in zip(stored(graph), stored(exact), strict=True):
                assert a.tobytes() == b.tobytes()

    def test_table_build_holds_no_dense_w(self, sg_measure):
        # sg at level 6, sublevel 2: W is 729^2 float64 (4.05 MiB), and the
        # build holds neither W nor an n^2 class index beside the BlockGraph
        # (1.8 MiB)
        kernel = builtin_kernels(2)["expdist"]
        tracemalloc.start()
        try:
            graph = level_graph(sg_measure, kernel, 6, 2).weights
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(graph, BlockGraph)
        assert peak < 8 * 729**2

    def test_level_7_build_holds_no_whole_upper_block(self, sg_measure):
        # sg at level 7, sublevel 1: each 729 x 729 block is 4.05 MiB, and the
        # graph stores the diagonal one and the factors (7.0 MiB).  Forming
        # the three upper blocks to factor them peaked at 23.7 MiB; the build
        # gathers them 2^13 entries at a time and peaks at 10.8 MiB
        tracemalloc.start()
        try:
            graph = level_graph(sg_measure, builtin_kernels(2)["expdist"], 7, 1).weights
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(len(C) == 2 for C in graph.upper.values())
        assert peak < 12 * 2**20

    def test_table_build_keeps_the_budget_and_the_refusals(self, sg_measure, monkeypatch):
        # sg at level 6, sublevel 3: grouping compares 729^2 = 531,441 anchor
        # pairs, then evaluates 6,049 classes and one evenness check of 27 x 27
        # node pairs (4,410,450)
        kernel = builtin_kernels(2)["expdist"]
        monkeypatch.setenv("FRACTALIPS_MAX_EVALS", "4410450")
        assert isinstance(level_graph(sg_measure, kernel, 6, 3).weights, BlockGraph)
        for budget, charge in ((4410449, 4410450), (531440, 531441)):
            monkeypatch.setenv("FRACTALIPS_MAX_EVALS", str(budget))
            with pytest.raises(BudgetExceededError, match=f"^{charge} function evaluations"):
                level_graph(sg_measure, kernel, 6, 3)
        monkeypatch.delenv("FRACTALIPS_MAX_EVALS")

        def odd(x, y):
            return (x - y)[..., 0]

        odd.translation_invariant = True
        with pytest.raises(ValueError, match="must be even"):
            level_graph(sg_measure, odd, 6, 1)
        with pytest.raises(ValueError, match="kernel entries must be finite"):
            level_graph(sg_measure, builtin_kernels(2)["constant"](math.nan), 6, 1)

    @pytest.mark.parametrize("name", sorted(builtin_models()))
    def test_integration_matches_dense(self, name):
        meas = SelfSimilarMeasure.uniform(preset("sg"))
        blocks = level_graph(meas, builtin_kernels(2)["expdist"], 6, 1)
        assert isinstance(blocks.weights, BlockGraph)
        dense = CouplingGraph(3, 6, np.asarray(blocks.weights))
        model = builtin_models()[name](*TestBuiltinModels.FACTORY_ARGS[name])
        rng = np.random.Generator(np.random.Philox(3))
        fields = [PiecewiseConstantField(3, 6, rng.uniform(0.0, 1.0, (729, model.state_dim)))
                  for _ in range(2)]
        for a, b in zip(integrate_ips(model, blocks, fields, T=0.05, dt=0.01),
                        integrate_ips(model, dense, fields, T=0.05, dt=0.01)):
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)

    def test_other_graphs_stay_dense(self, sg_measure):
        # level_graph makes the one layout decision: only a grouped level
        # over DENSE_GRAPH_BYTES becomes a BlockGraph
        kern, line = builtin_kernels(2)["expdist"], builtin_kernels(1)["expdist"]
        cantor = SelfSimilarMeasure.uniform(preset("cantor"))
        assert 8 * 2**(2 * 9) == DENSE_GRAPH_BYTES  # cantor level 9, at the limit
        for meas, kernel, m in ((sg_measure, lambda x, y: kern(x, y), 6),
                                (SelfSimilarMeasure.uniform(ROTATED), kern, 6),
                                (sg_measure, kern, 5), (cantor, line, 9)):
            assert isinstance(level_graph(meas, kernel, m, 1).weights, np.ndarray)
        assert isinstance(level_graph(cantor, line, 10, 1).weights, BlockGraph)
        km = project_kernel(sg_measure, kern, 6, 1)
        # assemble_deterministic is W diag(nu) exactly, in the layout kept
        graph = assemble_deterministic(km, sg_measure).weights
        assert graph.flags.f_contiguous
        assert graph.tobytes() == (km.entries * sg_measure.weights(6)).tobytes()
        # and a CouplingGraph keeps the BlockGraph it is given
        exact = exact_graph(sg_measure, kern, 6, 1)
        assert CouplingGraph(3, 6, exact).weights is exact
        assert isinstance(sample_bernoulli(km, sg_measure, 1).weights, np.ndarray)
        stack = stack_graphs(km, sg_measure, (None, 1))
        assert isinstance(stack.weights, np.ndarray)
        # the deterministic member is W diag(nu) itself, not the factored graph
        np.testing.assert_array_equal(
            stack.weights[0], km.entries * sg_measure.weights(6)[None, :]
        )


class TestStackGraphs:
    def test_members_are_the_single_graphs(self, sg_measure):
        km = project_kernel(sg_measure, builtin_kernels(2)["expdist"], 2, 2)
        stack = stack_graphs(km, sg_measure, (None, 3, 8), symmetric=False)
        assert stack.weights.shape == (3, 9, 9)
        np.testing.assert_array_equal(
            stack.weights[0], assemble_deterministic(km, sg_measure).weights
        )
        for i, seed in ((1, 3), (2, 8)):
            single = sample_bernoulli(km, sg_measure, seed, symmetric=False)
            np.testing.assert_array_equal(stack.weights[i], single.weights)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_members_are_drawn_into_the_stack(self, sg_measure, symmetric):
        # sg at level 6: beyond its KernelMatrix (729^2 float64, 4.05 MiB) the
        # build of three Bernoulli members holds the stack and nothing of
        # graph size besides, and each member keeps sample_bernoulli's bits
        km = project_kernel(sg_measure, builtin_kernels(2)["expdist"], 6, 1)
        seeds = (1, 2, 3)
        sample_bernoulli(KernelMatrix(3, 1, np.zeros((3, 3))), sg_measure, 0)  # imports Philox
        tracemalloc.start()
        try:
            stack = stack_graphs(km, sg_measure, seeds, symmetric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.weights.shape == (3, 729, 729) and stack.weights.flags.c_contiguous
        assert peak <= 3.1 * 8 * 729**2
        for member, seed in zip(stack.weights, seeds, strict=True):
            single = sample_bernoulli(km, sg_measure, seed, symmetric).weights
            assert member.tobytes() == single.tobytes(order="C")


class TestSampleBernoulli:
    def test_degenerate_probabilities(self, sg_measure):
        ones = sample_bernoulli(KernelMatrix(3, 2, np.ones((9, 9))), sg_measure, 1)
        np.testing.assert_allclose(
            ones.weights, np.broadcast_to(sg_measure.weights(2)[None, :], (9, 9))
        )
        zeros = sample_bernoulli(KernelMatrix(3, 2, np.zeros((9, 9))), sg_measure, 1)
        assert np.all(zeros.weights == 0)

    def test_rejects_out_of_range(self, sg_measure):
        with pytest.raises(ValueError):
            sample_bernoulli(
                KernelMatrix(3, 1, np.full((3, 3), 1.5)), sg_measure, 0
            )

    @pytest.mark.parametrize("bad", [-1e-9, 1.0 + 1e-9])
    def test_rejects_beyond_rounding_slack(self, sg_measure, bad):
        with pytest.raises(ValueError):
            sample_bernoulli(KernelMatrix(3, 1, np.full((3, 3), bad)), sg_measure, 0)

    def test_rounding_past_the_unit_interval_draws_like_its_end(self, sg_measure):
        eps = 2.0**-52
        for near, end in ((1.0 + eps, 1.0), (-eps, 0.0)):
            a = sample_bernoulli(KernelMatrix(3, 2, np.full((9, 9), near)), sg_measure, 5)
            b = sample_bernoulli(KernelMatrix(3, 2, np.full((9, 9), end)), sg_measure, 5)
            np.testing.assert_array_equal(a.weights, b.weights)

    def test_symmetric_sampling_mirrors_upper_triangle(self, sg_measure):
        km = KernelMatrix(3, 2, np.full((9, 9), 0.5))
        g = sample_bernoulli(km, sg_measure, 42, symmetric=True)
        xi = g.weights / sg_measure.weights(2)[None, :]
        np.testing.assert_allclose(xi, xi.T, atol=1e-12)
        assert set(np.round(xi.ravel(), 6)) <= {0.0, 1.0}

    @staticmethod
    def reference(km, meas, seed, symmetric):
        """The draw by whole-matrix operations: compare, mirror with triu,
        scale by the masses into a Fortran-order copy."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        xi = (rng.random(km.entries.shape) < km.entries).astype(np.float64)
        if symmetric:
            upper = np.triu(xi, k=1)
            xi = upper + upper.T + np.diag(np.diag(xi))
        return np.multiply(xi, meas.weights(km.level)[None, :], order="F")

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("p", [None, (0.5, 0.3, 0.2)], ids=["uniform", "skewed"])
    @pytest.mark.parametrize("m", [2, 6])
    def test_in_place_draw_matches_whole_matrix_reference(self, m, p, symmetric):
        # level 6 is over DENSE_GRAPH_BYTES
        ifs = preset("sg")
        meas = SelfSimilarMeasure(
            ifs, ProbabilityVector.uniform(3) if p is None else ProbabilityVector(p)
        )
        km = project_kernel(meas, builtin_kernels(2)["expdist"], m, 1)
        for seed in (0, 17):
            graph = sample_bernoulli(km, meas, seed, symmetric).weights
            expected = self.reference(km, meas, seed, symmetric)
            assert graph.flags.f_contiguous and graph.shape == expected.shape
            assert graph.tobytes(order="A") == expected.tobytes(order="A")

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_draw_holds_at_most_two_dense_arrays(self, sg_measure, symmetric):
        # sg at level 6: beyond its KernelMatrix (729^2 float64, 4.05 MiB) a
        # draw holds the one-member stack of stack_graphs and the
        # Fortran-order copy of its member that CouplingGraph returns
        km = project_kernel(sg_measure, builtin_kernels(2)["expdist"], 6, 1)
        sample_bernoulli(KernelMatrix(3, 1, np.zeros((3, 3))), sg_measure, 0)  # imports Philox
        tracemalloc.start()
        try:
            graph = sample_bernoulli(km, sg_measure, 3, symmetric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.weights.shape == (729, 729)
        assert peak <= 2.1 * 8 * 729**2

    def test_seed_determinism(self, sg_measure):
        km = KernelMatrix(3, 2, np.full((9, 9), 0.3))
        a = sample_bernoulli(km, sg_measure, 7)
        b = sample_bernoulli(km, sg_measure, 7)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_empirical_edge_frequency(self, sg_measure):
        # binomial 3-sigma band around p = 0.3 over many seeds
        km = KernelMatrix(3, 1, np.full((3, 3), 0.3))
        hits = 0
        n_seeds = 10**4
        mass = 1.0 / 3.0
        for seed in range(n_seeds):
            g = sample_bernoulli(km, sg_measure, seed, symmetric=False)
            hits += int(g.weights[0, 1] > 0.5 * mass)
        phat = hits / n_seeds
        assert abs(phat - 0.3) <= 3.0 * np.sqrt(0.3 * 0.7 / n_seeds) + 1e-12


class TestIntegrateIPS:
    def test_decoupled_linear_decay(self):
        # D = 0, f = -u: every cell decays like e^{-t}
        model = ModelSpec(
            name="decay",
            state_dim=1,
            drift=lambda t, u, p: -u,
            coupling_term=lambda G, u: np.zeros_like(u),
        )
        g = PiecewiseConstantField(2, 1, np.array([3.0, 3.0]))
        coupling = constant_graph(2, 1, 0.0)
        traj = integrate_ips(model, coupling, g, T=1.0, dt=1e-3)
        expect = 3.0 * np.exp(-traj.times)
        np.testing.assert_allclose(traj.values[:, 0, 0], expect, rtol=1e-10)

    def test_two_cell_consensus_closed_form_with_strength(self):
        # K = 2.5: the gap obeys d(gap)/dt = -K gap
        model = consensus_model(2.5)
        g = PiecewiseConstantField(2, 1, np.array([0.25, 1.0]))
        traj = integrate_ips(model, constant_graph(2, 1, 1.0), g, T=1.0, dt=1e-3)
        gap = traj.values[:, 1, 0] - traj.values[:, 0, 0]
        np.testing.assert_allclose(gap, 0.75 * np.exp(-2.5 * traj.times), rtol=1e-8)

    def test_two_cell_consensus_closed_form(self):
        # k=2, m=1, W=1, D(u,v)=v-u: the gap obeys d(gap)/dt = -gap
        model = consensus_model()
        g = PiecewiseConstantField(2, 1, np.array([0.25, 1.0]))
        coupling = constant_graph(2, 1, 1.0)
        traj = integrate_ips(model, coupling, g, T=1.0, dt=1e-3)
        gap = traj.values[:, 1, 0] - traj.values[:, 0, 0]
        expect = 0.75 * np.exp(-traj.times)
        np.testing.assert_allclose(gap, expect, rtol=1e-8)

    def test_kuramoto_synchronized_state_is_stationary(self, sg_measure):
        model = kuramoto_model(1.0, 0.0)
        km = KernelMatrix(3, 2, np.full((9, 9), 0.8))
        coupling = assemble_deterministic(km, sg_measure)
        g = PiecewiseConstantField(3, 2, np.full(9, 0.37))
        traj = integrate_ips(model, coupling, g, T=2.0, dt=1e-2)
        assert np.abs(traj.values - 0.37).max() <= 1e-12

    def test_nan_abort(self):
        model = ModelSpec(
            name="blowup",
            state_dim=1,
            drift=lambda t, u, p: u**3,
            coupling_term=lambda G, u: np.zeros_like(u),
        )
        g = PiecewiseConstantField(2, 1, np.array([50.0, 50.0]))
        calm = PiecewiseConstantField(2, 1, np.zeros(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalAbortError, match=r"in member 0 \(2 of 2 cells\)$"):
                integrate_ips(model, constant_graph(2, 1, 0.0), g, T=10.0, dt=0.5)
            # in an ensemble the message names the member that blew up
            with pytest.raises(NumericalAbortError, match=r"in member 1 \(2 of 2 cells\)$"):
                integrate_ips(
                    model, constant_graph(2, 1, 0.0), [calm, g, calm], T=10.0, dt=0.5
                )

    def test_one_field_or_graph_serves_every_member(self, sg_measure):
        km = KernelMatrix(3, 1, np.full((3, 3), 0.5))
        graphs = stack_graphs(km, sg_measure, (1, 2))
        g = PiecewiseConstantField(3, 1, np.array([0.1, 0.5, 0.9]))
        model = kuramoto_model(1.0, 0.0)
        trajs = integrate_ips(model, graphs, g, T=0.1, dt=1e-2)
        assert len(trajs) == 2
        # an ensemble of one is still a list when an input is stacked
        (one,) = integrate_ips(model, constant_graph(3, 1, 1.0), [g], T=0.1, dt=1e-2)
        assert one.values.shape == (11, 3, 1)

    def test_ensemble_sizes_must_agree(self, sg_measure):
        km = KernelMatrix(3, 1, np.full((3, 3), 0.5))
        g = PiecewiseConstantField(3, 1, np.zeros(3))
        model = kuramoto_model(1.0, 0.0)
        with pytest.raises(ValueError, match="2 graphs and 3 initial fields"):
            integrate_ips(model, stack_graphs(km, sg_measure, (1, 2)), [g] * 3,
                          T=0.1, dt=1e-2)
        with pytest.raises(ValueError, match="1 graphs and 0 initial fields"):
            integrate_ips(model, constant_graph(3, 1, 1.0), [], T=0.1, dt=1e-2)

    def test_dimension_mismatch_rejected(self, sg_measure):
        model = kuramoto_model(1.0, 0.0)
        g = PiecewiseConstantField(3, 1, np.zeros(3))
        coupling = constant_graph(3, 2, 1.0)
        with pytest.raises(ValueError):
            integrate_ips(model, coupling, g, T=0.1, dt=1e-2)

    def test_horizon_not_multiple_of_step_rejected(self):
        # T = 1 with dt = 0.3 would stop at t = 0.9
        model = consensus_model()
        g = PiecewiseConstantField(2, 1, np.array([0.25, 1.0]))
        with pytest.raises(ValueError, match="whole multiple"):
            integrate_ips(model, constant_graph(2, 1, 1.0), g, T=1.0, dt=0.3)

    @pytest.mark.parametrize("T, dt", [
        (math.inf, 0.1), (math.nan, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.1),
        (1.0, math.inf), (1.0, math.nan), (1e300, 1e-300),
    ])
    def test_time_grid_needs_finite_positive_steps(self, T, dt):
        # refused before round(T / dt), which raises OverflowError on T = inf
        with pytest.raises(ValueError, match="the time grid needs"):
            step_count(T, dt)
        model = consensus_model()
        g = PiecewiseConstantField(2, 1, np.array([0.25, 1.0]))
        with pytest.raises(ValueError, match="the time grid needs"):
            integrate_ips(model, constant_graph(2, 1, 1.0), g, T=T, dt=dt)

    @pytest.mark.parametrize("params, shape", [
        (np.linspace(0.0, 1.0, 9), (9, 1)),
        (np.linspace(0.0, 1.0, 9)[:, None], (9, 1)),
        (PiecewiseConstantField(3, 2, np.linspace(0.0, 1.0, 9)), (9, 1)),
        (0.5, (1, 1)),
    ])
    def test_params_hold_one_value_per_cell(self, params, shape):
        # a 1-D array is one column, not a (1, 9) row that widens the state
        model = ModelSpec(
            name="drift",
            state_dim=1,
            drift=lambda t, u, p: p,
            coupling_term=lambda G, u: np.zeros_like(u),
            params=params,
        )
        assert model.params.shape == shape
        g = PiecewiseConstantField(3, 2, np.zeros(9))
        traj = integrate_ips(model, constant_graph(3, 2, 0.0), g, T=0.5, dt=0.1)
        expect = np.broadcast_to(0.5 * model.params, (9, 1))
        np.testing.assert_allclose(traj.values[-1], expect, rtol=1e-12)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_output_stride_below_one_rejected(self, stride):
        model = consensus_model()
        g = PiecewiseConstantField(2, 1, np.array([0.25, 1.0]))
        with pytest.raises(ValueError, match="output_stride"):
            integrate_ips(model, constant_graph(2, 1, 1.0), g, T=0.1, dt=1e-2,
                          output_stride=stride)

    def test_output_stride_keeps_final_time(self):
        model = consensus_model()
        g = PiecewiseConstantField(2, 1, np.array([0.0, 1.0]))
        traj = integrate_ips(model, constant_graph(2, 1, 1.0), g, T=1.0, dt=1e-2,
                             output_stride=7)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)

    def test_rk4_self_convergence_order(self, sg_measure):
        # halving dt shrinks the error ~16x (order 4), Kuramoto/SG benchmark
        kern = builtin_kernels(2)["expdist"]
        km = project_kernel(sg_measure, kern, 2, 2)
        coupling = assemble_deterministic(km, sg_measure)
        rng = np.random.Generator(np.random.Philox(3))
        g = PiecewiseConstantField(3, 2, rng.random(9))
        om = PiecewiseConstantField(3, 2, rng.normal(size=9))
        model = kuramoto_model(1.0, om)

        def run(dt):
            return integrate_ips(model, coupling, g, T=1.0, dt=dt, output_stride=1)

        ref = run(0.0125 / 4)
        errs = []
        for dt in (0.1, 0.05, 0.025):
            t = run(dt)
            idx = np.searchsorted(ref.times, t.times)
            diff = t.values - ref.values[idx]
            errs.append(np.abs(diff).max())
        ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
        assert all(r > 8.0 for r in ratios)

    def test_permutation_equivariance(self, sg_measure):
        # permuting the kernel matrix and the data permutes the solution
        rng = np.random.Generator(np.random.Philox(8))
        n = 9
        km_entries = rng.random((n, n))
        g_vals = rng.random(n)
        om_vals = rng.normal(size=n)
        # digit rotation 1 -> 2 -> 3 -> 1 on both symbols of level-2 words
        digits = np.stack(np.divmod(np.arange(n), 3), axis=1)
        perm = ((digits[:, 0] + 1) % 3) * 3 + (digits[:, 1] + 1) % 3

        def solve(kme, g, om):
            km = KernelMatrix(3, 2, kme)
            coupling = assemble_deterministic(km, sg_measure)
            model = kuramoto_model(1.0, om)
            init = PiecewiseConstantField(3, 2, g)
            return integrate_ips(model, coupling, init, T=1.0, dt=1e-2)

        base = solve(km_entries, g_vals, om_vals)
        permuted = solve(
            km_entries[np.ix_(perm, perm)], g_vals[perm], om_vals[perm]
        )
        np.testing.assert_allclose(
            permuted.values[:, :, 0], base.values[:, perm, 0], atol=1e-10
        )

    def test_exchangeability_constant_kernel(self, sg_measure):
        # constant kernel + identical data: all cells stay equal
        model = kuramoto_model(1.0, 0.25)
        km = KernelMatrix(3, 2, np.full((9, 9), 0.7))
        coupling = assemble_deterministic(km, sg_measure)
        g = PiecewiseConstantField(3, 2, np.full(9, 0.1))
        traj = integrate_ips(model, coupling, g, T=10.0, dt=1e-2)
        spread = traj.values[:, :, 0].max(axis=1) - traj.values[:, :, 0].min(axis=1)
        assert spread.max() <= 1e-12

    def test_kuramoto_fast_path_matches_generic(self, sg_measure):
        rng = np.random.Generator(np.random.Philox(4))
        km = KernelMatrix(3, 2, rng.random((9, 9)))
        coupling = assemble_deterministic(km, sg_measure)
        g = PiecewiseConstantField(3, 2, rng.random(9))
        om = rng.normal(size=9)
        fast = kuramoto_model(1.3, om)
        slow = kuramoto_model(1.3, om)
        slow.coupling_term = pairwise_coupling(kuramoto_interaction(1.3), 1.3)
        ta = integrate_ips(fast, coupling, g, T=0.5, dt=1e-2)
        tb = integrate_ips(slow, coupling, g, T=0.5, dt=1e-2)
        np.testing.assert_allclose(ta.values, tb.values, atol=1e-12)


class TestBuiltinModels:
    # (coupling_strength, damping, frequencies) for every catalog model; a
    # model added to the catalog without an entry here fails the property
    # test below
    FACTORY_ARGS = {
        "kuramoto": (1.3, 0.4, 0.2),
        "kuramoto_inertia": (-0.7, 0.4, 0.2),
        "consensus": (1.3, 0.4, 0.2),
    }

    # each catalog model's D(u, v), written out, with its bound and state
    # dimension: the pairwise oracle its coupling_term replaces
    INTERACTIONS = {
        "kuramoto": (kuramoto_interaction(1.3), 1.3, 1),
        "kuramoto_inertia": (inertia_interaction(-0.7), 0.7, 2),
        "consensus": (lambda u, v: 1.3 * (v - u), 4.0, 1),
    }

    def test_catalog_names(self):
        cat = builtin_models()
        assert set(cat) == {"kuramoto", "kuramoto_inertia", "consensus"}

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(builtin_models())),
        n=st.integers(1, 12),
        members=st.integers(1, 4),
        shared=st.booleans(),
        signed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coupling_term_matches_interaction(
        self, name, n, members, shared, signed, seed
    ):
        # the fast path on all members at once, against pairwise_coupling of
        # the model's D one member at a time
        model = builtin_models()[name](*self.FACTORY_ARGS[name])
        oracle = pairwise_coupling(*self.INTERACTIONS[name])
        rng = np.random.Generator(np.random.Philox(seed))
        shape = (n, n) if shared else (members, n, n)
        G = rng.uniform(-1.0 if signed else 0.0, 1.0, size=shape) / n
        u = rng.uniform(-3.0, 3.0, size=(members, n, model.state_dim))
        expect = [oracle(G if shared else G[e], u[e]) for e in range(members)]
        np.testing.assert_allclose(
            model.coupling_term(G, u), np.stack(expect), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("name", sorted(builtin_models()) + ["interaction only"])
    def test_ensemble_matches_single_runs(self, sg_measure, name, shared):
        # consensus with a non-identity D, given only by its interaction,
        # sums through pairwise_coupling
        if name == "interaction only":
            model = ModelSpec(
                name="consensus",
                state_dim=1,
                drift=lambda t, u, p: np.zeros_like(u),
                coupling_term=pairwise_coupling(lambda u, v: np.tanh(v - u), 1.0),
            )
        else:
            model = builtin_models()[name](*self.FACTORY_ARGS[name])
        rng = np.random.Generator(np.random.Philox(11))
        members, n = 3, 9
        fields = [
            PiecewiseConstantField(3, 2, rng.uniform(0.0, 1.0, (n, model.state_dim)))
            for _ in range(members)
        ]
        km = KernelMatrix(3, 2, rng.random((n, n)))
        if shared:
            graphs = [assemble_deterministic(km, sg_measure)] * members
            coupling = graphs[0]
        else:
            seeds = (None, 4, 5)
            graphs = [
                assemble_deterministic(km, sg_measure) if seed is None
                else sample_bernoulli(km, sg_measure, seed, symmetric=False)
                for seed in seeds
            ]
            coupling = stack_graphs(km, sg_measure, seeds, symmetric=False)
        ensemble = integrate_ips(model, coupling, fields, T=0.5, dt=1e-2, output_stride=7)
        assert len(ensemble) == members
        for traj, graph, init in zip(ensemble, graphs, fields):
            single = integrate_ips(model, graph, init, T=0.5, dt=1e-2, output_stride=7)
            np.testing.assert_array_equal(traj.times, single.times)
            np.testing.assert_allclose(traj.values, single.values, rtol=0, atol=1e-13)

    def test_kuramoto_zero_coupling_free_rotation(self):
        om = np.array([0.5, -0.25])
        model = kuramoto_model(0.0, om)
        g = PiecewiseConstantField(2, 1, np.array([0.1, 0.9]))
        traj = integrate_ips(model, constant_graph(2, 1, 1.0), g, T=2.0, dt=1e-2)
        expect = g.values[None, :, 0] + traj.times[:, None] * om[None, :]
        np.testing.assert_allclose(traj.values[:, :, 0], expect, atol=1e-9)

    def test_inertia_velocity_decay(self):
        # K = 0, omega = 0: velocities decay like e^{-gamma t}
        gamma = 3.0
        model = kuramoto_inertia_model(0.0, gamma, 0.0)
        init = np.zeros((4, 2))
        init[:, 1] = 2.0
        g = PiecewiseConstantField(2, 2, init)
        traj = integrate_ips(model, constant_graph(2, 2, 1.0), g, T=1.0, dt=1e-3)
        expect = 2.0 * np.exp(-gamma * traj.times)
        np.testing.assert_allclose(traj.values[:, 0, 1], expect, rtol=1e-9)

    def test_inertia_fast_path_matches_generic(self, sg_measure):
        rng = np.random.Generator(np.random.Philox(6))
        km = KernelMatrix(3, 1, rng.random((3, 3)))
        coupling = assemble_deterministic(km, sg_measure)
        init = rng.random((3, 2))
        g = PiecewiseConstantField(3, 1, init)
        fast = kuramoto_inertia_model(0.8, 1.0, 0.3)
        slow = kuramoto_inertia_model(0.8, 1.0, 0.3)
        slow.coupling_term = pairwise_coupling(inertia_interaction(0.8), 0.8, 2)
        ta = integrate_ips(fast, coupling, g, T=1.0, dt=1e-2)
        tb = integrate_ips(slow, coupling, g, T=1.0, dt=1e-2)
        np.testing.assert_allclose(ta.values, tb.values, atol=1e-12)

    def test_spot_check_rejects_out_of_bound_interaction(self):
        with pytest.raises(ValueError, match="exceeds the declared bound"):
            pairwise_coupling(lambda u, v: 5.0 * np.tanh(v - u), 1.0)


def sg_levels(meas, levels, seeds=None, sublevel=1):
    """(coupling, frequencies, phases) per level on sg: the deterministic
    graph, or with ``seeds`` a stack of it and one Bernoulli draw per seed."""
    kern = builtin_kernels(2)["expdist"]
    omega_fn, phase_fn = kuramoto_fields(0, 2)
    out = []
    for m in levels:
        coupling = (level_graph(meas, kern, m, sublevel) if seeds is None
                    else stack_graphs(project_kernel(meas, kern, m, sublevel), meas,
                                      (None, *seeds)))
        out.append((coupling, martingale_level(meas, omega_fn, m, sublevel),
                    martingale_level(meas, phase_fn, m, sublevel)))
    return out


class TestIntegrateSeries:
    """``integrate_levels`` on a series of levels against one ``integrate_ips``
    call per level, byte for byte."""

    STEPS = dict(T=0.1, dt=1e-2, output_stride=3)

    @staticmethod
    def record_calls(monkeypatch):
        """The type of k (an int, as JSON writers of the counts need) and the
        graph shape of every ``integrate_ips`` call the series makes."""
        calls, original = [], dynamics.integrate_ips

        def counting(model, coupling, *args, **kwargs):
            calls.append((type(coupling.k), coupling.weights.shape))
            return original(model, coupling, *args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_ips", counting)
        return calls

    @staticmethod
    def integrate(meas, levels, model_builder, init_builder, seeds=None, **steps):
        """``integrate_levels`` on the graphs of ``sg_levels(meas, levels, seeds)``."""
        return integrate_levels(meas, builtin_kernels(2)["expdist"], levels, 1,
                                model_builder, init_builder,
                                graph_seeds=None if seeds is None else (None, *seeds),
                                **steps)

    def test_levels_match_per_level_runs(self, sg_measure, monkeypatch):
        levels = range(2, 7)
        systems = dict(zip(levels, sg_levels(sg_measure, levels)))
        assert isinstance(systems[6][0].weights, BlockGraph)
        model = kuramoto_model(1.3)
        calls = self.record_calls(monkeypatch)
        series = self.integrate(sg_measure, levels,
                                lambda m: replace(model, params=systems[m][1]),
                                lambda m: systems[m][2], **self.STEPS)
        # level 6's factored BlockGraph (1.34 MB; 1.87 MB together is over
        # LOOP_GRAPH_BYTES) alone, then levels 2-5 (0.53 MB of graphs) as
        # one union of 360 cells
        assert calls == [(int, (729, 729)), (int, (360, 360))]
        for traj, (coupling, omega, init) in zip(series, systems.values(), strict=True):
            alone = integrate_ips(kuramoto_model(1.3, omega), coupling, init, **self.STEPS)
            assert (traj.k, traj.level) == (3, coupling.level)
            np.testing.assert_array_equal(traj.times, alone.times)
            np.testing.assert_array_equal(traj.values, alone.values)

    def test_stacks_match_each_member_alone(self, sg_measure, monkeypatch):
        levels, seeds = range(2, 6), (1, 2, 3, 4, 5)
        systems = dict(zip(levels, sg_levels(sg_measure, levels, seeds=seeds)))
        model = kuramoto_model(0.5)
        calls = self.record_calls(monkeypatch)
        series = self.integrate(sg_measure, levels,
                                lambda m: replace(model, params=systems[m][1]),
                                lambda m: systems[m][2], seeds, **self.STEPS)
        # level 5's stack (2.83 MB) alone, in two groups of 3 members, one
        # loop each; then levels 2-4 as one union of 6 members
        assert calls == [(int, (3, 243, 243)), (int, (3, 243, 243)), (int, (6, 117, 117))]
        monkeypatch.undo()
        for trajs, (coupling, omega, init) in zip(series, systems.values(), strict=True):
            assert len(trajs) == 6
            for e, traj in enumerate(trajs):
                member = CouplingGraph(3, coupling.level, coupling.weights[e:e + 1])
                (alone,) = integrate_ips(kuramoto_model(0.5, omega), member, init,
                                         **self.STEPS)
                np.testing.assert_array_equal(traj.values, alone.values)

    @pytest.mark.parametrize("name", ["kuramoto_inertia", "consensus", "one params row"])
    def test_models_in_a_union_match_per_system_runs(self, sg_measure, monkeypatch, name):
        # one model, built once, with each level's params
        model = {
            "kuramoto_inertia": kuramoto_inertia_model(0.8, 0.5),
            "consensus": consensus_model(2.5),
            "one params row": kuramoto_model(0.8),
        }[name]
        level_model = {
            "kuramoto_inertia": lambda omega: replace(model, params=omega),
            "consensus": lambda omega: model,
            # one row per level, each its own value
            "one params row": lambda omega: replace(model, params=omega[0]),
        }[name]
        rng = np.random.Generator(np.random.Philox(5))
        couplings = {c.level: c for c, _, _ in sg_levels(sg_measure, (2, 3))}
        omegas = {m: rng.uniform(-1.0, 1.0, 3**m) for m in couplings}
        # two members, each with its own initial field
        inits = {m: [PiecewiseConstantField(3, m, rng.uniform(0.0, 1.0, (3**m,
                                                                        model.state_dim)))
                     for _ in range(2)] for m in couplings}
        calls = self.record_calls(monkeypatch)
        series = self.integrate(sg_measure, (2, 3), lambda m: level_model(omegas[m]),
                                inits.get, **self.STEPS)
        assert calls == [(int, (36, 36))]  # levels 2 and 3 as one union
        monkeypatch.undo()
        for trajs, m in zip(series, couplings, strict=True):
            alone = integrate_ips(level_model(omegas[m]), couplings[m], inits[m], **self.STEPS)
            for a, b in zip(trajs, alone, strict=True):
                np.testing.assert_array_equal(a.values, b.values)

    def test_union_with_a_block_graph_matches_each_system_alone(self, sg_measure,
                                                                monkeypatch):
        # level 4's dense graph (52 KB) and level 6's factored BlockGraph
        # (1.33 MB) fit LOOP_GRAPH_BYTES together
        systems = {c.level: (c, omega) for c, omega, _ in sg_levels(sg_measure, (4, 6))}
        assert isinstance(systems[6][0].weights, BlockGraph)
        rng = np.random.Generator(np.random.Philox(11))
        model = kuramoto_model(1.1)
        inits = {m: [PiecewiseConstantField(3, m, rng.uniform(0.0, 1.0, 3**m))
                     for _ in range(2)] for m in systems}
        calls = self.record_calls(monkeypatch)
        series = self.integrate(sg_measure, (4, 6),
                                lambda m: replace(model, params=systems[m][1]),
                                inits.get, **self.STEPS)
        assert calls == [(int, (810, 810))]
        monkeypatch.undo()
        for trajs, (m, (coupling, omega)) in zip(series, systems.items(), strict=True):
            alone = integrate_ips(replace(model, params=omega), coupling, inits[m],
                                  **self.STEPS)
            for a, b in zip(trajs, alone, strict=True):
                assert (a.k, a.level) == (3, m)
                assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("seeds, union", [(None, (117, 117)), ((1, 2), (3, 117, 117))],
                             ids=["shared", "stacks"])
    def test_pairwise_coupling_in_a_union_matches_each_level_alone(self, sg_measure,
                                                                   monkeypatch, seeds,
                                                                   union):
        # a coupling_term that reads G as a dense array sums each block of
        # the union on its own cells
        model = ModelSpec("pairwise", 1, lambda t, u, p: p,
                          pairwise_coupling(lambda u, v: np.sin(v - u), 1.0))
        levels = (2, 3, 4)
        systems = dict(zip(levels, sg_levels(sg_measure, levels, seeds=seeds)))
        calls = self.record_calls(monkeypatch)
        series = self.integrate(sg_measure, levels,
                                lambda m: replace(model, params=systems[m][1]),
                                lambda m: systems[m][2], seeds, **self.STEPS)
        assert calls == [(int, union)]  # levels 2-4 as one union
        monkeypatch.undo()
        for trajs, (coupling, omega, init) in zip(series, systems.values(), strict=True):
            alone = integrate_ips(replace(model, params=omega), coupling, init, **self.STEPS)
            for a, b in zip(*(([t] if seeds is None else t) for t in (trajs, alone)),
                            strict=True):
                assert (a.k, a.level) == (3, coupling.level)
                assert a.values.tobytes() == b.values.tobytes()

    def test_refinement_errors_equal_the_per_level_loop(self, sg_measure, monkeypatch):
        kern = builtin_kernels(2)["expdist"]
        steps = dict(T=0.1, dt=1e-2, output_stride=3)
        calls = self.record_calls(monkeypatch)
        levels, errors, trajs = kuramoto_refinement_errors(
            sg_measure, kern, [2, 3, 4, 5], coupling_strength=1.3, seed=4, **steps)
        # level 6's BlockGraph alone, then levels 2-5 as one union
        assert calls == [(int, (729, 729)), (int, (360, 360))]
        omega_fn, phase_fn = kuramoto_fields(4, 2)
        omega_fine = martingale_level(sg_measure, omega_fn, 6, 2)
        phase_fine = martingale_level(sg_measure, phase_fn, 6, 2)
        alone = {}
        for m in range(2, 7):
            coupling = level_graph(sg_measure, kern, m, 2)
            model = kuramoto_model(1.3, coarsen(omega_fine, m, sg_measure.p))
            alone[m] = integrate_ips(model, coupling, coarsen(phase_fine, m, sg_measure.p), **steps)
            np.testing.assert_array_equal(trajs[m].values, alone[m].values)
        np.testing.assert_array_equal(
            errors, [traj_error(alone[m], alone[m + 1], sg_measure).max_error for m in levels])

    def test_refinement_errors_of_the_kuramoto_model_are_kuramotos(self, sg_measure):
        kern = builtin_kernels(2)["expdist"]
        steps = dict(T=0.1, dt=1e-2, seed=4, output_stride=3)
        levels, errors, trajs = refinement_errors(
            sg_measure, kern, [2, 3], kuramoto_model(1.3), **steps)
        k_levels, k_errors, k_trajs = kuramoto_refinement_errors(
            sg_measure, kern, [2, 3], coupling_strength=1.3, **steps)
        assert levels.tobytes() == k_levels.tobytes()
        assert errors.tobytes() == k_errors.tobytes()
        assert trajs.keys() == k_trajs.keys() == {2, 3, 4}
        for m in trajs:
            assert trajs[m].values.tobytes() == k_trajs[m].values.tobytes()

    @pytest.mark.parametrize("model, omega_scale, projections", [
        (kuramoto_model(1.0), 1.0, 2),
        (kuramoto_model(1.0), 0.0, 1),
        (consensus_model(1.0), 1.0, 1),  # no params to hold the frequencies
        (None, 1.0, 2),  # bernoulli_gap_medians' Kuramoto model
    ])
    def test_refinement_errors_project_the_frequencies_only_where_used(
            self, sg_measure, monkeypatch, model, omega_scale, projections):
        calls, original = [], experiments.martingale_level
        monkeypatch.setattr(experiments, "martingale_level",
                            lambda *args: calls.append(args[2]) or original(*args))
        kern, steps = builtin_kernels(2)["expdist"], dict(T=0.1, dt=1e-2, output_stride=5)
        if model is None:  # frequencies and phases once per level, at every level
            _, errors, _ = bernoulli_gap_medians(sg_measure, kern, [2, 3], (1, 2), **steps)
            assert sorted(calls) == [2] * projections + [3] * projections
        else:
            _, errors, _ = refinement_errors(sg_measure, kern, [2, 3], model,
                                             omega_scale=omega_scale, **steps)
            assert calls == [4] * projections  # the finest level only
        assert np.all(errors > 0)

    def test_gap_medians_equal_the_per_level_loop(self, sg_measure, monkeypatch):
        kern = builtin_kernels(2)["expdist"]
        seeds = (1, 2, 3, 4, 5)
        steps = dict(T=0.1, dt=1e-2, output_stride=3)
        calls = self.record_calls(monkeypatch)
        _, medians, per_seed = bernoulli_gap_medians(
            sg_measure, kern, [2, 3, 4, 5], seeds, coupling_strength=0.5, field_seed=2,
            **steps)
        # level 5's stack alone in two groups of 3 members, then levels 2-4
        # as one union of 6 members: the benchmark's bernoulli workload
        assert calls == [(int, (3, 243, 243)), (int, (3, 243, 243)), (int, (6, 117, 117))]
        omega_fn, phase_fn = kuramoto_fields(2, 2)
        for li, m in enumerate(range(2, 6)):
            graphs = stack_graphs(project_kernel(sg_measure, kern, m, 2), sg_measure,
                                  (None, *seeds))
            model = kuramoto_model(0.5, martingale_level(sg_measure, omega_fn, m, 2))
            base, *draws = integrate_ips(model, graphs, martingale_level(sg_measure, phase_fn, m, 2),
                                         **steps)
            gaps = [traj_error(base, t, sg_measure).max_error for t in draws]
            np.testing.assert_array_equal(per_seed[li], gaps)
            assert medians[li] == np.median(gaps)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_drawn_groups_equal_the_whole_stack(self, sg_measure, monkeypatch, symmetric):
        # sg levels 2-5 with 7 members: level 5 (0.47 MB a member) runs first,
        # in groups of 2, 2 and 3 within LOOP_GRAPH_BYTES, each drawn by
        # stack_graphs just before its RK4 loop; then levels 2-4 as one union
        kern = builtin_kernels(2)["expdist"]
        levels, seeds = (2, 3, 4, 5), (None, 1, 2, 3, 4, 5, 6)
        omega_fn, phase_fn = kuramoto_fields(1, 2)
        omega = {m: martingale_level(sg_measure, omega_fn, m, 1) for m in levels}
        init = {m: martingale_level(sg_measure, phase_fn, m, 1) for m in levels}
        model = kuramoto_model(0.5)
        calls = self.record_calls(monkeypatch)
        drawn, original = [], dynamics.stack_graphs
        monkeypatch.setattr(dynamics, "stack_graphs", lambda km, meas, seeds, symmetric: (
            drawn.append((km.level, seeds, symmetric)) or original(km, meas, seeds, symmetric)))
        series = integrate_levels(sg_measure, kern, levels, 1,
                                  lambda m: replace(model, params=omega[m]), init.get,
                                  graph_seeds=seeds, symmetric=symmetric, **self.STEPS)
        assert calls == [(int, (2, 243, 243)), (int, (2, 243, 243)), (int, (3, 243, 243)),
                         (int, (7, 117, 117))]
        assert drawn == [(5, seeds[:2], symmetric), (5, seeds[2:4], symmetric),
                         (5, seeds[4:], symmetric), *((m, seeds, symmetric) for m in (2, 3, 4))]
        monkeypatch.undo()
        for m, trajs in zip(levels, series, strict=True):
            whole = stack_graphs(project_kernel(sg_measure, kern, m, 1), sg_measure, seeds,
                                 symmetric)
            alone = integrate_ips(kuramoto_model(0.5, omega[m]), whole, init[m], **self.STEPS)
            for traj, ref in zip(trajs, alone, strict=True):
                assert (traj.k, traj.level) == (3, m)
                assert traj.times.tobytes() == ref.times.tobytes()
                assert traj.values.tobytes() == ref.values.tobytes()

    def test_drawn_groups_hold_no_whole_stack(self, sg_measure):
        # sg level 5 with 13 members (6.1 MB as one stack): the KernelMatrix,
        # one group of 4 drawn graphs and the states, 5.4-5.5 graphs'
        # bytes measured, where the whole stack held 14.2
        kern = builtin_kernels(2)["expdist"]
        sample_bernoulli(KernelMatrix(3, 1, np.zeros((3, 3))), sg_measure, 0)  # imports Philox
        tracemalloc.start()
        try:
            integrate_levels(sg_measure, kern, [5], 1, lambda m: kuramoto_model(0.5, 0.0),
                             lambda m: PiecewiseConstantField(3, m, np.zeros(3**m)),
                             graph_seeds=(None, *range(1, 13)), **self.STEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 8 * 243**2

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_finest_batch_holds_no_coarse_stack(self, sg_measure, monkeypatch, symmetric):
        # sg levels 2-5 with 6 members: at level 5's first RK4 step the
        # kernel matrices of levels 2-5 and one group of 3 drawn graphs are
        # held, 4.29-4.31 graphs' bytes measured; the drawn stacks of the
        # union of levels 2-4, 6 x (9^2 + 27^2 + 81^2) floats (354 KB), would
        # make it 4.99-5.01
        kern = builtin_kernels(2)["expdist"]
        model = kuramoto_model(0.5, 0.0)
        sample_bernoulli(KernelMatrix(3, 1, np.zeros((3, 3))), sg_measure, 0)  # imports Philox
        held, rhs = [], dynamics._rhs

        def recording(model, weights, t, u):
            if not held and u.shape[-2] == 243:
                held.append(tracemalloc.get_traced_memory()[0])
            return rhs(model, weights, t, u)

        monkeypatch.setattr(dynamics, "_rhs", recording)
        tracemalloc.start()
        try:
            integrate_levels(sg_measure, kern, [2, 3, 4, 5], 1, lambda m: model,
                             lambda m: PiecewiseConstantField(3, m, np.zeros(3**m)),
                             graph_seeds=(None, 1, 2, 3, 4, 5), symmetric=symmetric,
                             **self.STEPS)
        finally:
            tracemalloc.stop()
        assert held[0] <= 4.6 * 8 * 243**2

    def test_inadmissible_kernel_is_refused_before_any_integration(self, sg_measure,
                                                                  monkeypatch):
        # level 5's stack of 7 is drawn group by group, yet its [0, 1] check
        # comes with its graph, before the first RK4 loop
        calls = self.record_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"kernel averages in \[0, 1\]"):
            integrate_levels(sg_measure, builtin_kernels(2)["constant"](1.5), [5], 1,
                             lambda m: kuramoto_model(0.5, 0.0),
                             lambda m: PiecewiseConstantField(3, m, np.zeros(3**m)),
                             graph_seeds=(None, 1, 2, 3, 4, 5, 6), **self.STEPS)
        assert calls == []

    @pytest.mark.parametrize("refusal", ["coarse level outside [0, 1]", "budget", "level cap"])
    def test_refusals_come_before_any_integration(self, sg_measure, monkeypatch, refusal):
        # every level is projected, and checked, before the finest batch runs
        levels, project = [2, 3, 4, 5], dynamics.project_kernel
        if refusal == "coarse level outside [0, 1]":
            monkeypatch.setattr(dynamics, "project_kernel", lambda meas, kernel, m, sublevel: (
                KernelMatrix(3, m, 1.5 * project(meas, kernel, m, sublevel).entries) if m == 2
                else project(meas, kernel, m, sublevel)))
            error = (ValueError, r"kernel averages in \[0, 1\]")
        elif refusal == "budget":
            # level 5 compares 243^2 anchor pairs
            monkeypatch.setenv("FRACTALIPS_MAX_EVALS", str(243**2 - 1))
            error = (BudgetExceededError, "function evaluations exceed the budget")
        else:
            levels = [2, 3, 16]
            error = (BudgetExceededError, "exceeds the cap")
        calls = self.record_calls(monkeypatch)
        with pytest.raises(error[0], match=error[1]):
            integrate_levels(sg_measure, builtin_kernels(2)["expdist"], levels, 1,
                             lambda m: kuramoto_model(0.5, 0.0),
                             lambda m: PiecewiseConstantField(3, m, np.zeros(3**m)),
                             graph_seeds=(None, 1, 2, 3, 4, 5), **self.STEPS)
        assert calls == []

    @pytest.mark.parametrize("pair", ["K = 1 and K = 2", "kuramoto and consensus",
                                      "one and two components", "params and none",
                                      "params of two widths"])
    def test_models_that_differ_beyond_params_run_apart(self, sg_measure, monkeypatch, pair):
        # equal names and state dimensions, or equal drift and coupling
        # objects, do not make a union: each system runs its own model
        consensus = consensus_model(1.0)
        models = {
            "K = 1 and K = 2": [kuramoto_model(1.0, 0.0), kuramoto_model(2.0, 0.0)],
            "kuramoto and consensus": [kuramoto_model(1.0, 0.0), consensus],
            "one and two components": [consensus, replace(consensus, state_dim=2)],
            "params and none": [replace(consensus, params=0.5), consensus],
            "params of two widths": [replace(consensus, params=np.zeros((1, 2))),
                                     replace(consensus, params=0.5)],
        }[pair]
        couplings = [c for c, _, _ in sg_levels(sg_measure, (2, 3))]
        rng = np.random.Generator(np.random.Philox(3))
        inits = [PiecewiseConstantField(3, c.level, rng.uniform(0.0, 1.0, (3**c.level,
                                                                        model.state_dim)))
                 for c, model in zip(couplings, models)]
        steps = dict(T=1.0, dt=1e-2, output_stride=10)
        calls = self.record_calls(monkeypatch)
        series = self.integrate(sg_measure, (2, 3), lambda m: models[m - 2],
                                lambda m: inits[m - 2], **steps)
        assert calls == [(int, (27, 27)), (int, (9, 9))]  # finest first
        monkeypatch.undo()
        for traj, model, coupling, init in zip(series, models, couplings, inits, strict=True):
            alone = integrate_ips(model, coupling, init, **steps)
            np.testing.assert_array_equal(traj.values, alone.values)

    def test_one_stacked_graph_over_budget_serves_every_member(self):
        # a stack of one graph is not cut into member groups
        n = 3**6
        rng = np.random.Generator(np.random.Philox(8))
        graph = rng.uniform(0.0, 1.0, (n, n)) / n
        stacked = CouplingGraph(3, 6, graph[None])
        assert stacked.weights.nbytes > DENSE_GRAPH_BYTES
        fields = [PiecewiseConstantField(3, 6, rng.uniform(0.0, 1.0, n)) for _ in range(3)]
        model = kuramoto_model(0.7, 0.0)
        together = integrate_ips(model, stacked, fields, T=0.02, dt=1e-2)
        for traj, field in zip(together, fields, strict=True):
            (alone,) = integrate_ips(model, stacked, [field], T=0.02, dt=1e-2)
            np.testing.assert_array_equal(traj.values, alone.values)

    def test_one_deferred_graph_over_budget_serves_every_member(self, sg_measure,
                                                                monkeypatch):
        # one seed and three fields at sg level 6 (4.25 MB): the stack of one
        # graph is drawn once for all members, not cut into groups, with the
        # bits of the drawn stack
        kern, n = builtin_kernels(2)["expdist"], 3**6
        rng = np.random.Generator(np.random.Philox(8))
        fields = [PiecewiseConstantField(3, 6, rng.uniform(0.0, 1.0, n)) for _ in range(3)]
        model = kuramoto_model(0.7, 0.0)
        drawn, original = [], dynamics.stack_graphs
        monkeypatch.setattr(dynamics, "stack_graphs", lambda *args: (
            drawn.append(args[2]) or original(*args)))
        (together,) = integrate_levels(sg_measure, kern, [6], 1, lambda m: model,
                                       lambda m: fields, graph_seeds=(1,), T=0.02, dt=1e-2,
                                       output_stride=1)
        assert drawn == [(1,)]
        monkeypatch.undo()
        km = project_kernel(sg_measure, kern, 6, 1)
        assert 8 * n * n > LOOP_GRAPH_BYTES
        alone = integrate_ips(model, stack_graphs(km, sg_measure, (1,)), fields, T=0.02, dt=1e-2)
        for a, b in zip(together, alone, strict=True):
            assert (a.k, a.level) == (3, 6)
            assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("T", [0.0, 0.02])
    def test_integrate_ips_draws_a_deferred_stack_whole(self, sg_measure, monkeypatch, T):
        # one draw of every member before the one RK4 loop, whatever T
        km = project_kernel(sg_measure, builtin_kernels(2)["expdist"], 5, 1)
        seeds = (None, 1, 2, 3, 4, 5)
        drawn, original = [], dynamics.stack_graphs
        monkeypatch.setattr(dynamics, "stack_graphs", lambda *args: (
            drawn.append(args[2]) or original(*args)))
        init = PiecewiseConstantField(3, 5, np.linspace(0.0, 1.0, 243))
        model = kuramoto_model(0.5, 0.0)
        deferred = integrate_ips(model, CouplingGraph(3, 5, DeferredStack(km, sg_measure, seeds,
                                                                          True)),
                                 init, T=T, dt=1e-2)
        assert drawn == [seeds]
        monkeypatch.undo()
        whole = integrate_ips(model, stack_graphs(km, sg_measure, seeds), init, T=T, dt=1e-2)
        for a, b in zip(deferred, whole, strict=True):
            assert a.values.tobytes() == b.values.tobytes()

    def test_integrate_ips_draws_a_deferred_stack_in_a_union(self, sg_measure):
        # a union holding a DeferredStack is drawn whole too, and each
        # member keeps the bits of the drawn stack run as its level
        km = project_kernel(sg_measure, builtin_kernels(2)["expdist"], 2, 1)
        union = BlockDiagonal((DeferredStack(km, sg_measure, (1, 2), True),))
        model = kuramoto_model(0.5, 0.0)
        values = np.linspace(0.0, 1.0, 9)
        deferred = integrate_ips(model, CouplingGraph(9, 1, union),
                                 PiecewiseConstantField(9, 1, values), T=0.05, dt=1e-2)
        whole = integrate_ips(model, stack_graphs(km, sg_measure, (1, 2)),
                              PiecewiseConstantField(3, 2, values), T=0.05, dt=1e-2)
        for a, b in zip(deferred, whole, strict=True):
            assert (a.k, a.level) == (9, 1)
            assert a.values.tobytes() == b.values.tobytes()

    def test_no_step_records_each_members_initial_field(self, sg_measure):
        # T = 0 takes no step: every member of every group keeps its field
        init = PiecewiseConstantField(3, 5, np.linspace(0.0, 1.0, 243))
        (trajs,) = integrate_levels(sg_measure, builtin_kernels(2)["constant"](0.5), [5], 1,
                                    lambda m: kuramoto_model(0.5, 0.0), lambda m: init,
                                    graph_seeds=(None, 1, 2, 3, 4, 5), T=0.0, dt=1e-2,
                                    output_stride=1)
        assert len(trajs) == 6
        for traj in trajs:
            assert traj.times.tolist() == [0.0]
            assert traj.values.tobytes() == init.values.reshape(1, 243, 1).tobytes()

    def test_blow_up_in_a_later_group_names_its_ensemble_member(self, sg_measure,
                                                                monkeypatch):
        # six members at sg level 5 run as groups of members 0-2 and 3-5; the
        # hot one is member 1 of the second group
        model = ModelSpec(
            name="blowup",
            state_dim=1,
            drift=lambda t, u, p: u**3,
            coupling_term=lambda G, u: np.zeros_like(u),
        )
        n = 3**5
        calm = PiecewiseConstantField(3, 5, np.zeros(n))
        hot = PiecewiseConstantField(3, 5, np.full(n, 50.0))
        calls = self.record_calls(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalAbortError, match=(
                    rf"in member 1 \({n} of {n} cells\), the group of members 3-5 of "
                    rf"level 5 \({n} cells\)$")):
                integrate_levels(sg_measure, builtin_kernels(2)["expdist"], [5], 1,
                                 lambda m: model, lambda m: [calm] * 4 + [hot, calm],
                                 graph_seeds=range(1, 7), T=10.0, dt=0.5, output_stride=1)
        assert calls == [(int, (3, n, n))] * 2

    def test_blow_up_in_a_lone_level_names_the_level(self, sg_measure):
        model = ModelSpec("blowup", 1, lambda t, u, p: u**3, lambda G, u: np.zeros_like(u))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalAbortError,
                               match=r"in member 0 \(9 of 9 cells\), level 2 \(9 cells\)$"):
                integrate_levels(sg_measure, builtin_kernels(2)["expdist"], [2], 1,
                                 lambda m: model,
                                 lambda m: PiecewiseConstantField(3, m, np.full(3**m, 50.0)),
                                 T=10.0, dt=0.5, output_stride=1)


def per_level_loop(meas, kernel, levels, sublevel, model_builder, init_builder, T, dt,
                   output_stride, graph_seeds=None, symmetric=True):
    """``integrate_levels`` as one projection, graph and ``integrate_ips``
    call per level, in the order of ``levels``: the path it replaced."""
    out = []
    for m in levels:
        graph = (level_graph(meas, kernel, m, sublevel) if graph_seeds is None
                 else stack_graphs(project_kernel(meas, kernel, m, sublevel), meas,
                                   graph_seeds, symmetric))
        out.append(integrate_ips(model_builder(m), graph, init_builder(m), T, dt,
                                 output_stride))
    return out


# the simulate benchmark's inline IFS, whose maps share no linear part
ROTATED_SIMULATE = """
[ifs]
dimension = 2
maps = 3
map1 = ratio=0.5 angle=3.141592653589793 translation=0.5,0.4330127018922193
map2 = ratio=0.5 translation=0.5,0.0
map3 = ratio=0.5 translation=0.25,0.4330127018922193

[levels]
levels = 4,5

[graph]
kind = {kind}

[seeds]
seeds = 1,2,3

[time]
T = 0.1
dt = 0.01
output_stride = 3
"""


MODELS = ("kuramoto", "kuramoto_inertia", "consensus")
# levels 2 and 3 of sg, for simulate, and for vlasov 3 and 4 (m = 2, l = 1, 2)
PLAN_CONFIG = """
[ifs]
preset = sg

[model]
name = {model}

[levels]
levels = 2,3
ell_levels = 1,2

[graph]
kind = {kind}

[seeds]
seeds = 1,2,3

[time]
T = 0.1
dt = 0.01
output_stride = 3
"""


class TestIntegrateLevels:
    """``integrate_levels`` and the pipelines that call it against the
    per-level loop it replaced, byte for byte."""

    STEPS = dict(T=0.1, dt=1e-2, output_stride=3)

    @pytest.mark.parametrize("graph_seeds", [None, (None, 1)])
    def test_finest_first_and_no_kernel_matrix_held(self, sg_measure, monkeypatch,
                                                    graph_seeds):
        projected, original = [], dynamics.project_kernel

        def recording(meas, kernel, m, sublevel):
            km = original(meas, kernel, m, sublevel)
            projected.append((m, weakref.ref(km)))
            return km

        def held():
            return [m for m, ref in projected if ref() is not None]

        models = {m: kuramoto_model(1.0, 0.0) for m in (3, 4)}  # level 4 runs alone

        def model(m):
            # every graph is built before the first model; a kernel matrix is
            # held only by a Bernoulli level's DeferredStack, none yet drawn
            assert held() == ([] if graph_seeds is None else [4, 3, 2])
            return models[max(m, 3)]

        batches, integrate_ips = [], dynamics.integrate_ips

        def counting(model, coupling, *args, **kwargs):
            batches.append((coupling.k**coupling.level, held()))
            return integrate_ips(model, coupling, *args, **kwargs)

        monkeypatch.setattr(dynamics, "project_kernel", recording)
        monkeypatch.setattr(dynamics, "integrate_ips", counting)
        series = integrate_levels(
            sg_measure, builtin_kernels(2)["expdist"], [2, 3, 4], 1, model,
            lambda m: PiecewiseConstantField(3, m, np.zeros(3**m)), **self.STEPS,
            graph_seeds=graph_seeds)
        assert [m for m, _ in projected] == [4, 3, 2]
        # level 4's batch first, then the union of levels 2 and 3: each drew
        # its stacks and dropped their kernel matrices before its loop
        assert batches == ([(81, []), (36, [])] if graph_seeds is None
                           else [(81, [3, 2]), (36, [])])
        assert held() == []
        # a shared graph returns one trajectory per level, a stack one per member
        levels = [[t.level for t in (s if graph_seeds else [s])] for s in series]
        assert levels == [[m] * (2 if graph_seeds else 1) for m in (2, 3, 4)]

    def test_vlasov_table_equals_the_per_level_loop(self, sg_measure, monkeypatch):
        # level 6's BlockGraph runs alone, then levels 4 and 5 as one union;
        # each level's model is the one model with its own frequency field
        omega_fn, _ = kuramoto_fields(3, 2)
        model = kuramoto_model(0.7)
        calls = TestIntegrateSeries.record_calls(monkeypatch)
        runs = {}
        for name, integrate in (("levels", integrate_levels), ("loop", per_level_loop)):
            runs[name] = []

            def recording(*args, integrate=integrate, into=runs[name], **kwargs):
                into.extend(integrate(*args, **kwargs))
                return into

            monkeypatch.setattr(analysis, "integrate_levels", recording)
            runs[name].append(vlasov_self_convergence(
                sg_measure,
                lambda level: replace(model, params=martingale_level(sg_measure, omega_fn,
                                                                     level, 2)),
                builtin_kernels(2)["expdist"], uniform_phase_sampler, m=2, ells=(2, 3, 4),
                seeds=(1, 2), **self.STEPS))
        # per_level_loop calls integrate_ips by its own name, which is not recorded
        assert calls == [(int, (729, 729)), (int, (324, 324))]
        *series, table = runs["levels"]
        *alone, expected = runs["loop"]
        assert table.distances.tobytes() == expected.distances.tobytes()
        for trajs, reference in zip(series, alone, strict=True):
            for traj, ref in zip(trajs, reference, strict=True):
                assert traj.values.tobytes() == ref.values.tobytes()

    @pytest.mark.parametrize("subcommand, kind, union, model", [
        # the shared graph, or one draw per seed
        *[("simulate", "deterministic", (36, 36), model) for model in MODELS],
        *[("simulate", "bernoulli", (3, 36, 36), model) for model in MODELS],
        # levels 3 and 4, one field per seed; vlasov takes scalar states only
        ("vlasov", "deterministic", (108, 108), "kuramoto"),
        ("vlasov", "deterministic", (108, 108), "consensus"),
    ])
    def test_cli_runs_keep_their_unions(self, tmp_path, monkeypatch, subcommand, kind,
                                        union, model):
        # the configured model is built once, so its levels run as one union
        path = tmp_path / "plan.ini"
        path.write_text(PLAN_CONFIG.format(model=model, kind=kind))
        calls = TestIntegrateSeries.record_calls(monkeypatch)
        assert cli.main([subcommand, "--config", str(path), "--output",
                         str(tmp_path / "out")]) == 0
        assert calls == [(int, union)]

    @pytest.mark.parametrize("kind", ["bernoulli", "deterministic"])
    def test_simulate_files_equal_the_per_level_loop(self, tmp_path, monkeypatch, kind):
        # Bernoulli stacks of three seeds, or the shared deterministic graph
        path = tmp_path / "simulate.ini"
        path.write_text(ROTATED_SIMULATE.format(kind=kind))
        cfg = cli.parse_config(path)
        assert cli.validate(cfg, "simulate") == []
        new, old = tmp_path / "levels", tmp_path / "loop"
        new.mkdir()
        old.mkdir()
        outputs = cli.run_simulate(cfg, new)
        monkeypatch.setattr(cli, "integrate_levels", per_level_loop)
        assert cli.run_simulate(cfg, old) == outputs
        assert len(outputs) == (12 if kind == "bernoulli" else 4)
        for name in outputs:
            assert (new / name).read_bytes() == (old / name).read_bytes()


class TestBernoulliConcentration:
    def test_random_graph_solution_approaches_deterministic(self, sg_measure):
        # median over seeds of the deterministic-vs-Bernoulli gap shrinks
        # with the level (a.s. convergence restated as a trend check)
        kern = builtin_kernels(2)["expdist"]
        rng_levels = (2, 4)
        gaps = {}
        for m in rng_levels:
            km = project_kernel(sg_measure, kern, m, 2)
            coupling = assemble_deterministic(km, sg_measure)
            g = martingale_level(
                sg_measure, lambda x: 0.5 + 0.4 * np.sin(2 * np.pi * x[:, 0]), m, 2
            )
            model = kuramoto_model(1.0, 0.0)
            base = integrate_ips(model, coupling, g, T=0.5, dt=5e-3)
            errs = []
            for seed in range(5):
                bern = sample_bernoulli(km, sg_measure, seed)
                t = integrate_ips(model, bern, g, T=0.5, dt=5e-3)
                errs.append(traj_error(base, t, sg_measure).max_error)
            gaps[m] = float(np.median(errs))
        assert gaps[4] <= gaps[2]
