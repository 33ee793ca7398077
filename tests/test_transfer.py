import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalips import (
    KernelMatrix,
    PiecewiseConstantField,
    ProbabilityVector,
    Word,
    cell_average,
    coarsen,
    kernel_to_graphon,
    martingale_level,
    transfer_to_interval,
)
from fractalips.geometry import default_anchor
from fractalips.quadrature import pairwise_sum


def interval_side_cell_average(step, w: Word, depth: int = 7):
    """Independently coded interval-side average of a step function over the
    cylinder Q_w (midpoint rule; the sample count divides every subcell)."""
    k = w.k
    left, right = 0.0, 1.0
    for s in w.symbols:
        width = (right - left) / k
        left = left + (s - 1) * width
        right = left + width
    n = k**depth
    xs = left + (np.arange(n) + 0.5) * (right - left) / n
    return step(xs).mean(axis=0)


class TestPiecewiseConstantField:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantField(3, 2, np.zeros(8))

    def test_scalar_values_become_column(self):
        f = PiecewiseConstantField(2, 2, np.arange(4.0))
        assert f.values.shape == (4, 1)
        assert f.state_dim == 1


class TestMartingaleLevel:
    def test_constant_function(self, sg_measure):
        f = martingale_level(sg_measure, lambda x: np.full(len(x), 2.5), 2, 4)
        np.testing.assert_array_equal(f.values[:, 0], 2.5)

    def test_sg_level_one_first_coordinate(self, sg_measure):
        # cell means of x_1 are the first components of f_i(barycenter):
        # (1/4, 1/2, 3/4); affine cell-average oracle.  The centroid anchor
        # cancels the anchor bias for affine integrands.
        from fractalips.geometry import fixed_point_centroid

        anchor = fixed_point_centroid(sg_measure.ifs)
        f = martingale_level(sg_measure, lambda x: x[:, 0], 1, 10, anchor=anchor)
        np.testing.assert_allclose(f.values[:, 0], [0.25, 0.5, 0.75], atol=1e-9)

    def test_matches_cell_average(self, sg_measure):
        phi = lambda x: np.exp(-np.abs(x[:, 0] - x[:, 1]))
        anchor = default_anchor(sg_measure.ifs)
        f = martingale_level(sg_measure, phi, 2, 3, anchor=anchor)
        for idx in (0, 4, 8):
            w = Word.from_index(3, 2, idx)
            assert f.values[idx, 0] == pytest.approx(
                cell_average(sg_measure, phi, w, 3, anchor=anchor), rel=1e-12
            )

    def test_tower_property(self, sg_measure):
        phi = lambda x: np.sin(3 * x[:, 0]) * x[:, 1]
        fine = martingale_level(sg_measure, phi, 4, 3)
        coarse = martingale_level(sg_measure, phi, 3, 4)
        np.testing.assert_allclose(
            coarsen(fine, 3).values, coarse.values, atol=1e-12
        )

    def test_martingale_l1_convergence(self, sg_measure):
        # || phi - E(phi | level m) ||_L1 nonincreasing in m
        phi = lambda x: np.exp(-np.abs(x[:, 0] - x[:, 1]))
        sub = 4
        errs = []
        for m in range(2, 8):
            from fractalips.geometry import attractor_points
            from fractalips.quadrature import evaluate_on_points

            pts = attractor_points(sg_measure.ifs, m + sub)
            vals = evaluate_on_points(phi, pts)
            blocks = vals.reshape(3**m, 3**sub)
            means = blocks.mean(axis=1, keepdims=True)
            errs.append(np.abs(blocks - means).mean())
        assert all(e1 <= e0 + 1e-12 for e0, e1 in zip(errs, errs[1:]))


class TestCoarsenRefine:
    def test_coarsen_weighted_by_child_masses(self):
        p = ProbabilityVector((0.75, 0.25))
        f = PiecewiseConstantField(2, 2, np.array([1.0, 2.0, 3.0, 4.0]))
        g = coarsen(f, 1, p)
        np.testing.assert_allclose(
            g.values[:, 0], [0.75 * 1 + 0.25 * 2, 0.75 * 3 + 0.25 * 4]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 4),
        level=st.integers(0, 2),
        delta=st.integers(0, 3),
        uniform=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coarsen_undoes_refine(self, k, level, delta, uniform, seed):
        # children copy the parent, and their masses sum to the parent mass,
        # so coarsening the copied field returns it up to rounding
        rng = np.random.Generator(np.random.Philox(seed))
        if uniform:
            p = ProbabilityVector.uniform(k)
        else:
            w = rng.uniform(0.05, 1.0, size=k)
            p = ProbabilityVector(tuple(w / w.sum()))
        f = PiecewiseConstantField(k, level, rng.normal(size=(k**level, 2)))
        fine = PiecewiseConstantField(
            k, level + delta, np.repeat(f.values, k**delta, axis=0)
        )
        g = coarsen(fine, level, p)
        assert g.level == level
        np.testing.assert_allclose(g.values, f.values, rtol=1e-13, atol=0.0)

    def test_coarsen_then_refine_roundtrip_on_constants(self):
        f = PiecewiseConstantField(3, 3, np.full(27, 7.0))
        assert np.all(coarsen(f, 1).values == 7.0)


class TestTransferToInterval:
    def test_indicator_field_maps_to_indicator_step(self):
        # 1_{K_(2)} with k = 3 -> 1 on [1/3, 2/3)
        vals = np.zeros(3)
        vals[1] = 1.0
        step = transfer_to_interval(PiecewiseConstantField(3, 1, vals))
        assert step(np.array([0.2]))[0] == 0.0
        assert step(np.array([1.0 / 3.0]))[0] == 1.0
        assert step(np.array([0.5]))[0] == 1.0
        assert step(np.array([2.0 / 3.0]))[0] == 0.0
        np.testing.assert_array_equal(step.breakpoints, [0, 1 / 3, 2 / 3, 1])

    def test_constant_field_constant_step(self):
        step = transfer_to_interval(PiecewiseConstantField(2, 3, np.full(8, 4.5)))
        xs = np.linspace(0, 1, 33)
        np.testing.assert_array_equal(step(xs), 4.5)

    def test_last_cell_is_closed(self):
        step = transfer_to_interval(
            PiecewiseConstantField(2, 1, np.array([1.0, 2.0]))
        )
        assert step(np.array([1.0]))[0] == 2.0

    def test_l1_isometry_exact(self, sg_measure):
        # same coefficients, equal cell masses: the norms agree verbatim
        rng = np.random.Generator(np.random.Philox(9))
        for trial in range(100):
            m = int(rng.integers(1, 7))
            f = PiecewiseConstantField(3, m, rng.normal(size=3**m))
            step = transfer_to_interval(f)
            masses = sg_measure.weights(m)
            k_side = float(pairwise_sum(masses * np.abs(f.values[:, 0])))
            assert step.l1_norm() == k_side

    def test_integral_preserving_and_positive(self, sg_measure):
        rng = np.random.Generator(np.random.Philox(10))
        f = PiecewiseConstantField(3, 4, rng.random(81))
        step = transfer_to_interval(f)
        assert np.all(step.values >= 0)
        masses = sg_measure.weights(4)
        assert step.integral()[0] == float(pairwise_sum(masses * f.values[:, 0]))

    def test_projections_agree_roundtrip(self, sg_measure):
        # nu_w(f) on K equals the interval-side average over Q_w, computed
        # through an independently coded midpoint rule
        rng = np.random.Generator(np.random.Philox(11))
        f = PiecewiseConstantField(3, 3, rng.normal(size=27))
        step = transfer_to_interval(f)
        for sym in [(1,), (2, 3), (3, 1, 2)]:
            w = Word(3, sym)
            # K-side cell mean of a level-3 field over K_w: average children
            delta = 3 - len(sym)
            block = f.values.reshape(3 ** len(sym), 3**delta)[w.index]
            k_side = block.mean()
            q_side = interval_side_cell_average(step, w)
            assert q_side == pytest.approx(k_side, rel=1e-12)

    def test_nonuniform_widths_are_cylinder_masses(self):
        p = ProbabilityVector((0.5, 0.3, 0.2))
        f = PiecewiseConstantField(3, 2, np.arange(9.0))
        step = transfer_to_interval(f, p)
        np.testing.assert_allclose(
            step.widths,
            [0.25, 0.15, 0.1, 0.15, 0.09, 0.06, 0.1, 0.06, 0.04],
            rtol=1e-12,
        )
        assert step.breakpoints[-1] == 1.0


class TestKernelToGraphon:
    def test_constant_kernel(self):
        km = KernelMatrix(3, 2, np.full((9, 9), 0.7))
        img = kernel_to_graphon(km)
        np.testing.assert_array_equal(img.values, 0.7)
        assert img.edges.shape == (10,)

    def test_symmetric_matrix_symmetric_image(self):
        rng = np.random.Generator(np.random.Philox(12))
        a = rng.normal(size=(9, 9))
        km = KernelMatrix(3, 2, (a + a.T) / 2)
        img = kernel_to_graphon(km)
        np.testing.assert_array_equal(img.values, img.values.T)

    def test_rank_one_kernel_is_outer_product_of_steps(self, sg_measure):
        # W_wv = a_w a_v: the image equals the outer product of the
        # transferred step values (checked numerically)
        rng = np.random.Generator(np.random.Philox(13))
        a = rng.normal(size=27)
        km = KernelMatrix(3, 3, np.outer(a, a))
        img = kernel_to_graphon(km)
        step = transfer_to_interval(PiecewiseConstantField(3, 3, a))
        np.testing.assert_allclose(
            img.values, np.outer(step.values[:, 0], step.values[:, 0]), rtol=1e-12
        )


class TestKernelMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            KernelMatrix(3, 2, np.zeros((9, 8)))

    def test_rejects_nonfinite(self):
        e = np.zeros((9, 9))
        e[0, 0] = np.nan
        with pytest.raises(ValueError):
            KernelMatrix(3, 1, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            KernelMatrix(3, 2, e)
