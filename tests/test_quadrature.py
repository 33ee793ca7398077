import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalips import (
    BudgetExceededError,
    ProbabilityVector,
    SelfSimilarMeasure,
    Word,
    cell_average,
    cell_means,
    integrate_mc,
    integrate_qmc,
    level_weights,
    pairwise_sum,
    stationarity_residual,
)
from fractalips import geometry, quadrature
from fractalips.analysis import projection_error
from fractalips.geometry import default_anchor, fixed_point_centroid
from fractalips.quadrature import evaluate_on_points
from fractalips.symbolic import cylinder_measure
from fractalips.transfer import martingale_level


def mean_oracle(meas):
    """Independent barycenter oracle: solve b = sum_i p_i f_i(b) directly."""
    d = meas.ifs.dimension
    p = meas.p.as_array()
    A = np.zeros((d, d))
    t = np.zeros(d)
    for pi, f in zip(p, meas.ifs.maps):
        A += pi * f.matrix
        t += pi * f.translation
    return np.linalg.solve(np.eye(d) - A, t)


class TestPairwiseSum:
    def test_matches_plain_sum(self):
        rng = np.random.Generator(np.random.Philox(1))
        x = rng.normal(size=1000)
        assert pairwise_sum(x) == pytest.approx(x.sum(), rel=1e-14)

    def test_partition_invariance_for_fixed_length(self):
        rng = np.random.Generator(np.random.Philox(2))
        x = rng.normal(size=777)
        assert pairwise_sum(x) == pairwise_sum(x.copy())

    def test_axis_reduction(self):
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(pairwise_sum(x, axis=1), x.sum(axis=1))

    @staticmethod
    def padded_folds(x, axis=0):
        """The tree by its definition: x zero-padded to the next power of two,
        then its halves added until one row is left."""
        x = np.moveaxis(np.asarray(x, dtype=np.float64), axis, 0)
        n = x.shape[0]
        if n == 0:
            return np.zeros(x.shape[1:])
        size = 1 << (n - 1).bit_length()
        x = np.concatenate([x, np.zeros((size - n,) + x.shape[1:])])
        while size > 1:
            size //= 2
            x = x[:size] + x[size:2 * size]
        return x[0]

    def test_in_place_folds_equal_the_padded_tree(self):
        # bit for bit, signed zeros included (a zero pad turns -0.0 into 0.0)
        rng = np.random.Generator(np.random.Philox(4))
        for n in range(70):
            for shape, axis in (((n,), 0), ((n, 3), 0), ((4, n), 1), ((2, n, 3), 1)):
                x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
                x.reshape(-1)[::3] = -0.0
                got = np.asarray(pairwise_sum(x, axis))
                want = np.asarray(self.padded_folds(x, axis))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_folds_hold_no_padded_copy(self):
        # one traj_error row block of sg level 6: 11 x 729 entries (63 KiB);
        # the padded copy and the first fold peaked at 158 KiB
        x = np.random.Generator(np.random.Philox(5)).normal(size=(11, 729))
        tracemalloc.start()
        try:
            pairwise_sum(x, axis=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 1024


def random_probability(rng, k):
    w = rng.uniform(0.05, 1.0, size=k)
    return ProbabilityVector(tuple(w / w.sum()))


class TestCellMeans:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 4),
        m=st.integers(0, 2),
        sublevel=st.integers(0, 3),
        state_dim=st.sampled_from([None, 1, 3]),
        uniform=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_weighted_average(
        self, k, m, sublevel, state_dim, uniform, seed
    ):
        rng = np.random.Generator(np.random.Philox(seed))
        p = ProbabilityVector.uniform(k) if uniform else random_probability(rng, k)
        shape = (k ** (m + sublevel),) + (() if state_dim is None else (state_dim,))
        values = rng.normal(size=shape)
        # dense averaging operator: row w holds nu(K_wu) / nu(K_w) over the
        # descendants u of cell w
        dense = np.kron(np.eye(k**m), level_weights(p, sublevel)[None, :])
        got = cell_means(values, p, sublevel)
        assert got.shape == (k**m,) + shape[1:]
        np.testing.assert_allclose(got, dense @ values, rtol=1e-12, atol=1e-13)


class TestEvaluateOnPoints:
    def test_scalar_result_rejected(self):
        # a callable written for one point sums all of them into one scalar
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="vectorized"):
            evaluate_on_points(lambda x: float(np.sum(x)), pts)

    def test_exceptions_propagate(self):
        # no per-point retry: math.exp cannot take the whole (N, 2) array
        pts = np.zeros((4, 2))
        with pytest.raises(TypeError):
            evaluate_on_points(lambda x: math.exp(-x[0]), pts)


class TestIntegrateQMC:
    def test_constant_is_exact(self, sg_measure):
        for m in (0, 1, 4, 7):
            val = integrate_qmc(sg_measure, lambda x: np.ones(len(x)), m)
            assert val == 1.0

    def test_sg_barycenter_matches_fixed_point_oracle(self, sg_measure):
        b = mean_oracle(sg_measure)
        np.testing.assert_allclose(b, [0.5, np.sqrt(3.0) / 6.0], rtol=1e-15)
        est = integrate_qmc(
            sg_measure, lambda x: x, 10, anchor=fixed_point_centroid(sg_measure.ifs)
        )
        assert np.abs(est - b).max() <= 1e-6

    def test_interval_mean_is_half(self, interval2_measure):
        est = integrate_qmc(interval2_measure, lambda x: x, 12, anchor=[0.0])
        assert abs(est - 0.5) <= 2.0**-12

    def test_linearity_on_same_nodes(self, sg_measure):
        phi = lambda x: np.exp(-np.abs(x[:, 0] - x[:, 1]))
        psi = lambda x: x[:, 0] ** 2
        a, b = 2.25, -0.5
        lhs = integrate_qmc(sg_measure, lambda x: a * phi(x) + b * psi(x), 7)
        rhs = a * integrate_qmc(sg_measure, phi, 7) + b * integrate_qmc(
            sg_measure, psi, 7
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_level_consistency_for_lipschitz_integrand(self, sg_measure):
        phi = lambda x: np.exp(-np.abs(x[:, 0] - x[:, 1]))
        vals = [integrate_qmc(sg_measure, phi, m) for m in range(4, 11)]
        gaps = [abs(vals[i] - vals[i + 2]) for i in range(len(vals) - 2)]
        # successive two-level gaps shrink, up to a factor-2 allowance
        for g0, g1 in zip(gaps, gaps[1:]):
            assert g1 <= 2.0 * g0

    def test_nonuniform_weights(self, sg):
        meas = SelfSimilarMeasure(sg, ProbabilityVector((0.5, 0.25, 0.25)))
        b = mean_oracle(meas)
        est = integrate_qmc(meas, lambda x: x, 12, anchor=b)
        assert np.abs(est - b).max() <= 1e-6


class TestIntegrateMC:
    def test_constant_exact(self, sg_measure):
        assert integrate_mc(sg_measure, lambda x: np.ones(len(x)), 100, seed=1) == 1.0

    def test_barycenter_within_three_standard_errors(self, sg_measure):
        b = mean_oracle(sg_measure)
        ests = np.array(
            [
                integrate_mc(sg_measure, lambda x: x, 10**5, tail=40, seed=s)
                for s in range(20)
            ]
        )
        se = ests.std(axis=0, ddof=1) / np.sqrt(len(ests))
        assert np.all(np.abs(ests.mean(axis=0) - b) <= 3.0 * se + 1e-12)
        # and each run lands within the documented 5e-3 of the oracle
        assert np.abs(ests - b).max() <= 5e-3

    def test_seed_determinism(self, sg_measure):
        phi = lambda x: np.sin(x[:, 0]) + x[:, 1]
        a = integrate_mc(sg_measure, phi, 5000, seed=123)
        b = integrate_mc(sg_measure, phi, 5000, seed=123)
        assert a == b

    def test_seeds_differ(self, sg_measure):
        phi = lambda x: x[:, 0]
        assert integrate_mc(sg_measure, phi, 5000, seed=1) != integrate_mc(
            sg_measure, phi, 5000, seed=2
        )

    def test_agrees_with_qmc_for_lipschitz(self, sg_measure):
        phi = lambda x: np.exp(-np.abs(x[:, 0] - x[:, 1]))
        ref = integrate_qmc(sg_measure, phi, 10)
        ests = np.array(
            [integrate_mc(sg_measure, phi, 10**4, seed=s) for s in range(20)]
        )
        se = ests.std(ddof=1) / np.sqrt(len(ests))
        assert abs(ests.mean() - ref) <= 3.0 * se

    def test_rotated_ifs_uses_general_path(self):
        # a genuinely rotating system exercises the matrix-composition path
        from fractalips import IFS, Similitude

        maps = (
            Similitude.rotation_2d(0.4, 0.5, np.array([0.0, 0.0])),
            Similitude.rotation_2d(0.4, -0.3, np.array([0.6, 0.0])),
            Similitude.homothety(0.4, np.array([0.3, 0.5])),
        )
        meas = SelfSimilarMeasure.uniform(IFS(maps))
        ref = integrate_qmc(meas, lambda x: x, 9)
        est = integrate_mc(meas, lambda x: x, 2 * 10**4, seed=11)
        assert np.abs(est - ref).max() <= 5e-3

    @pytest.mark.parametrize("seed", [1, 2])
    def test_homothety_fast_path_matches_general_path(self, sg_measure, monkeypatch,
                                                      seed):
        # the geometric-convolution fast path against the matrix path it
        # replaces, node for node
        nodes = []

        def phi(x):
            nodes.append(x.copy())
            return x

        fast = integrate_mc(sg_measure, phi, 2000, seed=seed)
        monkeypatch.setattr(quadrature, "has_common_linear_part", lambda ifs: False)
        general = integrate_mc(sg_measure, phi, 2000, seed=seed)
        np.testing.assert_allclose(nodes[0], nodes[1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(fast, general, rtol=0, atol=1e-15)

    def test_budget_guard(self, sg_measure, monkeypatch):
        monkeypatch.setenv("FRACTALIPS_MAX_EVALS", "1000")
        with pytest.raises(BudgetExceededError):
            integrate_mc(sg_measure, lambda x: x[:, 0], 10**4, seed=0)


class TestCellAverage:
    def test_constant_is_exact(self, sg_measure):
        # 2.5 has a short mantissa, so the uniform average is bit-exact
        val = cell_average(
            sg_measure, lambda x: np.full(len(x), 2.5), Word(3, (1, 2)), 6
        )
        assert val == 2.5

    def test_affine_cell_mean_is_mapped_barycenter(self, sg_measure, sg):
        # mean of nu restricted to K_w is f_w(mean of nu) for affine maps;
        # oracle: high-level QMC of the composed map
        from fractalips import compose

        b = mean_oracle(sg_measure)
        a = np.array([1.5, -2.0])
        c = 0.75
        phi = lambda x: x @ a + c
        for sym in [(1,), (3, 2), (2, 1, 3)]:
            w = Word(3, sym)
            expect = compose(sg, w)(b) @ a + c
            got = cell_average(sg_measure, phi, w, 12, anchor=b)
            assert got == pytest.approx(expect, abs=1e-9)

    def test_indicator_of_left_half_interval(self, interval2_measure):
        phi = lambda x: (x < 0.5).astype(float)
        got = cell_average(interval2_measure, phi, Word(2, (1,)), 12, anchor=[0.0])
        assert abs(got - 1.0) <= 2.0**-12

    def test_regrouping_matches_global_qmc(self, sg_measure):
        # sum_w nu(K_w) cell_average(w) equals the level-(m+m') integral
        phi = lambda x: np.cos(x[:, 0]) + x[:, 1] ** 2
        m, sub = 3, 4
        anchor = default_anchor(sg_measure.ifs)
        total = 0.0
        for idx in range(3**m):
            w = Word.from_index(3, m, idx)
            total += float(cylinder_measure(sg_measure.p, w)) * cell_average(
                sg_measure, phi, w, sub, anchor=anchor
            )
        ref = integrate_qmc(sg_measure, phi, m + sub, anchor=anchor)
        assert total == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize(
    "route", ["integrate_qmc", "cell_average", "martingale_level", "projection_error"]
)
def test_budget_refuses_before_enumerating_nodes(sg_measure, monkeypatch, route):
    # a refused budget must not first allocate the nodes it refuses: every
    # route needs the 27 level-3 nodes, and making any of them maps a point
    def mapped(self, x):
        raise AssertionError("a node was made before the budget check")

    phi = lambda x: x[:, 0]
    calls = {
        "integrate_qmc": lambda: integrate_qmc(sg_measure, phi, 3),
        "cell_average": lambda: cell_average(sg_measure, phi, Word(3, (1,)), 3),
        "martingale_level": lambda: martingale_level(sg_measure, phi, 1, 2),
        "projection_error": lambda: projection_error(sg_measure, phi, 1, sublevel=2),
    }
    monkeypatch.setenv("FRACTALIPS_MAX_EVALS", "10")
    monkeypatch.setattr(geometry.Similitude, "__call__", mapped)
    with pytest.raises(BudgetExceededError):
        calls[route]()


class TestStationarityResidual:
    def test_sg_natural(self, sg_measure):
        assert stationarity_residual(sg_measure, 5) <= 1e-15

    def test_nonuniform(self, sg):
        meas = SelfSimilarMeasure(sg, ProbabilityVector((0.5, 0.25, 0.25)))
        assert stationarity_residual(meas, 6) <= 1e-15

    def test_single_level_is_zero(self, sg_measure):
        assert stationarity_residual(sg_measure, 1) == 0.0
