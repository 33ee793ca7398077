import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalips import (
    BudgetExceededError,
    ProbabilityVector,
    SelfSimilarMeasure,
    Trajectory,
    kuramoto_inertia_model,
    kuramoto_model,
    lipschitz_norm_estimate,
    lp_projection_bound,
    modulus_profile,
    preset,
    project_kernel,
    projection_error,
    rate_fit,
    traj_error,
    translation_vector,
    vlasov_self_convergence,
)
from fractalips.analysis import _modulus_single_level, _slope, wasserstein_distance
from fractalips.geometry import attractor_points
from fractalips.quadrature import (
    cell_means,
    evaluate_on_points,
    pairwise_sum,
    stationary_mean,
)


def make_traj(k, level, times, values):
    return Trajectory(k, level, np.asarray(times, float), np.asarray(values, float))


def brute_force_w1(atoms_a, weights_a, atoms_b, weights_b):
    """Exact 1-D transport by LP over the full coupling polytope (small n)."""
    from scipy.optimize import linprog

    na, nb = len(atoms_a), len(atoms_b)
    cost = np.abs(np.subtract.outer(atoms_a, atoms_b)).ravel()
    A_eq = []
    b_eq = []
    for i in range(na):
        row = np.zeros((na, nb))
        row[i, :] = 1.0
        A_eq.append(row.ravel())
        b_eq.append(weights_a[i])
    for j in range(nb):
        row = np.zeros((na, nb))
        row[:, j] = 1.0
        A_eq.append(row.ravel())
        b_eq.append(weights_b[j])
    res = linprog(cost, A_eq=np.array(A_eq), b_eq=np.array(b_eq), bounds=(0, None))
    assert res.success
    return res.fun


class TestTrajError:
    def test_identical_trajectories_zero(self, sg_measure):
        vals = np.random.default_rng(0).random((5, 9, 1))
        t = make_traj(3, 2, np.linspace(0, 1, 5), vals)
        assert traj_error(t, t, sg_measure).max_error == 0.0

    def test_constant_fields_give_absolute_gap(self, sg_measure):
        times = np.linspace(0, 1, 4)
        a = make_traj(3, 2, times, np.full((4, 9, 1), 1.25))
        b = make_traj(3, 3, times, np.full((4, 27, 1), 2.0))
        rep = traj_error(a, b, sg_measure)
        np.testing.assert_allclose(rep.errors, 0.75, rtol=1e-12)

    def test_coarsening_gap_equals_within_parent_dispersion(self, sg_measure):
        # coarse = exact coarsening of fine: the gap is the L2 norm of the
        # within-parent deviations, expanded directly
        rng = np.random.default_rng(1)
        fine_vals = rng.random((3, 27, 1))
        times = np.array([0.0, 0.5, 1.0])
        fine = make_traj(3, 3, times, fine_vals)
        coarse_vals = fine_vals.reshape(3, 9, 3, 1).mean(axis=2)
        coarse = make_traj(3, 2, times, coarse_vals)
        rep = traj_error(coarse, fine, sg_measure)
        blocks = fine_vals.reshape(3, 9, 3)
        disp = blocks - blocks.mean(axis=2, keepdims=True)
        expect = np.sqrt((disp**2).mean(axis=(1, 2)))
        np.testing.assert_allclose(rep.errors, expect, rtol=1e-10)

    def test_grid_mismatch_rejected(self, sg_measure):
        a = make_traj(3, 2, [0.0, 1.0], np.zeros((2, 9, 1)))
        b = make_traj(3, 2, [0.0, 0.5], np.zeros((2, 9, 1)))
        with pytest.raises(ValueError):
            traj_error(a, b, sg_measure)

    def test_symmetric_after_refinement(self, sg_measure):
        rng = np.random.default_rng(2)
        times = np.array([0.0, 1.0])
        a = make_traj(3, 2, times, rng.random((2, 9, 1)))
        b_coeffs = rng.random((2, 27, 1))
        b = make_traj(3, 3, times, b_coeffs)
        ab = traj_error(a, b, sg_measure).max_error
        a_ref = make_traj(3, 3, times, np.repeat(a.values, 3, axis=1))
        ba = traj_error(b, a_ref, sg_measure).max_error
        assert ab == pytest.approx(ba, rel=1e-12)


def one_shot_traj_error(coarse, fine, meas):
    """The errors of ``traj_error`` from one temporary of the fine
    trajectory's size, the formula its row blocks replaced."""
    diff = np.repeat(coarse.values, coarse.k ** (fine.level - coarse.level), axis=1)
    np.subtract(diff, fine.values, out=diff)
    sq = np.sum(np.multiply(diff, diff, out=diff), axis=2)
    sq *= meas.weights(fine.level)
    return np.sqrt(np.maximum(pairwise_sum(sq, axis=1), 0.0))


class TestTrajErrorBlocks:
    @pytest.mark.parametrize("name, level, p", [
        ("sg", 4, None), ("sg", 4, (0.6, 0.3, 0.1)),
        ("cantor", 8, None), ("cantor", 11, (0.7, 0.3)),
    ])
    def test_row_blocks_keep_the_one_shot_bits(self, name, level, p):
        # 23 times: several row blocks and a short last one, or at cantor
        # level 13 one row per block (2^13 cells of 2 components)
        ifs = preset(name)
        meas = (SelfSimilarMeasure.uniform(ifs) if p is None
                else SelfSimilarMeasure(ifs, ProbabilityVector(p)))
        rng = np.random.default_rng(level)
        times = np.linspace(0.0, 1.0, 23)
        for state_dim in (1, 2):
            coarse = make_traj(ifs.k, level, times,
                               rng.normal(size=(23, ifs.k**level, state_dim)))
            for gap in (0, 1, 2):
                fine = make_traj(ifs.k, level + gap, times,
                                 rng.normal(size=(23, ifs.k ** (level + gap), state_dim)))
                rep = traj_error(coarse, fine, meas)
                expected = one_shot_traj_error(coarse, fine, meas)
                assert rep.errors.tobytes() == expected.tobytes(), (state_dim, gap)
                assert rep.max_error == expected.max()

    def test_traced_peak_stays_far_below_the_fine_trajectory(self, sg_measure):
        # sg levels 5 and 6 at 101 times: the fine trajectory takes 0.56 MiB,
        # and the one-shot formula peaked at 2.54 MiB
        rng = np.random.default_rng(0)
        times = np.linspace(0.0, 1.0, 101)
        coarse = make_traj(3, 5, times, rng.random((101, 243, 1)))
        fine = make_traj(3, 6, times, rng.random((101, 729, 1)))
        tracemalloc.start()
        try:
            traj_error(coarse, fine, sg_measure)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19


class TestProjectionError:
    def test_constant_function_zero(self, sg_measure):
        assert projection_error(sg_measure, lambda x: np.full(len(x), 3.0), 3) <= 1e-14

    def test_level_one_indicator_already_resolved(self, sg_measure):
        s3 = np.sqrt(3.0)
        phi = lambda x: (x[:, 0] + x[:, 1] / s3 < 0.5 - 1e-9).astype(float)
        for m in (1, 2, 3):
            assert projection_error(sg_measure, phi, m) <= 1e-13

    def test_exp_kernel_errors_strictly_decrease(self, sg_measure):
        phi = lambda x: np.exp(-np.abs(x[:, 0] - x[:, 1]))
        errs = [projection_error(sg_measure, phi, m) for m in range(2, 9)]
        assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))

    def test_projection_contraction_across_levels(self, sg_measure):
        phi = lambda x: np.sin(2 * np.pi * x[:, 0]) * x[:, 1]
        sup = 1.0
        errs = [projection_error(sg_measure, phi, m) for m in range(1, 6)]
        for e0, e1 in zip(errs, errs[1:]):
            assert e1 <= e0 + 1e-3 * sup


class TestModulus:
    def test_constant_function_zero(self, sg_measure):
        _, omega = modulus_profile(sg_measure, lambda x: np.full(len(x), 1.0),
                                   [3], max_ell=5)
        assert omega[0] == 0.0

    def test_linear_function_exact_scaling(self, sg, sg_measure):
        # |phi(x + tau) - phi(x)| = |c . tau| pointwise: the matched-pair
        # estimator equals (1/k)^(1/p) lambda^l max_ij |c . tau_ij|
        c = np.array([1.0, -0.5])
        phi = lambda x: x @ c
        taus = [
            translation_vector(sg, i, j)
            for i, j in itertools.permutations((1, 2, 3), 2)
        ]
        tmax = max(abs(float(t @ c)) for t in taus)
        for m in (2, 3, 4):
            got = modulus_profile(sg_measure, phi, [m], p_exponent=2.0,
                                  max_ell=m + 3, sublevel=2)[1][0]
            expect = (1.0 / 3.0) ** 0.5 * 0.5**m * tmax
            assert got == pytest.approx(expect, rel=1e-10)
            assert got <= np.linalg.norm(c) * 0.5**m * max(
                np.linalg.norm(t) for t in taus
            )

    def test_omega_nonincreasing_in_level(self, sg_measure):
        for phi in (
            lambda x: np.exp(-np.abs(x[:, 0] - x[:, 1])),
            lambda x: np.cos(3.0 * x[:, 0]),
            lambda x: (x[:, 0] > 0.4).astype(float),
        ):
            levels, omega = modulus_profile(sg_measure, phi, range(2, 8),
                                            max_ell=8, sublevel=2)
            assert np.all(np.diff(omega) <= 1e-15)
            assert np.all(omega >= 0)

    def test_rejects_mixed_linear_parts(self):
        from fractalips import IFS, Similitude

        ifs = IFS(
            (
                Similitude.homothety(0.5, np.zeros(2)),
                Similitude.rotation_2d(0.5, 0.4, np.array([1.0, 0.0])),
            )
        )
        meas = SelfSimilarMeasure.uniform(ifs)
        with pytest.raises(ValueError):
            modulus_profile(meas, lambda x: x[:, 0], [2], max_ell=4)

    def test_fitted_alpha_for_linear_function(self, sg_measure):
        phi = lambda x: x @ np.array([1.0, -0.5])
        levels, omega = modulus_profile(sg_measure, phi, range(2, 7), max_ell=8)
        rep = lipschitz_norm_estimate(levels, omega, lam=0.5)
        assert rep.fitted_alpha == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("name, p", [
        ("sg", None), ("sg", (0.5, 0.3, 0.2)), ("cantor", (0.7, 0.3)),
        ("sg3", None), ("pentagasket", None),
    ])
    def test_unordered_pairs_equal_the_ordered_pair_oracle(self, name, p):
        ifs = preset(name)
        meas = (SelfSimilarMeasure.uniform(ifs) if p is None
                else SelfSimilarMeasure(ifs, ProbabilityVector(p)))
        if ifs.dimension == 1:
            phi = lambda x: np.exp(-np.abs(x - 0.3)) + (x > 0.5)
        else:
            phi = lambda x: np.exp(-np.abs(x[:, 0] - x[:, 1])) + (x[:, 0] > 0.4)
        parr = meas.p.as_array()
        for p_exponent in (1.0, 2.0, 3.5):
            for ell in (1, 3, 5):
                # every ordered pair (i, j), i != j, with its own weight p_i
                vals = evaluate_on_points(phi, attractor_points(ifs, ell + 3))
                blocks = vals.reshape(ifs.k**ell, ifs.k, ifs.k**2)
                oracle = 0.0
                for i, j in itertools.permutations(range(ifs.k), 2):
                    diff = np.abs(blocks[:, j, :] - blocks[:, i, :])
                    term = parr[i] * cell_means(
                        diff.reshape(-1) ** p_exponent, meas.p, ell + 2
                    )[0]
                    oracle = max(oracle, float(term) ** (1.0 / p_exponent))
                got = _modulus_single_level(meas, phi, ell, p_exponent, 2)
                assert got == oracle

    def test_projection_bound_holds_for_linear_function(self, sg_measure):
        # observed errors stay below (k^(-1/2) (k-1)^(1/2) / (1 - lambda))
        # * lip_norm * lambda^m on the gasket, m = 2..7
        phi = lambda x: x @ np.array([1.0, -0.5])
        levels = np.arange(2, 8)
        errors = np.array(
            [projection_error(sg_measure, phi, m, 2.0, 3) for m in levels]
        )
        mls, omega = modulus_profile(sg_measure, phi, levels, max_ell=10)
        rep = lipschitz_norm_estimate(mls, omega, lam=0.5)
        pref = 3.0**-0.5 * 2.0**0.5 / (1.0 - 0.5)
        bound = pref * rep.lip_norm * 0.5**levels
        assert np.all(errors <= bound)


class TestLipschitzNormEstimate:
    def test_exact_loglinear_alpha_one(self):
        levels = np.arange(2, 9)
        omega = 2.0 ** (-levels.astype(float))
        rep = lipschitz_norm_estimate(levels, omega, lam=0.5)
        assert rep.fitted_alpha == pytest.approx(1.0, rel=1e-12)
        assert rep.lip_norm == pytest.approx(1.0, rel=1e-10)

    def test_exact_loglinear_alpha_half(self):
        levels = np.arange(2, 9)
        omega = 2.0 ** (-levels / 2.0)
        rep = lipschitz_norm_estimate(levels, omega, lam=0.5)
        assert rep.fitted_alpha == pytest.approx(0.5, rel=1e-12)

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            lipschitz_norm_estimate([2, 3], [0.1, 0.05], lam=0.5)


class TestSlope:
    """The closed-form least-squares slope behind both rate fits."""

    def test_equals_polyfit(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 9):
            x = np.sort(rng.choice(np.arange(2, 12), n, replace=False)) * np.log(
                rng.uniform(0.2, 0.7))
            y = np.log(rng.uniform(1e-9, 1.0, n))
            np.testing.assert_allclose(_slope(x, y), np.polyfit(x, y, 1)[0], rtol=1e-12)

    @pytest.mark.parametrize("x", [[2.0, 2.0, 2.0], [1.5], []])
    def test_fewer_than_two_distinct_x_refused(self, x):
        with pytest.raises(ValueError):
            _slope(np.array(x), np.ones(len(x)))

    def test_repeated_levels_refused_by_both_fits(self):
        with pytest.raises(ValueError):
            rate_fit([0.1, 0.2, 0.3], 0.5, levels=[3, 3, 3])
        with pytest.raises(ValueError):
            lipschitz_norm_estimate([3, 3, 3], [0.1, 0.2, 0.3], lam=0.5)


class TestRateFit:
    def test_quadratic_decay_reported_with_cap_note(self):
        levels = np.arange(2, 7)
        errors = 0.25**levels
        fit = rate_fit(errors, 0.5, levels=levels)
        assert fit.fitted_alpha == pytest.approx(2.0, rel=1e-12)
        assert fit.capped and fit.alpha_capped == 1.0

    def test_linear_decay(self):
        levels = np.arange(2, 7)
        fit = rate_fit(0.5**levels, 0.5, levels=levels)
        assert fit.fitted_alpha == pytest.approx(1.0, rel=1e-12)
        assert not fit.capped

    def test_nonpositive_errors_floored_with_warning(self):
        levels = np.arange(2, 7)
        errs = 0.5**levels
        errs[3] = 0.0
        with pytest.warns(UserWarning):
            fit = rate_fit(errs, 0.5, levels=levels)
        assert fit.floor_replaced == 1

    def test_bound_column_against_projection_bound(self):
        levels = np.arange(2, 8)
        errors = 0.9 * lp_projection_bound(3, 0.5, 1.0, 2.0, levels)
        fit = rate_fit(errors, 0.5, levels=levels, k=3, lip_norm=2.0)
        assert fit.below_bound
        fit_bad = rate_fit(errors * 10.0, 0.5, levels=levels, k=3, lip_norm=2.0)
        assert not fit_bad.below_bound

    def test_levels_zero_one_discarded(self):
        levels = np.arange(0, 6)
        errors = np.concatenate([[5.0, 4.0], 0.5 ** np.arange(2, 6)])
        fit = rate_fit(errors, 0.5, levels=levels)
        assert fit.fitted_alpha == pytest.approx(1.0, rel=1e-12)


class TestBLDistanceProxy:
    """W1 on the line, the Vlasov table's proxy for the bounded-Lipschitz
    distance (test functions with Lipschitz constant <= 1)."""

    def test_identical_measures_zero(self):
        assert wasserstein_distance([0.1, 0.9], [0.1, 0.9]) == 0.0

    def test_point_masses_at_unit_distance(self):
        assert wasserstein_distance([0.0], [1.0]) == 1.0

    def test_two_atom_shift_against_brute_force(self):
        got = wasserstein_distance([0.0, 0.5], [0.25, 0.75])
        assert got == pytest.approx(0.25, abs=1e-12)
        assert got == pytest.approx(
            brute_force_w1([0.0, 0.5], [0.5, 0.5], [0.25, 0.75], [0.5, 0.5]),
            abs=1e-9,
        )

    def test_weighted_case_against_lp_oracle(self):
        a_atoms, a_w = [0.0, 1.0, 2.0], [0.2, 0.5, 0.3]
        b_atoms, b_w = [0.5, 1.5], [0.6, 0.4]
        assert wasserstein_distance(a_atoms, b_atoms, a_w, b_w) == pytest.approx(
            brute_force_w1(a_atoms, a_w, b_atoms, b_w), abs=1e-9
        )

    def test_vector_states_rejected(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="scalar states"):
            wasserstein_distance(a, a)

    def test_vector_states_unequal_counts_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_distance(np.zeros((2, 2)), np.zeros((3, 2)))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=6,
            max_size=6,
        )
    )
    def test_metric_axioms_on_random_triples(self, data):
        pts = [data[i : i + 2] for i in range(0, 6, 2)]
        d01 = wasserstein_distance(pts[0], pts[1])
        d10 = wasserstein_distance(pts[1], pts[0])
        d02 = wasserstein_distance(pts[0], pts[2])
        d12 = wasserstein_distance(pts[1], pts[2])
        assert d01 == pytest.approx(d10, abs=1e-12)
        assert d02 <= d01 + d12 + 1e-12


class TestWassersteinDistance:
    @settings(max_examples=200, deadline=None)
    @given(
        u=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12),
        v=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=9),
        weighted=st.booleans(),
        data=st.data(),
    )
    def test_equals_scipy(self, u, v, weighted, data):
        from scipy.stats import wasserstein_distance as scipy_w1

        uw = vw = None
        if weighted:
            weight = st.floats(0.01, 10, allow_nan=False)
            uw = data.draw(st.lists(weight, min_size=len(u), max_size=len(u)))
            vw = data.draw(st.lists(weight, min_size=len(v), max_size=len(v)))
        assert wasserstein_distance(u, v, uw, vw) == scipy_w1(u, v, uw, vw)

    @pytest.mark.parametrize("u, v, uw, vw", [
        ([], [1.0], None, None),
        ([0.0, 1.0], [1.0], [1.0], None),
        ([0.0, 1.0], [1.0], [1.0, -0.5], None),
        ([0.0, 1.0], [1.0], None, [0.0]),
    ])
    def test_invalid_distributions_rejected(self, u, v, uw, vw):
        with pytest.raises(ValueError):
            wasserstein_distance(u, v, uw, vw)


class TestVlasovSelfConvergence:
    def test_frozen_dynamics_and_deterministic_init(self, sg_measure):
        # f = 0, D = 0, identical initial data per cell: distances are zero
        # at every time
        from fractalips import ModelSpec, builtin_kernels

        def builder(level):
            return ModelSpec(
                name="frozen",
                state_dim=1,
                drift=lambda t, u, p: np.zeros_like(u),
                coupling_term=lambda G, u: np.zeros_like(u),
            )

        def init_sampler(rng, cell_index, n):
            return np.full((n, 1), 0.25 * cell_index)

        table = vlasov_self_convergence(
            sg_measure,
            builder,
            builtin_kernels(2)["constant"](0.5),
            init_sampler,
            m=1,
            ells=(1, 2),
            T=0.1,
            dt=0.01,
            seeds=(1, 2),
            sublevel=2,
            output_stride=5,
        )
        assert table.distances.shape[0] == 2
        assert np.all(table.distances == 0.0)

    def test_frozen_dynamics_random_init_distances_constant_in_time(
        self, sg_measure
    ):
        # states frozen (f = 0, D = 0): per-time distances never change
        from fractalips import ModelSpec, builtin_kernels

        def builder(level):
            return ModelSpec(
                name="frozen",
                state_dim=1,
                drift=lambda t, u, p: np.zeros_like(u),
                coupling_term=lambda G, u: np.zeros_like(u),
            )

        table = vlasov_self_convergence(
            sg_measure,
            builder,
            builtin_kernels(2)["constant"](0.5),
            lambda rng, ci, n: rng.random((n, 1)),
            m=1,
            ells=(1, 2),
            T=0.1,
            dt=0.01,
            seeds=(3,),
            sublevel=2,
            output_stride=2,
        )
        first = np.broadcast_to(table.distances[:, :, :1], table.distances.shape)
        assert np.all(table.distances > 0)
        np.testing.assert_allclose(table.distances, first, rtol=1e-12)

    def test_budget_refuses_finest_level_before_any_projection(
        self, sg_measure, monkeypatch
    ):
        # levels 2 and 3 with sublevel 2 make 81^2 = 6,561 and 243^2 = 59,049
        # evaluations of an undeclared kernel; only level 3 is over budget
        from fractalips import dynamics

        projected = []

        def recorded(*args, **kwargs):
            projected.append(project_kernel(*args, **kwargs))
            return projected[-1]

        monkeypatch.setenv("FRACTALIPS_MAX_EVALS", "10000")
        monkeypatch.setattr(dynamics, "project_kernel", recorded)
        with pytest.raises(BudgetExceededError, match="59049"):
            vlasov_self_convergence(
                sg_measure,
                lambda level: kuramoto_model(1.0, 0.0),
                lambda x, y: np.exp(-np.abs(x - y).sum(axis=-1)),
                lambda rng, ci, n: rng.random((n, 1)),
                m=1,
                ells=(1, 2),
                T=0.1,
                dt=0.01,
                seeds=(1,),
            )
        assert projected == []

    def test_non_scalar_model_refused_before_any_projection(
        self, sg_measure, monkeypatch
    ):
        from fractalips import dynamics

        projected = []

        def recorded(*args, **kwargs):
            projected.append(project_kernel(*args, **kwargs))
            return projected[-1]

        monkeypatch.setattr(dynamics, "project_kernel", recorded)
        with pytest.raises(ValueError, match="scalar states"):
            vlasov_self_convergence(
                sg_measure,
                lambda level: kuramoto_inertia_model(1.0, 0.5),
                lambda x, y: np.exp(-np.abs(x - y).sum(axis=-1)),
                lambda rng, ci, n: rng.random((n, 2)),
                m=1,
                ells=(1, 2),
                T=0.1,
                dt=0.01,
                seeds=(1,),
            )
        assert projected == []

    def test_kuramoto_distances_decrease_with_refinement(self, sg_measure):
        from fractalips import builtin_kernels

        def builder(level):
            return kuramoto_model(1.0, 0.0)

        def init_sampler(rng, cell_index, n):
            return rng.random((n, 1))

        table = vlasov_self_convergence(
            sg_measure,
            builder,
            builtin_kernels(2)["expdist"],
            init_sampler,
            m=1,
            ells=(1, 2, 3),
            T=0.2,
            dt=0.01,
            seeds=tuple(range(6)),
            sublevel=2,
            output_stride=10,
        )
        # max over time, median over seeds, per successive pair
        worst = table.distances.max(axis=2)
        med = np.median(worst, axis=0)
        assert med[1] < med[0]

    @pytest.mark.parametrize("name, m", [("sg", 1), ("cantor", 2)])
    def test_table_matches_per_cell_scipy_loop(self, name, m, monkeypatch):
        # oracle: scipy's W1 for every (seed, pair, time, coarse cell) on the
        # trajectories the table was computed from
        from scipy.stats import wasserstein_distance as scipy_w1

        from fractalips import analysis, builtin_kernels, preset

        meas = SelfSimilarMeasure.uniform(preset(name))
        integrate = analysis.integrate_levels
        runs = []  # one list of per-seed trajectories per ell, in order

        def recording(*args, **kwargs):
            runs.extend(integrate(*args, **kwargs))
            return runs

        monkeypatch.setattr(analysis, "integrate_levels", recording)
        ells, seeds = (1, 2, 3), (4, 5)
        table = vlasov_self_convergence(
            meas,
            lambda level: kuramoto_model(1.0, 0.0),
            builtin_kernels(meas.ifs.dimension)["expdist"],
            lambda rng, ci, n: rng.random((n, 1)),
            m=m,
            ells=ells,
            T=0.2,
            dt=0.01,
            seeds=seeds,
            sublevel=2,
            output_stride=5,
        )
        trajs = dict(zip(ells, runs))
        k, masses = meas.k, meas.weights(m)
        expected = np.empty(table.distances.shape)
        for si in range(len(seeds)):
            for pi, (lo, hi) in enumerate(table.ell_pairs):
                tl, th = trajs[lo][si].values, trajs[hi][si].values
                for ti in range(len(table.times)):
                    acc = [
                        scipy_w1(
                            tl[ti, ci * k**lo : (ci + 1) * k**lo, 0],
                            th[ti, ci * k**hi : (ci + 1) * k**hi, 0],
                        )
                        for ci in range(k**m)
                    ]
                    expected[si, pi, ti] = pairwise_sum(masses * np.array(acc))
        assert np.all(expected > 0)
        np.testing.assert_allclose(table.distances, expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name, m, p", [
        ("sg", 1, None), ("sg", 1, (0.6, 0.3, 0.1)),
        ("cantor", 2, None), ("cantor", 2, (0.7, 0.3)),
    ])
    def test_table_keeps_the_one_shot_bits(self, name, m, p, monkeypatch):
        # reference: the table from sorted copies of the stacked atoms and
        # fresh repeated, subtracted and absolute arrays, which the in-place
        # sort and the one gap buffer replaced; ells 1, 2, 4 take level gaps
        # 1 and 2, the first pair in a part of the finest pair's buffer
        from fractalips import analysis, builtin_kernels

        ifs = preset(name)
        meas = (SelfSimilarMeasure.uniform(ifs) if p is None
                else SelfSimilarMeasure(ifs, ProbabilityVector(p)))
        integrate = analysis.integrate_levels
        runs = []

        def recording(*args, **kwargs):
            runs.extend(integrate(*args, **kwargs))
            return runs

        monkeypatch.setattr(analysis, "integrate_levels", recording)
        ells, seeds = (1, 2, 4), (4, 5)
        table = vlasov_self_convergence(
            meas, lambda level: kuramoto_model(1.0, 0.0),
            builtin_kernels(ifs.dimension)["expdist"],
            lambda rng, ci, n: rng.random((n, 1)),
            m=m, ells=ells, T=0.2, dt=0.01, seeds=seeds, sublevel=2, output_stride=5)
        k, shape = ifs.k, (len(seeds), len(table.times), ifs.k**m)
        atoms = {ell: np.sort(np.stack([tr.values[..., 0] for tr in trajs]).reshape(
            *shape, k**ell), axis=-1) for ell, trajs in zip(ells, runs)}
        expected = np.stack([
            pairwise_sum(meas.weights(m) * np.mean(np.abs(
                np.repeat(atoms[lo], k ** (hi - lo), axis=-1) - atoms[hi]), axis=-1),
                axis=-1)
            for lo, hi in table.ell_pairs], axis=1)
        assert np.all(expected > 0)
        assert table.distances.tobytes() == expected.tobytes()


class TestStationaryMean:
    def test_matches_direct_fixed_point_solve(self, sg_measure):
        b = stationary_mean(sg_measure)
        np.testing.assert_allclose(b, [0.5, np.sqrt(3.0) / 6.0], rtol=1e-14)
