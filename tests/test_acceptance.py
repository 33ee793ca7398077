"""Acceptance benchmarks: one test per criterion, each printing a pass line
with its runtime (visible under ``pytest -s``).

Every tolerance is pinned here; the heavy benchmarks (criteria 5-8) run the
same library pipelines the CLI exposes, with all seeds fixed.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from fractalips import (
    KernelMatrix,
    PiecewiseConstantField,
    ProbabilityVector,
    SelfSimilarMeasure,
    Word,
    assemble_deterministic,
    builtin_kernels,
    cylinder_measure,
    enumerate_level,
    integrate_ips,
    integrate_mc,
    integrate_qmc,
    kuramoto_model,
    natural_projection,
    preset,
    stationarity_residual,
    transfer_to_interval,
)
from fractalips.analysis import (
    lipschitz_norm_estimate,
    modulus_profile,
    projection_error,
    rate_fit,
    vlasov_self_convergence,
)
from fractalips.experiments import (
    bernoulli_gap_medians,
    kuramoto_refinement_errors,
    uniform_phase_sampler,
)
from fractalips.geometry import fixed_point_centroid
from fractalips.quadrature import pairwise_sum

FIELD_SEED = 2026


def report(number: int, name: str, t0: float, limit: float | None):
    elapsed = time.time() - t0
    if limit is not None:
        assert elapsed < limit, f"criterion {number} overran: {elapsed:.1f}s >= {limit}s"
    budget = f"{elapsed:.2f}s" + (f" / limit {limit:g}s" if limit else "")
    print(f"criterion {number:02d} [{name}]: PASS ({budget})")


@pytest.fixture(scope="module")
def sgm():
    return SelfSimilarMeasure.uniform(preset("sg"))


def test_criterion_01_exact_measure_algebra(sgm):
    t0 = time.time()
    p_exact = ProbabilityVector.uniform(3, exact=True)
    for m in range(0, 9):
        ref = Fraction(1, 3**m)
        for w in enumerate_level(3, m):
            assert cylinder_measure(p_exact, w) == ref  # exact rational mode
    for m in range(0, 9):
        ref = 3.0**-m
        masses = sgm.weights(m)
        assert np.abs(masses - ref).max() <= 1e-15
    for m in range(1, 7):
        assert stationarity_residual(sgm, m) <= 1e-15
    report(1, "exact measure algebra", t0, 1.0)


def test_criterion_02_semiconjugacy(sgm):
    t0 = time.time()
    sg = sgm.ifs
    rng = np.random.Generator(np.random.Philox(FIELD_SEED))
    anchor = np.array([0.0, 0.0])
    worst = 0.0
    for _ in range(1000):
        sym = tuple(int(s) for s in rng.integers(1, 4, size=40))
        i = int(rng.integers(1, 4))
        lhs, _ = natural_projection(sg, Word(3, (i,) + sym), anchor=anchor)
        inner, _ = natural_projection(sg, Word(3, sym), anchor=anchor)
        worst = max(worst, float(np.linalg.norm(lhs - sg.maps[i - 1](inner))))
    assert worst <= 1e-9
    report(2, "semiconjugacy", t0, 1.0)


def test_criterion_03_quadrature(sgm):
    t0 = time.time()
    assert integrate_qmc(sgm, lambda x: np.ones(len(x)), 10) == 1.0
    # stationarity fixed-point oracle for the barycenter
    ref = np.array([0.5, np.sqrt(3.0) / 6.0])
    centroid = fixed_point_centroid(sgm.ifs)
    qmc = integrate_qmc(sgm, lambda x: x, 10, anchor=centroid)
    assert np.abs(qmc - ref).max() <= 1e-6
    ests = np.array(
        [integrate_mc(sgm, lambda x: x, 10**5, tail=40, seed=s) for s in range(20)]
    )
    se = ests.std(axis=0, ddof=1) / np.sqrt(len(ests))
    assert np.all(np.abs(ests.mean(axis=0) - ref) <= 3.0 * se)
    report(3, "quadrature", t0, 10.0)


def test_criterion_04_transfer_isometry(sgm):
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(4))
    for _ in range(100):
        m = int(rng.integers(1, 7))
        field = PiecewiseConstantField(3, m, rng.normal(size=3**m))
        step = transfer_to_interval(field)
        k_side = float(pairwise_sum(sgm.weights(m) * np.abs(field.values[:, 0])))
        assert step.l1_norm() == k_side  # exact, not approximate
    # T 1_{K_w} = 1_{Q_w} cell-exactly
    m = 3
    mids = (np.arange(3**m) + 0.5) / 3**m
    for idx in (0, 7, 13, 26):
        vals = np.zeros(3**m)
        vals[idx] = 1.0
        step = transfer_to_interval(PiecewiseConstantField(3, m, vals))
        got = step(mids)
        assert got[idx] == 1.0 and got.sum() == 1.0
    report(4, "transfer isometry", t0, 1.0)


def test_criterion_05_projection_rate(sgm):
    t0 = time.time()
    phi = lambda x: np.exp(-np.abs(x[:, 0] - x[:, 1]))
    levels = np.arange(2, 9)
    errors = np.array(
        [projection_error(sgm, phi, m, 2.0, sublevel=3) for m in levels]
    )
    assert np.all(np.diff(errors) < 0), f"not strictly decreasing: {errors}"
    mls, omega = modulus_profile(sgm, phi, levels, 2.0, max_ell=11, sublevel=2)
    rep = lipschitz_norm_estimate(mls, omega, lam=0.5)
    fit = rate_fit(errors, 0.5, levels=levels, k=3, lip_norm=rep.lip_norm)
    assert 0.8 <= fit.fitted_alpha <= 1.15, f"alpha = {fit.fitted_alpha}"
    assert fit.below_bound, f"errors {errors} exceed bound {fit.bound}"
    report(5, "projection rate", t0, 60.0)


def test_criterion_06_continuum_limit_self_convergence(sgm):
    t0 = time.time()
    kern = builtin_kernels(2)["expdist"]
    levels, errors, _ = kuramoto_refinement_errors(
        sgm,
        kern,
        [2, 3, 4, 5],
        coupling_strength=1.0,
        T=1.0,
        dt=1e-3,
        seed=FIELD_SEED,
        sublevel=2,
        output_stride=10,
    )
    assert np.all(np.diff(errors) < 0), f"e_m not strictly decreasing: {errors}"
    ratios = errors[1:] / errors[:-1]
    assert np.median(ratios) <= 0.75, f"median ratio {np.median(ratios)}"
    # regression baseline: the benchmark's fitted decay exponent
    fit = rate_fit(errors, 0.5, levels=levels)
    assert 0.6 <= fit.fitted_alpha <= 1.2, f"alpha = {fit.fitted_alpha}"
    report(6, "continuum limit self-convergence", t0, 300.0)


def test_criterion_07_random_graph_convergence(sgm):
    t0 = time.time()
    kern = builtin_kernels(2)["expdist"]  # values in (0, 1], Lipschitz
    levels, medians, _ = bernoulli_gap_medians(
        sgm,
        kern,
        [2, 3, 4, 5],
        seeds=range(20),
        coupling_strength=0.5,
        T=1.0,
        dt=1e-3,
        field_seed=FIELD_SEED,
        sublevel=2,
        output_stride=10,
    )
    assert np.all(np.diff(medians) <= 0), f"medians not nonincreasing: {medians}"
    report(7, "random-graph convergence", t0, 600.0)


def test_criterion_08_mean_field_self_convergence(sgm):
    t0 = time.time()
    kern = builtin_kernels(2)["expdist"]
    table = vlasov_self_convergence(
        sgm,
        lambda level: kuramoto_model(1.0, 0.0),
        kern,
        uniform_phase_sampler,
        m=2,
        ells=(2, 3, 4),
        T=1.0,
        dt=1e-3,
        seeds=range(10),
        sublevel=2,
        output_stride=20,
    )
    worst = table.distances.max(axis=2)  # (seeds, pairs): sup over t in [0,1]
    medians = np.median(worst, axis=0)
    assert medians[1] < medians[0], f"distances not decreasing: {medians}"
    report(8, "mean-field self-convergence", t0, 600.0)


def test_criterion_07_gaps_hold_at_half_the_time_step(sgm):
    # sg level 4 with criterion 07's parameters and 5 graph seeds, recorded
    # every 0.01 as there: the per-seed gaps at dt = 1e-2 and 5e-3 differ by
    # 3.9e-10 relative, RK4's dt^4 error (15/16 of the 4.2e-10 to dt = 1e-3)
    kern = builtin_kernels(2)["expdist"]

    def gaps(dt, stride):
        return bernoulli_gap_medians(
            sgm, kern, [4], seeds=range(5), coupling_strength=0.5, T=1.0, dt=dt,
            field_seed=FIELD_SEED, sublevel=2, output_stride=stride)[2][0]

    np.testing.assert_allclose(gaps(1e-2, 1), gaps(5e-3, 2), rtol=2e-9, atol=0)


def test_criterion_08_distances_hold_at_half_the_time_step(sgm):
    # criterion 08's table for its ell pair (2, 3), recorded every 0.02 as
    # there: the per-seed sup distances at dt = 1e-2 and 5e-3 differ by
    # 2.4e-9 relative (2.6e-9 to dt = 1e-3)
    kern = builtin_kernels(2)["expdist"]

    def sups(dt, stride):
        table = vlasov_self_convergence(
            sgm, lambda level: kuramoto_model(1.0, 0.0), kern, uniform_phase_sampler, m=2,
            ells=(2, 3), T=1.0, dt=dt, seeds=range(10), sublevel=2, output_stride=stride)
        return table.distances.max(axis=2)[:, 0]

    np.testing.assert_allclose(sups(1e-2, 2), sups(5e-3, 4), rtol=1e-8, atol=0)


def test_criterion_09_exchangeability_reduction(sgm):
    t0 = time.time()
    model = kuramoto_model(1.0, 0.25)
    km = KernelMatrix(3, 2, np.full((9, 9), 0.7))
    coupling = assemble_deterministic(km, sgm)
    init = PiecewiseConstantField(3, 2, np.full(9, 0.1))
    traj = integrate_ips(model, coupling, init, T=10.0, dt=1e-2)
    spread = traj.values[:, :, 0].max(axis=1) - traj.values[:, :, 0].min(axis=1)
    assert spread.max() <= 1e-12, f"cells drifted apart: {spread.max()}"
    report(9, "exchangeability reduction", t0, 5.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    from fractalips.cli import main

    cfg = tmp_path / "det.ini"
    cfg.write_text(
        """
[ifs]
preset = sg
[levels]
levels = 2,3
sublevel = 2
[time]
T = 0.2
dt = 0.01
output_stride = 5
[graph]
kind = bernoulli
[seeds]
seeds = 3,4
"""
    )
    outs = []
    for run in ("run1", "run2"):
        outdir = tmp_path / run
        assert main(["simulate", "--config", str(cfg), "--output", str(outdir)]) == 0
        blob = {}
        for p in sorted(outdir.iterdir()):
            if p.name == "manifest.json":
                man = json.loads(p.read_text())
                man.pop("wall_time_s")
                blob[p.name] = json.dumps(man, sort_keys=True)
            else:
                blob[p.name] = p.read_bytes()
        outs.append(blob)
    assert outs[0] == outs[1], "rerun with identical config+seeds differed"
    report(10, "determinism", t0, None)
