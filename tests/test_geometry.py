import numpy as np
import pytest

from fractalips import (
    IFS,
    Similitude,
    Word,
    attractor_points,
    canonical_interval_ifs,
    compose,
    fixed_point,
    natural_projection,
    preset,
    similarity_dimension,
    translation_vector,
)
from fractalips.geometry import cylinder_diameter_bound, has_common_linear_part


class TestSimilitude:
    def test_rejects_ratio_outside_unit_interval(self):
        with pytest.raises(ValueError):
            Similitude.homothety(1.0, np.zeros(2))

    def test_rejects_non_similitude_matrix(self):
        with pytest.raises(ValueError):
            Similitude(0.5, np.array([[0.5, 0.2], [0.0, 0.5]]), np.zeros(2))

    def test_rejects_ratio_off_the_operator_norm(self):
        # 2e-6 off in ratio^2, far above the absolute 1e-10 allowed
        with pytest.raises(ValueError):
            Similitude(0.500001, 0.5 * np.eye(2), np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_parts(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            Similitude.homothety(0.5, np.array([bad, 0.0]))
        with pytest.raises(ValueError, match="must be finite"):
            Similitude(0.5, np.array([[0.5, 0.0], [0.0, bad]]), np.zeros(2))

    def test_rotation_matrix_is_similitude(self):
        s = Similitude.rotation_2d(0.7, 0.3, np.array([1.0, 2.0]))
        assert s.ratio == pytest.approx(0.7)
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.linalg.norm(s(x) - s(y)) == pytest.approx(
            0.7 * np.linalg.norm(x - y)
        )


class TestIFS:
    def test_rejects_single_map(self):
        with pytest.raises(ValueError):
            IFS((Similitude.homothety(0.5, np.zeros(1)),))

    def test_rejects_identical_fixed_points(self):
        m = Similitude.homothety(0.5, np.zeros(2))
        m2 = Similitude.rotation_2d(0.3, 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            IFS((m, m2))  # both fixed at the origin


class TestCompose:
    def test_empty_word_is_identity(self, sg):
        f = compose(sg, Word(3, ()))
        x = np.array([0.3, 0.4])
        np.testing.assert_array_equal(f(x), x)

    def test_single_map_halves_toward_vertex(self, sg):
        f = compose(sg, Word(3, (1,)))
        x = np.array([0.3, 0.4])
        np.testing.assert_allclose(f(x), x / 2.0, rtol=1e-15)

    def test_two_letter_word_coefficients(self, sg):
        # f_3 o f_1: x -> x/4 + (1/2, 0), matched coefficient by coefficient
        f = compose(sg, Word(3, (3, 1)))
        np.testing.assert_allclose(f.matrix, np.eye(2) / 4.0, atol=1e-15)
        np.testing.assert_allclose(f.translation, [0.5, 0.0], atol=1e-15)

    def test_concatenation_is_composition(self, sg):
        rng = np.random.Generator(np.random.Philox(42))
        for _ in range(20):
            wsym = tuple(rng.integers(1, 4, size=5))
            vsym = tuple(rng.integers(1, 4, size=4))
            fw = compose(sg, Word(3, wsym))
            fv = compose(sg, Word(3, vsym))
            fwv = compose(sg, Word(3, wsym + vsym))
            np.testing.assert_allclose(
                fwv.matrix, fw.after(fv).matrix, atol=1e-12
            )
            np.testing.assert_allclose(
                fwv.translation, fw.after(fv).translation, atol=1e-12
            )


class TestFixedPoint:
    def test_sg_corner_maps(self, sg, sg_vertices):
        for m, v in zip(sg.maps, sg_vertices):
            np.testing.assert_allclose(fixed_point(m), v, atol=1e-14)

    def test_interval_middle_map(self):
        g = canonical_interval_ifs(3).maps[1]
        assert fixed_point(g)[0] == pytest.approx(0.5)

    def test_residual_bound(self, sg):
        for m in sg.maps:
            x = fixed_point(m)
            assert np.linalg.norm(m(x) - x) <= 1e-12 * (1 + np.linalg.norm(x))


class TestNaturalProjection:
    def test_constant_word_converges_to_fixed_point(self, sg):
        pt, bound = natural_projection(sg, Word(3, (1,) * 40), anchor=[1.0, 0.0])
        assert np.linalg.norm(pt) <= bound
        assert bound <= 2.0**-40 * sg.diameter_bound + 1e-30

    def test_eventually_constant_word(self, sg):
        # (3, 1, 1, ...) -> f_3(v_1) = (1/2, 0); oracle: evaluate the map
        w = Word(3, (3,) + (1,) * 39)
        pt, bound = natural_projection(sg, w, anchor=[0.7, 0.2])
        np.testing.assert_allclose(pt, [0.5, 0.0], atol=bound + 1e-12)

    def test_interval_midpoint(self):
        ifs = canonical_interval_ifs(3)
        pt, _ = natural_projection(ifs, Word(3, (2,) * 40))
        assert pt[0] == pytest.approx(0.5, abs=1e-12)

    def test_semiconjugacy_on_random_words(self, sg):
        # pi(i . w) = f_i(pi(w)) for 1000 random depth-40 words
        rng = np.random.Generator(np.random.Philox(7))
        anchor = np.array([0.0, 0.0])
        for _ in range(1000):
            sym = tuple(rng.integers(1, 4, size=40))
            i = int(rng.integers(1, 4))
            lhs, _ = natural_projection(sg, Word(3, (i,) + sym), anchor=anchor)
            inner, _ = natural_projection(sg, Word(3, sym), anchor=anchor)
            rhs = sg.maps[i - 1](inner)
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_anchor_independence(self, sg):
        w = Word(3, (2, 3, 1, 1, 2, 3, 3, 1))
        p1, b1 = natural_projection(sg, w, anchor=[0.0, 0.0])
        p2, b2 = natural_projection(sg, w, anchor=[1.0, 0.0])
        assert np.linalg.norm(p1 - p2) <= b1 + b2


class TestCanonicalIntervalIFS:
    def test_k2_maps(self):
        ifs = canonical_interval_ifs(2)
        x = np.array([0.5])
        assert ifs.maps[0](x)[0] == pytest.approx(0.25)
        assert ifs.maps[1](x)[0] == pytest.approx(0.75)

    def test_k3_translations(self):
        ifs = canonical_interval_ifs(3)
        np.testing.assert_allclose(
            [m.translation[0] for m in ifs.maps], [0.0, 1.0 / 3.0, 2.0 / 3.0]
        )

    def test_images_cover_unit_interval(self):
        ifs = canonical_interval_ifs(4)
        ends = []
        for m in ifs.maps:
            ends.append((m(np.array([0.0]))[0], m(np.array([1.0]))[0]))
        ends.sort()
        assert ends[0][0] == 0.0 and ends[-1][1] == 1.0
        for (a0, a1), (b0, b1) in zip(ends, ends[1:]):
            assert a1 == pytest.approx(b0)


class TestTranslationVector:
    def test_sg_pair_13(self, sg, sg_vertices):
        # oracle: difference of the two maps' translation components
        tau = translation_vector(sg, 1, 3)
        np.testing.assert_allclose(tau, (sg_vertices[2] - sg_vertices[0]) / 2.0)
        np.testing.assert_allclose(tau, [0.5, 0.0])

    def test_sg_pair_12(self, sg, sg_vertices):
        tau = translation_vector(sg, 1, 2)
        np.testing.assert_allclose(tau, (sg_vertices[1] - sg_vertices[0]) / 2.0)
        np.testing.assert_allclose(tau, [0.25, np.sqrt(3.0) / 4.0])

    def test_antisymmetry(self, sg):
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    np.testing.assert_allclose(
                        translation_vector(sg, i, j),
                        -translation_vector(sg, j, i),
                    )

    def test_rejects_mixed_linear_parts(self):
        maps = (
            Similitude.homothety(0.5, np.zeros(2)),
            Similitude.rotation_2d(0.5, 0.7, np.array([1.0, 0.0])),
        )
        ifs = IFS(maps)
        assert not has_common_linear_part(ifs)
        with pytest.raises(ValueError):
            translation_vector(ifs, 1, 2)

    def test_near_equal_ratios_share_no_linear_part(self):
        # linear parts 2e-6 apart: far above the absolute tolerance 1e-12
        ifs = IFS((Similitude.homothety(0.5, [0.0]),
                   Similitude.homothety(0.500002, [0.5])))
        assert not has_common_linear_part(ifs)

    def test_cell_translate_identity_on_samples(self, sg):
        # z in K_i implies z + tau_ij lands on the matching sample of K_j
        pts = attractor_points(sg, 6, anchor=[0.0, 0.0])
        n = len(pts) // 3
        for i, j in [(1, 2), (2, 3), (3, 1)]:
            tau = translation_vector(sg, i, j)
            moved = pts[(i - 1) * n : i * n] + tau
            target = pts[(j - 1) * n : j * n]
            assert np.abs(moved - target).max() <= 1e-9


class TestAttractorPoints:
    def test_sg_level_one_from_origin(self, sg, sg_vertices):
        # oracle: evaluate each map at (0,0): f_i(0) = v_i / 2
        pts = attractor_points(sg, 1, anchor=[0.0, 0.0])
        expect = np.array([v / 2.0 for v in sg_vertices])
        np.testing.assert_allclose(pts, expect, atol=1e-15)

    def test_interval_level_two_left_endpoints(self):
        ifs = canonical_interval_ifs(2)
        pts = attractor_points(ifs, 2, anchor=[0.0])
        np.testing.assert_allclose(pts[:, 0], [0.0, 0.25, 0.5, 0.75])

    def test_point_count(self, sg):
        assert attractor_points(sg, 5).shape == (3**5, 2)

    def test_lex_order_matches_composed_maps(self, sg):
        anchor = np.array([0.2, 0.1])
        pts = attractor_points(sg, 3, anchor=anchor)
        from fractalips import enumerate_level

        for w in enumerate_level(3, 3):
            np.testing.assert_allclose(
                pts[w.index], compose(sg, w)(anchor), atol=1e-14
            )


class TestAttractorCell:
    def test_cell_carries_map_and_shrinking_bound(self, sg):
        prev = None
        for m in range(1, 6):
            w = Word(3, (2,) * m)
            np.testing.assert_allclose(compose(sg, w).matrix, np.eye(2) * 0.5**m)
            bound = cylinder_diameter_bound(sg, w)
            if prev is not None:
                assert bound == pytest.approx(prev / 2.0)
            prev = bound


class TestDiameterBound:
    def test_interval_bound_is_exact(self):
        ifs = canonical_interval_ifs(2)
        assert ifs.diameter_bound == pytest.approx(1.0)

    def test_sg_bound_dominates_true_diameter(self, sg):
        assert sg.diameter_bound >= 1.0

    def test_equal_ratio_cylinder_scaling(self, sg):
        d = sg.diameter_bound
        w = Word(3, (1, 2, 3, 1))
        assert cylinder_diameter_bound(sg, w) == pytest.approx(d * 0.5**4)


class TestPresets:
    def test_all_presets_construct(self):
        for name in ("sg", "cantor", "sg3", "pentagasket", "interval-5"):
            ifs = preset(name)
            assert ifs.k >= 2

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset("menger")

    def test_similarity_dimensions(self):
        assert similarity_dimension(preset("sg")) == pytest.approx(
            np.log(3) / np.log(2)
        )
        assert similarity_dimension(preset("cantor")) == pytest.approx(
            np.log(2) / np.log(3)
        )
        assert similarity_dimension(preset("interval-4")) == pytest.approx(1.0)

    UNEQUAL_RATIOS = [(0.5, 0.25), (0.5, 0.3, 0.2), (0.9, 0.05), (0.99, 0.005),
                      (0.01, 0.02), (0.7, 0.6, 0.1), (0.45, 0.2, 0.2, 0.1)]

    @staticmethod
    def _line_ifs(ratios):
        return IFS(tuple(Similitude.homothety(r, [float(i)])
                         for i, r in enumerate(ratios)))

    @pytest.mark.parametrize("ratios", UNEQUAL_RATIOS + [(0.5, 0.5, 0.5), (1 / 3,) * 2])
    def test_similarity_dimension_brackets_the_root_to_one_ulp(self, ratios):
        # sum r_i^s <= 1 at the returned s and > 1 at the float below it
        s = similarity_dimension(self._line_ifs(ratios))
        r = np.array(ratios)
        assert np.sum(r**s) <= 1.0 < np.sum(r ** np.nextafter(s, 0.0))

    @pytest.mark.parametrize("ratios", UNEQUAL_RATIOS)
    def test_similarity_dimension_matches_brentq(self, ratios):
        from scipy.optimize import brentq

        ref = brentq(lambda s: sum(r**s for r in ratios) - 1.0, 1e-12, 64.0,
                     xtol=1e-14)
        s = similarity_dimension(self._line_ifs(ratios))
        assert s == pytest.approx(ref, rel=1e-14, abs=0)

    def test_sg3_cells_tile_the_gasket_level(self):
        ifs = preset("sg3")
        assert ifs.k == 6
        assert all(m.ratio == pytest.approx(1 / 3) for m in ifs.maps)
