from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalips import (
    BudgetExceededError,
    ProbabilityVector,
    Word,
    cylinder_measure,
    enumerate_level,
    level_weights,
)


class TestEnumerateLevel:
    def test_root_level_is_single_empty_word(self):
        words = enumerate_level(3, 0)
        assert words == [Word(3, ())]

    def test_level_two_binary_words_in_lex_order(self):
        words = enumerate_level(2, 2)
        assert [w.symbols for w in words] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_level_count_is_k_to_the_m(self):
        # k=3, m=8 -> 6561 words
        assert len(enumerate_level(3, 8)) == 3**8

    def test_cap_rejects_oversized_levels(self):
        with pytest.raises(BudgetExceededError):
            enumerate_level(3, 16)

    def test_index_roundtrip_is_bijective(self):
        words = enumerate_level(3, 4)
        for i, w in enumerate(words):
            assert w.index == i
            assert Word.from_index(3, 4, i) == w


class TestWord:
    def test_symbols_validated_against_alphabet(self):
        with pytest.raises(ValueError):
            Word(3, (1, 4))
        with pytest.raises(ValueError):
            Word(3, (0,))


class TestProbabilityVector:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            ProbabilityVector((0.5, 0.5, 0.0))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            ProbabilityVector((0.5, 0.6))

    def test_uniform_exact_uses_fractions(self):
        p = ProbabilityVector.uniform(3, exact=True)
        assert p.weights == (Fraction(1, 3),) * 3
        assert p.is_uniform


class TestCylinderMeasure:
    def test_uniform_product(self):
        p = ProbabilityVector.uniform(3)
        assert cylinder_measure(p, Word(3, (1, 2))) == pytest.approx(1 / 9)

    def test_empty_word_has_total_mass(self):
        p = ProbabilityVector((0.2, 0.8))
        assert cylinder_measure(p, Word(2, ())) == 1

    def test_nonuniform_product(self):
        p = ProbabilityVector((0.5, 0.25, 0.25))
        assert cylinder_measure(p, Word(3, (2, 3, 1))) == pytest.approx(1 / 32)

    def test_exact_rational_product(self):
        p = ProbabilityVector.uniform(3, exact=True)
        w = Word(3, (1, 3, 2, 2))
        assert cylinder_measure(p, w) == Fraction(1, 81)

    @settings(max_examples=50)
    @given(m=st.integers(0, 10))
    def test_level_mass_sums_to_one(self, m):
        p = ProbabilityVector((0.5, 0.25, 0.25))
        total = level_weights(p, m).sum()
        assert abs(total - 1.0) <= 1e-12

    def test_level_mass_exact_in_rational_arithmetic(self):
        p = ProbabilityVector((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        for m in range(0, 7):
            total = sum(
                cylinder_measure(p, w) for w in enumerate_level(3, m)
            )
            assert total == 1

    def test_shift_invariance_of_cylinder_mass(self):
        # mu(sigma^{-1}[w]) = mu([w]): summing over the prepended symbol
        p = ProbabilityVector((0.5, 0.3, 0.2))
        w = Word(3, (2, 1, 3))
        lifted = sum(
            cylinder_measure(p, Word(3, (s,) + w.symbols)) for s in (1, 2, 3)
        )
        assert lifted == pytest.approx(cylinder_measure(p, w), rel=1e-14)


class TestLevelWeights:
    def test_lex_order_matches_per_word_products(self):
        p = ProbabilityVector((0.6, 0.4))
        weights = level_weights(p, 3)
        words = enumerate_level(2, 3)
        expect = np.array([cylinder_measure(p, w) for w in words])
        np.testing.assert_allclose(weights, expect, rtol=1e-15)
