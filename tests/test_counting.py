"""Closed counting formulas against enumeration."""

import pytest

from heckezero.compositions import enumerate_maximal, hook_kind
from heckezero.counting import dim_center, size_sigma_formula
from heckezero.cyclic_shift import equiv_classes, label_max_classes
from heckezero.stair_classes import cycle_class, odd_hook_embed, sigma_class


class TestSizeSigmaN:
    """The closed count on one-part labels (n,): 1 for n <= 2, else
    2 * 3^((n-3)/2)."""

    def test_small_values(self):
        assert size_sigma_formula((1,)) == 1
        assert size_sigma_formula((2,)) == 1
        assert size_sigma_formula((5,)) == 6
        assert size_sigma_formula((6,)) == 6
        assert size_sigma_formula((9,)) == 54

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            size_sigma_formula((0,))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_generated_class(self, n):
        assert size_sigma_formula((n,)) == len(cycle_class(n))


class TestSizeSigmaOddHook:
    """The closed count on odd hooks (k, 1^(n-k)): 1 for k = 1, else
    2 * (n - k + 1) * 3^((k-3)/2)."""

    def test_all_ones(self):
        assert size_sigma_formula((1, 1, 1, 1)) == 1

    def test_311(self):
        assert size_sigma_formula((3, 1, 1)) == 6

    def test_5111(self):
        assert size_sigma_formula((5, 1, 1, 1)) == 24

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_embedding_image(self, n):
        for alpha in enumerate_maximal(n):
            if hook_kind(alpha) != "odd_hook":
                continue
            k = alpha[0]
            if k == 1:
                assert size_sigma_formula(alpha) == 1
                continue
            m = (k - 1) // 2
            image = {
                odd_hook_embed(tau, j, alpha)
                for tau in cycle_class(k) for j in range(m + 1, n - m + 1)
            }
            assert size_sigma_formula(alpha) == len(image)


class TestSizeSigmaFormula:
    def test_known_values(self):
        assert size_sigma_formula((2, 4, 3, 1, 1)) == 12
        assert size_sigma_formula((2, 8, 4, 5, 1, 1, 1)) == 864

    def test_all_ones(self):
        assert size_sigma_formula((1, 1, 1, 1)) == 1

    def test_non_hook_odds_have_no_closed_count(self):
        assert size_sigma_formula((3, 3)) is None
        assert size_sigma_formula((5, 3, 1)) is None
        assert size_sigma_formula((2, 3, 3)) is None
        with pytest.raises(ValueError):
            size_sigma_formula((3, 2))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_constructive_assembly(self, n):
        skipped = []
        for alpha in enumerate_maximal(n):
            value = size_sigma_formula(alpha)
            if value is None:
                skipped.append(alpha)
                continue
            assert value == sigma_class(alpha).size, alpha
        assert skipped == _non_hook_odds(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_brute_force(self, n):
        labelled = label_max_classes(n)
        skipped = []
        for alpha in enumerate_maximal(n):
            value = size_sigma_formula(alpha)
            if value is None:
                skipped.append(alpha)
                continue
            assert value == labelled[alpha].size, alpha
        assert skipped == _non_hook_odds(n)


def _non_hook_odds(n):
    """The maximal compositions of n whose odd parts are not a hook: a part
    after the first odd one is not 1."""
    out = []
    for alpha in enumerate_maximal(n):
        odds = [a for a in alpha if a % 2 == 1]
        if any(a != 1 for a in odds[1:]):
            out.append(alpha)
    return out


class TestDimCenter:
    def test_small_values(self):
        assert dim_center(0) == 1
        assert dim_center(3) == 3
        assert dim_center(6) == 12

    def test_sequence(self):
        assert [dim_center(n) for n in range(9)] == [
            1, 1, 2, 3, 5, 7, 12, 16, 26]

    def test_large_degrees(self):
        assert dim_center(36) == 524552
        assert dim_center(40) == 2098849

    @pytest.mark.parametrize("n", range(8))
    def test_matches_brute_force_class_count(self, n):
        assert dim_center(n) == len(equiv_classes(n, "id", "max"))
