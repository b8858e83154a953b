"""Compositions, partitions, hooks and the maximal-composition enumeration."""

import pytest
from hypothesis import given, strategies as st

from heckezero.compositions import (
    enumerate_maximal, even_compositions, hook_kind, is_maximal,
    odd_partitions, sort_to_partition, split_even_odd,
)
from heckezero.counting import dim_center


class TestIsMaximal:
    def test_empty(self):
        assert is_maximal(())

    def test_even_prefix_examples(self):
        assert is_maximal((4, 6, 2, 3, 1, 1))
        assert not is_maximal((6, 4, 3, 2, 1, 1))

    def test_odd_tail_must_decrease(self):
        assert not is_maximal((1, 3))
        assert is_maximal((3, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            is_maximal((2, 0, 1))


class TestEnumerateMaximal:
    def test_n0(self):
        assert enumerate_maximal(0) == [()]

    def test_n3(self):
        assert set(enumerate_maximal(3)) == {(3,), (2, 1), (1, 1, 1)}
        assert len(enumerate_maximal(3)) == dim_center(3) == 3

    @pytest.mark.parametrize("n", range(23))
    def test_count_matches_dimension_formula(self, n):
        # the closed form for dim_center counts maximal compositions
        assert len(enumerate_maximal(n)) == dim_center(n)

    @pytest.mark.parametrize("n", range(10))
    def test_all_maximal_no_duplicates(self, n):
        out = enumerate_maximal(n)
        assert len(out) == len(set(out))
        for alpha in out:
            assert is_maximal(alpha)
            assert sum(alpha) == n

    def test_sorted_deterministically(self):
        out = enumerate_maximal(8)
        assert out == sorted(out)


class TestSortToPartition:
    def test_example(self):
        assert sort_to_partition((1, 4, 3)) == (4, 3, 1)

    def test_empty(self):
        assert sort_to_partition(()) == ()

    def test_partition_fixed_point(self):
        assert sort_to_partition((4, 3, 1)) == (4, 3, 1)


class TestSplitEvenOdd:
    def test_example(self):
        assert split_even_odd((2, 4, 3, 1, 1)) == ((2, 4), (3, 1, 1), 2)

    def test_all_odd(self):
        assert split_even_odd((1, 1, 1)) == ((), (1, 1, 1), 0)

    def test_all_even(self):
        assert split_even_odd((4,)) == ((4,), (), 1)

    def test_rejects_non_maximal(self):
        with pytest.raises(ValueError):
            split_even_odd((6, 4, 3, 2, 1, 1))

    @pytest.mark.parametrize("n", range(9))
    def test_roundtrip_and_tail_maximal(self, n):
        for alpha in enumerate_maximal(n):
            evens, odds, j = split_even_odd(alpha)
            assert evens + odds == alpha
            assert j == len(evens)
            assert all(a % 2 == 0 for a in evens)
            assert all(a % 2 == 1 for a in odds)
            assert is_maximal(odds)


class TestHookKind:
    def test_examples(self):
        assert hook_kind((3, 1, 1)) == "odd_hook"
        assert hook_kind((4, 1, 1)) == "even_hook"
        assert hook_kind((3, 3)) == "not_hook"

    def test_all_ones_is_odd_hook(self):
        assert hook_kind((1, 1, 1, 1)) == "odd_hook"

    def test_single_part(self):
        assert hook_kind((5,)) == "odd_hook"
        assert hook_kind((6,)) == "even_hook"

    def test_order_matters(self):
        assert hook_kind((1, 1, 3)) == "not_hook"


class TestGenerators:
    def test_partitions_of_5(self):
        # odd partitions come largest part first, in decreasing order
        assert list(odd_partitions(5)) == [(5,), (3, 1, 1), (1, 1, 1, 1, 1)]
        assert list(odd_partitions(7, 3)) == [
            (3, 3, 1), (3, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1)]

    def test_odd_partitions(self):
        assert set(odd_partitions(6)) == {(5, 1), (3, 3), (3, 1, 1, 1),
                                          (1, 1, 1, 1, 1, 1)}

    def test_even_compositions(self):
        assert set(even_compositions(6)) == {(6,), (2, 4), (4, 2), (2, 2, 2)}

    @pytest.mark.parametrize("n", range(9))
    def test_partition_parts_decrease(self, n):
        for lam in odd_partitions(n):
            assert all(a >= b for a, b in zip(lam, lam[1:]))
            assert all(a % 2 == 1 for a in lam)
            assert sum(lam) == n


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=7))
def test_split_agrees_with_is_maximal(parts):
    alpha = tuple(parts)
    if is_maximal(alpha):
        evens, odds, _ = split_even_odd(alpha)
        assert evens + odds == alpha
    else:
        with pytest.raises(ValueError):
            split_even_odd(alpha)
