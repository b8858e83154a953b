"""The interleaving product: algebraic laws and class decompositions."""

from math import factorial

import pytest

from heckezero.compositions import enumerate_maximal
from heckezero.cyclic_shift import approx_class, label_max_classes
from heckezero.compositions import hook_kind, split_even_odd
from heckezero.inductive_product import iprod, iprod_length_law
from heckezero.permutations import (
    all_perms, conj_w0, cycle_type, from_cycles, identity, length, orbits,
)
from heckezero.stair_classes import (
    cycle_class, has_connected_intervals, is_oscillating, sigma_class,
    stair_form,
)

from oracles import orbit_partition_histogram


def perm(*cycs, n):
    return from_cycles(n, cycs)


def full_cycles(n):
    return [p for p in all_perms(n) if cycle_type(p) == (n,)]


def phi1(n1, n2, i):
    """Where the product on S_{n1} x S_{n2} puts point i of the first factor."""
    k = (n1 + 1) // 2
    return i if i <= k else i + n2


def phi2(n1, i):
    """Where the product puts point i of the second factor."""
    return i + (n1 + 1) // 2


def moved(p):
    return {i for i, v in enumerate(p, 1) if v != i}


class TestIprod:
    def test_empty_identity(self):
        sigma = perm((1, 3, 2), n=3)
        assert iprod((), sigma) == sigma
        assert iprod(sigma, ()) == sigma

    def test_even_first_example(self):
        got = iprod(stair_form((6,)), stair_form((3, 1)))
        assert got == perm((1, 10, 2, 9, 3, 8), (4, 7, 5), n=10)

    def test_odd_first_example(self):
        got = iprod(stair_form((5,)), conj_w0(stair_form((3, 1))))
        assert got == perm((1, 9, 2, 8, 3), (7, 4, 6), n=9)
        assert got == stair_form((5, 3, 1))

    def test_frame_blocks(self):
        assert [phi1(6, 4, i) for i in range(1, 7)] == [1, 2, 3, 8, 9, 10]
        assert [phi2(6, i) for i in range(1, 5)] == [4, 5, 6, 7]
        assert moved(iprod(stair_form((6,)), identity(4))) == {1, 2, 3, 8, 9, 10}
        assert moved(iprod(identity(6), stair_form((4,)))) == {4, 5, 6, 7}

    @pytest.mark.parametrize("split", [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)])
    def test_two_domain_law(self, split):
        n1, n2 = split
        for s1 in all_perms(n1):
            for s2 in all_perms(n2):
                p = iprod(s1, s2)
                for i in range(1, n1 + 1):
                    assert p[phi1(n1, n2, i) - 1] == phi1(n1, n2, s1[i - 1])
                for i in range(1, n2 + 1):
                    assert p[phi2(n1, i) - 1] == phi2(n1, s2[i - 1])


class TestIprodFactor:
    """The product is injective, with image the permutations that stabilize
    both blocks."""

    def test_identity(self):
        assert iprod(identity(2), identity(3)) == identity(5)

    def test_factor_recovers_stair_parts(self):
        p = stair_form((6, 3, 1))
        factors = [(a, b) for a in all_perms(6) for b in all_perms(4)
                   if iprod(a, b) == p]
        assert factors == [(stair_form((6,)), stair_form((3, 1)))]

    def test_unstable_block_returns_none(self):
        p = perm((1, 5, 2, 6, 3, 4), n=6)
        assert p not in {iprod(a, b) for a in all_perms(2) for b in all_perms(4)}

    @pytest.mark.parametrize("n", range(7))
    def test_image_law_and_roundtrip(self, n):
        for n1 in range(n + 1):
            n2 = n - n1
            b1 = {phi1(n1, n2, i) for i in range(1, n1 + 1)}
            products = {iprod(s1, s2)
                        for s1 in all_perms(n1) for s2 in all_perms(n2)}
            assert len(products) == factorial(n1) * factorial(n2)
            for p in all_perms(n):
                stable = all(p[i - 1] in b1 for i in b1)
                assert (p in products) == stable

    @pytest.mark.parametrize("n", range(7))
    def test_orbit_law(self, n):
        for n1 in range(n + 1):
            n2 = n - n1
            for s1 in all_perms(n1):
                for s2 in all_perms(n2):
                    expected = frozenset(
                        frozenset(phi1(n1, n2, i) for i in block)
                        for block in orbits(s1)
                    ) | frozenset(
                        frozenset(phi2(n1, i) for i in block)
                        for block in orbits(s2)
                    )
                    assert orbits(iprod(s1, s2)) == expected


class TestLengthLaw:
    def test_transposition_times_point(self):
        assert iprod_length_law((2, 1), identity(1)) == 3
        assert length(iprod((2, 1), identity(1))) == 3

    def test_oscillating_left_factor_coefficients(self):
        s1 = stair_form((4,))
        # oscillating 4-cycle: p = q = 2, so the cross term is 4 * n2
        assert iprod_length_law(s1, identity(3)) == length(s1) + 12

    def test_rejects_non_cycle(self):
        with pytest.raises(ValueError):
            iprod_length_law(identity(3), identity(2))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_direct_length_exhaustive(self, n):
        for n1 in range(1, n + 1):
            n2 = n - n1
            for s1 in full_cycles(n1):
                for s2 in all_perms(n2):
                    assert iprod_length_law(s1, s2) == length(iprod(s1, s2))


class TestOscTransport:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_product_oscillating_iff_factors_are(self, n):
        for n1 in range(1, n):
            n2 = n - n1
            for s1 in all_perms(n1):
                for s2 in all_perms(n2):
                    p = iprod(s1, s2)
                    assert is_oscillating(p) == (
                        is_oscillating(s1) and is_oscillating(s2))
                    assert has_connected_intervals(p) == (
                        has_connected_intervals(s1)
                        and has_connected_intervals(s2))


class TestStairFactorization:
    """The stair form of alpha is the product of the full cycle of its
    first part with the stair form of the remaining parts, conjugated by the
    longest element when the first part is odd."""

    def test_even_head(self):
        assert iprod(stair_form((6,)), stair_form((3,))) == stair_form((6, 3))

    def test_odd_head_conjugates_tail(self):
        tail = conj_w0(stair_form((3,)))
        assert iprod(stair_form((5,)), tail) == stair_form((5, 3))

    def test_single_part(self):
        assert iprod(stair_form((4,)), ()) == stair_form((4,))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_reproduces_stair_form(self, n):
        for alpha in enumerate_maximal(n):
            rest = stair_form(alpha[1:])
            tail = rest if alpha[0] % 2 == 0 else conj_w0(rest)
            assert iprod(stair_form(alpha[:1]), tail) == stair_form(alpha)


class TestClassProduct:
    def test_sigma_2(self):
        assert sigma_class((2,)).elements == {(2, 1)}

    def test_24311_size(self):
        assert sigma_class((2, 4, 3, 1, 1)).size == 12

    def test_example_element(self):
        inner = iprod(perm((1, 3, 2, 4), n=4), perm((1, 3, 5), n=5))
        got = iprod((2, 1), inner)
        assert got == perm((1, 11), (2, 9, 3, 10), (4, 6, 8), n=11)
        assert got in sigma_class((2, 4, 3, 1, 1)).elements

    @pytest.mark.parametrize("n", range(2, 8))
    def test_even_first_decomposition_vs_brute_force(self, n):
        labelled = label_max_classes(n)
        for alpha in enumerate_maximal(n):
            if len(alpha) < 2 or alpha[0] % 2 == 1:
                continue
            tail = label_max_classes(n - alpha[0])[alpha[1:]].elements
            product = {iprod(a, b) for a in cycle_class(alpha[0]) for b in tail}
            assert product == labelled[alpha].elements, alpha


def sigma_star(alpha):
    """The members of the class of `alpha` whose orbit partition equals
    that of the stair form."""
    base = orbits(stair_form(alpha))
    return {w for w in sigma_class(alpha).elements if orbits(w) == base}


class TestSigmaStar:
    def test_single_part_is_whole_class(self):
        assert sigma_star((5,)) == cycle_class(5)

    def test_33_first_row(self):
        got = sigma_star((3, 3))
        expected = {
            perm((1, 6, 2), (3, 4, 5), n=6), perm((1, 2, 6), (3, 4, 5), n=6),
            perm((1, 6, 2), (3, 5, 4), n=6), perm((1, 2, 6), (3, 5, 4), n=6)}
        assert got == expected

    def test_odd_first_part_product_identity_33(self):
        # the orbit-matched stratum factors through the product
        star = sigma_star((3, 3))
        left = sigma_star((3,))
        right = {conj_w0(w) for w in sigma_star((3,))}
        assembled = {iprod(a, b) for a in left for b in right}
        assert assembled == star


class TestOrbitHistogram:
    def test_33_multiplicities(self):
        hist = orbit_partition_histogram(sigma_class((3, 3)).elements)
        assert sorted(hist.values(), reverse=True) == [4, 4, 4, 4, 4, 2]
        assert sum(hist.values()) == 22


class TestGenerateHookish:
    def test_all_ones(self):
        assert sigma_class((1, 1, 1)).elements == {identity(3)}

    def test_24311_matches_brute_force(self):
        got = sigma_class((2, 4, 3, 1, 1))
        assert got.size == 12
        assert got.elements == approx_class(stair_form((2, 4, 3, 1, 1)))

    def test_large_count(self):
        assert sigma_class((2, 8, 4, 5, 1, 1, 1)).size == 864

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_brute_force_when_applicable(self, n):
        labelled = label_max_classes(n)
        for alpha in enumerate_maximal(n):
            _, odds, _ = split_even_odd(alpha)
            if odds and hook_kind(odds) == "not_hook":
                continue
            got = sigma_class(alpha)
            assert got.elements == labelled[alpha].elements, alpha
