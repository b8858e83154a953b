"""Sparse 0-Hecke arithmetic and the central basis."""

import random
import re
import time

import pytest

from heckezero import hecke
from heckezero.compositions import enumerate_maximal
from heckezero.counting import dim_center
from heckezero.errors import DegreeLimitError
from heckezero.hecke import (
    HeckeElement, integer_matrix_rank, is_central, left_mul_gen, mul,
    order_ideal, reduced_word, right_mul_gen, t_basis, t_leq_sigma,
    verify_center_basis,
)
from heckezero.permutations import (
    EquivClass, all_perms, compose, conj_w0, from_cycles, identity, length,
    longest_element,
)
from heckezero.stair_classes import sigma_class, stair_form

import oracles


def perm(*cycs, n):
    return from_cycles(n, cycs)


def basis_elements(n):
    return [t_basis(n, w) for w in all_perms(n)]


def masks_by_rank(seeds):
    """The rank array of `seeds` decoded into a dict from each permutation
    with a nonzero mask to its mask, in lexicographic order."""
    n = max((len(w) for seed in seeds for w in seed), default=0)
    ids, table = hecke._ideal_masks(seeds, by_rank=True)
    return {w: table[j] for w, j in zip(all_perms(n), ids) if j}


class TestGeneratorAction:
    def test_raises_identity(self):
        assert left_mul_gen(1, t_basis(3, identity(3))) == t_basis(3, (2, 1, 3))

    def test_square_is_negation(self):
        x = t_basis(3, (2, 1, 3))
        assert left_mul_gen(1, x) == HeckeElement(3, {(2, 1, 3): -1})

    def test_braid_relation_on_all_basis_vectors(self):
        for n in range(2, 6):
            for x in basis_elements(n):
                for i in range(1, n - 1):
                    lhs = left_mul_gen(i, left_mul_gen(i + 1, left_mul_gen(i, x)))
                    rhs = left_mul_gen(i + 1, left_mul_gen(i, left_mul_gen(i + 1, x)))
                    assert lhs == rhs

    def test_commuting_relation_on_all_basis_vectors(self):
        for n in range(4, 6):
            for x in basis_elements(n):
                for i in range(1, n):
                    for j in range(i + 2, n):
                        assert left_mul_gen(i, left_mul_gen(j, x)) == \
                            left_mul_gen(j, left_mul_gen(i, x))

    def test_square_relation_on_all_basis_vectors(self):
        for n in range(2, 6):
            for x in basis_elements(n):
                for i in range(1, n):
                    once = left_mul_gen(i, x)
                    twice = left_mul_gen(i, once)
                    neg = HeckeElement(n, {w: -c for w, c in once.terms.items()})
                    assert twice == neg

    @pytest.mark.parametrize("n", range(1, 7))
    def test_climb_rule_against_oracle(self, n):
        for w in all_perms(n):
            for i in range(1, n):
                sw = oracles.apply_gen_left(i, w)
                if oracles.inv_count(sw) > oracles.inv_count(w):
                    expected = {sw: 1}
                else:
                    expected = {w: -1}
                assert dict(left_mul_gen(i, t_basis(n, w)).terms) == expected

    def test_generator_action_computes_no_length(self):
        # hecke binds no `length`, so neither action can compute one
        assert not hasattr(hecke, "length")
        x = t_leq_sigma((4,), 4)
        basis = basis_elements(4)
        assert is_central(x)
        for a in basis[::5]:
            for b in basis:
                mul(a, b)

    def test_right_action_mirrors_left_through_inverse(self):
        for n in range(2, 5):
            for w in all_perms(n):
                x = t_basis(n, w)
                for i in range(1, n):
                    ws = compose(w, (  # w * s_i by position swap
                        tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, n + 1))))
                    if length(ws) > length(w):
                        assert right_mul_gen(i, x) == t_basis(n, ws)
                    else:
                        assert right_mul_gen(i, x) == HeckeElement(n, {w: -1})


class TestTBasis:
    def test_rejects_a_tuple_that_is_not_a_permutation(self):
        with pytest.raises(ValueError, match=re.escape("(1, 1, 1)")):
            t_basis(3, (1, 1, 1))


class TestReducedWord:
    def test_identity(self):
        assert reduced_word(identity(4)) == ()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_word_recomposes_and_is_reduced(self, n):
        for w in all_perms(n):
            word = reduced_word(w)
            assert len(word) == length(w)
            prod = identity(n)
            for i in word:
                s = tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, n + 1))
                prod = compose(prod, s)
            assert prod == w


class TestMul:
    def test_one_is_neutral(self):
        x = HeckeElement(3, {(2, 1, 3): 2, (1, 3, 2): -5})
        assert mul(t_basis(3, identity(3)), x) == x
        assert mul(x, t_basis(3, identity(3))) == x

    def test_lengths_add_case(self):
        s1, s2 = (2, 1, 3), (1, 3, 2)
        assert mul(t_basis(3, s1), t_basis(3, s2)) == t_basis(3, compose(s1, s2))

    def test_matches_generator_chain(self):
        for w in all_perms(4):
            x = t_basis(4, w)
            for v in all_perms(4):
                direct = mul(x, t_basis(4, v))
                y = t_basis(4, v)
                for i in reversed(reduced_word(w)):
                    y = left_mul_gen(i, y)
                assert direct == y

    def test_associativity_spot_checks(self):
        import random
        rng = random.Random(7)
        perms = list(all_perms(4))
        for _ in range(25):
            a = t_basis(4, rng.choice(perms))
            b = t_basis(4, rng.choice(perms))
            c = t_basis(4, rng.choice(perms))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            mul(t_basis(3, identity(3)), t_basis(4, identity(4)))


class TestOrderIdeal:
    def test_identity_alone(self):
        assert order_ideal([identity(3)]) == {identity(3)}

    def test_w0_generates_everything(self):
        assert order_ideal([perm((1, 3), n=3)]) == set(all_perms(3))

    def test_three_cycle_class_ideal(self):
        got = order_ideal({perm((1, 2, 3), n=3), perm((1, 3, 2), n=3)})
        assert got == set(all_perms(3)) - {perm((1, 3), n=3)}

    def test_empty_input(self):
        assert order_ideal([]) == frozenset()

    @pytest.mark.parametrize("seed", [(2, 3, 4), (1, 1, 2), (0, 1, 2)])
    def test_rejects_a_seed_that_is_not_a_permutation(self, seed):
        # values past n, a repeated value and 0 once gave a wrong ideal, the
        # empty set or a shift error
        with pytest.raises(ValueError,
                           match=re.escape(f"not a permutation: {seed}")):
            order_ideal([(1, 2, 3), seed])

    def test_reads_a_one_shot_iterable_once(self):
        assert order_ideal(iter([(2, 3, 1)])) == {
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1)}

    def test_mixed_length_generators(self):
        gens = {(2, 3, 1, 4), (1, 2, 4, 3)}
        assert order_ideal(gens) == oracles.ideal_by_inversions(gens)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError, match="degrees 2 and 3"):
            order_ideal([(2, 1), (1, 3, 2)])
        with pytest.raises(ValueError, match="degrees 2 and 3"):
            hecke._ideal_masks([[(2, 1)], [(1, 3, 2)]])

    def test_degrees_zero_and_one(self):
        assert masks_by_rank([[()], [], [()]]) == {(): 0b101}
        assert masks_by_rank([[], [(1,)]]) == {(1,): 0b10}
        assert hecke._ideal_masks([[], [(1,)]]) == {(1,)}
        assert hecke._ideal_masks([[], []]) == set()
        assert order_ideal([()]) == {()}

    def test_empty_seed_group_sets_no_bit(self):
        seeds = [[], [(2, 1, 3)], [], [(1, 3, 2)], []]
        masks = masks_by_rank(seeds)
        assert masks == {(1, 2, 3): 0b1010, (1, 3, 2): 0b1000,
                         (2, 1, 3): 0b0010}
        assert hecke._ideal_masks(seeds) == set(masks)

    def test_small_ideal_at_high_degree(self):
        # the walk prunes every prefix no generator stays above
        w = (3, 2, 1) + tuple(range(4, 101))
        start = time.perf_counter()
        ideal = order_ideal([w], force=True)
        assert time.perf_counter() - start < 1.0
        assert ideal == {p + w[3:] for p in all_perms(3)}

    def test_degree_gate_comes_before_the_walk(self):
        # the ideal of w0 is all of S_9; the gate refuses it before the walk
        start = time.perf_counter()
        with pytest.raises(DegreeLimitError, match="force"):
            order_ideal([longest_element(9)])
        assert time.perf_counter() - start < 1.0
        s1 = (2, 1) + tuple(range(3, 10))
        assert order_ideal([s1], force=True) == {identity(9), s1}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_inversion_closure_every_label(self, n):
        # the one-sweep rank array holds every label's ideal as one bit, the
        # one-seed tuple walk gives the same set, and the basis terms read
        # off the rank array come in lexicographic order
        alphas = enumerate_maximal(n)
        masks = masks_by_rank([sigma_class(a).elements for a in alphas])
        assert list(masks) == sorted(masks)
        for r, alpha in enumerate(alphas):
            gens = sigma_class(alpha).elements
            expected = oracles.ideal_by_inversions(gens)
            one = hecke._ideal_masks([gens])
            assert one == {w for w, m in masks.items() if m >> r & 1}, alpha
            assert list(t_leq_sigma(alpha, n).terms) == sorted(expected), alpha
            assert order_ideal(gens) == expected, alpha
            assert {w for w, m in masks.items() if m >> r & 1} == expected, alpha

    @pytest.mark.parametrize("n", range(9))
    def test_rank_array_matches_the_tuple_walk(self, n):
        # the rank walk fills whole subtrees; entry r must be the mask of
        # the r-th permutation in lexicographic order all the same, label by
        # label the set of the one-seed tuple walk, and in all the set of
        # the tuple walk over every seed
        seeds = [sigma_class(a).elements for a in enumerate_maximal(n)]
        ids, table = hecke._ideal_masks(seeds, by_rank=True)
        perms = list(all_perms(n))
        for r, seed in enumerate(seeds):
            assert hecke._ideal_masks([seed]) == {
                w for w, j in zip(perms, ids) if table[j] >> r & 1}, r
        assert hecke._ideal_masks(seeds) == {
            w for w, j in zip(perms, ids) if j}
        assert table[0] == 0 and len(set(table)) == len(table)
        assert perms == sorted(perms)

    def test_rank_array_refuses_more_than_256_masks(self):
        # each permutation of S_6 alone has its own ideal, so the 720
        # singleton seeds give every permutation a distinct mask
        seeds = [[w] for w in all_perms(6)]
        assert len({order_ideal(seed) for seed in seeds}) == 720
        with pytest.raises(ValueError, match="256"):
            hecke._ideal_masks(seeds, by_rank=True)

    @pytest.mark.parametrize("n", range(8))
    def test_matches_a_leaf_by_leaf_reference_on_random_seed_families(self, n):
        # the reference visits every permutation in lex order and reads its
        # mask off the oracle's ideals, so the whole subtrees must come out
        # with the same keys, masks and order; seed sets with w0 are whole
        # from the first position, and some seed sets are empty
        w0 = tuple(range(n, 0, -1))
        rng = random.Random(200 + n)
        perms = list(all_perms(n))
        families = [[[w0]], [[], [w0], []], [[identity(n)], [w0]]]
        families += [[rng.sample(perms, rng.randint(0, min(3, len(perms))))
                      for _ in range(rng.randint(1, 6))] for _ in range(8)]
        for seeds in families:
            ideals = [oracles.ideal_by_inversions(seed) for seed in seeds]
            reference = {}
            for w in perms:
                mask = sum(1 << r for r, ideal in enumerate(ideals) if w in ideal)
                if mask:
                    reference[w] = mask
            assert list(masks_by_rank(seeds).items()) == list(
                reference.items()), seeds
            assert hecke._ideal_masks(seeds) == set(reference), seeds

    def test_ideal_sizes_at_n8(self):
        # sizes recorded from the level-by-level cover walk that built the
        # ideals before the prefix walk (commit d5f4091), one sweep over S_8
        expected = {
            (1, 1, 1, 1, 1, 1, 1, 1): 1, (2, 1, 1, 1, 1, 1, 1): 2704,
            (2, 2, 1, 1, 1, 1): 25668, (2, 2, 2, 1, 1): 39744,
            (2, 2, 2, 2): 40320, (2, 2, 3, 1): 39708, (2, 2, 4): 40248,
            (2, 3, 1, 1, 1): 25664, (2, 3, 3): 37920, (2, 4, 1, 1): 39664,
            (2, 4, 2): 40224, (2, 5, 1): 39632, (2, 6): 40160,
            (3, 1, 1, 1, 1, 1): 2703, (3, 3, 1, 1): 24041,
            (4, 1, 1, 1, 1): 25436, (4, 2, 1, 1): 39060, (4, 2, 2): 39600,
            (4, 3, 1): 39028, (4, 4): 39536, (5, 1, 1, 1): 25433,
            (5, 3): 37375, (6, 1, 1): 39000, (6, 2): 39528, (7, 1): 38971,
            (8,): 39470,
        }
        alphas = enumerate_maximal(8)
        assert set(alphas) == set(expected)
        masks = masks_by_rank([sigma_class(a).elements for a in alphas])
        assert list(masks) == sorted(masks)
        sizes = {a: sum(m >> r & 1 for m in masks.values())
                 for r, a in enumerate(alphas)}
        assert sizes == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_bruhat_filter_and_is_downward_closed(self, n):
        below = {w: {x for x in all_perms(n) if oracles.bruhat_leq_oracle(x, w)}
                 for w in all_perms(n)}
        for alpha in enumerate_maximal(n):
            cls = sigma_class(alpha)
            ideal = order_ideal(cls)
            assert ideal == set().union(*(below[w] for w in cls.elements))
            for x in ideal:
                assert below[x] <= ideal


class TestTLeqSigma:
    def test_all_ones_is_unit(self):
        assert t_leq_sigma((1, 1, 1), 3) == t_basis(3, identity(3))

    def test_three_part(self):
        x = t_leq_sigma((3,), 3)
        assert x.support_size() == 5
        assert x.coefficient(perm((1, 3), n=3)) == 0
        assert all(c == 1 for c in x.terms.values())

    def test_two_one_sums_everything(self):
        x = t_leq_sigma((2, 1), 3)
        assert x == HeckeElement(3, {w: 1 for w in all_perms(3)})

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            t_leq_sigma((2, 1), 4)

    @pytest.mark.parametrize("alpha", [(3,), (2, 2), (5,), (4, 1, 1)])
    def test_terms_are_the_ideal_in_lex_order(self, alpha):
        # one seed block: the walk's masks are all 1 and serve as the terms
        x = t_leq_sigma(alpha, sum(alpha))
        ideal = oracles.ideal_by_inversions(sigma_class(alpha).elements)
        assert list(x.terms.items()) == [(w, 1) for w in sorted(ideal)]


class TestIdealSums:
    @pytest.mark.parametrize("n", range(7))
    def test_every_label_reads_its_ideal_in_lex_order(self, n):
        # one walk for every label; each label's terms come off the rank
        # array in lexicographic order, and can be read more than once
        alphas = enumerate_maximal(n)
        sums = hecke.ideal_sums(alphas, n)
        assert len(sums) == len(alphas)
        for alpha, (size, terms) in zip(alphas, sums):
            ideal = oracles.ideal_by_inversions(sigma_class(alpha).elements)
            assert list(terms) == list(terms) == sorted(ideal), alpha
            assert size == len(ideal), alpha
            if n:
                # the same terms as rows of bytes, as `basis` writes them
                assert b"".join(terms.blocks()) == bytes(
                    v for w in sorted(ideal) for v in w), alpha

    @pytest.mark.parametrize("n", range(8))
    def test_lex_rows_are_s_n_in_lex_order(self, n):
        assert hecke._lex_rows(n) == bytes(v for w in all_perms(n) for v in w)

    @pytest.mark.parametrize("alphas, n, match", [
        ([(3,), (1, 2)], 3, "not a maximal composition"),
        ([(3,), (2, 1, 1)], 3, re.escape("|(2, 1, 1)| != 3")),
    ])
    def test_rejects_a_label_that_is_not_maximal_of_degree_n(
            self, alphas, n, match):
        with pytest.raises(ValueError, match=match):
            hecke.ideal_sums(alphas, n)

    def test_degree_gate(self):
        with pytest.raises(DegreeLimitError, match="force"):
            hecke.ideal_sums([(9,)], 9)


class TestIsCentral:
    def test_unit_central(self):
        assert is_central(t_basis(4, identity(4)))

    def test_generator_not_central(self):
        assert not is_central(t_basis(3, (2, 1, 3)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_ideal_sums_central(self, n):
        for alpha in enumerate_maximal(n):
            assert is_central(t_leq_sigma(alpha, n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_boundary_verdict_matches_every_label(self, n):
        alphas = enumerate_maximal(n)
        ids, table = hecke._ideal_masks(
            [sigma_class(a).elements for a in alphas], by_rank=True)
        bad = hecke._noncentral_labels(ids, table, n)
        for r, alpha in enumerate(alphas):
            assert (not bad >> r & 1) == is_central(t_leq_sigma(alpha, n))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_boundary_flags_single_stair_form_ideals(self, n):
        # from n = 3 on, some stair form alone has a non-central ideal
        seeds = [[stair_form(alpha)] for alpha in enumerate_maximal(n)]
        ids, table = hecke._ideal_masks(seeds, by_rank=True)
        bad = hecke._noncentral_labels(ids, table, n)
        assert bad or n < 3
        for r, seed in enumerate(seeds):
            x = HeckeElement(n, {w: 1 for w in order_ideal(seed)})
            assert (not bad >> r & 1) == is_central(x), seed

    @pytest.mark.parametrize("n", range(2, 7))
    def test_boundary_verdict_on_random_seed_families(self, n):
        # families of up to 8 random seed sets, mostly not central; the
        # expected verdict sums the oracle's ideal and multiplies it out
        rng = random.Random(n)
        perms = list(all_perms(n))
        flagged = 0
        for _ in range(12):
            seeds = [rng.sample(perms, rng.randint(1, min(3, len(perms))))
                     for _ in range(rng.randint(1, 8))]
            ids, table = hecke._ideal_masks(seeds, by_rank=True)
            bad = hecke._noncentral_labels(ids, table, n)
            for r, seed in enumerate(seeds):
                ideal = oracles.ideal_by_inversions(seed)
                x = HeckeElement(n, dict.fromkeys(ideal, 1))
                assert (not bad >> r & 1) == is_central(x), seed
            flagged += bin(bad).count("1")
        # the algebra of S_2 is commutative
        assert flagged >= 10 or n == 2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_half_the_generators_decide_w0_stable_seed_families(self, n):
        # conjugation by w0 sends T_i to T_{n-i}: on seed sets closed under
        # it, the generators i >= ceil(n/2) give the Hecke product's verdict
        rng = random.Random(n)
        perms = list(all_perms(n))
        flagged = 0
        for _ in range(12):
            seeds = []
            for _ in range(rng.randint(1, 8)):
                seed = set(rng.sample(perms, rng.randint(1, min(3, len(perms)))))
                seeds.append(seed | {conj_w0(w) for w in seed})
            ids, table = hecke._ideal_masks(seeds, by_rank=True)
            bad = hecke._noncentral_labels(ids, table, n, stable=True)
            for r, seed in enumerate(seeds):
                x = HeckeElement(n, dict.fromkeys(
                    oracles.ideal_by_inversions(seed), 1))
                assert (not bad >> r & 1) == is_central(x), seed
            flagged += bin(bad).count("1")
        assert flagged >= 5 or n == 2

    def test_central_iff_commutes_with_all_products(self):
        # generator commutation implies full commutation; spot-check it
        x = t_leq_sigma((3,), 3)
        for w in all_perms(3):
            y = t_basis(3, w)
            assert mul(x, y) == mul(y, x)


class TestRank:
    def test_full_rank(self):
        assert integer_matrix_rank([[1, 0], [0, 1]]) == 2

    def test_dependent_rows(self):
        assert integer_matrix_rank([[2, 4], [1, 2], [0, 1]]) == 2

    def test_zero_matrix(self):
        assert integer_matrix_rank([[0, 0], [0, 0]]) == 0

    def test_stays_exact_on_big_entries(self):
        rows = [[10**20, 1, 0], [0, 10**20, 1], [1, 0, 10**20]]
        assert integer_matrix_rank(rows) == 3


class TestVerifyCenterBasis:
    def test_n1_trivial(self):
        report = verify_center_basis(1)
        assert report.ok and report.dim == 1

    def test_n3_matches_display(self):
        report = verify_center_basis(3)
        assert report.ok
        assert report.dim == 3

    @pytest.mark.parametrize("n", range(6))
    def test_ok_through_n5(self, n):
        report = verify_center_basis(n)
        assert report.ok, report.failures
        assert report.rank == report.dim == len(report.alphas)

    def test_independence_and_count_n6(self):
        report = verify_center_basis(6)
        assert report.ok, report.failures
        assert report.dim == report.rank == 12

    def test_dependent_family_never_passes(self, monkeypatch):
        # give the second label the first label's ideal: the rank reports
        # the dependence
        sweep = hecke._ideal_masks

        def copy_first_row(seeds, by_rank):
            ids, table = sweep(seeds, by_rank)
            return ids, [m & ~2 | (m & 1) << 1 for m in table]

        monkeypatch.setattr(hecke, "_ideal_masks", copy_first_row)
        report = verify_center_basis(5)
        assert report.rank == len(report.alphas) - 1
        assert not report.ok
        assert any(f.startswith("rank ") for f in report.failures)

    @pytest.mark.parametrize("n", range(7))
    def test_rank_matches_the_oracle_over_all_columns(self, n):
        # the library ranks the distinct masks; the oracle ranks one
        # column per permutation, from ideals it closes itself
        alphas = enumerate_maximal(n)
        perms = list(all_perms(n))
        rows = []
        for alpha in alphas:
            ideal = oracles.ideal_by_inversions(sigma_class(alpha).elements)
            rows.append([int(w in ideal) for w in perms])
        rank = oracles.fraction_rank(rows)
        assert verify_center_basis(n).rank == rank == len(alphas)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_rank_masks_are_the_principal_up_sets_of_the_labels(self, n):
        # the rank array holds exactly k = dim_center(n) distinct nonzero
        # masks, each the up-set {beta : I_alpha <= I_beta} of one label
        # alpha.  Through n = 6 the inclusions come from the oracle's own
        # ideals of its own classes; beyond, I_alpha <= I_beta when every
        # mask with bit alpha has bit beta
        alphas = enumerate_maximal(n)
        k = len(alphas)
        ids, table = hecke._ideal_masks(
            [sigma_class(alpha).elements for alpha in alphas], by_rank=True)
        masks = {table[j] for j in set(ids)} - {0}
        if n <= 6:
            classes = oracles.invariant_classes(alphas)
            ideals = [oracles.ideal_by_inversions(classes[alpha])
                      for alpha in alphas]
            below = [[ideals[a] <= ideals[b] for b in range(k)]
                     for a in range(k)]
        else:
            below = [[all(m >> b & 1 for m in masks if m >> a & 1)
                      for b in range(k)] for a in range(k)]
        up = {sum(1 << b for b in range(k) if below[a][b]) for a in range(k)}
        assert len(masks) == len(up) == k == dim_center(n)
        assert masks == up

    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("family", ["duplicate", "disjoint_or"])
    def test_dependent_rank_matches_the_oracle(self, monkeypatch, n, family):
        # inject a dependent family through the walk: row 1 a copy of row
        # 0, or row 1 cut down to miss the last row b and row 0 replaced
        # by the OR of the two, which is their sum.  Distinct ids can then
        # hold one mask, and the oracle ranks one column per permutation
        sweep = hecke._ideal_masks
        walked = []

        def inject(seeds, by_rank):
            ids, table = sweep(seeds, by_rank)
            b = len(seeds) - 1
            if family == "duplicate":
                table = [m & ~2 | (m & 1) << 1 for m in table]
            else:
                cuts = [m >> 1 & ~m >> b & 1 for m in table]
                table = [m & ~3 | cut << 1 | (cut | m >> b & 1)
                         for m, cut in zip(table, cuts)]
            walked.append((ids, table))
            return ids, table

        monkeypatch.setattr(hecke, "_ideal_masks", inject)
        report = verify_center_basis(n)
        [(ids, table)] = walked
        k = len(report.alphas)
        rows = [[table[j] >> r & 1 for j in ids] for r in range(k)]
        assert report.rank == oracles.fraction_rank(rows) == k - 1
        assert not report.ok

    def test_dropped_ideal_element_is_not_central(self, monkeypatch):
        # (2, 3, 1) is the member of the (3,) class beside its stair form
        # (3, 1, 2); the ideal without it is not central
        sweep = hecke._ideal_masks
        r = enumerate_maximal(3).index((3,))

        def drop(seeds, by_rank):
            ids, table = sweep(seeds, by_rank)
            rank = list(all_perms(3)).index((2, 3, 1))
            table = table + [table[ids[rank]] & ~(1 << r)]
            ids[rank] = len(table) - 1
            return ids, table

        monkeypatch.setattr(hecke, "_ideal_masks", drop)
        report = verify_center_basis(3)
        assert not report.ok
        assert report.failures == ("element of (3,) is not central",)

    def test_degree_gate_comes_first(self):
        start = time.perf_counter()
        with pytest.raises(DegreeLimitError, match="force"):
            verify_center_basis(9)
        assert time.perf_counter() - start < 1.0


def _generators_read(monkeypatch):
    """The generators whose boundaries `verify_center_basis` compares."""
    read = []
    moves = hecke._moves

    def spy(n, i, fact, memo):
        read.append(i)
        return moves(n, i, fact, memo)

    monkeypatch.setattr(hecke, "_moves", spy)
    return read


class TestW0Halving:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_the_labelled_classes_read_half_the_generators(self, monkeypatch,
                                                           n):
        # every labelled class is stable under conjugation by w0
        read = _generators_read(monkeypatch)
        assert verify_center_basis(n).ok
        assert read == list(range((n + 1) // 2, n))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_lone_stair_forms_read_every_generator(self, monkeypatch, n):
        # a lone stair form is a seed class not stable under w0 (from n = 3
        # on, some stair form is not its own conjugate), so the check reads
        # every generator, and its verdict is the Hecke product's
        def lone_stair_form(alpha, force=False):
            sf = stair_form(alpha)
            return EquivClass(frozenset({sf}), length(sf), alpha)
        monkeypatch.setattr(hecke, "sigma_class", lone_stair_form)
        read = _generators_read(monkeypatch)
        report = verify_center_basis(n)
        assert any(conj_w0(stair_form(alpha)) != stair_form(alpha)
                   for alpha in report.alphas)
        assert read == list(range(1, n))
        for alpha, good in zip(report.alphas, report.central):
            x = HeckeElement(n, dict.fromkeys(order_ideal([stair_form(alpha)]), 1))
            assert good == is_central(x), alpha
        assert not report.all_central and not report.ok
