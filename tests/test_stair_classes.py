"""Stair forms, class predicates, and the constructive bijections."""

import re
import time

import pytest

from heckezero.cyclic_shift import approx_class, label_max_classes
from heckezero.permutations import (
    EquivClass, all_perms, conj_w0, cycle_type, from_cycles, identity, inverse, length,
    longest_element, stair_form, stair_sequence,
)
from heckezero.stair_classes import (
    cycle_class, has_connected_intervals,
    has_connected_intervals_cycle, hook_properties, is_oscillating,
    is_oscillating_cycle, lift_cycle_class, lower_cycle_class,
    member_sigma_alpha, odd_hook_embed, sigma_class, standardize_cycle,
)
from heckezero import counting, cyclic_shift, inductive_product, stair_classes
from heckezero.compositions import (
    enumerate_maximal, hook_kind, is_maximal, odd_partitions,
)
from heckezero.errors import DegreeLimitError, InvariantError

from oracles import (
    compositions_of, invariant_class, invariant_classes, perms_of_type,
)


def perm(*cycs, n):
    return from_cycles(n, cycs)


def full_cycles(n):
    return [p for p in all_perms(n) if cycle_type(p) == (n,)]


class TestStairForm:
    def test_sequence(self):
        assert stair_sequence(6) == (1, 6, 2, 5, 3, 4)
        assert stair_sequence(0) == ()

    def test_all_ones_is_identity(self):
        assert stair_form((1, 1, 1)) == identity(3)

    def test_examples(self):
        assert stair_form((4, 2)) == perm((1, 6, 2, 5), (3, 4), n=6)
        assert stair_form((3,)) == perm((1, 3, 2), n=3)
        assert stair_form((2, 1)) == perm((1, 3), n=3)

    def test_distinct_compositions_distinct_stairs(self):
        for n in range(7):
            forms = {stair_form(a) for a in compositions_of(n)}
            assert len(forms) == len(compositions_of(n))


class TestStairIsMax:
    def test_examples(self):
        assert is_maximal((4, 6, 2, 3, 1, 1))
        assert not is_maximal((6, 4, 3, 2, 1, 1))
        for n in range(1, 8):
            assert is_maximal((n,))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force_max_membership(self, n):
        max_len = {}
        for p in all_perms(n):
            t = cycle_type(p)
            max_len[t] = max(max_len.get(t, 0), length(p))
        for alpha in compositions_of(n):
            sf = stair_form(alpha)
            is_max = length(sf) == max_len[cycle_type(sf)]
            assert is_maximal(alpha) == is_max


class TestMemberSigmaAlpha:
    def test_stair_form_is_member(self):
        for n in range(10):
            for alpha in enumerate_maximal(n):
                assert member_sigma_alpha(stair_form(alpha), alpha)

    def test_table_element(self):
        assert member_sigma_alpha(perm((1, 3, 4, 2, 5), n=5), (5,))

    def test_rejects_non_maximal(self):
        with pytest.raises(ValueError):
            member_sigma_alpha(identity(3), (1, 2))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_filter_reproduces_brute_force(self, n):
        labelled = label_max_classes(n)
        for alpha, cls in labelled.items():
            got = {p for p in all_perms(n) if member_sigma_alpha(p, alpha)}
            assert got == cls.elements


class TestStandardizeCycle:
    def test_example(self):
        assert standardize_cycle((3, 11, 4, 10, 5)) == (1, 5, 2, 4, 3)

    def test_singleton(self):
        assert standardize_cycle((7,)) == (1,)

    def test_idempotent(self):
        c = (1, 5, 2, 4, 3)
        assert standardize_cycle(standardize_cycle(c)) == standardize_cycle(c)


class TestOscillating:
    def test_tiny_cycles(self):
        assert is_oscillating_cycle((1,))
        assert is_oscillating_cycle((1, 2))

    def test_examples(self):
        assert is_oscillating_cycle((1, 5, 2, 4, 3))
        assert is_oscillating_cycle((1, 3, 4, 2, 5))
        assert is_oscillating_cycle((1, 5, 2, 6, 3, 4))

    def test_rejects_non_full_cycle(self):
        with pytest.raises(ValueError):
            is_oscillating_cycle((2, 3))

    def test_definition_equivalence(self):
        # oscillating <=> sigma([m]) = [k-m+1, k] for an integer m among
        # (k-1)/2, k/2, (k+1)/2 (only exact halves count)
        for k in range(1, 8):
            candidates = [m for m in ((k - 1) / 2, k / 2, (k + 1) / 2)
                          if m == int(m) and m >= 1]
            for p in full_cycles(k):
                wanted = any(
                    {p[i - 1] for i in range(1, int(m) + 1)}
                    == set(range(k - int(m) + 1, k + 1))
                    for m in candidates
                )
                c = standardize_cycle(tuple(_cycle_of(p)))
                assert is_oscillating_cycle(c) == wanted

    def test_every_rotation_of_a_cycle_reads_alike(self):
        # a cycle written from any of its entries, not only from 1
        for k in range(1, 8):
            for p in full_cycles(k):
                c = tuple(_cycle_of(p))
                rotations = [c[r:] + c[:r] for r in range(k)]
                assert len(set(map(is_oscillating_cycle, rotations))) == 1
                assert len(set(map(has_connected_intervals_cycle,
                                   rotations))) == 1

    def test_inverse_preserves_oscillation(self):
        for k in range(1, 8):
            for p in full_cycles(k):
                c = tuple(_cycle_of(p))
                ci = tuple(_cycle_of(inverse(p)))
                assert is_oscillating_cycle(c) == is_oscillating_cycle(ci)


def _cycle_of(p):
    out = [1]
    v = p[0]
    while v != 1:
        out.append(v)
        v = p[v - 1]
    return out


class TestConnectedIntervals:
    def test_examples(self):
        assert has_connected_intervals_cycle((1, 6, 2, 5, 3, 4))
        assert not has_connected_intervals_cycle((1, 5, 2, 6, 3, 4))
        assert has_connected_intervals_cycle((1,))

    def test_general_predicates(self):
        sf = stair_form((4, 5, 3, 1))
        assert is_oscillating(sf)
        assert has_connected_intervals(sf)
        p = perm((1, 5, 2, 6, 3, 4), n=6)
        assert is_oscillating(p)
        assert not has_connected_intervals(p)
        assert is_oscillating(identity(4))
        assert has_connected_intervals(identity(4))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_conjugation_by_w0_preserves_both(self, n):
        for p in full_cycles(n):
            if is_oscillating(p) and has_connected_intervals(p):
                q = conj_w0(p)
                assert is_oscillating(q) and has_connected_intervals(q)

    def test_conjugation_by_w0_preserves_both_general(self):
        for p in all_perms(6):
            if is_oscillating(p) and has_connected_intervals(p):
                q = conj_w0(p)
                assert is_oscillating(q) and has_connected_intervals(q)


class TestHookProperties:
    def test_identity_all_ones(self):
        assert hook_properties(identity(4), (1, 1, 1, 1))

    def test_example_member(self):
        assert hook_properties(perm((1, 5, 3), n=5), (3, 1, 1))

    def test_example_non_member(self):
        assert not hook_properties(perm((2, 5, 3), n=5), (3, 1, 1))

    def test_type_mismatch(self):
        with pytest.raises(ValueError):
            hook_properties(identity(5), (3, 1, 1))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_filter_equals_brute_force_all_hooks(self, n):
        labelled = label_max_classes(n)
        for alpha in enumerate_maximal(n):
            if hook_kind(alpha) == "not_hook":
                continue
            lam = tuple(sorted(alpha, reverse=True))
            got = {p for p in perms_of_type(n, lam) if hook_properties(p, alpha)}
            assert got == labelled[alpha].elements, alpha


class TestInsertDelete:
    def test_figure_examples(self):
        # the figure's three moves: two insertions of 3 at degree 4, one
        # deletion of 3 at degree 5
        assert lift_cycle_class(4, perm((1, 2, 3), n=3)) == perm((1, 3, 2, 4), n=4)
        assert lift_cycle_class(4, perm((1, 3, 2), n=3)) == perm((1, 4, 2, 3), n=4)
        assert lower_cycle_class(perm((1, 3, 4, 2, 5), n=5)) == (
            perm((1, 3, 2, 4), n=4), 0)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            lift_cycle_class(3, perm((2, 1), n=2))
        with pytest.raises(ValueError):
            lower_cycle_class(perm((1, 3, 2), n=3))
        with pytest.raises(ValueError):
            odd_hook_embed(perm((1, 3, 2), n=3), 4, (5, 1, 1, 1))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_delete_insert_roundtrip_exhaustive(self, n):
        # every full cycle of degree n, not only the class members: a member
        # lifts and lowers back, a non-member is refused both ways
        members = cycle_class(n)
        branches = (0, 1, 2) if (n + 1) % 2 else (None,)
        for p in full_cycles(n):
            if p not in members:
                with pytest.raises(ValueError):
                    lift_cycle_class(n + 1, p, branches[0])
                with pytest.raises(ValueError):
                    lower_cycle_class(p)
            elif n >= 3:
                for q in branches:
                    assert lower_cycle_class(lift_cycle_class(n + 1, p, q)) == (p, q)
                if n >= 4:
                    assert lift_cycle_class(n, *lower_cycle_class(p)) == p


class TestLiftLower:
    def test_even_step(self):
        assert lift_cycle_class(4, perm((1, 3, 2), n=3)) == perm((1, 4, 2, 3), n=4)
        assert lift_cycle_class(4, perm((1, 2, 3), n=3)) == perm((1, 3, 2, 4), n=4)

    def test_odd_step_published_table(self):
        tbl = {
            ((1, 4, 2, 3), 0): (1, 5, 3, 2, 4),
            ((1, 4, 2, 3), 1): (1, 5, 2, 3, 4),
            ((1, 4, 2, 3), 2): (1, 5, 2, 4, 3),
            ((1, 3, 2, 4), 0): (1, 3, 4, 2, 5),
            ((1, 3, 2, 4), 1): (1, 4, 3, 2, 5),
            ((1, 3, 2, 4), 2): (1, 4, 2, 3, 5),
        }
        for (cyc, q), expected in tbl.items():
            src = perm(cyc, n=4)
            assert lift_cycle_class(5, src, q) == perm(expected, n=5)

    def test_rejects_non_member(self):
        bad = perm((1, 5, 2, 6, 3, 4), n=6)  # oscillating, not connected
        with pytest.raises(ValueError):
            lift_cycle_class(7, bad, 0)

    def test_lower_refuses_what_no_branch_lifts(self, monkeypatch):
        # (1,3,2,5,4) is a full 5-cycle with 3 beside neither 2 nor 4; a
        # class test that admits it contradicts the bijection
        monkeypatch.setattr(stair_classes, "_is_cycle_class_member",
                            lambda sigma: True)
        with pytest.raises(InvariantError):
            lower_cycle_class(perm((1, 3, 2, 5, 4), n=5))

    def test_q_required_iff_odd(self):
        src = perm((1, 4, 2, 3), n=4)
        with pytest.raises(ValueError):
            lift_cycle_class(5, src)          # missing q
        with pytest.raises(ValueError):
            lift_cycle_class(6, cycle_class_pick(5), 1)  # extra q

    @pytest.mark.parametrize("n", range(4, 12))
    def test_bijectivity_and_inverse(self, n):
        src = sorted(cycle_class(n - 1))
        if n % 2 == 0:
            images = [lift_cycle_class(n, s) for s in src]
            domain = [(s, None) for s in src]
        else:
            domain = [(s, q) for s in src for q in (0, 1, 2)]
            images = [lift_cycle_class(n, s, q) for s, q in domain]
        assert len(set(images)) == len(images)          # injective
        assert set(images) == set(cycle_class(n))       # onto
        for (s, q), img in zip(domain, images):
            assert lower_cycle_class(img) == (s, q)


def cycle_class_pick(n):
    return sorted(cycle_class(n))[0]


class TestCycleClass:
    @pytest.mark.parametrize("n", range(1, 18))
    def test_matches_brute_force(self, n):
        assert cycle_class(n) == approx_class(stair_form((n,)))

    def test_one_loop_fills_one_cache_entry(self):
        # a recursive build would fill one entry per degree below n
        cycle_class.cache_clear()
        try:
            cycle_class(12)
            assert cycle_class.cache_info().misses == 1
        finally:
            cycle_class.cache_clear()

    def test_the_step_refuses_a_pair_that_is_not_adjacent(self):
        # (1,2,5,4) with 3 fixed: the pair {2, 4} around 3 sits apart; the
        # level is held by columns, one byte per member, and the member
        # before it, (1,2,4,5), is a lane that lifts
        level = [(2, 4, 3, 5, 1), (2, 5, 3, 1, 4)]
        with pytest.raises(InvariantError, match=re.escape(
                "not adjacent on the cycle (2, 5, 3, 1, 4)")):
            stair_classes._lift_all([*map(bytes, zip(*level))], [1, 2, 3, 4, 5])

    @pytest.mark.parametrize("n", [8, 9])
    def test_matches_predicate_filter(self, n):
        got = cycle_class(n)
        for p in got:
            assert is_oscillating(p) and has_connected_intervals(p)
        count = 0
        for p in full_cycles(n):
            if is_oscillating(p) and has_connected_intervals(p):
                count += 1
                assert p in got
        assert count == len(got)

    def test_count_check_catches_a_broken_lift(self, monkeypatch):
        # copying each member once per branch, without inserting, ignores
        # the branch, so the odd step is not injective
        monkeypatch.setattr(
            stair_classes, "_lift_all",
            lambda columns, labels: [column * (1 + 2 * (len(labels) % 2))
                                     for column in columns])
        cycle_class.cache_clear()
        try:
            with pytest.raises(InvariantError, match="expected 6"):
                cycle_class(5)
        finally:
            cycle_class.cache_clear()


class TestOddHookEmbed:
    def test_example_tau_132(self):
        tau = perm((1, 3, 2), n=3)
        assert odd_hook_embed(tau, 4, (3, 1, 1)) == perm((1, 5, 4), n=5)

    def test_example_tau_123(self):
        tau = perm((1, 2, 3), n=3)
        assert odd_hook_embed(tau, 3, (3, 1, 1)) == perm((1, 3, 5), n=5)

    def test_image_is_whole_class(self):
        got = {
            odd_hook_embed(tau, j, (3, 1, 1))
            for tau in cycle_class(3) for j in range(2, 5)
        }
        expected = {
            perm((1, 5, 2), n=5), perm((1, 2, 5), n=5), perm((1, 5, 3), n=5),
            perm((1, 3, 5), n=5), perm((1, 5, 4), n=5), perm((1, 4, 5), n=5)}
        assert got == expected

    def test_standardization_recovers_tau(self):
        for tau in cycle_class(5):
            for j in range(3, 7):
                p = odd_hook_embed(tau, j, (5, 1, 1, 1))
                cyc = next(c for c in _nontrivial_cycles(p) if len(c) == 5)
                assert perm(standardize_cycle(cyc), n=5) == tau

    def test_range_check(self):
        with pytest.raises(ValueError):
            odd_hook_embed(perm((1, 3, 2), n=3), 1, (3, 1, 1))

    def test_checks_membership_without_building_the_class(self):
        # the class of full 41-cycles has 2 * 3**19 elements
        cached = cycle_class.cache_info().currsize
        start = time.perf_counter()
        p = odd_hook_embed(stair_form((41,)), 21, (41, 1))
        assert time.perf_counter() - start < 1
        assert cycle_class.cache_info().currsize == cached
        assert p[21] == 22
        assert member_sigma_alpha(p, (41, 1))


def _nontrivial_cycles(p):
    from heckezero.permutations import cycles
    return [c for c in cycles(p) if len(c) > 1]


class TestEvenHookLift:
    def test_411(self):
        got = sigma_class((4, 1, 1)).elements
        assert got == {perm((1, 6, 2, 5), n=6), perm((1, 5, 2, 6), n=6)}

    def test_degenerate_full_cycle(self):
        assert sigma_class((2,)).elements == {(2, 1)}

    def test_21_is_stair(self):
        assert sigma_class((2, 1)).elements == {stair_form((2, 1))}


class TestSigmaClass:
    def test_all_ones(self):
        assert sigma_class((1, 1, 1)).elements == {identity(3)}

    def test_single_part(self):
        got = sigma_class((5,))
        assert got.elements == cycle_class(5)
        assert got.alpha == (5,)

    def test_odd_hook_vs_brute(self):
        assert sigma_class((3, 1, 1)).elements == approx_class(stair_form((3, 1, 1)))

    @pytest.mark.parametrize("n", range(7))
    def test_matches_brute_force_all_labels(self, n):
        labelled = label_max_classes(n)
        for alpha, cls in labelled.items():
            assert sigma_class(alpha).elements == cls.elements, alpha

    def test_non_hookish_fallback(self):
        got = sigma_class((3, 3))
        assert len(got.elements) == 22
        assert got.elements == approx_class(stair_form((3, 3)))

    def test_five_five_tail_has_664_elements(self):
        # 664 is the size the membership filter over S_10 found
        assert sigma_class((5, 5)).size == 664

    def test_even_part_keeps_the_non_hook_tail_size(self):
        got = sigma_class((2, 3, 3, 1, 1))
        assert got.size == 108 == sigma_class((3, 3, 1, 1)).size
        assert all(member_sigma_alpha(p, (2, 3, 3, 1, 1)) for p in got.elements)
        got = sigma_class((2, 5, 5))
        assert got.size == 664
        assert all(member_sigma_alpha(p, (2, 5, 5)) for p in got.elements)

    @pytest.mark.parametrize("alpha", [(5, 3), (3, 3, 1, 1), (2, 3, 3)])
    def test_non_hook_tail_matches_invariant_oracle(self, alpha):
        # every maximal label of 8 whose odd tail is not a hook
        assert sigma_class(alpha).elements == invariant_class(alpha)

    def test_rejects_non_maximal(self):
        with pytest.raises(ValueError):
            sigma_class((1, 2))

    @pytest.mark.parametrize("alpha", [(), (2,), (4, 2), (8,), (2, 2, 2),
                                       (4, 1, 1), (2, 2, 1)])
    def test_a_tail_of_ones_or_none_takes_no_search(self, alpha, monkeypatch):
        # the class of an all-even label, or of one whose odd tail is all
        # ones, is built without the brute half's search
        expected = approx_class(stair_form(alpha), force=True)
        monkeypatch.setattr(cyclic_shift, "approx_class", _refuse_search)
        assert sigma_class(alpha) == EquivClass(
            expected, length(stair_form(alpha)), alpha)

    @pytest.mark.parametrize("alpha", [(3, 3), (2, 5, 5), (2, 3, 3, 1, 1)])
    def test_a_non_hook_tail_takes_the_search(self, alpha, monkeypatch):
        monkeypatch.setattr(cyclic_shift, "approx_class", _refuse_search)
        with pytest.raises(_Searched):
            sigma_class(alpha)


class _Searched(Exception):
    pass


def _refuse_search(*args, **kwargs):
    raise _Searched(args)


def columns_of(perms):
    return [bytes(column) for column in zip(*perms)]


class TestColumns:
    @pytest.mark.parametrize("n", range(11))
    def test_the_two_routes_agree(self, n):
        for alpha in enumerate_maximal(n):
            cls = sigma_class(alpha)
            brute = approx_class(stair_form(alpha), force=True)
            assert cls.elements == brute, alpha
            assert cls.size == len(brute)
            assert cls.common_length == length(stair_form(alpha))

    @pytest.mark.parametrize("n", range(3, 12))
    def test_the_column_embedding_is_odd_hook_embed(self, n):
        for k in range(3, n + 1, 2):
            alpha = (k,) + (1,) * (n - k)
            embedded = stair_classes._embed_columns(
                stair_classes._cycle_columns(k), n)
            assert set(zip(*embedded)) == {
                odd_hook_embed(tau, j, alpha) for tau in cycle_class(k)
                for j in range(k // 2 + 1, n - k // 2 + 1)}

    def test_a_repeated_lane_raises(self, monkeypatch):
        # one more copy of the first lane at each step: every member is
        # still built, so the distinct rows alone match the closed count,
        # but some member is held twice
        lift = stair_classes._lift_all
        monkeypatch.setattr(stair_classes, "_lift_all", lambda columns, labels: [
            column + column[:1] for column in lift(columns, labels)])
        for alpha in [(7,), (2, 7), (4, 3, 1), (6, 3, 3)]:
            with pytest.raises(InvariantError, match="distinct members"):
                sigma_class(alpha)

    @pytest.mark.parametrize("alpha", [(3,), (18, 3, 3)])
    def test_lanes_of_another_length_raise(self, alpha):
        # (18, 3, 3) has no closed count, and its length 263 is summed in
        # 16-bit lanes from two groups of 8-bit ones; the tuple route
        # compares each member's length in turn
        sf = stair_form(alpha)
        good, bad = [sf, conj_w0(sf)], [sf, longest_element(len(sf))]
        same = stair_classes._checked_class(
            [*map(bytes, good)], alpha, columns_of(good))
        assert same.elements == {sf, conj_w0(sf)}
        assert stair_classes._checked_class(good, alpha) == same
        for args in ([*map(bytes, bad)], alpha, columns_of(bad)), (bad, alpha):
            with pytest.raises(InvariantError, match="not of length"):
                stair_classes._checked_class(*args)

    def test_a_lost_free_point_past_a_byte_raises(self, monkeypatch):
        # every free point embeds onto the first: the 2976 members of the
        # class of degree 256 collapse to 12
        embed = stair_classes.odd_hook_embed
        monkeypatch.setattr(stair_classes, "odd_hook_embed",
                            lambda tau, j, alpha: embed(tau, 3, alpha))
        with pytest.raises(InvariantError,
                           match="12 distinct members in 2976, expected 2976"):
            sigma_class((4, 5) + (1,) * 247)

    def test_a_member_of_another_length_past_a_byte_raises(self, monkeypatch):
        # one product swaps its last two values, which keeps it a distinct
        # permutation of degree 256 but changes its length by one
        iprod, built = inductive_product.iprod, []

        def one_swapped(a, b):
            p = iprod(a, b)
            built.append(p)
            return p if len(built) > 1 else p[:-2] + p[:-3:-1]
        monkeypatch.setattr(inductive_product, "iprod", one_swapped)
        with pytest.raises(InvariantError, match="not of length"):
            sigma_class((4, 5) + (1,) * 247)

    def test_a_class_of_rows_builds_its_tuples_once(self):
        cls = sigma_class((2, 5, 1))
        assert cls._rows is not None and cls.size == 12
        assert cls.elements is cls.elements
        assert cls == EquivClass(cls.elements, cls.common_length, (2, 5, 1))


class TestSizeGate:
    @pytest.mark.parametrize("alpha", [
        (25,), (23, 1, 1), (5001,), (99999999999,), (5000, 1), (2, 40),
        (10**12, 3, 3),
    ])
    def test_refuses_before_any_work(self, alpha):
        # the largest of these would need a power with 5e10 digits
        start = time.perf_counter()
        with pytest.raises(DegreeLimitError, match="force"):
            sigma_class(alpha)
        assert time.perf_counter() - start < 1

    def test_force_lifts_the_limit(self, monkeypatch):
        monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 100)
        assert sigma_class((9,)).size == 54
        with pytest.raises(DegreeLimitError):
            sigma_class((11,))
        assert sigma_class((11,), force=True).size == 162

    def test_the_limit_is_inclusive_and_counts_the_hook_tail(self, monkeypatch):
        # (5, 1, 1) has 3 * 2 * 3 = 18 elements
        monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 18)
        assert sigma_class((5, 1, 1)).size == 18
        monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 17)
        with pytest.raises(DegreeLimitError):
            sigma_class((5, 1, 1))

    def test_a_non_hook_tail_is_gated_by_its_search(self, monkeypatch):
        # (5, 5) has 664 elements but no closed count, so its search stops
        # once the class outgrows the limit
        monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 664)
        assert sigma_class((5, 5)).size == 664
        monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 663)
        with pytest.raises(DegreeLimitError, match="force"):
            sigma_class((5, 5))
        assert sigma_class((5, 5), force=True).size == 664
        # (8, 3, 3) has 18 * 22 elements: the even part 8 alone has 18, and
        # the search for (3, 3) gets the limit divided by 18
        monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 396)
        assert sigma_class((8, 3, 3)).size == 396
        monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 395)
        with pytest.raises(DegreeLimitError):
            sigma_class((8, 3, 3))
        monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 17)
        with pytest.raises(DegreeLimitError):
            sigma_class((8, 3, 3))

    @pytest.mark.parametrize("n", [25, 41, 10**12])
    def test_cycle_class_refuses_before_any_work(self, n):
        # 2 * 3**11 full 25-cycles; 10**12 would need a power with 2e11 digits
        cached = cycle_class.cache_info().currsize
        start = time.perf_counter()
        with pytest.raises(DegreeLimitError, match="force=True"):
            cycle_class(n)
        assert time.perf_counter() - start < 1
        assert cycle_class.cache_info().currsize == cached

    def test_cycle_class_force_lifts_the_limit(self, monkeypatch):
        monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 18)
        assert len(cycle_class(8)) == 18
        with pytest.raises(DegreeLimitError):
            cycle_class(9)
        assert len(cycle_class(9, force=True)) == 54
        # a degree built once serves every later call, forced or not
        assert cycle_class(8, force=True) is cycle_class(8)

    def test_the_benchmark_labels_pass_without_force(self):
        for alpha in [(19,), (2, 8, 4, 5, 1, 1, 1), (3, 3, 3)]:
            counting._check_size(alpha, force=False)


# The size of every class whose label is an odd partition of n <= 12 and
# not a hook.  The rows of n <= 9 are checked against the invariant oracle
# below; the larger rows come from the class search (`approx_class`) alone.
NON_HOOK_SIZES = {
    (3, 3): 22, (3, 3, 1): 58, (5, 3): 80, (3, 3, 1, 1): 108,
    (5, 3, 1): 216, (3, 3, 3): 528, (3, 3, 1, 1, 1): 172,
    (7, 3): 240, (5, 5): 664, (5, 3, 1, 1): 408, (3, 3, 3, 1): 1664,
    (3, 3, 1, 1, 1, 1): 250,
    (7, 3, 1): 648, (5, 5, 1): 1752, (5, 3, 3): 2134, (5, 3, 1, 1, 1): 656,
    (3, 3, 3, 1, 1): 3604, (3, 3, 1, 1, 1, 1, 1): 342,
    (9, 3): 720, (7, 5): 2156, (7, 3, 1, 1): 1224, (5, 5, 1, 1): 3264,
    (5, 3, 3, 1): 6864, (5, 3, 1, 1, 1, 1): 960, (3, 3, 3, 3): 21206,
    (3, 3, 3, 1, 1, 1): 6544, (3, 3, 1, 1, 1, 1, 1, 1): 448,
}


class TestNonHookSizes:
    def test_size_table(self):
        got = {
            lam: sigma_class(lam).size
            for n in range(1, 13) for lam in odd_partitions(n)
            if hook_kind(lam) == "not_hook"
        }
        assert got == NON_HOOK_SIZES

    @pytest.mark.parametrize("n", range(6, 10))
    def test_small_rows_match_invariant_oracle(self, n):
        rows = [lam for lam in NON_HOOK_SIZES if sum(lam) == n]
        oracle = invariant_classes(rows)
        for lam in rows:
            assert len(oracle[lam]) == NON_HOOK_SIZES[lam]
            assert sigma_class(lam).elements == oracle[lam], lam
