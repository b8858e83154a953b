"""Core symmetric-group arithmetic."""

import random
import re
import signal

import pytest

from heckezero.permutations import (
    all_perms, compose, conj_w0, cycle_string, cycle_type, cycles,
    _byte_lengths, even_orbits, from_cycles, identity, inverse, length,
    lengths, longest_element,
)
from heckezero.cyclic_shift import _step, one_step
from heckezero.hecke import (
    HeckeElement, left_mul_gen, order_ideal, right_mul_gen, t_basis,
)

from oracles import apply_gen_left, apply_gen_right, bruhat_leq_oracle, inv_count


def perm(*cycs, n):
    return from_cycles(n, cycs)


class TestCompose:
    def test_identity(self):
        assert compose(identity(3), identity(3)) == identity(3)

    def test_involution(self):
        s1 = (2, 1, 3)
        assert compose(s1, s1) == identity(3)

    def test_s1_s2_is_three_cycle(self):
        s1, s2 = (2, 1, 3), (1, 3, 2)
        assert compose(s1, s2) == (2, 3, 1)
        assert cycles(compose(s1, s2)) == ((1, 2, 3),)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))


class TestInverse:
    def test_identity(self):
        assert inverse(identity(4)) == identity(4)

    def test_five_cycle(self):
        p = perm((1, 5, 2, 4, 3), n=5)
        assert inverse(p) == perm((1, 3, 4, 2, 5), n=5)

    def test_double_inverse_exhaustive(self):
        for n in range(9):
            assert all(inverse(inverse(p)) == p for p in all_perms(n))


class TestLength:
    def test_identity(self):
        assert length(identity(6)) == 0

    def test_s3_examples(self):
        assert length(perm((1, 3), n=3)) == 3
        assert length(perm((1, 2), n=3)) == 1
        assert length(perm((2, 3), n=3)) == 1

    def test_longest_element(self):
        for n in range(11):
            assert length(longest_element(n)) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(8))
    def test_matches_inversion_count_exhaustive(self, n):
        assert all(length(w) == inv_count(w) for w in all_perms(n))


class TestLengths:
    @pytest.mark.parametrize("n", range(7))
    def test_matches_inversion_count_on_all_of_s_n(self, n):
        perms = list(all_perms(n))
        assert lengths(perms) == [inv_count(p) for p in perms]

    # 8-bit lanes hold n(n-1)/2 up to n = 23 and every entry below their
    # top bit up to n = 127; 16-bit lanes take the rest up to n = 255.  The
    # longest element fills every lane of its count
    @pytest.mark.parametrize("n", [22, 23, 24, 127, 128, 255])
    def test_random_permutations_at_each_lane_width(self, n):
        rng = random.Random(n)
        perms = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(12)]
        perms += [longest_element(n), identity(n)]
        assert lengths(perms) == [inv_count(p) for p in perms]
        assert lengths(perms) == [length(p) for p in perms]

    def test_empty_and_degree_zero(self):
        assert lengths([]) == []
        assert lengths([(), ()]) == [0, 0]
        assert lengths(iter([(2, 1), (1, 2)])) == [1, 0]

    # the column form counts in 8-bit lanes, in groups of rows with at
    # most 255 pairs from n = 24 on, and in 16-bit lanes from n = 128
    @pytest.mark.parametrize("n", [1, 2, 23, 24, 40, 127, 128, 255])
    def test_the_column_form_agrees(self, n):
        rng = random.Random(n)
        perms = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(30)]
        perms += [longest_element(n), identity(n)]
        total, ones = _byte_lengths([bytes(c) for c in zip(*perms)])
        assert ones == sum(1 << 16 * r for r in range(len(perms)))
        assert total == sum(inv_count(p) << 16 * r
                            for r, p in enumerate(perms))

    # rows of different degrees, entries outside 1..n, and degrees past
    # 255, where no byte holds an entry; an entry at the top bit of an
    # 8-bit lane (128 at n = 3) would read as a borrow
    @pytest.mark.parametrize("rows", [
        [(1, 2), (1, 2, 3)], [(2, 1), ()], [(-1, 2)], [(1, -2**70)],
        [(2**63, 1)], [(1, 2), (2**64, 1)],
        [(127, 0, 5)], [(128, 0, 5)], [(0, 255, 256)], [(2**62, 1, 2**15)],
        [(2**63 - 1, 0)], [(3, 1, 2), (300, 2**40, 7)],
        [(3, 1, 4)], [(2, 2, 0)], [(128, 1, 2)], [identity(256)],
        [longest_element(363), identity(363)],
    ])
    def test_refuses_what_no_lane_holds(self, rows):
        with pytest.raises(ValueError):
            lengths(rows)


class TestDescents:
    """Descents as the Hecke generators see them: T_i * T_w = -T_w exactly
    when i is a left descent of w, and T_w * T_i = -T_w exactly when i is a
    right descent."""

    @staticmethod
    def flips(mul_gen, i, w):
        return mul_gen(i, t_basis(len(w), w)) == HeckeElement(len(w), {w: -1})

    def test_identity_has_none(self):
        e = identity(5)
        assert not any(self.flips(left_mul_gen, i, e) for i in range(1, 5))
        assert not any(self.flips(right_mul_gen, i, e) for i in range(1, 5))

    def test_longest_has_all(self):
        w0 = longest_element(3)
        assert all(self.flips(left_mul_gen, i, w0) for i in (1, 2))
        assert all(self.flips(right_mul_gen, i, w0) for i in (1, 2))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_right_descent_iff_length_drop(self, n):
        for p in all_perms(n):
            lp = length(p)
            for i in range(1, n):
                drop = length(apply_gen_right(p, i)) < lp
                assert self.flips(right_mul_gen, i, p) == drop


class TestConjAdjacent:
    """Conjugation by s_i, as the identity-twist step kernel computes it."""

    def test_fixes_identity(self):
        assert _step(identity(4), 2, 2) == identity(4)

    def test_three_cycle(self):
        assert _step(perm((1, 2, 3), n=3), 1, 1) == perm((1, 3, 2), n=3)

    def test_six_cycle(self):
        p = perm((1, 6, 2, 5, 3, 4), n=6)
        assert _step(p, 1, 1) == perm((1, 5, 3, 4, 2, 6), n=6)

    def test_index_range(self):
        with pytest.raises(ValueError):
            one_step(identity(3), 3)


class TestLengthDeltaConj:
    """The length change of conjugation by s_i, as the identity-twist
    cyclic-shift step kernel reports it."""

    def test_identity_case(self):
        for i in range(1, 4):
            assert _step(identity(4), i, i) == identity(4)

    def test_stair_six(self):
        p = perm((1, 6, 2, 5, 3, 4), n=6)
        # absent from the level steps, present among the lowering ones
        assert _step(p, 2, 2) is None
        assert _step(p, 2, 2, lower=True) == perm((1, 6, 3, 5, 2, 4), n=6)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_direct_computation(self, n):
        for p in all_perms(n):
            lp = length(p)
            for i in range(1, n):
                q = apply_gen_right(apply_gen_left(i, p), i)
                delta = length(q) - lp
                assert delta in (-2, 0, 2)
                assert _step(p, i, i) == (q if delta == 0 else None)
                assert _step(p, i, i, lower=True) == (q if delta <= 0 else None)


class TestConjW0:
    def test_identity(self):
        assert conj_w0(identity(5)) == identity(5)

    def test_generator_flip(self):
        assert conj_w0((2, 1, 3)) == (1, 3, 2)

    def test_cycle_example(self):
        assert conj_w0(perm((1, 4, 2), n=4)) == perm((1, 3, 4), n=4)

    def test_preserves_length(self):
        for n in range(7):
            assert all(length(conj_w0(p)) == length(p) for p in all_perms(n))


class TestW0Laws:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_length_complement(self, n):
        w0 = longest_element(n)
        top = length(w0)
        for w in all_perms(n):
            assert length(compose(w, w0)) == top - length(w)
            assert length(compose(w0, w)) == top - length(w)


class TestCycles:
    def test_identity_trivial_cycles(self):
        assert cycles(identity(3)) == ((1,), (2,), (3,))

    def test_stair_42(self):
        p = perm((1, 6, 2, 5), (3, 4), n=6)
        assert cycles(p) == ((1, 6, 2, 5), (3, 4))

    def test_stair_4531(self):
        p = perm((1, 13, 2, 12), (3, 11, 4, 10, 5), (9, 6, 8), n=13)
        assert cycles(p, include_trivial=False) == (
            (1, 13, 2, 12), (3, 11, 4, 10, 5), (6, 8, 9))

    def test_round_trip(self):
        for n in range(7):
            for p in all_perms(n):
                assert from_cycles(n, cycles(p)) == p

    def test_cycle_string(self):
        assert cycle_string(perm((1, 3), n=3)) == "(1,3)(2)"

    @pytest.mark.parametrize("p", [
        (1, 1, 2), (2, 2, 1), (0, 1, 2), (1, 2, 4), (2, 3, 4), (-1, 2, 3),
        (2, 1, -3), (1, 2, -100), (10 ** 9, 1)])
    def test_not_a_permutation_raises_at_once(self, p):
        # a repeated value, 0, n + 1 or a negative value once sent the walk
        # round for ever; the alarm stops a walk that runs past 0.5 s
        def too_slow(signum, frame):
            raise TimeoutError(f"cycles({p}) ran past 0.5 s")

        old = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            with pytest.raises(ValueError,
                               match=re.escape(f"not a permutation: {p}")):
                cycles(p)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


class TestCycleType:
    def test_identity(self):
        assert cycle_type(identity(4)) == (1, 1, 1, 1)

    def test_stair_42(self):
        assert cycle_type(perm((1, 6, 2, 5), (3, 4), n=6)) == (4, 2)

    def test_transposition(self):
        assert cycle_type(perm((1, 3), n=3)) == (2, 1)


class TestEvenOrbits:
    def test_identity_empty(self):
        assert even_orbits(identity(5)) == frozenset()

    def test_stair_42(self):
        p = perm((1, 6, 2, 5), (3, 4), n=6)
        assert even_orbits(p) == frozenset(
            {frozenset({1, 2, 5, 6}), frozenset({3, 4})})


class TestBruhat:
    """Bruhat order as `order_ideal` decides it: u <= w iff u lies in the
    ideal generated by w."""

    def test_identity_is_minimum(self):
        for w in all_perms(4):
            assert identity(4) in order_ideal([w])

    def test_w0_is_maximum(self):
        for n in range(1, 6):
            assert order_ideal([longest_element(n)]) == set(all_perms(n))

    def test_matches_reduced_word_oracle_s4(self):
        for w in all_perms(4):
            below = order_ideal([w])
            for u in all_perms(4):
                assert (u in below) == bruhat_leq_oracle(u, w)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_bruhat_symmetries(self, n):
        # u <= w iff w w0 <= u w0 iff w0 w <= w0 u iff w0 u w0 <= w0 w w0
        w0 = longest_element(n)
        below = {w: order_ideal([w]) for w in all_perms(n)}
        for w in below:
            for u in below:
                ref = u in below[w]
                assert ref == (compose(w, w0) in below[compose(u, w0)])
                assert ref == (compose(w0, w) in below[compose(w0, u)])
                assert ref == (conj_w0(u) in below[conj_w0(w)])


class TestLengthProducts:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_subadditive_and_parity_exhaustive(self, n):
        lens = {p: length(p) for p in all_perms(n)}
        for p in lens:
            for q in lens:
                lpq = length(compose(p, q))
                assert lpq <= lens[p] + lens[q]
                assert (lpq - lens[p] - lens[q]) % 2 == 0
