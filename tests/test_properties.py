"""Randomized property tests for the algebraic identities."""

import random

from hypothesis import given, settings, strategies as st

from heckezero.cyclic_shift import _step, approx_class, one_step
from heckezero.hecke import left_mul_gen, order_ideal, t_basis
from heckezero.inductive_product import iprod, iprod_length_law
from heckezero.permutations import (
    compose, conj_w0, cycle_type, from_cycles, inverse, length,
    longest_element,
)
from heckezero.stair_classes import (
    cycle_class, lift_cycle_class, lower_cycle_class,
)

from oracles import apply_gen_left, apply_gen_right, inv_count, mutual_class


def perms(min_n=0, max_n=8):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple))


@given(perms(min_n=60, max_n=100))
def test_length_is_inversion_count_beyond_one_word(w):
    # values above 63 put the seen-value bitmask past one machine word;
    # tests/test_permutations.py checks every permutation of degree <= 7
    assert length(w) == inv_count(w)


def perm_pairs(min_n=1, max_n=7):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))).map(tuple),
            st.permutations(list(range(1, n + 1))).map(tuple)))


def full_cycle_perms(min_n=1, max_n=8):
    def build(args):
        n, rest = args
        return from_cycles(n, [(1,) + tuple(rest)])
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.permutations(list(range(2, n + 1)))).map(build))


@given(perm_pairs())
def test_inverse_of_product(pair):
    p, q = pair
    assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


@given(perm_pairs(min_n=6, max_n=7))
def test_length_subadditive_and_parity(pair):
    p, q = pair
    lpq = length(compose(p, q))
    assert lpq <= length(p) + length(q)
    assert (lpq - length(p) - length(q)) % 2 == 0


@given(perms(min_n=1))
def test_w0_laws(p):
    n = len(p)
    w0 = longest_element(n)
    assert length(compose(p, w0)) == length(w0) - length(p)
    assert length(conj_w0(p)) == length(p)
    assert conj_w0(conj_w0(p)) == p


@given(perms(min_n=2), st.data(), st.sampled_from(["id", "nu"]))
def test_length_delta_matches_direct(p, data, twist):
    n = len(p)
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = i if twist == "id" else n - i
    q = apply_gen_right(apply_gen_left(i, p), j)
    delta = length(q) - length(p)
    assert _step(p, i, j) == (q if delta == 0 else None)
    assert _step(p, i, j, lower=True) == (q if delta <= 0 else None)


@given(perms(min_n=2), st.data())
def test_swap_values_is_left_generator(p, data):
    n = len(p)
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    # T_i * T_p climbs to T_{s_i p}, the value swap, or flips the sign
    sp = apply_gen_left(i, p)
    expected = {sp: 1} if inv_count(sp) > inv_count(p) else {p: -1}
    assert left_mul_gen(i, t_basis(n, p)).terms == expected


@given(perm_pairs(min_n=6, max_n=7))
def test_bruhat_antiautomorphisms(pair):
    u, w = pair
    n = len(u)
    w0 = longest_element(n)
    ref = u in order_ideal([w])
    assert ref == (compose(w, w0) in order_ideal([compose(u, w0)]))
    assert ref == (compose(w0, w) in order_ideal([compose(w0, u)]))
    assert ref == (conj_w0(u) in order_ideal([conj_w0(w)]))


@given(perms(min_n=2), st.data())
def test_one_step_never_lengthens(p, data):
    i = data.draw(st.integers(min_value=1, max_value=len(p) - 1))
    stepped = one_step(p, i)
    if stepped is not None:
        assert length(stepped) <= length(p)
        assert cycle_type(stepped) == cycle_type(p)


@given(perms(min_n=1, max_n=6))
def test_class_members_share_length_and_even_orbits_if_max(p):
    cls = approx_class(p)
    assert {length(w) for w in cls} == {length(p)}


@settings(max_examples=50)
@given(perms(min_n=7, max_n=7))
def test_approx_class_is_mutual_reachability(w):
    for twist in ("id", "nu"):
        assert approx_class(w, twist) == mutual_class(w, twist)


@settings(max_examples=30)
@given(st.integers(min_value=4, max_value=9), st.data())
def test_lift_lower_roundtrip(n, data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    sigma = rng.choice(sorted(cycle_class(n - 1)))
    q = data.draw(st.sampled_from([0, 1, 2])) if n % 2 else None
    lifted = (lift_cycle_class(n, sigma, q) if q is not None
              else lift_cycle_class(n, sigma))
    assert lower_cycle_class(lifted) == (sigma, q)


@given(full_cycle_perms(min_n=1, max_n=6), perms(min_n=0, max_n=5))
def test_iprod_length_law_random(s1, s2):
    assert iprod_length_law(s1, s2) == length(iprod(s1, s2))
