"""
Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value below is either a published table entry or was frozen
from an independent oracle run (brute-force search over S_n by the
defining relation).  All comparisons are exact; nothing is tolerance-based.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines as they happen).
"""

import time

import pytest

from heckezero.compositions import enumerate_maximal, hook_kind
from heckezero.counting import dim_center, size_sigma_formula
from heckezero.cyclic_shift import (
    approx_class, equiv_classes, label_max_classes, min_representatives,
)
from heckezero.hecke import t_leq_sigma, verify_center_basis
from heckezero.inductive_product import iprod
from heckezero.permutations import (
    all_perms, compose, conj_w0, cycle_type, from_cycles, identity, length,
    longest_element,
)
from heckezero.stair_classes import (
    cycle_class, hook_properties, lift_cycle_class, lower_cycle_class,
    member_sigma_alpha, odd_hook_embed, sigma_class, stair_form,
)
from heckezero.verify import run_suites

from oracles import (
    ideal_by_inversions, inv_count, orbit_partition_histogram, perms_of_type,
)


def report(number, title):
    print(f"[acceptance] criterion {number:02d} ({title}): PASS")


def perm(*cycs, n):
    return from_cycles(n, cycs)


def cyc_set(n, *cycle_lists):
    return {perm(*cycs, n=n) for cycs in cycle_lists}


# published one-part classes for degrees 1..6, stair form first
TABLE_ONE = {
    1: cyc_set(1, [(1,)]),
    2: cyc_set(2, [(1, 2)]),
    3: cyc_set(3, [(1, 3, 2)], [(1, 2, 3)]),
    4: cyc_set(4, [(1, 4, 2, 3)], [(1, 3, 2, 4)]),
    5: cyc_set(5, [(1, 5, 2, 4, 3)], [(1, 5, 2, 3, 4)], [(1, 5, 3, 2, 4)],
               [(1, 4, 2, 3, 5)], [(1, 4, 3, 2, 5)], [(1, 3, 4, 2, 5)]),
    6: cyc_set(6, [(1, 6, 2, 5, 3, 4)], [(1, 6, 2, 4, 3, 5)],
               [(1, 6, 3, 4, 2, 5)], [(1, 5, 2, 4, 3, 6)],
               [(1, 5, 3, 4, 2, 6)], [(1, 4, 3, 5, 2, 6)]),
}


def test_criterion_01_table_one_reproduction():
    start = time.monotonic()
    for n, expected in TABLE_ONE.items():
        assert cycle_class(n) == expected, f"one-part class at n={n}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report(1, "one-part classes match the published table for n=1..6")


def test_criterion_02_s3_max_classes():
    start = time.monotonic()
    classes = equiv_classes(3, "id", "max")
    got = {cls.elements for cls in classes}
    assert got == {
        frozenset({identity(3)}),
        frozenset({perm((1, 2, 3), n=3), perm((1, 3, 2), n=3)}),
        frozenset({perm((1, 3), n=3)}),
    }
    assert time.monotonic() - start < 1.0
    report(2, "brute-force max classes of S_3 are {1}, the 3-cycles, {(1,3)}")


def test_criterion_03_class_311_two_ways():
    expected = cyc_set(5, [(1, 5, 2)], [(1, 2, 5)], [(1, 5, 3)],
                       [(1, 3, 5)], [(1, 5, 4)], [(1, 4, 5)])
    by_filter = {
        p for p in perms_of_type(5, (3, 1, 1))
        if hook_properties(p, (3, 1, 1))
    }
    assert by_filter == expected
    by_embedding = {
        odd_hook_embed(tau, j, (3, 1, 1))
        for tau in cycle_class(3) for j in range(2, 5)
    }
    assert by_embedding == expected
    report(3, "hook filter and hook embedding both give the six 3-cycles")


@pytest.mark.parametrize("n", range(1, 8))
def test_criterion_04_oracle_equivalence(n):
    labelled = label_max_classes(n)
    for alpha, cls in labelled.items():
        predicate = {
            p for p in all_perms(n) if member_sigma_alpha(p, alpha)
        }
        assert predicate == cls.elements, alpha
    if n == 7:
        report(4, "membership predicate = brute-force class, all labels n<=7")


@pytest.mark.parametrize("n", range(8))
def test_criterion_05_dimension(n):
    d = dim_center(n)
    assert d == len(enumerate_maximal(n))
    assert d == len(equiv_classes(n, "id", "max"))
    if n == 3:
        assert d == 3
    if n == 7:
        report(5, "dimension formula = label count = brute-force count, n<=7")


def test_criterion_06_insertion_bijection():
    for n in range(4, 10):
        src = sorted(cycle_class(n - 1))
        if n % 2 == 0:
            domain = [(s, None) for s in src]
            images = [lift_cycle_class(n, s) for s in src]
        else:
            domain = [(s, q) for s in src for q in (0, 1, 2)]
            images = [lift_cycle_class(n, s, q) for s, q in domain]
        assert len(set(images)) == len(images)
        assert set(images) == set(cycle_class(n))
        if n <= 7:
            # onto the true class, straight from the defining relation
            assert set(images) == approx_class(stair_form((n,)))
        for (s, q), img in zip(domain, images):
            assert lower_cycle_class(img) == (s, q)
        assert (len(images) == size_sigma_formula((n,))
                == 2 * 3 ** ((n - 3) // 2))

    # the published 2x3 table at n=5
    table = {
        ((1, 4, 2, 3), 0): (1, 5, 3, 2, 4),
        ((1, 4, 2, 3), 1): (1, 5, 2, 3, 4),
        ((1, 4, 2, 3), 2): (1, 5, 2, 4, 3),
        ((1, 3, 2, 4), 0): (1, 3, 4, 2, 5),
        ((1, 3, 2, 4), 1): (1, 4, 3, 2, 5),
        ((1, 3, 2, 4), 2): (1, 4, 2, 3, 5),
    }
    for (cyc, q), expected in table.items():
        got = lift_cycle_class(5, perm(cyc, n=4), q)
        assert got == perm(expected, n=5)
    report(6, "insertion map is a bijection with inverse, 4<=n<=9; n=5 table")


def test_criterion_07a_product_examples():
    got = iprod(stair_form((6,)), stair_form((3, 1)))
    assert got == perm((1, 10, 2, 9, 3, 8), (4, 7, 5), n=10)
    got = iprod(stair_form((5,)), conj_w0(stair_form((3, 1))))
    assert got == perm((1, 9, 2, 8, 3), (7, 4, 6), n=9)
    assert got == stair_form((5, 3, 1))
    report(7, "(a) published product examples reproduced exactly")


@pytest.mark.parametrize("n", range(2, 8))
def test_criterion_07b_even_first_decomposition(n):
    labelled = label_max_classes(n)
    for alpha in enumerate_maximal(n):
        if len(alpha) < 2 or alpha[0] % 2 == 1:
            continue
        tail = label_max_classes(n - alpha[0])[alpha[1:]].elements
        product = {iprod(a, b) for a in cycle_class(alpha[0]) for b in tail}
        assert product == labelled[alpha].elements, alpha
    if n == 7:
        report(7, "(b) class = product of part classes, even-first, |alpha|<=7")


@pytest.mark.parametrize("n", range(2, 8))
def test_criterion_07c_length_law(n):
    from heckezero.inductive_product import iprod_length_law

    for n1 in range(1, n + 1):
        n2 = n - n1
        for s1 in (p for p in all_perms(n1) if cycle_type(p) == (n1,)):
            for s2 in all_perms(n2):
                assert iprod_length_law(s1, s2) == length(iprod(s1, s2))
    if n == 7:
        report(7, "(c) length law matches direct length, n1+n2<=7")


def test_criterion_08_cardinality_formulas():
    alpha = (2, 4, 3, 1, 1)
    assert size_sigma_formula(alpha) == 12
    constructive = sigma_class(alpha)
    assert constructive.size == 12
    brute = approx_class(stair_form(alpha))
    assert brute == constructive.elements

    big = (2, 8, 4, 5, 1, 1, 1)
    assert size_sigma_formula(big) == 864
    assert sigma_class(big).size == 864
    report(8, "|class(2,4,3,1,1)| = 12 three ways; |class(2,8,4,5,1^3)| = 864")


def test_criterion_09_center_verification():
    for n in range(10):
        rep = verify_center_basis(n, force=n == 9)
        assert rep.ok, (n, rep.failures)
        assert rep.rank == len(rep.alphas) == rep.dim
    assert rep.dim == 35

    # the three published basis elements of the degree-3 center
    t = {alpha: t_leq_sigma(alpha, 3) for alpha in enumerate_maximal(3)}
    assert t[(1, 1, 1)].terms == {identity(3): 1}
    five = {w: 1 for w in all_perms(3) if w != (3, 2, 1)}
    assert dict(t[(3,)].terms) == five
    assert dict(t[(2, 1)].terms) == {w: 1 for w in all_perms(3)}
    report(9, "ideal sums central, independent, count = dim, n<=9; n=3 basis")


@pytest.mark.parametrize("n", range(7))
def test_criterion_09b_stair_forms_order_the_ideals(n):
    # the stair form of alpha lies in its own ideal, and in the ideal of
    # another label only when its class is strictly shorter: on the
    # stair-form columns, sorted by class length, the ideal sums form a
    # unitriangular minor, a second proof of their independence
    alphas = enumerate_maximal(n)
    stairs = {beta: stair_form(beta) for beta in alphas}
    for alpha in alphas:
        ideal = ideal_by_inversions(sigma_class(alpha).elements)
        assert stairs[alpha] in ideal, alpha
        for beta in alphas:
            if beta != alpha and stairs[beta] in ideal:
                assert inv_count(stairs[beta]) < inv_count(stairs[alpha]), (
                    alpha, beta)
    if n == 6:
        report(9, "(b) stair forms give a unitriangular minor, n<=6")


@pytest.mark.parametrize("n", range(1, 8))
def test_criterion_10_hook_characterization(n):
    labelled = label_max_classes(n)
    for alpha in enumerate_maximal(n):
        if hook_kind(alpha) == "not_hook":
            continue
        lam = tuple(sorted(alpha, reverse=True))
        filtered = {
            p for p in perms_of_type(n, lam) if hook_properties(p, alpha)
        }
        assert filtered == labelled[alpha].elements, alpha
    if n == 6:
        assert labelled[(4, 1, 1)].elements == cyc_set(
            6, [(1, 6, 2, 5)], [(1, 5, 2, 6)])
    if n == 7:
        report(10, "hook filter = brute force for every hook, both parities")


REMARK_TABLE_33 = [
    [((1, 6, 2), (3, 4, 5)), ((1, 2, 6), (3, 4, 5)),
     ((1, 6, 2), (3, 5, 4)), ((1, 2, 6), (3, 5, 4))],
    [((1, 6, 3), (2, 4, 5)), ((1, 6, 3), (2, 5, 4)),
     ((1, 3, 6), (2, 4, 5)), ((1, 3, 6), (2, 5, 4))],
    [((1, 4, 5), (2, 6, 3)), ((1, 5, 4), (2, 3, 6)),
     ((1, 5, 4), (2, 6, 3)), ((1, 4, 5), (2, 3, 6))],
    [((1, 6, 4), (2, 3, 5)), ((1, 4, 6), (2, 3, 5)),
     ((1, 6, 4), (2, 5, 3)), ((1, 4, 6), (2, 5, 3))],
    [((1, 6, 5), (2, 3, 4)), ((1, 5, 6), (2, 3, 4)),
     ((1, 5, 6), (2, 4, 3)), ((1, 6, 5), (2, 4, 3))],
    [((1, 5, 3), (2, 4, 6)), ((1, 3, 5), (2, 6, 4))],
]


def test_criterion_11_non_hook_33():
    expected = {
        perm(*cycs, n=6) for row in REMARK_TABLE_33 for cycs in row
    }
    assert len(expected) == 22
    got = sigma_class((3, 3))
    assert got.elements == expected
    assert got.elements == approx_class(stair_form((3, 3)))
    hist = orbit_partition_histogram(got.elements)
    assert sorted(hist.values(), reverse=True) == [4, 4, 4, 4, 4, 2]
    # rows of the table are exactly the orbit-partition fibers
    for row in REMARK_TABLE_33:
        fibers = {frozenset(frozenset(c) for c in cycs) for cycs in row}
        assert len(fibers) == 1
    report(11, "class of (3,3) is the published 22-element table")


@pytest.mark.parametrize("n", range(1, 8))
def test_criterion_12_nu_stability_and_min_representatives(n):
    for cls in equiv_classes(n, "id", "max"):
        assert {conj_w0(w) for w in cls.elements} == cls.elements
    if n <= 6:
        reps = min_representatives(n)  # raises unless pairwise distinct
        w0 = longest_element(n)
        assert all(
            reps[alpha] == compose(stair_form(alpha), w0) for alpha in reps
        )
    if n == 7:
        report(12, "conj by w0 fixes every max class n<=7; nu-min reps n<=6")


@pytest.mark.parametrize("n", range(1, 10))
def test_criterion_12b_nu_min_classes_from_the_constructive_route(n):
    # w -> w*w0 reverses length and turns the step s_i w s_i into the
    # nu-step s_i (w*w0) s_{n-i}, so it carries each maximal class onto a
    # class of the nu-minimal stratum
    w0 = longest_element(n)
    constructed = {frozenset(compose(w, w0) for w in sigma_class(alpha).elements)
                   for alpha in enumerate_maximal(n)}
    brute = {cls.elements for cls in equiv_classes(n, "nu", "min", force=n > 8)}
    assert constructed == brute
    if n == 9:
        report(12, "w*w0 maps the constructed classes onto the nu-min ones n<=9")


def test_criterion_13_every_suite_at_n8():
    # all four cross-check suites at n = 8 (0.3-0.8 s in-process)
    rep = run_suites(8, "all", force=True)
    assert set(rep["suites"]) == {"classes", "hooks", "iprod", "center"}
    for name, suite in rep["suites"].items():
        assert suite["ok"] is True and suite["n"] == 8, (name, suite)
    assert rep["ok"] is True
    assert rep["suites"]["center"]["dim_center"] == 26
    report(13, "classes, hooks, iprod and center suites all pass at n=8")
