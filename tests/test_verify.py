"""The cross-check suites behind `heckezero verify`."""

import pytest

import heckezero
from heckezero import (
    cli, compositions, counting, cyclic_shift, errors, hecke,
    inductive_product, permutations, stair_classes, verify,
)

from oracles import orbit_sets, perms_of_type


def test_predicate_mismatch_fails_the_suite(monkeypatch):
    monkeypatch.setattr(verify, "member_sigma_alpha", lambda p, alpha: False)
    report = verify.suite_classes(4)
    assert report["ok"] is False
    assert not any(c["predicate_matches"] for c in report["checks"])


def test_construction_fault_fails_the_suite(monkeypatch):
    # a wrong class reads as a mismatch; an error in the constructive
    # route is not turned into one, and reaches the caller
    def wrong(alpha, force=False):
        return permutations.EquivClass(frozenset(), 0, alpha)

    monkeypatch.setattr(verify, "sigma_class", wrong)
    report = verify.suite_classes(4)
    assert report["ok"] is False
    assert all(c["constructive_matches"] is False for c in report["checks"])

    def broken(alpha, force=False):
        raise ValueError("constructive route broke")

    monkeypatch.setattr(verify, "sigma_class", broken)
    with pytest.raises(ValueError, match="broke"):
        verify.suite_classes(4)


def test_the_classes_suite_passes_force_on(monkeypatch):
    # (3, 1, 1, 1), (3, 3), (5, 1) and (6) hold more than 5 elements
    monkeypatch.setattr(counting, "ELEMENT_SOFT_LIMIT", 5)
    report = verify.suite_classes(6, force=True)
    assert report["ok"] is True
    assert all(c["constructive_matches"] for c in report["checks"])
    with pytest.raises(errors.DegreeLimitError, match="force"):
        verify.suite_classes(6)


def test_hook_filter_rejecting_all_fails_the_suite(monkeypatch):
    monkeypatch.setattr(verify, "_hook_properties", lambda long, n: False)
    report = verify.suite_hooks(5)
    assert report["ok"] is False
    assert report["checks"]
    assert not any(c["ok"] for c in report["checks"])


def test_hook_filter_accepting_all_fails_the_suite(monkeypatch):
    monkeypatch.setattr(verify, "_hook_properties", lambda long, n: True)
    report = verify.suite_hooks(5)
    assert report["ok"] is False
    # the filter now returns the whole conjugacy class, which is the
    # label's class only when the two have the same size
    for c in report["checks"]:
        assert c["ok"] is (c["size"] == len(perms_of_type(5, c["alpha"])))
    assert not all(c["ok"] for c in report["checks"])


@pytest.mark.parametrize("n", range(1, 8))
def test_classes_suite_checks_the_closed_count_on_every_hook_tail(n):
    report = verify.suite_classes(n)
    assert report["ok"] is True
    counted = []
    for c in report["checks"]:
        odds = [a for a in c["alpha"] if a % 2 == 1]
        if any(a != 1 for a in odds[1:]):
            assert c["formula"] is None, c
        else:
            assert type(c["formula"]) is int and c["formula"] == c["size"], c
            counted.append(tuple(c["alpha"]))
    if n == 7:
        assert {(2, 2, 3), (2, 2, 2, 1), (7,), (5, 1, 1)} <= set(counted)
        assert len(counted) == 15 and len(report["checks"]) == 16


def test_a_wrong_closed_count_fails_its_label(monkeypatch):
    wrong = (2, 2, 3)
    formula = verify.size_sigma_formula

    def off_by_one(alpha):
        value = formula(alpha)
        return value + 1 if alpha == wrong else value

    monkeypatch.setattr(verify, "size_sigma_formula", off_by_one)
    report = verify.suite_classes(7)
    assert report["ok"] is False
    for c in report["checks"]:
        assert c["ok"] is (tuple(c["alpha"]) != wrong), c


def test_iprod_suite_leaves_the_closed_count_to_the_classes_suite():
    report = verify.suite_iprod(6)
    assert report["ok"] is True and report["checks"]
    assert not any("formula" in c for c in report["checks"])


@pytest.mark.parametrize("n", range(1, 9))
def test_hook_type_draws_each_permutation_with_the_hook_support_once(n):
    # the plain filter: the permutations of the type whose long cycle
    # holds 1..m and n-m+1..n, m = k // 2, read off the oracle's orbits
    for k in range(1, n + 1):
        m = k // 2
        ends = {*range(1, m + 1), *range(n - m + 1, n + 1)}
        wanted = {p for p in perms_of_type(n, (k,) + (1,) * (n - k))
                  if any(len(orbit) == k and ends <= orbit
                         for orbit in orbit_sets(p))}
        pairs = list(verify._hook_type(n, k))
        got = [p for p, _ in pairs]
        assert len(got) == len(set(got))
        assert set(got) == wanted
        # the cycle handed to the hook filter is the one `cycles` finds
        for p, cycle in pairs:
            assert len(cycle) == k and cycle in permutations.cycles(p)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_a_filter_without_the_support_test_fails_the_suite(monkeypatch, n):
    # the generator draws only the hook supports; one cycle on each other
    # support still reaches the filter, which must reject it
    def no_support_test(long, n):
        std = stair_classes.standardize_cycle(long)
        return (stair_classes.is_oscillating_cycle(std)
                and stair_classes.has_connected_intervals_cycle(std))

    assert verify.suite_hooks(n)["ok"] is True
    monkeypatch.setattr(verify, "_hook_properties", no_support_test)
    report = verify.suite_hooks(n)
    assert report["ok"] is False
    # a label whose long part is 1 or n has no other support
    for c in report["checks"]:
        if c["alpha"][0] in (1, n):
            assert c["ok"] is True, c


def test_all_suites_walk_the_degree_once(monkeypatch):
    # the stratum pass reaches S_n from one walk of S_{n-1}, made once per
    # (n, longest); the length law walks each lower degree once
    pass_walks, law_walks, passes = [], [], []
    stratum_pass = cyclic_shift._extreme_lengths

    def counting(walks):
        def counting_all_perms(n):
            walks.append(n)
            return permutations.all_perms(n)
        return counting_all_perms

    def counting_pass(n, longest):
        before = len(pass_walks)
        kept = stratum_pass(n, longest)
        passes.append(((n, longest), pass_walks[before:]))
        return kept

    cyclic_shift._stratum.cache_clear()
    monkeypatch.setattr(cyclic_shift, "all_perms", counting(pass_walks))
    monkeypatch.setattr(cyclic_shift, "_extreme_lengths", counting_pass)
    monkeypatch.setattr(verify, "all_perms", counting(law_walks))
    try:
        assert verify.run_suites(6, "all")["ok"] is True
    finally:
        cyclic_shift._stratum.cache_clear()
    keys = [key for key, _ in passes]
    assert [key for key in keys if key[0] == 6] == [(6, True)]
    assert len(keys) == len(set(keys))
    for (n, _), walks in passes:
        assert walks == ([n - 1] if n > 1 else [])
    # no walk of cyclic_shift outside a pass, and no degree walked twice:
    # a second pass at any degree, under any twist or stratum, fails here
    assert len(pass_walks) == sum(len(walks) for _, walks in passes)
    assert len(pass_walks) == len(set(pass_walks))
    # the length law walks each lower degree once, never S_6 itself
    assert sorted(law_walks) == [1, 2, 3, 4, 5]


def test_an_unknown_suite_is_refused_by_name():
    with pytest.raises(ValueError) as caught:
        verify.run_suites(3, "bogus")
    assert caught.type is ValueError
    assert str(caught.value) == ("unknown suite 'bogus'; expected all or one "
                                 "of ['center', 'classes', 'hooks', 'iprod']")


@pytest.mark.parametrize("module", [
    heckezero, cli, compositions, counting, cyclic_shift, errors, hecke,
    inductive_product, permutations, stair_classes, verify,
], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
