"""The cross-check suites behind `heckezero verify`."""

import pytest

import heckezero
from heckezero import (
    cli, compositions, counting, cyclic_shift, errors, hecke,
    inductive_product, permutations, stair_classes, verify,
)

from oracles import perms_of_type


def test_predicate_mismatch_fails_the_suite(monkeypatch):
    monkeypatch.setattr(verify, "member_sigma_alpha", lambda p, alpha: False)
    report = verify.suite_classes(4)
    assert report["ok"] is False
    assert not any(c["predicate_matches"] for c in report["checks"])


def test_construction_fault_fails_the_suite(monkeypatch):
    def broken(alpha):
        raise ValueError("constructive route broke")

    monkeypatch.setattr(verify, "sigma_class", broken)
    report = verify.suite_classes(4)
    assert report["ok"] is False
    assert all(c["constructive_matches"] is False for c in report["checks"])


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


@pytest.mark.parametrize("n", range(1, 7))
def test_hook_type_lists_each_permutation_of_the_type_once(n):
    for k in range(1, n + 1):
        pairs = list(verify._hook_type(n, k))
        got = [p for p, _ in pairs]
        assert len(got) == len(set(got))
        assert set(got) == set(perms_of_type(n, (k,) + (1,) * (n - k)))
        # the cycle handed to the hook filter is the one `cycles` finds
        for p, cycle in pairs:
            assert len(cycle) == k and cycle in permutations.cycles(p)


def test_all_suites_walk_the_degree_once(monkeypatch):
    # the stratum pass reaches S_n from one walk of S_{n-1}, made once per
    # (n, twist, stratum); the length law walks each lower degree once
    pass_walks, law_walks, passes = [], [], []
    stratum_pass = cyclic_shift._extreme_lengths

    def counting(walks):
        def counting_all_perms(n):
            walks.append(n)
            return permutations.all_perms(n)
        return counting_all_perms

    def counting_pass(n, twist, longest):
        before = len(pass_walks)
        kept = stratum_pass(n, twist, longest)
        passes.append(((n, twist, longest), pass_walks[before:]))
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
    assert [key for key in keys if key[0] == 6] == [(6, "id", True)]
    assert len(keys) == len(set(keys))
    for (n, _, _), walks in passes:
        assert walks == ([n - 1] if n > 1 else [])
    # no walk of cyclic_shift outside a pass, and no degree walked twice:
    # a second pass at any degree, under any twist or stratum, fails here
    assert len(pass_walks) == sum(len(walks) for _, walks in passes)
    assert len(pass_walks) == len(set(pass_walks))
    # the length law walks each lower degree once, never S_6 itself
    assert sorted(law_walks) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("module", [
    heckezero, cli, compositions, counting, cyclic_shift, errors, hecke,
    inductive_product, permutations, stair_classes, verify,
], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
