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
    monkeypatch.setattr(verify, "_hook_properties", lambda cycs, k: False)
    report = verify.suite_hooks(5)
    assert report["ok"] is False
    assert report["checks"]
    assert not any(c["ok"] for c in report["checks"])


def test_hook_filter_accepting_all_fails_the_suite(monkeypatch):
    monkeypatch.setattr(verify, "_hook_properties", lambda cycs, k: True)
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
        got = list(verify._hook_type(n, k))
        assert len(got) == len(set(got))
        assert set(got) == set(perms_of_type(n, (k,) + (1,) * (n - k)))


def test_all_suites_walk_the_degree_once(monkeypatch):
    # the one walk of S_6 is the stratum pass behind the labelling
    walked = []

    def counting_all_perms(n):
        walked.append(n)
        return permutations.all_perms(n)

    cyclic_shift._stratum.cache_clear()
    monkeypatch.setattr(cyclic_shift, "all_perms", counting_all_perms)
    monkeypatch.setattr(verify, "all_perms", counting_all_perms)
    try:
        assert verify.run_suites(6, "all")["ok"] is True
    finally:
        cyclic_shift._stratum.cache_clear()
    # the length law walks lower degrees, never S_6 itself
    assert walked.count(6) == 1


@pytest.mark.parametrize("module", [
    heckezero, cli, compositions, counting, cyclic_shift, errors, hecke,
    inductive_product, permutations, stair_classes, verify,
], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
