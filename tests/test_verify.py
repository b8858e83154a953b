"""The cross-check suites behind `heckezero verify`."""

import pytest

import heckezero
from heckezero import (
    cli, compositions, counting, cyclic_shift, errors, hecke,
    inductive_product, permutations, stair_classes, verify,
)


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


@pytest.mark.parametrize("module", [
    heckezero, cli, compositions, counting, cyclic_shift, errors, hecke,
    inductive_product, permutations, stair_classes, verify,
], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
