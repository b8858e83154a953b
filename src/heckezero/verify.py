"""
Cross-checks of the constructive machinery against brute force.

Each suite returns a JSON-friendly dict with an "ok" flag and enough
detail to locate a failure.  These back the `verify` CLI subcommand and
mirror what the test suite pins at fixed degrees.
"""

from __future__ import annotations

from itertools import combinations, islice, permutations
from typing import Iterator

from . import hecke
from .compositions import enumerate_maximal, hook_kind
from .counting import dim_center, size_sigma_formula
from .cyclic_shift import label_max_classes
from .inductive_product import _crossing, iprod
from .permutations import Cycle, Perm, all_perms, conj_w0, lengths, stair_form
from .stair_classes import (
    _hook_properties, _invariants, cycle_class, member_sigma_alpha, sigma_class,
)

__all__ = ["SUITES", "suite_classes", "suite_hooks", "suite_iprod",
           "suite_center", "run_suites"]


def _hook_type(n: int, k: int) -> Iterator[tuple[Perm, Cycle]]:
    """Every permutation of S_n with one k-cycle and n - k fixed points
    whose cycle holds {1..m} | {n-m+1..n}, m = k // 2 (the support of the
    hook properties: that set, with one middle point more for odd k), each
    once, paired with that cycle written from 1 (the identity with the
    1-cycle (1,) when k = 1)."""
    if k == 1:
        yield tuple(range(1, n + 1)), (1,)
        return
    m = k // 2
    middles = [(j,) for j in range(m + 1, n - m + 1)] if k % 2 else [()]
    base = list(range(1, n + 1))
    for middle in middles:
        rest = (*range(2, m + 1), *middle, *range(n - m + 1, n + 1))
        for tail in permutations(rest):
            cycle = (1,) + tail
            img = base.copy()
            for a, b in zip(cycle, tail + (1,)):
                img[a - 1] = b
            yield tuple(img), cycle


def suite_classes(n: int, force: bool = False) -> dict:
    """Labelled brute-force classes vs. the membership predicate, the
    constructive generator and the closed count (on the labels that have
    one), plus the dimension count and stability under conjugation by the
    longest element."""
    labelled = label_max_classes(n, force=force)
    # The labelling has put each stair form in the maximal stratum, so the
    # stair form's length is the maximal length of its cycle type, and the
    # permutations of that type and length are the stratum's members of that
    # type.  The predicate set is therefore read off the stratum.
    by_invariants: dict[tuple, set[Perm]] = {}
    for cls in labelled.values():
        for p in cls.elements:
            by_invariants.setdefault(_invariants(p), set()).add(p)
    checks = []
    ok = True
    for alpha in enumerate_maximal(n):
        brute = labelled[alpha].elements
        predicate = frozenset(
            by_invariants.get(_invariants(stair_form(alpha)), ()))
        # the three membership invariants must cut out the brute-force
        # class and agree with the public predicate on every member
        predicate_ok = predicate == brute and all(
            member_sigma_alpha(p, alpha) for p in predicate)
        nu_stable = all(conj_w0(w) in brute for w in brute)
        constructive = sigma_class(alpha, force).elements == brute
        formula = size_sigma_formula(alpha)
        good = (predicate_ok and nu_stable and constructive
                and formula in (None, len(brute)))
        ok = ok and good
        checks.append({
            "alpha": list(alpha),
            "size": len(brute),
            "formula": formula,
            "predicate_matches": predicate_ok,
            "constructive_matches": constructive,
            "nu_stable": nu_stable,
            "ok": good,
        })
    dim = dim_center(n)
    dim_ok = dim == len(labelled)
    return {
        "suite": "classes",
        "n": n,
        "class_count": len(labelled),
        "dim_center": dim,
        "dim_matches": dim_ok,
        "checks": checks,
        "ok": ok and dim_ok,
    }


def suite_hooks(n: int, force: bool = False) -> dict:
    """Hook-property filtering vs. brute force for every hook shape of n.

    The filter runs over the permutations of S_n of the label's cycle type
    whose long cycle has the support of the hook properties, generated
    directly.  They already have that type, so the filter hands the cycle
    each was built from to `_hook_properties` and skips the input checks
    of `hook_properties`.  The support test is checked on the rest of the
    type by one cycle on each other support, which the filter must
    reject."""
    labelled = label_max_classes(n, force=force)
    checks = []
    ok = True
    for alpha in enumerate_maximal(n):
        kind = hook_kind(alpha)
        if kind == "not_hook":
            continue
        k = alpha[0]
        brute = labelled[alpha].elements
        filtered = frozenset(
            p for p, cycle in _hook_type(n, k) if _hook_properties(cycle, n)
        )
        ends = {*range(1, k // 2 + 1), *range(n - k // 2 + 1, n + 1)}
        rejected = not any(
            _hook_properties(support, n)
            for support in combinations(range(1, n + 1), k)
            if not ends <= set(support)
        )
        good = filtered == brute and rejected
        ok = ok and good
        checks.append({
            "alpha": list(alpha),
            "kind": kind,
            "size": len(brute),
            "ok": good,
        })
    return {"suite": "hooks", "n": n, "checks": checks, "ok": ok}


def suite_iprod(n: int, force: bool = False) -> dict:
    """Product decomposition of even-first labels and the length law.

    Both sides of the decomposition come from brute force: the class of
    alpha at degree n and the class of alpha[1:] at the lower degree."""
    labelled = label_max_classes(n, force=force)
    lower = {m: label_max_classes(m, force=force) for m in range(1, n - 1)}
    checks = []
    ok = True
    for alpha in enumerate_maximal(n):
        if len(alpha) < 2 or alpha[0] % 2 == 1:
            continue
        brute = labelled[alpha].elements
        product = {
            iprod(a, b) for a in cycle_class(alpha[0])
            for b in lower[n - alpha[0]][alpha[1:]].elements
        }
        good = product == brute
        ok = ok and good
        checks.append({"alpha": list(alpha), "size": len(brute), "ok": good})
    # the length law on each full n1-cycle against each permutation of
    # S_{n - n1}: the terms of each left factor, and the length of each
    # right factor, taken once; the right factors streamed in blocks of
    # about 4096 products, each product built and its length compared
    law_ok = True
    for n1 in range(1, n):
        n2 = n - n1
        full_cycles = [p for p, _ in _hook_type(n1, n1)]
        left = [l1 + _crossing(s1) * n2
                for s1, l1 in zip(full_cycles, lengths(full_cycles))]
        rights = all_perms(n2)
        per_block = max(1, 4096 // len(full_cycles))
        while block := list(islice(rights, per_block)):
            law = [base + l2 for l2 in lengths(block) for base in left]
            products = [iprod(s1, s2) for s2 in block for s1 in full_cycles]
            law_ok = law_ok and lengths(products) == law
    ok = ok and law_ok
    return {
        "suite": "iprod", "n": n, "length_law_ok": law_ok,
        "checks": checks, "ok": ok,
    }


def suite_center(n: int, force: bool = False) -> dict:
    """Centrality, independence and dimension of the ideal-sum family."""
    report = hecke.verify_center_basis(n, force=force)
    return {
        "suite": "center",
        "n": n,
        "family_size": len(report.alphas),
        "dim_center": report.dim,
        "all_central": report.all_central,
        "independent": report.independent,
        "failures": list(report.failures),
        "ok": report.ok,
    }


# The center suite runs first: it shares nothing with the others, and what
# it builds is freed before they walk S_n for the maximal stratum.
SUITES = {
    "center": suite_center,
    "classes": suite_classes,
    "hooks": suite_hooks,
    "iprod": suite_iprod,
}


def run_suites(n: int, which: str = "all", force: bool = False) -> dict:
    """Run one suite or all of them at degree n."""
    if which == "all":
        names = list(SUITES)
    elif which in SUITES:
        names = [which]
    else:
        raise ValueError(f"unknown suite {which!r}; expected all or one of "
                         f"{sorted(SUITES)}")
    results = {name: SUITES[name](n, force=force) for name in names}
    return {
        "n": n,
        "suites": results,
        "ok": all(r["ok"] for r in results.values()),
    }
