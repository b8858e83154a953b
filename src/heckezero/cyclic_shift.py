"""
Brute-force ground truth for the cyclic-shift relation on S_n.

For a twist `delta` (either the identity or conjugation by the longest
element, selected by the strings "id" and "nu"), a single step sends w to
`s_i * w * delta(s_i)` provided the length does not increase.  The
reflexive-transitive closure of these steps is a preorder; mutual
reachability is an equivalence whose classes partition the strata of
minimal- and maximal-length elements of each twisted conjugacy class.

Classes are computed as strongly connected components of the one-step
digraph over all of S_n.  Enumerations materialize S_n in lexicographic
one-line order, so everything here is deterministic; the practical degree
bound n <= 8 is a soft limit lifted by `force=True`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import lru_cache

from .compositions import Composition, enumerate_maximal
from .errors import DegreeLimitError
from .permutations import (
    OrbitPartition, Perm, all_perms, compose, cycle_type, even_orbits,
    length, longest_element, swap_values,
)
from .stair_classes import stair_form

__all__ = [
    "TWISTS", "EquivClass", "make_equiv_class",
    "one_step", "arrow_closure", "approx_class",
    "equiv_classes", "label_max_classes", "min_representatives",
    "DEGREE_SOFT_LIMIT",
]

TWISTS = ("id", "nu")

#: Largest degree brute-forced without `force=True` (8! = 40320 vertices).
DEGREE_SOFT_LIMIT = 8


@dataclass(frozen=True)
class EquivClass:
    """One equivalence class of mutually cyclic-shift-reachable permutations.

    All members share a common Coxeter length.  `alpha` is the labelling
    maximal composition when the class is a labelled maximal-stratum class,
    else None.  `even_orbit_partition` is the even-size orbit partition
    shared by every member, or None when the members disagree (possible
    only for unlabelled strata).
    """

    elements: frozenset[Perm]
    common_length: int
    alpha: Composition | None = None
    even_orbit_partition: OrbitPartition | None = None

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def min_element(self) -> Perm:
        return min(self.elements)

    def sorted_elements(self) -> list[Perm]:
        return sorted(self.elements)


def make_equiv_class(elements, alpha: Composition | None = None) -> EquivClass:
    """Build an EquivClass, computing the shared length and orbit data."""
    elems = frozenset(elements)
    if not elems:
        raise ValueError("an equivalence class cannot be empty")
    lengths = {length(w) for w in elems}
    if len(lengths) != 1:
        raise ValueError("elements do not share a common length")
    pes = {even_orbits(w) for w in elems}
    pe = next(iter(pes)) if len(pes) == 1 else None
    return EquivClass(elems, lengths.pop(), alpha, pe)


def _check_twist(twist: str) -> None:
    if twist not in TWISTS:
        raise ValueError(f"unknown twist {twist!r}; expected one of {TWISTS}")


def twisted_gen(i: int, n: int, twist: str) -> int:
    """Image of the generator index i under the twist (i itself, or n-i)."""
    _check_twist(twist)
    return i if twist == "id" else n - i


def _step(w: Perm, i: int, twist: str) -> Perm:
    """The permutation s_i * w * delta(s_i), regardless of length."""
    j = twisted_gen(i, len(w), twist)
    q = list(swap_values(w, i))
    q[j - 1], q[j] = q[j], q[j - 1]           # right factor swaps positions j, j+1
    return tuple(q)


def one_step(w: Perm, i: int, twist: str = "id") -> Perm | None:
    """One cyclic-shift step: s_i * w * delta(s_i) if its length does not
    exceed length(w), else None.

    >>> one_step((2, 3, 1), 1)     # (1,2,3) -> (1,3,2)
    (3, 1, 2)
    """
    n = len(w)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for S_{n}")
    w2 = _step(w, i, twist)
    return w2 if length(w2) <= length(w) else None


def _search(w: Perm, twist: str, keep) -> frozenset[Perm]:
    """Depth-first search from `w` along the steps v -> u with
    keep(length(u), length(v))."""
    _check_twist(twist)
    n = len(w)
    seen = {w}
    stack = [w]
    while stack:
        v = stack.pop()
        lv = length(v)
        for i in range(1, n):
            u = _step(v, i, twist)
            if u not in seen and keep(length(u), lv):
                seen.add(u)
                stack.append(u)
    return frozenset(seen)


def arrow_closure(w: Perm, twist: str = "id") -> frozenset[Perm]:
    """All permutations reachable from `w` by cyclic-shift steps."""
    return _search(w, twist, operator.le)


def approx_class(w: Perm, twist: str = "id") -> frozenset[Perm]:
    """The full equivalence class of `w` under mutual reachability.

    Steps never increase length, so any round trip w -> ... -> w' -> ... -> w
    keeps the length constant throughout.  The class of `w` is therefore the
    connected component of `w` under length-preserving steps alone, which
    this BFS explores directly; unlike `equiv_classes` it never touches the
    rest of S_n, so it stays cheap even at degrees where n! is out of reach.
    """
    return _search(w, twist, operator.eq)


def _check_degree(n: int, force: bool) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DEGREE_SOFT_LIMIT and not force:
        raise DegreeLimitError(
            f"degree {n} exceeds the practical bound {DEGREE_SOFT_LIMIT} "
            "for brute-force enumeration; pass force=True to override"
        )


@lru_cache(maxsize=None)
def _scc_partition(n: int, twist: str) -> tuple[frozenset[Perm], ...]:
    """Strongly connected components of the one-step digraph on S_n.

    Iterative Tarjan over vertex ranks in lexicographic order.
    """
    perms = list(all_perms(n))
    rank = {p: r for r, p in enumerate(perms)}
    lens = [length(p) for p in perms]
    nverts = len(perms)

    succs: list[list[int]] = []
    for v, w in enumerate(perms):
        lw = lens[v]
        row = []
        for i in range(1, n):
            u = rank[_step(w, i, twist)]
            if lens[u] <= lw:
                row.append(u)
        succs.append(row)

    index = [-1] * nverts
    low = [0] * nverts
    on_stack = bytearray(nverts)
    stack: list[int] = []
    comps: list[frozenset[Perm]] = []
    counter = 0

    for root in range(nverts):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            advanced = False
            for k in range(pi, len(succs[v])):
                u = succs[v][k]
                if index[u] == -1:
                    work[-1] = (v, k + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = 0
                    comp.append(perms[u])
                    if u == v:
                        break
                comps.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return tuple(comps)


def _delta_class_key(w: Perm, twist: str, w0: Perm):
    """Invariant separating twisted conjugacy classes.

    For the identity twist this is the cycle type.  For the `nu` twist,
    w -> w*w0 intertwines twisted conjugacy with ordinary conjugacy, so the
    cycle type of w*w0 is a complete invariant.
    """
    return cycle_type(w) if twist == "id" else cycle_type(compose(w, w0))


def equiv_classes(
    n: int, twist: str = "id", stratum: str = "all", force: bool = False
) -> list[EquivClass]:
    """All equivalence classes of S_n under the twisted cyclic-shift relation.

    `stratum` restricts to classes of minimal ("min") or maximal ("max")
    length within their twisted conjugacy class; "all" keeps everything.
    Classes are sorted by their lexicographically smallest member.
    """
    _check_twist(twist)
    _check_degree(n, force)
    if stratum not in ("all", "min", "max"):
        raise ValueError(f"unknown stratum {stratum!r}")
    comps = _scc_partition(n, twist)

    if stratum == "all":
        chosen = list(comps)
    else:
        w0 = longest_element(n)
        extreme: dict[tuple, int] = {}
        better = min if stratum == "min" else max
        for w in all_perms(n):
            key = _delta_class_key(w, twist, w0)
            lw = length(w)
            cur = extreme.get(key)
            extreme[key] = lw if cur is None else better(cur, lw)
        chosen = []
        for comp in comps:
            w = next(iter(comp))
            if length(w) == extreme[_delta_class_key(w, twist, w0)]:
                chosen.append(comp)

    classes = [make_equiv_class(comp) for comp in chosen]
    classes.sort(key=lambda c: c.min_element)
    return classes


def label_max_classes(n: int, force: bool = False) -> dict[Composition, EquivClass]:
    """Label each maximal-stratum class of S_n by its maximal composition.

    For every maximal composition alpha of n, the returned mapping sends
    alpha to the class containing its stair-form permutation.  The map is
    checked to be a bijection onto the maximal-stratum classes; any failure
    would indicate a bug and raises RuntimeError.
    """
    classes = equiv_classes(n, "id", "max", force)
    of_elem: dict[Perm, int] = {}
    for idx, cls in enumerate(classes):
        for w in cls.elements:
            of_elem[w] = idx
    out: dict[Composition, EquivClass] = {}
    hit: dict[int, Composition] = {}
    for alpha in enumerate_maximal(n):
        sf = stair_form(alpha)
        idx = of_elem.get(sf)
        if idx is None:
            raise RuntimeError(
                f"stair form of {alpha} is not in the maximal stratum of S_{n}"
            )
        if idx in hit:
            raise RuntimeError(
                f"stair forms of {hit[idx]} and {alpha} share one class"
            )
        hit[idx] = alpha
        out[alpha] = replace(classes[idx], alpha=alpha)
    if len(hit) != len(classes):
        raise RuntimeError(
            f"{len(classes) - len(hit)} maximal classes of S_{n} carry no stair form"
        )
    return out


def min_representatives(n: int, force: bool = False) -> dict[Composition, Perm]:
    """Representatives `stair_form(alpha) * w0` of the nu-twisted minimal
    stratum, one per maximal composition of n.

    Verifies that the representatives lie in pairwise distinct classes of
    the nu-minimal stratum and that every such class is hit; any failure
    raises RuntimeError.
    """
    w0 = longest_element(n)
    reps = {alpha: compose(stair_form(alpha), w0) for alpha in enumerate_maximal(n)}
    classes = equiv_classes(n, "nu", "min", force)
    of_elem: dict[Perm, int] = {}
    for idx, cls in enumerate(classes):
        for w in cls.elements:
            of_elem[w] = idx
    seen: dict[int, Composition] = {}
    for alpha, rep in reps.items():
        idx = of_elem.get(rep)
        if idx is None:
            raise RuntimeError(
                f"representative of {alpha} is not nu-minimal in S_{n}"
            )
        if idx in seen:
            raise RuntimeError(
                f"representatives of {seen[idx]} and {alpha} share one class"
            )
        seen[idx] = alpha
    if len(seen) != len(classes):
        raise RuntimeError(
            f"{len(classes) - len(seen)} nu-minimal classes of S_{n} missed"
        )
    return reps
