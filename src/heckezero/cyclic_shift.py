"""
Brute-force ground truth for the cyclic-shift relation on S_n.

For a twist `delta` (either the identity or conjugation by the longest
element, selected by the strings "id" and "nu"), a single step sends w to
`s_i * w * delta(s_i)` provided the length does not increase.  The
reflexive-transitive closure of these steps is a preorder; mutual
reachability is an equivalence whose classes partition the strata of
minimal- and maximal-length elements of each twisted conjugacy class.
The "nu" classes are the "id" ones times w0, min and max exchanged, as
s_i (w*w0) s_{n-i} = (s_i w s_i)*w0 and l(w*w0) = C(n, 2) - l(w).

Steps never increase length, so a round trip keeps the length constant,
and the same step undoes a length-preserving step.  The classes are
therefore the connected components of the length-preserving steps, found
by one search per class from its least member.  The step kernel decides
the length change of each step from two comparisons, computes no length,
and builds a neighbour only for the steps it keeps.

The full partition ("all") runs that search from every permutation of S_n
not yet covered.  An "id" stratum ("min" or "max") is found first, by one
streaming pass that reaches S_n from S_{n-1} and keeps, per conjugacy
class, the extreme length and the permutations reaching it; the members
of a class share their length and their conjugacy class, so the search
then runs only inside the stratum.  Enumerations walk in
lexicographic one-line order, so everything here is deterministic; the
practical degree bound n <= 8 is a soft limit lifted by `force=True`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .compositions import Composition, enumerate_maximal
from .errors import ELEMENT_SOFT_LIMIT, DegreeLimitError, InvariantError
from .permutations import (
    Perm, all_perms, compose, length, lengths, longest_element, stair_form,
)

__all__ = [
    "TWISTS", "EquivClass", "make_equiv_class",
    "one_step", "approx_class",
    "equiv_classes", "label_max_classes", "min_representatives",
    "DEGREE_SOFT_LIMIT",
]

TWISTS = ("id", "nu")

#: Largest degree brute-forced without `force=True` (8! = 40320 vertices).
DEGREE_SOFT_LIMIT = 8


class _Record:
    """Base of the package's immutable records.  The fields are the
    `__slots__`, set in order by `__init__`; records are equal when they
    are of one class with equal fields, hash by their fields, print as
    their constructor call, and refuse assignment with AttributeError.  A
    slot whose name starts with "_" is private state, not a field."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__
                     if name[0] != "_")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class EquivClass(_Record):
    """One equivalence class of mutually cyclic-shift-reachable permutations.

    All members share a common Coxeter length.  `alpha` is the labelling
    maximal composition when the class is a labelled maximal-stratum class,
    else None.  A class that `sigma_class` builds holds its members as byte
    rows, one byte per value, and makes the tuples of `elements` from them
    on first access.
    """

    __slots__ = ("elements", "common_length", "alpha", "_rows")

    def __init__(self, elements: frozenset[Perm], common_length: int,
                 alpha: Composition | None = None) -> None:
        super().__init__(elements, common_length, alpha, None)

    @classmethod
    def _of_rows(cls, rows: list[bytes], common_length: int,
                 alpha: Composition) -> EquivClass:
        """The class of the distinct byte rows `rows`."""
        self = cls(None, common_length, alpha)
        object.__delattr__(self, "elements")
        object.__setattr__(self, "_rows", rows)
        return self

    def __getattr__(self, name):
        # reached only while a slot is unset: `elements` of a class of rows
        if name != "elements":
            raise AttributeError(name)
        elements = frozenset(map(tuple, self._rows))
        object.__setattr__(self, "elements", elements)
        return elements

    @property
    def size(self) -> int:
        return len(self.elements if self._rows is None else self._rows)

    @property
    def min_element(self) -> Perm:
        return min(self.elements)

    def sorted_elements(self) -> list[Perm]:
        return sorted(self.elements)


def make_equiv_class(elements, alpha: Composition | None = None) -> EquivClass:
    """Build an EquivClass, checking that its members are of one degree
    and share one length, which the batch kernel `lengths` counts for all
    of them at once."""
    elems = frozenset(elements)
    if not elems:
        raise ValueError("an equivalence class cannot be empty")
    common = set(lengths(elems))
    if len(common) != 1:
        raise ValueError("elements do not share a common length")
    return EquivClass(elems, common.pop(), alpha)


def _check_twist(twist: str) -> None:
    if twist not in TWISTS:
        raise ValueError(f"unknown twist {twist!r}; expected one of {TWISTS}")


def _step(w: Perm, i: int, j: int, lower: bool = False) -> Perm | None:
    """The permutation s_i * w * s_j if it has the length of w (with
    `lower`, also if it is shorter), else None.

    The left factor swaps the values i and i+1, which lengthens w exactly
    when i stands left of i+1; the right factor swaps the positions j and
    j+1, which lengthens exactly when they ascend, and the left swap keeps
    that comparison unless the two factors swap the same two entries and
    cancel.  Each factor moves the length by one, so two comparisons decide
    the change (-2, 0 or +2), no length is computed, and the neighbour is
    built only when it is returned.
    """
    a = w.index(i)
    b = w.index(i + 1)
    up = a < b
    if (up == (w[j - 1] < w[j]) and (up or not lower)
            and (a + b != 2 * j - 1 or j != a and j != b)):
        return None
    q = list(w)
    q[a] = i + 1
    q[b] = i
    q[j - 1], q[j] = q[j], q[j - 1]
    return tuple(q)


def one_step(w: Perm, i: int, twist: str = "id") -> Perm | None:
    """One cyclic-shift step: s_i * w * delta(s_i) if its length does not
    exceed length(w), else None.

    >>> one_step((2, 3, 1), 1)     # (1,2,3) -> (1,3,2)
    (3, 1, 2)
    """
    _check_twist(twist)
    n = len(w)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for S_{n}")
    return _step(w, i, i if twist == "id" else n - i, lower=True)


def approx_class(w: Perm, twist: str = "id", budget: int | None = None,
                 force: bool = False) -> frozenset[Perm]:
    """The full equivalence class of `w` under mutual reachability.

    Steps never increase length, so any round trip w -> ... -> w' -> ... -> w
    keeps the length constant throughout, and a length-preserving step is
    undone by the same step.  The class of `w` is therefore the connected
    component of `w` under length-preserving steps alone, which this
    depth-first search explores directly; it never touches the rest of S_n,
    so it stays cheap even at degrees where n! is out of reach.

    With a `budget`, a class found to hold more elements raises
    DegreeLimitError, after at most `budget` + n - 1 of them are built.
    Without one, the budget is `ELEMENT_SOFT_LIMIT`, lifted by
    `force=True`.
    """
    _check_twist(twist)
    if budget is None and not force:
        budget = ELEMENT_SOFT_LIMIT
    n = len(w)
    gens = [(i, i if twist == "id" else n - i) for i in range(1, n)]
    seen = {w}
    stack = [w]
    while stack:
        v = stack.pop()
        for i, j in gens:
            u = _step(v, i, j)
            if u is not None and u not in seen:
                seen.add(u)
                stack.append(u)
        if budget is not None and len(seen) > budget:
            raise DegreeLimitError(f"the class of {w} holds more than {budget}"
                                   " elements; pass force=True to override")
    return frozenset(seen)


def _check_degree(n: int, force: bool) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DEGREE_SOFT_LIMIT and not force:
        raise DegreeLimitError(
            f"degree {n} exceeds the practical bound {DEGREE_SOFT_LIMIT} "
            "for brute-force enumeration; pass force=True to override"
        )


def _extreme_lengths(n: int, longest: bool) -> dict[Perm, int]:
    """The permutations of S_n of least (with `longest`, greatest) length in
    their conjugacy class, each mapped to its length.

    Each w in S_n is one child of one w' in S_{n-1}: w' with n fixed, or
    w(j) = n and w(n) = w'(j), n after j on its cycle.  The pass walks the
    cycles of each w' once; the fixed child adds a part 1 to its type, child
    j raises the part of j's cycle.  `product` lists the Lehmer codes of
    `all_perms` in order, so l(w') is a code sum; the fixed child keeps it,
    child j adds 1 + 2(n - 1 - j - code[j - 1]).
    """
    if n <= 1:
        return {tuple(range(1, n + 1)): 0}
    m = n - 1
    # a score is a length, negated when the least is kept: the top one wins
    sign = 1 if longest else -1
    twice = 2 * sign
    # a type counts its parts of size k in digit k; no count carries over
    digit = [0] + [1 << n.bit_length() * k for k in range(n)]
    kept: dict[int, list] = {}          # type -> [top score, its children]
    codes = product(*(range(m - i) for i in range(m)))
    for p, code in zip(all_perms(m), codes):
        lp = sum(code)
        seen = [False] * n
        cycs = []
        base = 0
        for start in range(1, n):
            if not seen[start]:
                cyc = []
                point = start
                while not seen[point]:
                    seen[point] = True
                    cyc.append(point)
                    point = p[point - 1]
                cycs.append(cyc)
                base += digit[len(cyc)]
        score = sign * lp
        best = kept.get(base + digit[1])
        if best is None or score > best[0]:
            kept[base + digit[1]] = best = [score, []]
        if score == best[0]:
            best[1].append(p + (n,))
        top = sign * (lp + 1 + 2 * m)
        for cyc in cycs:
            ctype = base + digit[len(cyc) + 1] - digit[len(cyc)]
            best = kept.get(ctype)
            bar = best[0] if best else -n * n
            for j in cyc:
                score = top - twice * (j + code[j - 1])
                if score < bar:
                    continue
                if score > bar:
                    kept[ctype] = best = [score, []]
                    bar = score
                best[1].append(p[:j - 1] + (n,) + p[j:] + (p[j - 1],))
    return {v: sign * s for s, vs in kept.values() for v in vs}


def equiv_classes(
    n: int, twist: str = "id", stratum: str = "all", force: bool = False
) -> list[EquivClass]:
    """All equivalence classes of S_n under the twisted cyclic-shift relation.

    `stratum` restricts to classes of minimal ("min") or maximal ("max")
    length within their twisted conjugacy class; "all" keeps everything.
    Every member of a class shares its length and its twisted conjugacy
    class, so a class lies in a stratum as soon as one member does.
    Classes are sorted by their lexicographically smallest member.
    """
    _check_twist(twist)
    if stratum not in ("all", "min", "max"):
        raise ValueError(f"unknown stratum {stratum!r}")
    _check_degree(n, force)
    return list(_stratum(n, twist, stratum))


@lru_cache(maxsize=None)
def _stratum(n: int, twist: str, stratum: str) -> tuple[EquivClass, ...]:
    """The classes of `equiv_classes`, kept as a tuple of frozen classes.

    A "nu" stratum is the cached "id" stratum of the other extreme, each
    member read backwards.  Else each candidate not yet covered (S_n for
    "all", the stratum otherwise), in lexicographic order, starts the search
    for its class, so each class starts from its least member, whose length
    is the class's: the search takes only length-preserving steps.
    """
    if twist == "nu" and stratum != "all":
        moved = (EquivClass(frozenset(w[::-1] for w in cls.elements),
                            n * (n - 1) // 2 - cls.common_length)
                 for cls in _stratum(n, "id", "max" if stratum == "min" else "min"))
        return tuple(sorted(moved, key=lambda cls: cls.min_element))
    extreme = None if stratum == "all" else _extreme_lengths(n, stratum == "max")
    covered: set[Perm] = set()
    classes = []
    for w in all_perms(n) if extreme is None else sorted(extreme):
        if w not in covered:
            # behind the degree gate of `equiv_classes`
            comp = approx_class(w, twist, force=True)
            if extreme is not None and not extreme.keys() >= comp:
                raise InvariantError(
                    f"the class of {w} leaves the {stratum} stratum of S_{n}")
            covered |= comp
            classes.append(EquivClass(
                comp, length(w) if extreme is None else extreme[w]))
    return tuple(classes)


def _match_representatives(
    classes: list[EquivClass], reps: dict[Composition, Perm], what: str, where: str
) -> dict[Composition, int]:
    """The index in `classes` of the class holding each representative.

    Raises InvariantError unless the representatives hit every class exactly
    once; any failure would indicate a bug.
    """
    hit: dict[int, Composition] = {}
    for alpha, rep in reps.items():
        idx = next((idx for idx, cls in enumerate(classes)
                    if rep in cls.elements), None)
        if idx is None:
            raise InvariantError(f"{what} of {alpha} is not in {where}")
        if idx in hit:
            raise InvariantError(f"{what}s of {hit[idx]} and {alpha} share one class")
        hit[idx] = alpha
    if len(hit) != len(classes):
        raise InvariantError(
            f"{len(classes) - len(hit)} classes of {where} hold no {what}"
        )
    return {alpha: idx for idx, alpha in hit.items()}


def label_max_classes(n: int, force: bool = False) -> dict[Composition, EquivClass]:
    """Label each maximal-stratum class of S_n by its maximal composition.

    For every maximal composition alpha of n, the returned mapping sends
    alpha to the class containing its stair-form permutation.  The map is
    checked to be a bijection onto the maximal-stratum classes; any failure
    would indicate a bug and raises InvariantError.
    """
    classes = equiv_classes(n, "id", "max", force)
    reps = {alpha: stair_form(alpha) for alpha in enumerate_maximal(n)}
    index = _match_representatives(
        classes, reps, "stair form", f"the maximal stratum of S_{n}")
    return {alpha: EquivClass(classes[i].elements, classes[i].common_length, alpha)
            for alpha, i in index.items()}


def min_representatives(n: int, force: bool = False) -> dict[Composition, Perm]:
    """Representatives `stair_form(alpha) * w0` of the nu-twisted minimal
    stratum, one per maximal composition of n.

    It is the maximal "id" stratum times w0, cached by `label_max_classes`;
    each of its classes must hold one representative, else InvariantError.
    """
    classes = equiv_classes(n, "nu", "min", force)
    w0 = longest_element(n)
    reps = {alpha: compose(stair_form(alpha), w0) for alpha in enumerate_maximal(n)}
    _match_representatives(
        classes, reps, "representative", f"the nu-minimal stratum of S_{n}")
    return reps
