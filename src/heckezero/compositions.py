"""
Compositions, partitions and hooks.

A composition is a tuple of positive integers; a partition is a weakly
decreasing composition.  The empty composition `()` has size 0.

The central notion here is a *maximal* composition: one whose even parts
form a prefix and whose odd parts form a weakly decreasing suffix.  These
index the maximal-length cyclic-shift classes of S_n.
"""

from __future__ import annotations

from typing import Iterator

__all__ = [
    "Composition",
    "check_composition", "is_maximal", "enumerate_maximal",
    "sort_to_partition", "split_even_odd", "hook_kind",
    "odd_partitions", "even_compositions",
]

Composition = tuple[int, ...]


def check_composition(alpha: Composition) -> None:
    """Raise ValueError unless every part of `alpha` is a positive integer."""
    if any(not isinstance(a, int) or a < 1 for a in alpha):
        raise ValueError(f"not a composition: {alpha}")


def is_maximal(alpha: Composition) -> bool:
    """Whether `alpha` is maximal: even parts first (in any order), then the
    odd parts weakly decreasing.

    >>> is_maximal((4, 6, 2, 3, 1, 1))
    True
    >>> is_maximal((6, 4, 3, 2, 1, 1))
    False
    >>> is_maximal(())
    True
    """
    check_composition(alpha)
    seen_odd = False
    prev = 0
    for a in alpha:
        if a % 2 == 0:
            if seen_odd:
                return False
        else:
            if seen_odd and a > prev:
                return False
            seen_odd = True
            prev = a
    return True


def sort_to_partition(alpha: Composition) -> Composition:
    """The partition with the same multiset of parts as `alpha`.

    >>> sort_to_partition((1, 4, 3))
    (4, 3, 1)
    """
    check_composition(alpha)
    return tuple(sorted(alpha, reverse=True))


def split_even_odd(alpha: Composition) -> tuple[Composition, Composition, int]:
    """Split a maximal composition into its even prefix and odd tail.

    Returns `(evens, odds, j)` where `j = len(evens)` and
    `evens + odds == alpha`.

    >>> split_even_odd((2, 4, 3, 1, 1))
    ((2, 4), (3, 1, 1), 2)
    """
    if not is_maximal(alpha):
        raise ValueError(f"not a maximal composition: {alpha}")
    j = 0
    while j < len(alpha) and alpha[j] % 2 == 0:
        j += 1
    return alpha[:j], alpha[j:], j


def hook_kind(alpha: Composition) -> str:
    """Classify `alpha` as "odd_hook", "even_hook" or "not_hook".

    A hook has shape (k, 1, ..., 1); its kind is the parity of k.
    The all-ones shape counts as an odd hook (k = 1).

    >>> hook_kind((3, 1, 1)), hook_kind((4, 1, 1)), hook_kind((3, 3))
    ('odd_hook', 'even_hook', 'not_hook')
    """
    check_composition(alpha)
    if not alpha or any(a != 1 for a in alpha[1:]):
        return "not_hook"
    return "odd_hook" if alpha[0] % 2 == 1 else "even_hook"


def odd_partitions(n: int, max_part: int | None = None) -> Iterator[Composition]:
    """Partitions of n into odd parts."""
    if max_part is None:
        max_part = n
    if max_part % 2 == 0:
        max_part -= 1
    if n == 0:
        yield ()
        return
    for first in range(min(max_part, n if n % 2 else n - 1), 0, -2):
        for rest in odd_partitions(n - first, first):
            yield (first,) + rest


def even_compositions(n: int) -> Iterator[Composition]:
    """Compositions of n with every part even (order matters)."""
    if n == 0:
        yield ()
        return
    for first in range(2, n + 1, 2):
        for rest in even_compositions(n - first):
            yield (first,) + rest


def enumerate_maximal(n: int) -> list[Composition]:
    """All maximal compositions of n, each exactly once, sorted
    lexicographically (even prefix first, then odd tail).

    >>> enumerate_maximal(3)
    [(1, 1, 1), (2, 1), (3,)]
    >>> len(enumerate_maximal(0))
    1
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for e in range(0, n + 1, 2):
        for prefix in even_compositions(e):
            for tail in odd_partitions(n - e):
                out.append(prefix + tail)
    out.sort()
    return out
