"""
Closed-form cardinalities of the maximal classes and the center dimension.

All arithmetic is exact (Python integers); no floats anywhere.
"""

from __future__ import annotations

from .compositions import Composition, hook_kind, is_maximal, split_even_odd

__all__ = ["size_sigma_n", "size_sigma_formula", "dim_center"]


def size_sigma_n(n: int) -> int:
    """Cardinality of the class of full n-cycles: 1 for n <= 2, then
    2 * 3^floor((n-3)/2).

    >>> [size_sigma_n(n) for n in range(1, 7)]
    [1, 1, 2, 2, 6, 6]
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 2:
        return 1
    return 2 * 3 ** ((n - 3) // 2)


def size_sigma_formula(alpha: Composition) -> int:
    """Cardinality of the class of a maximal composition whose odd parts
    form a hook.

    Writing P for the set of even parts >= 4, p = |P| and
    q = -2p + (sum of P)/2, the even prefix contributes 2^p * 3^q; an odd
    hook tail (r, 1^...) with r >= 3 contributes the extra factor
    (n' - r + 1) * 2 * 3^((r-3)/2) folded in as p' = p + 1,
    q' = q + (r-3)/2.

    >>> size_sigma_formula((2, 4, 3, 1, 1))
    12
    >>> size_sigma_formula((2, 8, 4, 5, 1, 1, 1))
    864
    """
    if not is_maximal(alpha):
        raise ValueError(f"not a maximal composition: {alpha}")
    evens, odds, _ = split_even_odd(alpha)
    if odds and hook_kind(odds) == "not_hook":
        raise ValueError(f"odd parts of {alpha} do not form a hook: {odds}")
    c, p, q = _size_factors(evens, odds)
    return c * 2 ** p * 3 ** q


def _size_factors(evens: Composition, odds: Composition) -> tuple[int, int, int]:
    """The factors (c, p, q) of the size c * 2^p * 3^q of the class with
    even prefix `evens` and odd tail `odds`, which must be a hook or empty;
    none of them is a power, so a caller can bound the size first."""
    big = [a for a in evens if a >= 4]
    p = len(big)
    q = -2 * p + sum(big) // 2
    if not odds or odds[0] == 1:
        return 1, p, q
    r = odds[0]
    return sum(odds) - r + 1, p + 1, q + (r - 3) // 2


def dim_center(n: int) -> int:
    """Dimension of the center of the degree-n 0-Hecke algebra.

    This is the number of maximal compositions of n: an even prefix of
    size e times an odd tail, a partition of n - e into odd parts.  The
    even compositions of e number 1 for e = 0 and 2^(e/2 - 1) otherwise;
    the odd partitions come from an O(n^2) table.

    >>> [dim_center(n) for n in range(8)]
    [1, 1, 2, 3, 5, 7, 12, 16]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    odd = [1] + [0] * n                     # odd[m]: partitions of m into odd parts
    for part in range(1, n + 1, 2):
        for m in range(part, n + 1):
            odd[m] += odd[m - part]
    return odd[n] + sum(2 ** (e // 2 - 1) * odd[n - e] for e in range(2, n + 1, 2))
