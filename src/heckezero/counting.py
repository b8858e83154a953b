"""
Closed-form cardinalities of the maximal classes, the class-size soft limit
(`ELEMENT_SOFT_LIMIT`) that gates a class by them, and the center dimension.

All arithmetic is exact (Python integers); no floats anywhere.
"""

from __future__ import annotations

from .compositions import Composition, hook_kind, split_even_odd
from .errors import DegreeLimitError

__all__ = ["size_sigma_formula", "dim_center", "ELEMENT_SOFT_LIMIT"]

#: Largest class `sigma_class` builds without `force=True`: the benchmark's
#: largest, (19,), has 13,122 elements, and (23,), with 118,098, takes
#: about 1.2 s and 78 MB in a fresh CLI process.
ELEMENT_SOFT_LIMIT = 200_000


def size_sigma_formula(alpha: Composition) -> int | None:
    """Cardinality of the class of a maximal composition whose odd parts
    form a hook, or None when they do not: such a class has no closed
    count yet.

    Writing P for the set of even parts >= 4, p = |P| and
    q = -2p + (sum of P)/2, the even prefix contributes 2^p * 3^q; an odd
    hook tail (r, 1^...) with r >= 3 contributes the extra factor
    (n' - r + 1) * 2 * 3^((r-3)/2) folded in as p' = p + 1,
    q' = q + (r-3)/2.

    >>> size_sigma_formula((2, 4, 3, 1, 1))
    12
    >>> size_sigma_formula((2, 8, 4, 5, 1, 1, 1))
    864
    >>> [size_sigma_formula((n,)) for n in range(1, 7)]
    [1, 1, 2, 2, 6, 6]
    >>> size_sigma_formula((3, 3)) is None
    True
    """
    c, p, q, counted = _size_factors(alpha)
    return c * 2 ** p * 3 ** q if counted else None


def _size_factors(alpha: Composition) -> tuple[int, int, int, bool]:
    """The factors (c, p, q) of the size c * 2^p * 3^q of the class of the
    maximal composition `alpha`, and whether they count its odd tail: they
    do when the tail is a hook or empty, else they are the even prefix's
    alone.  None of them is a power, so a caller can bound the size first."""
    evens, odds, _ = split_even_odd(alpha)
    big = [a for a in evens if a >= 4]
    p = len(big)
    q = -2 * p + sum(big) // 2
    counted = not odds or hook_kind(odds) == "odd_hook"
    if not counted or not odds or odds[0] == 1:
        return 1, p, q, counted
    r = odds[0]
    return sum(odds) - r + 1, p + 1, q + (r - 3) // 2, True


def _check_size(alpha: Composition, force: bool) -> int | None:
    """Refuse, unless `force`, the class of the maximal composition `alpha`
    when its predicted size exceeds `ELEMENT_SOFT_LIMIT`; else return the
    limit divided by that size, the budget of a non-hook tail's search.

    The size is the even-prefix factor 2^p * 3^q times the size of a hook
    tail, c * 2 * 3^((r-3)/2) for the tail (r, 1, ..., 1).  It is decided
    from the exponents before any power is evaluated: a factor 2^p or 3^q
    with an exponent of the limit's bit length or more exceeds the limit on
    its own.  A non-hook odd tail has no size formula yet, so only its even
    prefix counts here, and the search for the tail is held to the budget.
    """
    if force:
        return None
    c, p, q, _ = _size_factors(alpha)
    bits = ELEMENT_SOFT_LIMIT.bit_length()
    if p < bits and q < bits and c * 2 ** p * 3 ** q <= ELEMENT_SOFT_LIMIT:
        return ELEMENT_SOFT_LIMIT // (c * 2 ** p * 3 ** q)
    raise _too_large(alpha)


def _too_large(alpha: Composition) -> DegreeLimitError:
    """The refusal of the class of `alpha`, by `_check_size` or `sigma_class`."""
    return DegreeLimitError(
        f"the class of {alpha} holds more than {ELEMENT_SOFT_LIMIT} elements, "
        "the practical bound for constructing a class; pass force=True to "
        "override")


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
