"""
Closed-form cardinalities of the maximal classes, the gate that holds a
class to the element soft limit (`ELEMENT_SOFT_LIMIT`) by them, and the
center dimension.

All arithmetic is exact (Python integers); no floats anywhere.
"""

from __future__ import annotations

from .compositions import (
    Composition, _count_maximal, hook_kind, split_even_odd,
)
from .errors import ELEMENT_CEILING, ELEMENT_SOFT_LIMIT, DegreeLimitError

__all__ = ["size_sigma_formula", "dim_center", "ELEMENT_SOFT_LIMIT"]


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
    """Refuse the class of the maximal composition `alpha` when its
    predicted size exceeds `ELEMENT_SOFT_LIMIT`, or with `force` the
    `ELEMENT_CEILING`, but for a part past 255, which the builder refuses
    by name; else return the bound divided by that size, the budget of a
    non-hook tail's search.

    The size is the even-prefix factor 2^p * 3^q times the size of a hook
    tail, c * 2 * 3^((r-3)/2) for the tail (r, 1, ..., 1).  It is decided
    from the exponents before any power is evaluated: a factor 2^p or 3^q
    with an exponent of the bound's bit length or more exceeds the bound on
    its own.  A non-hook odd tail has no size formula yet, so only its even
    prefix counts here, and the search for the tail is held to the budget.
    """
    if force and max(alpha, default=0) > 255:
        return None
    bound = ELEMENT_CEILING if force else ELEMENT_SOFT_LIMIT
    c, p, q, _ = _size_factors(alpha)
    bits = bound.bit_length()
    if p < bits and q < bits and c * 2 ** p * 3 ** q <= bound:
        return bound // (c * 2 ** p * 3 ** q)
    raise _too_large(alpha, force)


def _too_large(alpha: Composition, force: bool) -> ValueError:
    """The refusal of the class of `alpha`: past the soft limit, or with
    `force` past the ceiling, naming the closed count where there is one."""
    if not force:
        return DegreeLimitError(
            f"the class of {alpha} holds more than {ELEMENT_SOFT_LIMIT} "
            "elements, the practical bound for constructing a class; pass "
            "force=True to override")
    c, p, q, counted = _size_factors(alpha)
    held = f"{c * 2**p} * 3^{q} elements, over" if counted else "more than"
    return ValueError(f"the class of {alpha} holds {held} the ceiling of "
                      f"{ELEMENT_CEILING} elements for constructing a class")


def dim_center(n: int) -> int:
    """Dimension of the center of the degree-n 0-Hecke algebra: the number
    of maximal compositions of n, counted without listing them.

    >>> [dim_center(n) for n in range(8)]
    [1, 1, 2, 3, 5, 7, 12, 16]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _count_maximal(n)
