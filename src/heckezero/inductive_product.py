"""
The interleaving product of S_{n1} x S_{n2} into S_{n1+n2}.

With k = ceil(n1/2), the ground set [n1+n2] splits into
N1 = [1..k] | [k+n2+1..n] and the middle block N2 = [k+1..k+n2]; the first
factor is relabelled onto N1 and the second onto N2 by the unique
increasing bijections.  The product is injective with image exactly the
permutations stabilizing both blocks, and it factors the maximal classes:
a class whose label starts with an even part is the product of the class
of that part with the class of the remaining label.  `sigma_class` builds
every labelled class from that factorization.

>>> from .permutations import cycle_string, stair_form
>>> cycle_string(iprod(stair_form((6,)), stair_form((3, 1))), include_trivial=False)
'(1,10,2,9,3,8)(4,7,5)'
"""

from __future__ import annotations

from .permutations import Perm, cycle_type, length

__all__ = ["iprod", "iprod_length_law"]


def iprod(s1: Perm, s2: Perm) -> Perm:
    """The interleaving product of s1 and s2.

    The cycles of the result are the cycles of s1 with entries > k raised
    by n2, together with the cycles of s2 raised by k.

    >>> iprod((2, 1), (1,))
    (3, 2, 1)
    >>> iprod((), (2, 1)) == iprod((2, 1), ()) == (2, 1)
    True
    """
    n2 = len(s2)
    k = (len(s1) + 1) // 2
    img = [v if v <= k else v + n2 for v in s1]
    img[k:k] = [v + k for v in s2]
    return tuple(img)


def iprod_length_law(s1: Perm, s2: Perm) -> int:
    """Length of `iprod(s1, s2)` for a full-cycle left factor, computed from
    the factors alone: length(s1) + length(s2) + (p + q) * n2, where p
    counts i <= k with s1(i) > k and q counts i > k with s1(i) <= k.

    For an oscillating left factor p = q = floor(n1/2).
    """
    n1 = len(s1)
    if n1 < 1 or cycle_type(s1) != (n1,):
        raise ValueError(f"left factor must be a full cycle, got {s1}")
    return length(s1) + length(s2) + _crossing(s1) * len(s2)


def _crossing(s1: Perm) -> int:
    """The p + q of `iprod_length_law`: the entries of s1 that cross k =
    ceil(n1/2), from the first k places upwards or from the others down."""
    k = (len(s1) + 1) // 2
    return sum(v > k for v in s1[:k]) + sum(v <= k for v in s1[k:])
