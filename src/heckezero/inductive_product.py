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

>>> from .stair_classes import stair_form
>>> from .permutations import cycle_string
>>> cycle_string(iprod(stair_form((6,)), stair_form((3, 1))), include_trivial=False)
'(1,10,2,9,3,8)(4,7,5)'
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .permutations import OrbitPartition, Perm, cycle_type, length, orbits

__all__ = ["iprod", "iprod_length_law", "orbit_partition_histogram"]


def iprod(s1: Perm, s2: Perm) -> Perm:
    """The interleaving product of s1 and s2.

    The cycles of the result are the cycles of s1 with entries > k raised
    by n2, together with the cycles of s2 raised by k.

    >>> iprod((2, 1), (1,))
    (3, 2, 1)
    >>> iprod((), (2, 1)) == iprod((2, 1), ()) == (2, 1)
    True
    """
    n1, n2 = len(s1), len(s2)
    k = (n1 + 1) // 2
    img = [0] * (n1 + n2)
    for i in range(1, n1 + 1):
        src = i if i <= k else i + n2
        v = s1[i - 1]
        img[src - 1] = v if v <= k else v + n2
    for i in range(1, n2 + 1):
        img[k + i - 1] = s2[i - 1] + k
    return tuple(img)


def iprod_length_law(s1: Perm, s2: Perm) -> int:
    """Length of `iprod(s1, s2)` for a full-cycle left factor, computed from
    the factors alone: length(s1) + length(s2) + (p + q) * n2, where p
    counts i <= k with s1(i) > k and q counts i > k with s1(i) <= k.

    For an oscillating left factor p = q = floor(n1/2).
    """
    n1, n2 = len(s1), len(s2)
    if n1 < 1 or cycle_type(s1) != (n1,):
        raise ValueError(f"left factor must be a full cycle, got {s1}")
    k = (n1 + 1) // 2
    p = sum(1 for i in range(1, k + 1) if s1[i - 1] > k)
    q = sum(1 for i in range(k + 1, n1 + 1) if s1[i - 1] <= k)
    return length(s1) + length(s2) + (p + q) * n2


def orbit_partition_histogram(elements: Iterable[Perm]) -> dict[OrbitPartition, int]:
    """How many of the given permutations induce each orbit partition.

    For non-hook odd labels the class meets several orbit partitions with
    shape-dependent multiplicities; this tally exposes them without
    claiming any structure.
    """
    return dict(Counter(orbits(w) for w in elements))
