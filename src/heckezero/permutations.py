"""
Permutations of `[n] = {1, ..., n}` in one-line notation.

A permutation is a tuple `p` of the integers `1..n` where `p[i-1]` is the
image of `i`.  All values are immutable and every function is pure, so
permutations can be shared freely between threads.

The degree-0 permutation is the empty tuple `()`.

>>> compose((2, 1, 3), (1, 3, 2))
(2, 3, 1)
>>> cycles((6, 5, 4, 3, 1, 2))
((1, 6, 2, 5), (3, 4))
>>> length((3, 2, 1))
3
"""

from __future__ import annotations

from bisect import insort
from itertools import permutations as _lex_permutations
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Perm", "Cycle", "OrbitPartition",
    "identity", "is_perm", "all_perms", "compose", "inverse", "length",
    "left_descents", "right_descents", "longest_element",
    "adjacent_transposition", "swap_values", "conj_adjacent", "conj_w0",
    "cycles", "from_cycles", "cycle_type", "orbits", "even_orbits",
    "bruhat_leq", "cycle_string",
]

Perm = tuple[int, ...]
Cycle = tuple[int, ...]
OrbitPartition = frozenset[frozenset[int]]


def identity(n: int) -> Perm:
    """The identity permutation of S_n.

    >>> identity(3)
    (1, 2, 3)
    >>> identity(0)
    ()
    """
    return tuple(range(1, n + 1))


def is_perm(seq: Sequence[int]) -> bool:
    """Check that `seq` is a bijection on `1..len(seq)`."""
    n = len(seq)
    return sorted(seq) == list(range(1, n + 1))


def all_perms(n: int) -> Iterator[Perm]:
    """All elements of S_n in lexicographic order of one-line notation."""
    return _lex_permutations(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """The product p*q, acting as `i -> p(q(i))`.

    >>> s1, s2 = (2, 1, 3), (1, 3, 2)
    >>> compose(s1, s2)     # the 3-cycle 1 -> 2 -> 3 -> 1
    (2, 3, 1)
    """
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} != {len(q)}")
    return tuple(p[j - 1] for j in q)


def inverse(p: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((5, 4, 1, 3, 2))
    (3, 5, 4, 2, 1)
    """
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def length(p: Perm) -> int:
    """Coxeter length of `p`: the number of inversions of the one-line word.

    >>> length((3, 2, 1))
    3
    >>> length(identity(5))
    0
    """
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def right_descents(p: Perm) -> set[int]:
    """Indices i with p(i) > p(i+1), i.e. generators s_i shortening p on the right."""
    return {i for i in range(1, len(p)) if p[i - 1] > p[i]}


def left_descents(p: Perm) -> set[int]:
    """Indices i with p^-1(i) > p^-1(i+1): i+1 occurs left of i in one-line notation."""
    return right_descents(inverse(p))


def longest_element(n: int) -> Perm:
    """The longest element w0 of S_n, sending i to n-i+1.

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def adjacent_transposition(n: int, i: int) -> Perm:
    """The generator s_i = (i, i+1) of S_n."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for S_{n}")
    out = list(range(1, n + 1))
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def swap_values(p: Perm, i: int) -> Perm:
    """The product s_i * p: the values i and i+1 trade places in the
    one-line word.  Raises ValueError when i or i+1 is not a value of `p`.

    >>> swap_values((3, 1, 2), 1)
    (3, 2, 1)
    """
    q = list(p)
    q[p.index(i)] = i + 1
    q[p.index(i + 1)] = i
    return tuple(q)


def conj_adjacent(p: Perm, i: int) -> Perm:
    """Conjugate by s_i: returns s_i * p * s_i.

    Equivalently, swaps the values i and i+1 in the cycle notation of p.

    >>> conj_adjacent((2, 3, 1), 1)     # (1,2,3) -> (1,3,2)
    (3, 1, 2)
    """
    n = len(p)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for S_{n}")
    q = list(swap_values(p, i))
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def conj_w0(p: Perm) -> Perm:
    """Conjugate by the longest element: returns w0 * p * w0.

    This is the automorphism sending s_i to s_{n-i}; it preserves length.

    >>> conj_w0((2, 1, 3))      # s_1 -> s_2
    (1, 3, 2)
    """
    n = len(p)
    return tuple(n + 1 - p[n - i] for i in range(1, n + 1))


def cycles(p: Perm, include_trivial: bool = True) -> tuple[Cycle, ...]:
    """Disjoint cycles of `p`, canonically rotated and ordered.

    Each cycle starts at its minimum entry and cycles are sorted by that
    minimum, which makes the result deterministic and comparable.

    >>> cycles((6, 5, 4, 3, 1, 2))
    ((1, 6, 2, 5), (3, 4))
    >>> cycles((1, 3, 2), include_trivial=False)
    ((2, 3),)
    """
    n = len(p)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = p[start - 1]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = p[v - 1]
        if include_trivial or len(cyc) > 1:
            out.append(tuple(cyc))
    return tuple(out)


def from_cycles(n: int, cyclist: Iterable[Cycle]) -> Perm:
    """Build a permutation of S_n from disjoint cycles; omitted points are fixed.

    >>> from_cycles(6, [(1, 6, 2, 5), (3, 4)])
    (6, 5, 4, 3, 1, 2)
    """
    out = list(range(1, n + 1))
    used: set[int] = set()
    for cyc in cyclist:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= n:
                raise ValueError(f"cycle entry {a} outside 1..{n}")
            if a in used:
                raise ValueError(f"cycles are not disjoint at {a}")
            used.add(a)
            out[a - 1] = b
    return tuple(out)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Weakly decreasing cycle lengths of `p`.

    >>> cycle_type((6, 5, 4, 3, 1, 2))
    (4, 2)
    """
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def orbits(p: Perm) -> OrbitPartition:
    """The set partition of [n] into orbits of `p`."""
    return frozenset(frozenset(c) for c in cycles(p))


def even_orbits(p: Perm) -> OrbitPartition:
    """The orbits of `p` of even size.

    >>> sorted(sorted(b) for b in even_orbits((6, 5, 4, 3, 1, 2)))
    [[1, 2, 5, 6], [3, 4]]
    """
    return frozenset(b for b in orbits(p) if len(b) % 2 == 0)


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Whether u <= w in Bruhat order on S_n.

    Uses the sorted-prefix dominance criterion: for every k, the sorted set
    {u(1), ..., u(k)} must be entrywise <= the sorted set {w(1), ..., w(k)}.

    >>> bruhat_leq((1, 2, 3), (3, 1, 2))
    True
    >>> bruhat_leq((3, 1, 2), (2, 3, 1))
    False
    """
    n = len(u)
    if n != len(w):
        raise ValueError(f"degree mismatch: {n} != {len(w)}")
    su: list[int] = []
    sw: list[int] = []
    for k in range(n - 1):
        insort(su, u[k])
        insort(sw, w[k])
        for a, b in zip(su, sw):
            if a > b:
                return False
    return True


def cycle_string(p: Perm, include_trivial: bool = True) -> str:
    """Render `p` in cycle notation, e.g. "(1,3)(2)".

    >>> cycle_string((3, 2, 1))
    '(1,3)(2)'
    >>> cycle_string((3, 2, 1), include_trivial=False)
    '(1,3)'
    """
    cycs = cycles(p, include_trivial=include_trivial)
    if not cycs:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)
