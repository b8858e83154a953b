"""
Permutations of `[n] = {1, ..., n}` in one-line notation.

A permutation is a tuple `p` of the integers `1..n` where `p[i-1]` is the
image of `i`.  All values are immutable and every function is pure, so
permutations can be shared freely between threads.

The degree-0 permutation is the empty tuple `()`.

The *stair form* of a composition alpha, the representative of its class
that both halves of the package share, cuts 1, n, 2, n-1, ... into blocks
of sizes alpha_1, alpha_2, ... and reads each block as a cycle.  Both
halves also share the record type here and the class record `EquivClass`.

`lengths` counts the inversions of many permutations of one degree up to
255 at once, in byte lanes of big integers: `_byte_lengths`, the one batch
kernel, which also checks every class that `sigma_class` builds as bytes.

>>> compose((2, 1, 3), (1, 3, 2))
(2, 3, 1)
>>> cycles((6, 5, 4, 3, 1, 2))
((1, 6, 2, 5), (3, 4))
>>> length((3, 2, 1))
3
"""

from __future__ import annotations

import struct
from itertools import permutations as _lex_permutations
from typing import Iterable, Iterator

from .compositions import Composition, check_composition

__all__ = [
    "Perm", "Cycle", "OrbitPartition", "EquivClass",
    "identity", "all_perms", "compose", "inverse", "length", "lengths",
    "longest_element", "conj_w0",
    "cycles", "from_cycles", "cycle_type", "orbits", "even_orbits",
    "cycle_string", "stair_sequence", "stair_form",
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

    Reading left to right, the value v is inverted with every larger value
    already seen; those are the bits above v in a bitmask of the seen
    values, so each position costs one shift and one popcount.

    >>> length((3, 2, 1))
    3
    >>> length(identity(5))
    0
    """
    seen = 0
    inversions = 0
    for v in p:
        inversions += (seen >> v).bit_count()
        seen |= 1 << v
    return inversions


def lengths(perms: Iterable[Perm]) -> list[int]:
    """`length` of every permutation in `perms`, all of one degree n <= 255,
    in order: the rows are joined, one byte per entry, split into their n
    byte columns and counted all at once by `_byte_lengths`.  One
    `translate` checks that every entry lies in 1..n, as the kernel's
    8-bit lanes below n = 128 need.  Permutations of different degrees, a
    degree past 255, and an entry outside 1..n raise ValueError.

    >>> lengths([(3, 2, 1), (1, 2, 3), (2, 3, 1)])
    [3, 0, 2]
    """
    rows = list(perms)
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("permutations of different degrees")
    if n > 255:
        raise ValueError(f"degree {n} is past 255")
    joined = b"".join(map(bytes, rows))
    if joined.translate(None, bytes(range(1, n + 1))):
        raise ValueError(f"an entry lies outside 1..{n}")
    if not joined:
        return [0] * len(rows)
    total, _ = _byte_lengths([joined[c::n] for c in range(n)])
    return list(struct.unpack(f"<{len(rows)}H",
                              total.to_bytes(2 * len(rows), "little")))


def _byte_lengths(columns: list[bytes]) -> tuple[int, int]:
    """The lengths of the permutations that `columns` hold, one byte per
    permutation and every entry in 1..n, as one int of 16-bit lanes, and
    the int with a 1 in each lane.

    Each column becomes one int, lane r holding the r-th permutation's
    entry.  Setting the top bit of every lane of column a and subtracting
    column b plus one from every lane leaves the top bit set exactly where
    a > b, with no borrow between lanes; summed over the pairs of columns,
    it counts every inversion at once.  The lanes are 8 bits wide below
    n = 128, where every entry lies below the top bit, else 16; each group
    of rows with at most 255 pairs in all is widened to 16 bits and added
    before a count could cross its lane."""
    n, lanes = len(columns), len(columns[0])
    step, width = (1, 8) if n < 128 else (2, 16)
    wide, ints = bytearray(step * lanes), []
    for column in columns:
        wide[::step] = column
        ints.append(int.from_bytes(wide, "little"))
    ones = int.from_bytes(b"\1".ljust(step, b"\0") * lanes, "little")
    high = ones << width - 1
    total = part = pairs = 0
    wide = bytearray(2 * lanes)
    for i, a in enumerate(ints):
        lifted = (a | high) - ones
        part += sum((lifted - b) >> width - 1 & ones for b in ints[i + 1:])
        pairs += n - 1 - i
        # widened before the next row's pairs could carry out of a lane
        if i == n - 1 or pairs + n - 2 - i >> width:
            wide[::2 // step] = part.to_bytes(step * lanes, "little")
            total, part, pairs = total + int.from_bytes(wide, "little"), 0, 0
    return total, int.from_bytes(b"\1\0" * lanes, "little")


def longest_element(n: int) -> Perm:
    """The longest element w0 of S_n, sending i to n-i+1.

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


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
    minimum, which makes the result deterministic and comparable.  A tuple
    that is not a permutation of 1..len(p) raises ValueError.

    >>> cycles((6, 5, 4, 3, 1, 2))
    ((1, 6, 2, 5), (3, 4))
    >>> cycles((1, 3, 2), include_trivial=False)
    ((2, 3),)
    """
    n = len(p)
    # values that are no point stop a walk: 0, -(n + 1)..-1 and
    # n + 1..2n + 1 index a True entry, and any further out fall off
    seen = [True] + [False] * n + [True] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = p[start - 1]
        try:
            while not seen[v]:
                cyc.append(v)
                seen[v] = True
                v = p[v - 1]
        except IndexError:
            v = None
        if v != start:
            raise ValueError(f"not a permutation: {p}")
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


def stair_sequence(n: int) -> tuple[int, ...]:
    """The interleaved sequence x with x_{2i-1} = i and x_{2i} = n-i+1.

    >>> stair_sequence(6)
    (1, 6, 2, 5, 3, 4)
    >>> stair_sequence(5)
    (1, 5, 2, 4, 3)
    """
    return tuple((r + 1) // 2 if r % 2 else n - r // 2 + 1 for r in range(1, n + 1))


def stair_form(alpha: Composition) -> Perm:
    """The stair-form permutation of the composition `alpha`.

    >>> cycle_string(stair_form((4, 2)))
    '(1,6,2,5)(3,4)'
    >>> stair_form((1, 1, 1))
    (1, 2, 3)
    """
    check_composition(alpha)
    n = sum(alpha)
    seq = stair_sequence(n)
    cycs = []
    start = 0
    for part in alpha:
        cycs.append(seq[start:start + part])
        start += part
    return from_cycles(n, cycs)


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
