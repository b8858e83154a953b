"""
Sparse arithmetic in the 0-Hecke algebra of S_n on its natural basis.

An element is a finite integer combination of basis vectors T_w indexed by
permutations.  The generators satisfy T_i^2 = -T_i together with the braid
relations, so multiplication by a generator either climbs the Bruhat order
or flips a sign:

    T_i * T_w = T_{s_i w}   if length(s_i w) > length(w)
              = -T_w        otherwise.

The center has a basis of indicator sums over Bruhat order ideals
generated by the maximal cyclic-shift classes.  `center_ideals` is the
one entry into the walk over the one-line prefixes of S_n, which decides
Bruhat order by the tableau criterion, for every labelled class at once;
`verify_center_basis` checks centrality, linear independence and the
dimension count from it.  The walk writes one byte per permutation,
indexed by its lexicographic rank: the id of the set of ideals holding
it, with whole subtrees of one set written by one slice.  For a lower
ideal I, T_i times the indicator sum of I is the indicator sum of its
upper boundary {z : s_i z < z, s_i z in I, z not in I}, and the right
product is the same with z s_i, so centrality is a comparison of
boundaries, made in one loop (`_noncentral_labels`).  With each ideal
held as one integer whose bit r stands for rank r, both products move
ranks by fixed shifts on fixed sets of ranks, so each comparison is a few
big-integer operations.  Conjugation by w0 sends T_i to T_{n-i}; when
every class is stable under it, as each labelled class is, half the
generators suffice.  Independence is one exact rank: equal masks are
equal columns, so the rank over S_n is the rank over the few distinct
masks in the table.  The same walk gives the `basis` command its terms:
`ideal_sums` counts each label's ideal off the rank array and yields its
permutations in lex order as byte rows, one label at a time, so no
label's terms are held: S_n is built in blocks by column scatter, each
masked by the rank array in one big-integer AND.  The sparse products,
`is_central` and `t_leq_sigma` (off the tuple walk of `order_ideal`)
stay as the algebra API and as the reference the check is tested against.

Integer coefficients suffice throughout: all structure constants are
integral, so any field case follows by extension of scalars.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, permutations
from math import factorial
from operator import xor
from typing import Iterable, Iterator, Mapping, Sequence

from .compositions import Composition, enumerate_maximal, is_maximal
from .counting import dim_center
from .errors import _check_degree
from .permutations import Perm, _Record, all_perms, conj_w0, cycles
from .stair_classes import sigma_class

__all__ = [
    "HeckeElement", "t_basis",
    "left_mul_gen", "right_mul_gen", "mul", "reduced_word",
    "order_ideal", "center_ideals", "ideal_sums", "t_leq_sigma",
    "is_central",
    "integer_matrix_rank", "CenterBasisReport", "verify_center_basis",
]


class HeckeElement(_Record):
    """A sparse integer combination of basis vectors T_w of fixed degree.

    `terms` maps permutations to nonzero coefficients.  Treated as
    immutable; all operations return fresh elements.  Elements compare by
    degree and terms, in any order, and do not hash.
    """

    __slots__ = ("n", "terms")
    __hash__ = None

    def __init__(self, n: int, terms: Mapping[Perm, int]) -> None:
        super().__init__(n, terms)

    def coefficient(self, w: Perm) -> int:
        return self.terms.get(w, 0)

    def support_size(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        items = ", ".join(
            f"{w}: {c}" for w, c in sorted(self.terms.items())
        )
        return f"HeckeElement(n={self.n}, {{{items}}})"


def t_basis(n: int, w: Perm) -> HeckeElement:
    """The basis vector T_w."""
    if len(w) != n:
        raise ValueError(f"degree mismatch: {len(w)} != {n}")
    cycles(w)   # raises on a tuple that is not a permutation
    return HeckeElement(n, {w: 1})


def _check_gen(i: int, n: int) -> None:
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for degree {n}")


def left_mul_gen(i: int, x: HeckeElement) -> HeckeElement:
    """T_{s_i} * x, extended linearly over the terms of x.

    s_i * w swaps the values i and i+1 in the one-line word of w.  That
    changes the relative order of those two values only, so s_i * w is
    longer than w exactly when i stands left of i+1.  The two positions
    that locate the swap therefore decide between the climb and the sign
    flip; no length is computed.
    """
    _check_gen(i, x.n)
    acc: dict[Perm, int] = {}
    for w, c in x.terms.items():
        a = w.index(i)
        b = w.index(i + 1)
        if a < b:
            v = list(w)
            v[a], v[b] = i + 1, i
            sw = tuple(v)
            acc[sw] = acc.get(sw, 0) + c
        else:
            acc[w] = acc.get(w, 0) - c
    return HeckeElement(x.n, {w: c for w, c in acc.items() if c})


def right_mul_gen(i: int, x: HeckeElement) -> HeckeElement:
    """x * T_{s_i}, the mirror rule via right descents."""
    _check_gen(i, x.n)
    acc: dict[Perm, int] = {}
    for w, c in x.terms.items():
        if w[i - 1] < w[i]:
            ws = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]
            acc[ws] = acc.get(ws, 0) + c
        else:
            acc[w] = acc.get(w, 0) - c
    return HeckeElement(x.n, {w: c for w, c in acc.items() if c})


def reduced_word(w: Perm) -> tuple[int, ...]:
    """A reduced word for `w`, produced by stripping the smallest right
    descent while there is one.  Any reduced word gives the same T_w, so
    the choice is only for determinism.

    >>> reduced_word((3, 2, 1))
    (1, 2, 1)
    """
    word: list[int] = []
    cur = list(w)
    n = len(cur)
    while True:
        i = next((j for j in range(1, n) if cur[j - 1] > cur[j]), None)
        if i is None:
            break
        word.append(i)
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
    return tuple(reversed(word))


def mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """The product a * b.

    Each basis term T_w of `a` acts on `b` through a reduced word of w,
    one generator at a time.
    """
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} != {b.n}")
    acc: dict[Perm, int] = {}
    for w, c in a.terms.items():
        y = b
        for i in reversed(reduced_word(w)):
            y = left_mul_gen(i, y)
        for v, d in y.terms.items():
            acc[v] = acc.get(v, 0) + c * d
    return HeckeElement(a.n, {w: c for w, c in acc.items() if c})


def _gale_leq(s: int, p: int) -> bool:
    """Whether the value set `s` lies below `p` in Gale order, both given
    as bitmasks of one size: the i-th largest value of s is at most the
    i-th largest value of p, for every i."""
    while s:
        top = s.bit_length()
        if top > p.bit_length():
            return False
        s ^= 1 << top - 1
        p ^= 1 << p.bit_length() - 1
    return True


def order_ideal(sigma, force: bool = False) -> frozenset[Perm]:
    """The downward Bruhat closure of a set of permutations of one degree.

    Accepts an EquivClass or any iterable of permutations, of any mix of
    lengths; the closure is the one-ideal case of `_ideal_masks`.  A seed
    that is not a permutation raises ValueError.  An ideal near w0 holds
    most of S_n, so the degree is gated by `DEGREE_SOFT_LIMIT` before the
    walk, lifted by `force=True`.

    >>> sorted(order_ideal([(2, 3, 1)]))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1)]
    """
    seeds = list(getattr(sigma, "elements", sigma))
    for w in seeds:
        cycles(w)
    _check_degree(max(map(len, seeds), default=0), force)
    return frozenset(_ideal_masks([seeds]))


def _ideal_masks(seeds: Sequence[Iterable[Perm]], by_rank: bool = False):
    """The order ideals of `seeds`, which must share one degree n.  With
    `by_rank`, every ideal at once as a pair (ids, table): `ids` holds one
    byte per permutation, indexed by its lex rank, and `table[ids[rank]]`
    is its mask, whose bit r is set exactly when the permutation lies below
    some element of `seeds[r]`, with id 0 for mask 0.  A family with more
    than 256 distinct masks raises ValueError.  Without `by_rank`, the set
    of the permutations in some ideal, from a walk that visits no other.

    By the tableau criterion (Bjorner-Brenti, GTM 231, Thm 2.1.5), x <= w
    exactly when, for every k, the set of the first k values of x lies
    below that of w in Gale order (`_gale_leq`).  The sweep walks one-line
    prefixes depth first, carrying the bitmask of the generators whose
    prefixes stay above; a prefix with none left is pruned.  A prefix set
    is tested against each distinct generator prefix once, on first
    reaching it.  The generator bits lie label by label, each block
    topped by a zero guard bit, so one addition carries into the guard of
    every label with a generator left.

    The completions of a prefix p with value set s form the Bruhat
    interval from p followed by the rest increasing to p followed by the
    rest decreasing, the top of p; for k >= |s| its first k values are s
    and the largest k - |s| values of the rest.  When, for every label
    with a generator left, the top of p lies below one of that label's
    generators, every completion has that label set, and the subtree is
    not walked.  The tuple walk adds its leaves by one `set.update` over
    the permutations of the rest; the rank walk, which carries the lex
    rank offset of each prefix instead of the prefix (the sum of its
    Lehmer digits times (n - 1 - position)!), writes the subtree's id by
    one slice assignment.  The generators above the top of p depend only
    on s and are memoised on it.  Each child is tested as it is reached,
    and at the last position the test always holds, so each element is
    built once, inside a whole subtree.
    """
    blocks = [set(elements) for elements in seeds]
    degrees = {len(w) for block in blocks for w in block}
    if len(degrees) > 1:
        raise ValueError(
            f"seeds of mixed degrees {min(degrees)} and {max(degrees)}")
    n = degrees.pop() if degrees else 0
    if n < 2:
        # S_0 and S_1 have one element, below every seed
        mask = sum(1 << r for r, block in enumerate(blocks) if block)
        if by_rank:
            return bytearray([1 if mask else 0]), [0, mask] if mask else [0]
        return {tuple(range(1, n + 1))} if mask else set()
    # tops[k] maps a set of first k values to the generators that have it
    tops: list[dict[int, int]] = [{} for _ in range(n + 1)]
    ones = guards = pos = 0
    guard_labels = []
    for r, block in enumerate(blocks):
        if not block:
            continue
        for w in block:
            prefix = 0
            for k, v in enumerate(w, 1):
                prefix |= 1 << v - 1
                tops[k][prefix] = tops[k].get(prefix, 0) | 1 << pos
            pos += 1
        ones |= (1 << len(block)) - 1 << pos - len(block)
        guards |= 1 << pos
        guard_labels.append((1 << pos, 1 << r))
        pos += 1

    def gale_below(t: int) -> int:
        return sum(gens for p, gens in tops[t.bit_count()].items()
                   if _gale_leq(t, p))

    full = (1 << n) - 1
    below: dict[int, int] = {}
    cover = {full: ones}

    def covered(t: int) -> int:
        """The generators above t topped up by the largest values."""
        if t not in cover:
            if t not in below:
                below[t] = gale_below(t)
            cover[t] = below[t] & covered(t | 1 << (full ^ t).bit_length() - 1)
        return cover[t]

    if by_rank:
        fact = [factorial(k) for k in range(n + 1)]
        ids = bytearray(fact[n])
        table = [0]
        labels: dict[int, int] = {}     # guard hits to their index in table
    else:
        ideal: set[Perm] = set()
    stack: list[tuple] = [(0 if by_rank else (), 0, ones)]
    while stack:
        key, s, alive = stack.pop()
        free = full ^ s
        if by_rank:
            step = fact[free.bit_count() - 1]
        while free:
            v = free.bit_length()
            free ^= 1 << v - 1
            t = s | 1 << v - 1
            if t not in below:
                below[t] = gale_below(t)
            live = below[t] & alive
            if not live:
                continue
            # the values left in `free` are the ones below v
            child = key + free.bit_count() * step if by_rank else key + (v,)
            hit = live + ones & guards
            if (live & covered(t)) + ones & guards != hit:
                stack.append((child, t, live))
            elif not by_rank:
                rest = [u for u in range(1, n + 1) if not t >> u - 1 & 1]
                ideal.update(map(child.__add__, permutations(rest)))
            else:
                j = labels.get(hit)
                if j is None:
                    if len(table) == 256:
                        raise ValueError("more than 256 distinct ideal masks")
                    j = labels[hit] = len(table)
                    table.append(
                        sum(label for g, label in guard_labels if hit & g))
                if step == 1:
                    ids[child] = j
                else:
                    ids[child:child + step] = bytes((j,)) * step
    return (ids, table) if by_rank else ideal


def _tile(pattern: int, period: int, count: int) -> int:
    """`count` copies of the `period`-bit `pattern`, side by side."""
    out = shift = 0
    while count:
        if count & 1:
            out |= pattern << shift
            shift += period
        pattern |= pattern << period
        period *= 2
        count >>= 1
    return out


def _climb_sets(m: int, i: int, memo: dict) -> list[int]:
    """Entry a is the bitset of the lex ranks r of S_m whose permutation
    has i at position a (from 0) and i+1 to its right, for a < m - 1.

    By its first value v, S_m splits into m blocks of (m-1)! ranks; the
    rest of the word, relabelled in order, runs over S_{m-1} in lex order.
    Block v = i holds position a = 0, and for a > 0 block v (not i or i+1)
    is the set of S_{m-1} for position a - 1 and the relabelled i.  The
    sets of degree m - 1 are kept in `memo`.
    """
    width = factorial(m - 1)
    sets = [(1 << width) - 1 << (i - 1) * width]
    if m > 2:
        lower = []
        for j in (i - 1, i):
            if 1 <= j <= m - 2 and (m - 1, j) not in memo:
                memo[m - 1, j] = _climb_sets(m - 1, j, memo)
            lower.append(memo.get((m - 1, j)))
        for a in range(1, m - 1):
            total = 0
            for v in range(1, m + 1):
                if v < i or v > i + 1:
                    total |= lower[v > i][a - 1] << (v - 1) * width
            sets.append(total)
    return sets


#: Bits of label ints `_noncentral_labels` builds per group: about 64 MB.
_GROUP_BITS = 1 << 29


def _noncentral_labels(ids: bytearray, table: Sequence[int], n: int,
                       stable: bool = False) -> int:
    """The bits r whose ideal sum chi_r = sum of T_w over the w with bit r
    set fails to commute with some generator, from the rank array and
    mask table of `_ideal_masks(..., by_rank=True)`; the masks must
    describe lower ideals.

    For a lower ideal I the terms of T_i * chi_I from each pair {y, s_i y}
    inside I cancel, so the coefficient of T_z is [s_i z < z, s_i z in I,
    z not in I]: the upper boundary of I along left multiplication by s_i.
    The product chi_I * T_i is the same with z s_i in place of s_i z.  So
    chi_I is central exactly when, for every i, the left and right
    boundaries agree outside I.

    With `stable`, the caller has checked that every ideal is stable under
    conjugation by w0.  That conjugation sends T_i to T_{n-i} and is an
    algebra automorphism, so chi_I then commutes with T_i exactly when it
    commutes with T_{n-i}, and only the generators i >= ceil(n/2) are
    checked.

    Each ideal is one int with bit q set for lex rank q, read off a
    reversed copy of the rank array, and both climbs move ranks by shifts
    (`_moves`), so one loop compares the boundaries.  The ints are built a
    group of labels at a time (`_GROUP_BITS`); the reversed copy is freed
    once they are read, and the group's ints and moves before the next
    group is built.
    """
    fact = [factorial(k) for k in range(n + 1)]
    labels = max(table).bit_length()
    per_group = max(1, _GROUP_BITS // fact[n])
    gens = range((n + 1) // 2 if stable else 1, n)
    memo: dict = {}
    bad = 0
    for first in range(0, labels, per_group):
        flipped = ids[::-1]
        ideals = []
        for r in range(first, min(first + per_group, labels)):
            ones = bytes(0x30 | m >> r & 1 for m in table).ljust(256, b"0")
            ideals.append((r, int(flipped.translate(ones), 2)))
        del flipped
        for i in gens:
            moves = _moves(n, i, fact, memo)
            # a label fails where its moved ranks leave the ideal; the
            # generator expressions keep no int of the group past it
            bad |= sum(1 << r for r, ideal in ideals if not bad >> r & 1
                       and ideal != ideal | reduce(xor, (
                           (ideal & ranks) << shift for ranks, shift in moves)))
            del moves
        del ideals
    return bad


def _moves(n: int, i: int, fact: Sequence[int], memo: dict) -> list[tuple[int, int]]:
    """The climbs of S_n by s_i, on the left and on the right, as pairs
    (the bitset of the lex ranks that climb, the rise of their rank).

    s_i y swaps the values i and i+1; with i at position a left of i+1 it
    raises the Lehmer digit at a by one, so the rank by (n-1-a)!
    (`_climb_sets`, whose lower degrees are kept in `memo`).  y s_i swaps
    positions i-1 and i (from 0); at an ascent the digits there are c and
    c + e with e >= 0, and afterwards c + e + 1 and c, so the rank rises by
    (e+1)(n-i)! - e(n-i-1)!.  The ranks with a given e recur with period
    (n-i+1)!.  Sets with one rise are merged by their symmetric difference,
    which moves the same ranks: a rank in both climbs twice and cancels.
    """
    moves: dict[int, int] = {}
    for a, climbs in enumerate(_climb_sets(n, i, memo)):
        moves[fact[n - 1 - a]] = climbs
    block = (1 << fact[n - i - 1]) - 1
    for e in range(n - i):
        pattern = 0
        for c in range(n - i - e):
            pattern |= block << (c * (n - i + 1) + e) * fact[n - i - 1]
        shift = (e + 1) * fact[n - i] - e * fact[n - i - 1]
        moves[shift] = moves.get(shift, 0) ^ _tile(
            pattern, fact[n - i + 1], fact[n] // fact[n - i + 1])
    return [(ranks, shift) for shift, ranks in moves.items()]


def center_ideals(alphas: Sequence[Composition], n: int,
                  force: bool = False) -> tuple[bytearray, list[int], bool]:
    """The Bruhat order ideals generated by the classes labelled by
    `alphas`, all from one prefix walk: the rank array and mask table of
    `_ideal_masks(..., by_rank=True)`, bit r of a mask standing for
    alphas[r], and whether every class is stable under conjugation by w0,
    which lets `_noncentral_labels` read half the generators.  Each label
    must be a maximal composition of n.  The ideals can hold most of S_n,
    so n is gated by the brute-force soft limit `DEGREE_SOFT_LIMIT` before
    any class is built, lifted by `force=True`.
    """
    for alpha in alphas:
        if not is_maximal(alpha):
            raise ValueError(f"not a maximal composition: {alpha}")
        if sum(alpha) != n:
            raise ValueError(f"|{alpha}| != {n}")
    _check_degree(n, force)
    seeds = [sigma_class(alpha, force).elements for alpha in alphas]
    stable = all(conj_w0(w) in seed for seed in seeds for w in seed)
    return *_ideal_masks(seeds, by_rank=True), stable


def _lex_block(n: int, prefix: tuple[int, ...], tail: bytes) -> bytearray:
    """The rows of S_n that start with `prefix`, in lexicographic order, by
    column scatter from `tail`, the rows of S_{n-d}, d = len(prefix): the
    prefix in the first d columns, then the rows of `tail` moved onto the
    other values by one `translate`, each of their columns written in by
    one strided slice."""
    d = len(prefix)
    count = factorial(n - d)
    others = bytes(v for v in range(n + 1) if v not in prefix)     # 0 first
    rest = tail.translate(others.ljust(256, b"\0"))
    block = bytearray(count * n)
    for c, v in enumerate(prefix):
        block[c::n] = bytes((v,)) * count
    for c in range(d, n):
        block[c::n] = rest[c - d::n - d]
    return block


def _ideal_blocks(n: int, ids: bytearray, keep: bytes) -> Iterator[bytes]:
    """The permutations of one ideal of a rank array in lexicographic
    order, as rows of n bytes in blocks of the rows that share their first
    two values.  `keep` maps each id to 0xFF when its set holds the ideal,
    else to 0; the rank array is translated by it on the first read.  Each
    block the ideal reaches is picked out of S_n (`_lex_block`, on S_{n-2}
    from `all_perms`) by one big-integer AND with its part of the array,
    widened to n bytes a row, and the 0 bytes left dropped (no value is 0)."""
    mask = ids.translate(keep)
    depth = min(n, 2)
    tail = b"".join(map(bytes, all_perms(n - depth)))
    count = factorial(n - depth)
    for at, prefix in zip(range(0, len(mask), count),
                          permutations(range(1, n + 1), depth)):
        part = mask[at:at + count]
        if 255 in part:
            rows = _lex_block(n, prefix, tail)
            wide = bytearray(len(rows))
            for c in range(n):
                wide[c::n] = part
            picked = int.from_bytes(rows, "big") & int.from_bytes(wide, "big")
            yield picked.to_bytes(len(rows), "big").replace(b"\0", b"")


def ideal_sums(alphas: Sequence[Composition], n: int,
               force: bool = False) -> list[tuple[int, Iterator[bytes]]]:
    """The indicator sums of T_x over the ideals of `center_ideals`, one
    per label: the size of the ideal, summed from one count per id of the
    rank array, and one generator of its terms, each with coefficient 1,
    as blocks of byte rows in lexicographic order (`_ideal_blocks`), which
    the `basis` command writes without holding them.

    >>> [(size, list(b"".join(blocks))) for size, blocks
    ...  in ideal_sums([(1, 1, 1), (3,)], 3)]
    [(1, [1, 2, 3]), (5, [1, 2, 3, 1, 3, 2, 2, 1, 3, 2, 3, 1, 3, 1, 2])]
    """
    ids, table, _ = center_ideals(alphas, n, force)
    counts = list(map(ids.count, range(len(table))))
    keeps = [bytes(255 * (m >> r & 1) for m in table).ljust(256, b"\0")
             for r in range(len(alphas))]
    return [(sum(compress(counts, keep)), _ideal_blocks(n, ids, keep))
            for keep in keeps]


def t_leq_sigma(alpha: Composition, n: int, force: bool = False) -> HeckeElement:
    """The central element of the class labelled by `alpha`: the indicator
    sum of T_x over the Bruhat order ideal of the class, from the tuple
    walk of `order_ideal`, in lex order.  The label is checked and n gated
    as in `center_ideals`, before the class is built.

    >>> t_leq_sigma((1, 1, 1), 3) == t_basis(3, (1, 2, 3))
    True
    """
    if not is_maximal(alpha):
        raise ValueError(f"not a maximal composition: {alpha}")
    if sum(alpha) != n:
        raise ValueError(f"|{alpha}| != {n}")
    _check_degree(n, force)
    return HeckeElement(n, dict.fromkeys(
        sorted(order_ideal(sigma_class(alpha, force), force)), 1))


def is_central(x: HeckeElement) -> bool:
    """Whether x commutes with every generator (hence with the algebra)."""
    return all(
        left_mul_gen(i, x) == right_mul_gen(i, x) for i in range(1, x.n)
    )


def integer_matrix_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    Exact: all intermediate entries are integers, no floating point.

    >>> integer_matrix_rank([[2, 4], [1, 2], [0, 1]])
    2
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = next((r for r in range(row, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        lead = a[row][col]
        for r in range(row + 1, nrows):
            f = a[r][col]
            for c in range(col + 1, ncols):
                a[r][c] = (a[r][c] * lead - f * a[row][c]) // prev
            a[r][col] = 0
        prev = lead
        row += 1
        rank += 1
    return rank


class CenterBasisReport(_Record):
    """Outcome of the center-basis verification at one degree."""

    __slots__ = ("n", "alphas", "central", "rank", "dim", "failures")

    def __init__(self, n: int, alphas: tuple[Composition, ...],
                 central: tuple[bool, ...], rank: int, dim: int,
                 failures: tuple[str, ...] = ()) -> None:
        super().__init__(n, alphas, central, rank, dim, failures)

    @property
    def all_central(self) -> bool:
        return all(self.central)

    @property
    def independent(self) -> bool:
        return self.rank == len(self.alphas)

    @property
    def size_matches(self) -> bool:
        return len(self.alphas) == self.dim

    @property
    def ok(self) -> bool:
        return self.all_central and self.independent and self.size_matches


def verify_center_basis(n: int, force: bool = False) -> CenterBasisReport:
    """Check that the ideal sums over all labelled classes of S_n are
    central, linearly independent, and as many as the center dimension.

    The degree is gated by `DEGREE_SOFT_LIMIT` before any work, lifted by
    `force=True`.  The ideals come from `center_ideals`, the one entry
    into the rank walk, which the `basis` command reads too: one mask id
    per permutation in lex rank order.  Centrality is read off the upper
    boundaries of the ideals by big-integer shifts in one loop
    (`_noncentral_labels`), with no Hecke product.  When every class is
    stable under conjugation by w0, as `center_ideals` reports, that loop
    reads only the generators i >= ceil(n/2); else every generator.
    Independence is the exact rank of the k ideal sums as rows over the
    columns T_w.  The column of w is its mask, so equal ids give equal
    columns and id 0 a zero column: the rank is that of the k x m matrix
    of the m nonzero ids' table masks, as every such id occurs in the rank
    array, by Bareiss elimination.  It is exact for every input, so a
    dependent family is reported with its true rank.

    Returns a report rather than raising, so callers can surface every
    failing assertion at once.
    """
    _check_degree(n, force)
    alphas = tuple(enumerate_maximal(n, force))
    ids, table, stable = center_ideals(alphas, n, force)
    bad = _noncentral_labels(ids, table, n, stable)
    central = tuple(not bad >> r & 1 for r in range(len(alphas)))
    rank = integer_matrix_rank(
        [[m >> r & 1 for m in table[1:]] for r in range(len(alphas))])
    dim = dim_center(n)

    failures = []
    for alpha, good in zip(alphas, central):
        if not good:
            failures.append(f"element of {alpha} is not central")
    if rank != len(alphas):
        failures.append(f"rank {rank} < family size {len(alphas)}")
    if len(alphas) != dim:
        failures.append(f"family size {len(alphas)} != center dimension {dim}")
    return CenterBasisReport(
        n, alphas, central, rank, dim, tuple(failures))
