"""
Constructive descriptions of the maximal cyclic-shift classes.

Membership in the class labelled by a composition alpha is decided by
three invariants (cycle type, length, even-size orbits) of its *stair
form*, the representative defined in `permutations`.  For a one-part label
the class is exactly the set of full cycles that are *oscillating* with
*connected intervals*, and it grows degree by degree through an insertion
bijection.  One step, `_lift_all`, inserts the middle value into a whole
level written in the labels of the final degree and held by columns, one
byte per member, each column rewritten by one `translate`; the class is
built by one loop of it (`_cycle_columns`, uncached), `lift_cycle_class`
is one step of it on a level of one member, `lower_cycle_class` the inverse.
Membership is tested by the two predicates on the one cycle, never by
building the class.  `sigma_class` is the one constructive route to every
labelled class, built as byte columns from end to end: the even parts
split off through the interleaving product, an odd tail shaped like a
hook comes from the hook embedding, and any other odd tail is the
cyclic-shift class of its stair form, the one call into the brute half.
A label of degree 0 or past 255 takes the same steps on tuples.  Either
way the class (an `EquivClass`) is checked once as a whole, a fault raising
InvariantError, and is refused past the soft limit or, if forced, the ceiling.

>>> sorted(cycle_class(4)) == sorted([from_cycles(4, [(1, 4, 2, 3)]),
...                                   from_cycles(4, [(1, 3, 2, 4)])])
True
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import cyclic_shift, inductive_product
from .compositions import (
    Composition, hook_kind, is_maximal, sort_to_partition, split_even_odd,
)
from .counting import _check_size, _too_large, size_sigma_formula
from .errors import DegreeLimitError, InvariantError
from .permutations import (
    Cycle, EquivClass, Perm, _byte_lengths, cycle_string, cycle_type, cycles,
    from_cycles, identity, inverse, length, stair_form,
)

__all__ = [
    "member_sigma_alpha", "standardize_cycle", "is_oscillating_cycle",
    "has_connected_intervals_cycle", "is_oscillating", "has_connected_intervals",
    "hook_properties", "lift_cycle_class", "lower_cycle_class", "cycle_class",
    "odd_hook_embed", "sigma_class",
]


def _invariants(p: Perm) -> tuple[tuple[int, ...], tuple[frozenset[int], ...]]:
    """The cycle type and the even-size orbits of `p`, both read off one
    call of `cycles`; the orbits come in the order of their least points,
    so equal tuples are equal orbit partitions."""
    cycs = cycles(p)
    ctype = tuple(sorted(map(len, cycs), reverse=True))
    return ctype, tuple(frozenset(c) for c in cycs if not len(c) % 2)


@lru_cache
def _label_key(alpha: Composition) -> tuple[tuple, int]:
    """The `_invariants` and the length of the stair form of `alpha`, read
    once per label."""
    sf = stair_form(alpha)
    return _invariants(sf), length(sf)


def member_sigma_alpha(p: Perm, alpha: Composition) -> bool:
    """Membership of `p` in the class labelled by the maximal composition
    `alpha`, decided by three invariants of the stair form: equal cycle
    type, equal length, equal even-size orbit partition.

    >>> member_sigma_alpha(stair_form((4, 2)), (4, 2))
    True
    """
    if not is_maximal(alpha):
        raise ValueError(f"not a maximal composition: {alpha}")
    if len(p) != sum(alpha):
        raise ValueError(f"degree mismatch: |{alpha}| != {len(p)}")
    invariants, ell = _label_key(tuple(alpha))
    return _invariants(p) == invariants and length(p) == ell


def standardize_cycle(c: Cycle) -> Cycle:
    """Replace each entry of the cycle by its rank among the entries,
    yielding a full cycle on 1..k written with 1 first.

    >>> standardize_cycle((3, 11, 4, 10, 5))
    (1, 5, 2, 4, 3)
    """
    if not c:
        raise ValueError("empty cycle")
    rank = {v: r + 1 for r, v in enumerate(sorted(c))}
    std = tuple(rank[v] for v in c)
    at = std.index(1)
    return std[at:] + std[:at]


def _check_full_cycle(c: Cycle) -> None:
    if sorted(c) != list(range(1, len(c) + 1)):
        raise ValueError(f"not a full cycle on 1..{len(c)}: {c}")


def is_oscillating_cycle(c: Cycle) -> bool:
    """Whether the full cycle `c` on 1..k is oscillating.

    For even k the entries alternate (cyclically) between the lower half
    1..k/2 and the upper half; for odd k the same must hold after removing
    the middle entry (k+1)/2.  Cycles of length at most 2 qualify.

    >>> is_oscillating_cycle((1, 5, 2, 4, 3))
    True
    >>> is_oscillating_cycle((1, 5, 2, 6, 3, 4))
    True
    """
    _check_full_cycle(c)
    return _oscillating(c)


def _oscillating(c: Cycle) -> bool:
    """`is_oscillating_cycle` of a full cycle on 1..k, unchecked.  With the
    middle entry of odd k removed, the k//2 lower and the k//2 upper entries
    alternate exactly when the entries at even places, or those at odd
    places, are all lower."""
    half = len(c) // 2
    if half < 2:
        return True
    if len(c) % 2:
        at = c.index(half + 1)
        c = c[:at] + c[at + 1:]
    return max(c[::2]) <= half or max(c[1::2]) <= half


def has_connected_intervals_cycle(c: Cycle) -> bool:
    """Whether every centered interval [i, k-i+1] occurs as a contiguous
    arc of the full cycle `c` on 1..k.

    >>> has_connected_intervals_cycle((1, 6, 2, 5, 3, 4))
    True
    >>> has_connected_intervals_cycle((1, 5, 2, 6, 3, 4))
    False
    """
    _check_full_cycle(c)
    return _connected_intervals(c)


def _connected_intervals(c: Cycle) -> bool:
    """`has_connected_intervals_cycle` of a full cycle on 1..k, unchecked."""
    k = len(c)
    pos = {v: r for r, v in enumerate(c)}
    for i in range(2, k // 2 + 1):
        idxs = sorted(pos[v] for v in range(i, k - i + 2))
        gaps = sum(1 for a, b in zip(idxs, idxs[1:]) if b - a > 1)
        if idxs[0] + k - idxs[-1] > 1:
            gaps += 1
        if gaps > 1:
            return False
    return True


def is_oscillating(p: Perm) -> bool:
    """Whether the standardization of every cycle of `p` is oscillating."""
    return all(
        _oscillating(standardize_cycle(c)) for c in cycles(p) if len(c) > 2
    )


def has_connected_intervals(p: Perm) -> bool:
    """Whether the standardization of every cycle of `p` has connected
    intervals."""
    return all(
        _connected_intervals(standardize_cycle(c))
        for c in cycles(p) if len(c) > 2
    )


def hook_properties(p: Perm, alpha: Composition) -> bool:
    """The three hook properties of `p` for a hook shape alpha = (k, 1, ...):
    oscillating, connected intervals, and (for k > 1) the long cycle of `p`
    contains both i and n-i+1 for every i up to m, where m = (k-1)/2 for
    odd k and k/2 for even k.

    >>> hook_properties(from_cycles(5, [(1, 5, 3)]), (3, 1, 1))
    True
    >>> hook_properties(from_cycles(5, [(2, 5, 3)]), (3, 1, 1))
    False
    """
    if hook_kind(alpha) == "not_hook":
        raise ValueError(f"not a hook: {alpha}")
    if cycle_type(p) != sort_to_partition(alpha):
        raise ValueError(f"cycle type of {p} does not match {alpha}")
    return _hook_properties(max(cycles(p), key=len), len(p))


def _hook_properties(long: Cycle, n: int) -> bool:
    """`hook_properties` from the long cycle of a permutation of S_n whose
    cycle type, a hook, the caller has checked.  The cycle is written from
    its least entry, as `cycles` writes it; a 1-cycle always passes.  The
    cheap support test runs first; a cycle of length n holds every point,
    and needs no standardizing: it is written on 1..n from 1.  The two
    predicates run unchecked, on a full cycle by construction."""
    k = len(long)
    if k < n:
        points = set(long)
        if not all(i in points and n - i + 1 in points
                   for i in range(1, k // 2 + 1)):
            return False
        long = standardize_cycle(long)
    return _oscillating(long) and _connected_intervals(long)


def _is_cycle_class_member(sigma: Perm) -> bool:
    """Whether `sigma` is in the one-part class of its degree, the hook
    (n,): a single cycle with the hook properties."""
    cycs = cycles(sigma)
    return len(cycs) == 1 and _hook_properties(cycs[0], len(sigma))


def lift_cycle_class(n: int, sigma: Perm, q: int | None = None) -> Perm:
    """The degree-raising bijection from the one-part class of degree n-1
    onto the one-part class of degree n (4 <= n <= 255).

    For even n the middle value m = n/2 + 1 is inserted at the position
    determined by `sigma` and no branch choice exists (`q` must be None).
    For odd n the value m = (n+1)/2 is inserted just left of, between, or
    just right of the pair {m-1, m}, selected by q in {0, 1, 2}.

    `sigma` is written in the labels of degree n, every value from m up
    raised by one and m fixed, as a level of one member, one byte per
    column; it takes one step of `_lift_all`, the kernel of `cycle_class`,
    and branch q is row q of the result.

    >>> cycle_string(lift_cycle_class(4, from_cycles(3, [(1, 3, 2)])))
    '(1,4,2,3)'
    >>> cycle_string(lift_cycle_class(5, from_cycles(4, [(1, 4, 2, 3)]), 1))
    '(1,5,2,3,4)'
    """
    if not 4 <= n <= 255:
        raise ValueError("degree-raising map needs 4 <= n <= 255")
    if len(sigma) != n - 1:
        raise ValueError(f"expected a permutation of degree {n - 1}")
    if not _is_cycle_class_member(sigma):
        raise ValueError(f"{sigma} is not in the one-part class of degree {n - 1}")
    if n % 2 == 0 and q is not None:
        raise ValueError("q applies only to odd target degrees")
    if n % 2 and q not in (0, 1, 2):
        raise ValueError("odd target degree needs q in {0, 1, 2}")
    m = n // 2 + 1
    p = [v + 1 if v >= m else v for v in sigma]
    p.insert(m - 1, m)
    rows = zip(*_lift_all([bytes((v,)) for v in p], list(range(1, n + 1))))
    return [*rows][q or 0]


def _table(moves: dict[int, int], fill: int | None = None) -> bytes:
    """A `translate` table sending each key of `moves` to its value and
    every other byte to `fill`, or to itself when `fill` is None."""
    if fill is None:
        return bytes.maketrans(bytes(moves), bytes(moves.values()))
    table = bytearray((fill,)) * 256
    for a, b in moves.items():
        table[a] = b
    return table


def _lift_all(columns: list[bytes], labels: list[int]) -> list[bytes]:
    """Every lift of every member of a level to the degree k = len(labels):
    the one lift of each member for even k, its branches q = 0, 1, 2 for
    odd k, concatenated branch by branch.  The one lift step of
    `cycle_class` and `lift_cycle_class`, without the membership check of
    the latter.

    The level is held by columns: `columns[c]` has one byte per member,
    its value at c + 1.  The members are the one-part class members of
    degree k-1 written in final labels: they move the values `labels`
    other than the middle one, x = labels[k // 2], and fix x and every
    value outside `labels`.  A lift inserts x behind an anchor a of the
    cycle, a -> x -> p(a): column a takes x, and column x, all x before,
    takes p(a).  Each column is rewritten by one `translate`, all its
    lanes at once.

    The even anchor is the lesser of u = labels[k // 2 - 1] and its
    preimage.  u is the middle value of the cycle, so oscillation puts one
    lesser and one greater value around it: its preimage is the lesser
    exactly when its image p(u), the byte in column u, is greater.  The odd
    anchors are the preimage of, the first of and the second of the pair
    {u, v} of labels around x on the cycle read from its least value.
    Connected intervals make the pair adjacent, so each lane holds v in
    column u or u in column v, which tells its first; a pair that is not
    adjacent raises InvariantError.
    """
    k, lanes = len(labels), len(columns[0])
    u, x = labels[k // 2 - 1:k // 2 + 1]
    cu = columns[u - 1]
    if k % 2 == 0:
        # u moves to x in the columns before u, where the lesser preimage is
        out = [column.translate(_table({u: x})) for column in columns[:u - 1]]
        out += columns[u - 1:]
        out[u - 1] = cu.translate(bytes((x,)) * u + bytes(range(u, 256)))
        out[x - 1] = cu.translate(bytes(range(u)) + bytes((u,)) * (256 - u))
        return out
    v = labels[k // 2 + 1]
    cv = columns[v - 1]
    if cu.count(v) + cv.count(u) < lanes:
        cycle = next(p for p in zip(*columns)
                     if p[u - 1] != v and p[v - 1] != u)
        raise InvariantError(f"{u} and {v} are not adjacent on the cycle {cycle}")
    # a lane with u -> v holds v in column u, one with v -> u holds u in v
    first = [column.translate(_table({u: x, v: x})) for column in columns]
    first[u - 1], first[v - 1] = cu, cv
    first[x - 1] = cu.translate(_table({v: u}, v))
    between = columns.copy()
    between[u - 1] = cu.translate(_table({v: x}))
    between[v - 1] = cv.translate(_table({u: x}))
    between[x - 1] = cu.translate(_table({v: v}, u))
    second = columns.copy()
    second[u - 1] = cu.translate(_table({v: v}, x))
    second[v - 1] = cv.translate(_table({u: u}, x))
    second[x - 1] = (int.from_bytes(cu.translate(_table({v: 0})), "big")
                     | int.from_bytes(cv.translate(_table({u: 0})), "big")
                     ).to_bytes(lanes, "big")
    return [b"".join(branches) for branches in zip(first, between, second)]


def lower_cycle_class(sigma: Perm) -> tuple[Perm, int | None]:
    """Inverse of `lift_cycle_class`: drop the middle value from a one-part
    class member of degree n >= 4, recovering the branch index for odd n.

    The middle value m is n/2 + 1 for even n and (n+1)/2 for odd n.  Its
    preimage is sent to sigma(m), position m is dropped and every value
    above m goes down by one.  For odd n the branch is where m sits beside
    the pair {m-1, m+1} on the cycle: before it (0), inside it (1) or after
    it (2).

    >>> lower_cycle_class(from_cycles(5, [(1, 5, 2, 3, 4)]))[1]
    1
    """
    n = len(sigma)
    if n < 4:
        raise ValueError("degree-lowering map needs n >= 4")
    if not _is_cycle_class_member(sigma):
        raise ValueError(f"{sigma} is not in the one-part class of degree {n}")
    m = n // 2 + 1
    inv = inverse(sigma)
    before, after = inv[m - 1], sigma[m - 1]
    q = None
    if n % 2:
        arcs = ({after, sigma[after - 1]}, {before, after},
                {before, inv[before - 1]})
        q = next((b for b, arc in enumerate(arcs) if arc == {m - 1, m + 1}),
                 None)
        if q is None:
            raise InvariantError(
                f"{sigma} passed the class test but is the lift of no branch")
    lowered = list(sigma)
    lowered[before - 1] = after
    del lowered[m - 1]
    return tuple(v - 1 if v > m else v for v in lowered), q


def cycle_class(n: int, force: bool = False) -> frozenset[Perm]:
    """The maximal class of full n-cycles, the members of `sigma_class((n,))`
    (of the empty label for n = 0), built anew by each call: nothing is
    cached.  Unless `force` is set, a class over the element soft limit of
    `errors` (`ELEMENT_SOFT_LIMIT`) raises DegreeLimitError before any work.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sigma_class((n,) if n else (), force).elements


def _cycle_columns(n: int) -> list[bytes]:
    """The class of full n-cycles (n >= 2) as n byte columns, one byte per
    member: its one builder, unchecked, which both routes of `sigma_class`
    read.  A part past 255, with over 2 * 3**126 members, raises ValueError.

    Every degree k <= n is written in final labels, the values of degree
    n: those of degree n are 1..n, and those of degree k-1 are the labels
    of degree k without their middle value.  The class of degree 3 grows
    by the insertion bijection (`_lift_all`) in one loop, each even step
    keeping the count and each odd step tripling it; a value not yet
    inserted is a fixed point in the middle.  The step skips the membership
    check: the checks of `sigma_class` on the finished class catch a lift
    that leaves the class or is not injective, and raise InvariantError.
    """
    if n > 255:
        raise ValueError(f"no byte columns hold the full {n}-cycles; "
                         "a part may be at most 255")
    if n == 2:
        return [b"\2", b"\1"]
    labels = {n: list(range(1, n + 1))}
    for k in range(n, 3, -1):
        labels[k - 1] = labels[k][:k // 2] + labels[k][k // 2 + 1:]
    a, b, c = labels[3]
    # the lanes of the cycles (a,c,b) and (a,b,c); the other values are fixed
    columns = [bytes((v, v)) for v in range(1, n + 1)]
    columns[a - 1], columns[b - 1], columns[c - 1] = (
        bytes((c, b)), bytes((a, c)), bytes((b, a)))
    for k in range(4, n + 1):
        columns = _lift_all(columns, labels[k])
    return columns


def odd_hook_embed(tau: Perm, j: int, alpha: Composition) -> Perm:
    """Embed a full k-cycle class member into the odd-hook class of shape
    alpha = (k, 1, ..., 1): the long cycle of the result is supported on
    {1..m} | {j} | {n-m+1..n} with m = (k-1)/2, arranged so that its
    standardization is `tau`; all other points are fixed.

    >>> cycle_string(odd_hook_embed(from_cycles(3, [(1, 3, 2)]), 4, (3, 1, 1)),
    ...              include_trivial=False)
    '(1,5,4)'
    """
    if hook_kind(alpha) != "odd_hook" or alpha[0] < 3:
        raise ValueError(f"not an odd hook with long part >= 3: {alpha}")
    k, n = alpha[0], sum(alpha)
    m = (k - 1) // 2
    if not m + 1 <= j <= n - m:
        raise ValueError(f"free point {j} out of range {m + 1}..{n - m}")
    if len(tau) != k or not _is_cycle_class_member(tau):
        raise ValueError(f"{tau} is not in the one-part class of degree {k}")
    return _hook_embed(tau, j, n)


def _hook_embed(tau: Perm, j: int, n: int) -> Perm:
    """`odd_hook_embed` of `tau` onto the point j at degree n, unchecked."""
    m = len(tau) // 2
    support = (*range(1, m + 1), j, *range(n - m + 1, n + 1))
    out = list(range(1, n + 1))
    for s, t in zip(support, tau):
        out[s - 1] = support[t - 1]
    return tuple(out)


def _embed_columns(tau: list[bytes], n: int) -> list[bytes]:
    """`odd_hook_embed` of every member that the columns `tau` hold onto
    every free point j, the lanes of each j in turn: the support's columns
    are those of `tau`, relabelled by one `translate` each, and every other
    column is constant."""
    k, lanes, m = len(tau), len(tau[0]), len(tau) // 2
    free = range(m + 1, n - m + 1)
    blocks = [[bytes((c,)) * lanes] * len(free) for c in range(1, n + 1)]
    for at, j in enumerate(free):
        support = bytes((*range(1, m + 1), j, *range(n - m + 1, n + 1)))
        table = bytes.maketrans(bytes(range(1, k + 1)), support)
        for s, column in zip(support, tau):
            blocks[s - 1][at] = column.translate(table)
    return [b"".join(block) for block in blocks]


def _iprod_columns(a: list[bytes], b: list[bytes]) -> list[bytes]:
    """`iprod` of every member that the columns `a` hold with every member
    that `b` holds (no columns: the one member of degree 0), the lanes of
    each member of b in turn.  A's columns, values above k = ceil(n1/2)
    raised by n2, are tiled |B| times; B's columns, raised by k, go in at
    k, each lane repeated |A| times by |A| strided slices."""
    n1, n2, size_a = len(a), len(b), len(a[0])
    k = (n1 + 1) // 2
    up_a = _table({v: v + n2 for v in range(k + 1, n1 + 1)})
    up_b = _table({v: v + k for v in range(1, n2 + 1)})
    out = [column.translate(up_a) * (len(b[0]) if b else 1) for column in a]
    for at, column in enumerate(b, k):
        column = column.translate(up_b)
        spread = bytearray(size_a * len(column))
        for lane in range(size_a):
            spread[lane::size_a] = column
        out.insert(at, spread)
    return out


def _checked_class(rows: list, alpha: Composition,
                   columns: list[bytes] | None = None):
    """The class labelled `alpha` of the members `rows`, after two checks
    on the whole class that raise InvariantError: the rows are distinct
    and as many as the closed count, where there is one; and every member
    has the length of the stair form.  Byte rows come with the `columns`
    that hold them, whose lanes are compared all at once (`_byte_lengths`),
    and the class keeps them as rows; tuples are compared one by one."""
    built, distinct = len(rows), len(set(rows))
    expected = size_sigma_formula(alpha) or built
    if not distinct == built == expected:
        raise InvariantError(f"the class of {alpha} was built with {distinct} "
                             f"distinct members in {built}, expected {expected}")
    ell = length(stair_form(alpha))
    if columns is None:
        same = all(length(p) == ell for p in rows)
    else:
        total, ones = _byte_lengths(columns)
        same = total == ell * ones
    if not same:
        raise InvariantError(
            f"a member of the class of {alpha} is not of length {ell}")
    return (EquivClass(frozenset(rows), ell, alpha) if columns is None
            else EquivClass._of_rows(rows, ell, alpha))


def sigma_class(alpha: Composition, force: bool = False):
    """The full class labelled by the maximal composition `alpha`, as an
    EquivClass (the class record of `permutations`).

    A class over the element soft limit of `errors` raises DegreeLimitError
    unless `force` is set, and one over its ceiling raises ValueError even
    then.  The size is predicted before any work (`counting`), as the
    closed count of the even prefix times that of a hook tail; a non-hook
    odd tail has no closed count yet, so its search stops once the tail's
    class outgrows the bound divided by the even prefix's count.

    The class is built as byte columns, one byte per member.  The odd tail
    comes first: a tail of ones, or none, is the identity alone; a hook
    with long part k >= 3, the hook embedding of the full k-cycle class
    onto every free point; any other, the cyclic-shift class of its stair
    form from the brute half's search (`cyclic_shift.approx_class`, its
    one call there, read off the module object), turned into columns once.
    Each even part, right to left, then joins through the interleaving
    product with the class of full cycles of that size.  A class of degree
    0 or past 255, whose values no byte holds, takes the same steps on the
    tuples of the same columns (`_cycle_columns`, never `cycle_class`).
    The class is checked once by `_checked_class`, which raises InvariantError.
    """
    budget = _check_size(alpha, force)
    evens, odds, _ = split_even_odd(alpha)
    n, k = sum(odds), odds[0] if odds else 0
    hook = hook_kind(odds) == "odd_hook" and k >= 3
    current = [identity(n)]  # the class of a tail of ones, or of none
    if k > 2 and not hook:
        try:
            current = [*cyclic_shift.approx_class(stair_form(odds),
                                                  budget=budget, force=force)]
        except DegreeLimitError:
            raise _too_large(alpha, force) from None
    if not 0 < sum(alpha) < 256:
        if hook:
            current = [_hook_embed(tau, j, n)
                       for tau in zip(*_cycle_columns(k))
                       for j in range(k // 2 + 1, n - k // 2 + 1)]
        for part in reversed(evens):
            current = [inductive_product.iprod(a, b)
                       for a in zip(*_cycle_columns(part)) for b in current]
        return _checked_class(current, alpha)
    columns = (_embed_columns(_cycle_columns(k), n) if hook
               else [*map(bytes, zip(*current))])
    for part in reversed(evens):
        columns = _iprod_columns(_cycle_columns(part), columns)
    degree = len(columns)
    flat = bytearray(degree * len(columns[0]))
    for c, column in enumerate(columns):
        flat[c::degree] = column
    rows = re.findall(b".{%d}" % degree, flat, re.DOTALL)
    return _checked_class(rows, alpha, columns)
