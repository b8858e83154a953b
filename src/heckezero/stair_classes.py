"""
Constructive descriptions of the maximal cyclic-shift classes.

The canonical representative of the class labelled by a composition alpha
is its *stair form*: split the interleaved sequence 1, n, 2, n-1, ... into
consecutive blocks of sizes alpha_1, alpha_2, ... and read each block as a
cycle.

Membership in a labelled class is decided by three invariants (cycle type,
length, even-size orbits).  For a one-part label the class is exactly the
set of full cycles that are *oscillating* with *connected intervals*, and
it grows degree by degree through an insertion bijection.  One step,
`_lift_all`, inserts the middle value into a whole level of one-line lists
written in the labels of the final degree, by setting two entries of each;
`cycle_class` is one loop of it from degree 3, `lift_cycle_class` one step
of it, and `lower_cycle_class` the inverse.  Membership is tested by the
two predicates on the one cycle, never by building the class.
`sigma_class` is the one constructive route to every labelled class: the
even parts split off through the interleaving product, an odd tail shaped
like a hook comes from the hook embedding, and any other odd tail is the
cyclic-shift class of its stair form.  A class predicted to exceed the
element soft limit is refused before any work unless forced.

>>> cycle_string(stair_form((4, 2)))
'(1,6,2,5)(3,4)'
>>> sorted(cycle_class(4)) == sorted([from_cycles(4, [(1, 4, 2, 3)]),
...                                   from_cycles(4, [(1, 3, 2, 4)])])
True
"""

from __future__ import annotations

from functools import lru_cache

from .compositions import (
    Composition, check_composition, hook_kind, is_maximal, sort_to_partition,
    split_even_odd,
)
from .counting import size_sigma_n
from .errors import InvariantError
from .inductive_product import iprod
from .permutations import (
    Cycle, Perm, cycle_string, cycle_type, cycles, even_orbits, from_cycles,
    inverse, length,
)

__all__ = [
    "stair_sequence", "stair_form", "member_sigma_alpha",
    "standardize_cycle", "is_oscillating_cycle", "has_connected_intervals_cycle",
    "is_oscillating", "has_connected_intervals", "hook_properties",
    "lift_cycle_class", "lower_cycle_class", "cycle_class", "odd_hook_embed",
    "sigma_class",
]


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
    sf = stair_form(alpha)
    return (
        cycle_type(p) == sort_to_partition(alpha)
        and length(p) == length(sf)
        and even_orbits(p) == even_orbits(sf)
    )


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


def _check_full_cycle(c: Cycle) -> int:
    k = len(c)
    if sorted(c) != list(range(1, k + 1)):
        raise ValueError(f"not a full cycle on 1..{k}: {c}")
    return k


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
    k = _check_full_cycle(c)
    if k <= 2:
        return True
    if k % 2 == 0:
        half = k // 2
        seq = c
    else:
        half = (k - 1) // 2
        mid = (k + 1) // 2
        seq = tuple(v for v in c if v != mid)
    low = [v <= half for v in seq]
    return all(low[r] != low[r - 1] for r in range(len(seq)))


def has_connected_intervals_cycle(c: Cycle) -> bool:
    """Whether every centered interval [i, k-i+1] occurs as a contiguous
    arc of the full cycle `c` on 1..k.

    >>> has_connected_intervals_cycle((1, 6, 2, 5, 3, 4))
    True
    >>> has_connected_intervals_cycle((1, 5, 2, 6, 3, 4))
    False
    """
    k = _check_full_cycle(c)
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
        is_oscillating_cycle(standardize_cycle(c))
        for c in cycles(p) if len(c) > 2
    )


def has_connected_intervals(p: Perm) -> bool:
    """Whether the standardization of every cycle of `p` has connected
    intervals."""
    return all(
        has_connected_intervals_cycle(standardize_cycle(c))
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
    return _hook_properties(cycles(p), alpha[0])


def _hook_properties(cycs: tuple[Cycle, ...], k: int) -> bool:
    """`hook_properties` from the `cycles` of a permutation whose cycle type
    is that of the hook with long part k, which the caller has checked:
    only the long cycle can be longer than 2.  The cheap support test runs
    first.  A long cycle of length n needs no standardizing: `cycles`
    writes it on 1..n from 1."""
    if k == 1:
        return True
    long = next(c for c in cycs if len(c) == k)
    n = sum(map(len, cycs))
    m = (k - 1) // 2 if k % 2 else k // 2
    if not all(i in long and n - i + 1 in long for i in range(1, m + 1)):
        return False
    std = long if k == n else standardize_cycle(long)
    return is_oscillating_cycle(std) and has_connected_intervals_cycle(std)


def _is_cycle_class_member(sigma: Perm) -> bool:
    """Whether `sigma` is in the one-part class of its degree: a single
    cycle, which `cycles` writes from 1, oscillating with connected
    intervals."""
    cycs = cycles(sigma)
    return (len(cycs) == 1 and is_oscillating_cycle(cycs[0])
            and has_connected_intervals_cycle(cycs[0]))


def lift_cycle_class(n: int, sigma: Perm, q: int | None = None) -> Perm:
    """The degree-raising bijection from the one-part class of degree n-1
    onto the one-part class of degree n (n >= 4).

    For even n the middle value m = n/2 + 1 is inserted at the position
    determined by `sigma` and no branch choice exists (`q` must be None).
    For odd n the value m = (n+1)/2 is inserted just left of, between, or
    just right of the pair {m-1, m}, selected by q in {0, 1, 2}.

    `sigma` is written in the labels of degree n, every value from m up
    raised by one and m fixed, and takes one step of `_lift_all`, the
    kernel of `cycle_class`.

    >>> cycle_string(lift_cycle_class(4, from_cycles(3, [(1, 3, 2)])))
    '(1,4,2,3)'
    >>> cycle_string(lift_cycle_class(5, from_cycles(4, [(1, 4, 2, 3)]), 1))
    '(1,5,2,3,4)'
    """
    if n < 4:
        raise ValueError("degree-raising map needs n >= 4")
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
    return tuple(_lift_all([p], list(range(1, n + 1)))[q or 0])


def _lift_all(level: list[list[int]], labels: list[int]) -> list[list[int]]:
    """Every lift of every member of `level` to the degree k = len(labels):
    the one lift of each member for even k, its branches q = 0, 1, 2 in
    that order for odd k.  The one lift step of `cycle_class` and
    `lift_cycle_class`, without the membership check of the latter.

    The members are one-line lists, all of one length, of the full cycles
    of degree k-1 written in final labels: they move the values `labels`
    other than the middle one, x = labels[k // 2], and fix x and every
    value outside `labels`.  A lift inserts x behind an anchor a of the
    cycle, a -> x -> p(a), by setting two entries, q[a] = x and
    q[x] = p[a]: the right product with the transposition (a, x).

    The even anchor is the lesser of u = labels[k // 2 - 1] and its
    preimage.  The odd anchors are the preimage of, the first of and the
    second of the pair {u, v} of labels around x on the cycle read from
    its least value.  Connected intervals make the pair adjacent, so its
    first is found by two lookups; a pair that is not adjacent raises
    InvariantError.
    """
    k = len(labels)
    u, x = labels[k // 2 - 1:k // 2 + 1]
    v = labels[k // 2 + 1] if k % 2 else None
    out = []
    for p in level:
        if v is None:
            anchors = (min(p.index(u), u - 1),)
        elif p[u - 1] == v:
            anchors = (p.index(u), u - 1, v - 1)
        elif p[v - 1] == u:
            anchors = (p.index(v), v - 1, u - 1)
        else:
            raise InvariantError(
                f"{u} and {v} are not adjacent on the cycle {tuple(p)}")
        for a in anchors:
            q = p.copy()
            q[a] = x
            q[x - 1] = p[a]
            out.append(q)
    return out


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
    m = n // 2 + 1 if n % 2 == 0 else (n + 1) // 2
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
    """The maximal class of full n-cycles, generated degree by degree in
    one loop.

    Every degree k <= n is written in final labels, the values of degree
    n: those of degree n are 1..n, and those of degree k-1 are the labels
    of degree k without their middle value.  The explicit class of degree
    3 grows by the insertion bijection (`_lift_all`), each even step
    keeping the count and each odd step tripling it, as one-line lists of
    length n in which a value not yet inserted is a fixed point in the
    middle.  The inputs are class members by construction, so the step
    skips the membership check; one count against `size_sigma_n` instead
    catches a lift that leaves the class or is not injective, and raises
    InvariantError.

    Unless `force` is set, a class over `ELEMENT_SOFT_LIMIT` elements
    raises DegreeLimitError before any work.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 2:
        from .cyclic_shift import _check_size
        _check_size((n,), force)
    return _cycle_class(n)


@lru_cache(maxsize=None)
def _cycle_class(n: int) -> frozenset[Perm]:
    """`cycle_class` of a degree that passed its checks."""
    if n <= 2:
        return frozenset([((), (1,), (2, 1))[n]])     # one full cycle each
    labels = {n: list(range(1, n + 1))}
    for k in range(n, 3, -1):
        below = labels[k].copy()
        del below[k // 2]
        labels[k - 1] = below
    base = labels[3]
    level = []
    for tau in ((3, 1, 2), (2, 3, 1)):      # the cycles (1,3,2) and (1,2,3)
        p = list(range(1, n + 1))
        for s, t in zip(base, tau):
            p[s - 1] = base[t - 1]
        level.append(p)
    for k in range(4, n + 1):
        level = _lift_all(level, labels[k])
    result = frozenset(map(tuple, level))
    if len(result) != size_sigma_n(n):
        raise InvariantError(
            f"the lift built {len(result)} full {n}-cycles, expected "
            f"{size_sigma_n(n)}"
        )
    return result


# the controls of the class cache, as on any lru_cache function
cycle_class.cache_info = _cycle_class.cache_info
cycle_class.cache_clear = _cycle_class.cache_clear


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
    k = alpha[0]
    n = sum(alpha)
    m = (k - 1) // 2
    if not m + 1 <= j <= n - m:
        raise ValueError(f"free point {j} out of range {m + 1}..{n - m}")
    if len(tau) != k or not _is_cycle_class_member(tau):
        raise ValueError(f"{tau} is not in the one-part class of degree {k}")
    return _embed(tau, j, n)


def _embed(tau: Perm, j: int, n: int) -> Perm:
    """`tau` written onto {1..m} | {j} | {n-m+1..n} of 1..n by the
    increasing bijection, m = (len(tau)-1)/2, with every other point fixed;
    the kernel of `odd_hook_embed`, without its checks."""
    m = (len(tau) - 1) // 2
    support = (*range(1, m + 1), j, *range(n - m + 1, n + 1))
    out = list(range(1, n + 1))
    for s, t in zip(support, tau):
        out[s - 1] = support[t - 1]
    return tuple(out)


def sigma_class(alpha: Composition, force: bool = False):
    """The full class labelled by the maximal composition `alpha`, as an
    EquivClass.

    Before any work, a class whose predicted size exceeds
    `ELEMENT_SOFT_LIMIT` raises DegreeLimitError unless `force` is set.
    The prediction is the closed count of the even prefix times that of a
    hook tail; a non-hook odd tail has no closed count yet, so such a
    label is gated by its even prefix alone and its tail is not gated.

    The odd tail is built first: when it is a hook with long part k >= 3,
    the hook embedding (`_embed`) of every full k-cycle class member onto
    every free point (the full k-cycle class itself when the tail is (k,)),
    and otherwise the cyclic-shift class of its stair form, found by the
    reachability search (`approx_class`), which visits only the class.
    Each even part, right to left, then joins through the interleaving
    product with the class of full cycles of that size.
    """
    from .cyclic_shift import _check_size, approx_class, make_equiv_class

    _check_size(alpha, force)
    evens, odds, _ = split_even_odd(alpha)
    if hook_kind(odds) == "odd_hook" and odds[0] >= 3:
        n = sum(odds)
        m = (odds[0] - 1) // 2
        if n == odds[0]:
            # one part: the support is 1..n and the embedding the identity
            current = _cycle_class(n)
        else:
            current = {
                _embed(tau, j, n)
                for tau in _cycle_class(odds[0]) for j in range(m + 1, n - m + 1)
            }
    else:
        current = approx_class(stair_form(odds))
    for part in reversed(evens):
        current = {iprod(a, b) for a in _cycle_class(part) for b in current}
    return make_equiv_class(current, alpha=alpha)
