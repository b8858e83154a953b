"""
Independent brute-force oracles used only by the tests.

Nothing here shares code paths with the library: Bruhat order is decided
through reduced-word subsequences, equivalence classes through pairwise
reachability, and the one-step relation is re-derived from first
principles.  Deliberately slow and simple.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations


def identity(n):
    return tuple(range(1, n + 1))


def apply_gen_left(i, w):
    """s_i * w: swap the values i and i+1 in the one-line word."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)


def apply_gen_right(w, i):
    """w * s_i: swap positions i and i+1 of the one-line word."""
    return w[: i - 1] + (w[i], w[i - 1]) + w[i + 1:]


def inv_count(w):
    return sum(1 for a, b in combinations(w, 2) if a > b)


def one_reduced_word(w):
    """A reduced word for w, by bubble-sorting the one-line notation."""
    word = []
    cur = list(w)
    changed = True
    while changed:
        changed = False
        for i in range(1, len(cur)):
            if cur[i - 1] > cur[i]:
                word.append(i)
                cur[i - 1], cur[i] = cur[i], cur[i - 1]
                changed = True
    return tuple(reversed(word))


def all_reduced_words(w):
    """Every reduced word of w, by recursion over left descents."""
    n = len(w)
    if inv_count(w) == 0:
        return [()]
    words = []
    for i in range(1, n):
        # i is a left descent iff i+1 occurs left of i in the word
        if w.index(i + 1) < w.index(i):
            shorter = apply_gen_left(i, w)
            words.extend((i,) + rest for rest in all_reduced_words(shorter))
    return words


def ideal_by_inversions(gens):
    """The downward Bruhat closure of `gens`: repeatedly swap the two
    entries of any inversion, which lowers the length and reaches every
    element below (no cover test, no level order)."""
    seen = set(gens)
    stack = list(seen)
    while stack:
        w = stack.pop()
        for i, j in combinations(range(len(w)), 2):
            if w[i] > w[j]:
                v = list(w)
                v[i], v[j] = v[j], v[i]
                v = tuple(v)
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return seen


def fraction_rank(rows):
    """Rank of a matrix by Gauss-Jordan elimination over the rationals:
    each pivot row is scaled to a leading 1 and cleared from every other
    row, in exact `Fraction` arithmetic."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        lead = a[rank][col]
        a[rank] = [x / lead for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def bruhat_leq_oracle(u, w):
    """u <= w iff some reduced word of w contains a reduced word of u as a
    subsequence; checked against one fixed reduced word of w, which the
    subword property makes sufficient."""
    word = one_reduced_word(w)
    lu = inv_count(u)
    if lu > len(word):
        return False
    n = len(u)
    for picks in combinations(range(len(word)), lu):
        prod = identity(n)
        for t in picks:
            prod = apply_gen_right(prod, word[t])
        if prod == u:
            return True
    return False


def twisted_image(i, n, twist):
    return i if twist == "id" else n - i


def reach_set(w, twist="id", backward=False):
    """All w' reachable from w by steps s_i * w * delta(s_i) that do not
    increase the inversion count; with `backward`, all w' from which w is
    reachable (a step is an involution, so it is walked in reverse by
    requiring that it not decrease the inversion count)."""
    n = len(w)
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(1, n):
                u = apply_gen_right(apply_gen_left(i, v),
                                    twisted_image(i, n, twist))
                if u in seen:
                    continue
                if (inv_count(u) >= inv_count(v) if backward
                        else inv_count(u) <= inv_count(v)):
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def mutual_class(w, twist="id"):
    """The permutations that w reaches and that reach w."""
    return reach_set(w, twist) & reach_set(w, twist, backward=True)


def mutual_classes(n, twist="id"):
    """Equivalence classes of S_n by pairwise mutual reachability."""
    perms = list(permutations(range(1, n + 1)))
    reach = {w: reach_set(w, twist) for w in perms}
    classes = []
    assigned = set()
    for w in perms:
        if w in assigned:
            continue
        cls = {v for v in reach[w] if w in reach[v]}
        classes.append(frozenset(cls))
        assigned |= cls
    return classes


def orbit_sets(p):
    """The orbits of p as frozensets, by following each unvisited point."""
    seen = set()
    out = []
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        orbit = set()
        v = start
        while v not in orbit:
            orbit.add(v)
            v = p[v - 1]
        seen |= orbit
        out.append(frozenset(orbit))
    return out


def orbit_partition_histogram(elements):
    """How many of the given permutations induce each orbit partition."""
    return dict(Counter(frozenset(orbit_sets(w)) for w in elements))


def perms_of_type(n, lam):
    """All permutations of S_n whose multiset of cycle lengths is lam."""
    target = tuple(sorted(lam, reverse=True))
    return [p for p in permutations(range(1, n + 1))
            if tuple(sorted(map(len, orbit_sets(p)), reverse=True)) == target]


def extreme_strata(n, twist, stratum):
    """The permutations of S_n of least ("min") or greatest ("max")
    inversion count among those of their twisted conjugacy class.  The
    class is told by the cycle type of p, or for the "nu" twist of the
    product p*w0, composed here point by point."""
    pick = min if stratum == "min" else max
    by_type = {}
    for p in permutations(range(1, n + 1)):
        q = p if twist == "id" else tuple(p[n - i] for i in range(1, n + 1))
        lam = tuple(sorted(map(len, orbit_sets(q)), reverse=True))
        by_type.setdefault(lam, []).append(p)
    out = set()
    for members in by_type.values():
        best = pick(map(inv_count, members))
        out.update(p for p in members if inv_count(p) == best)
    return frozenset(out)


def invariant_class(alpha):
    """The permutations that share cycle type, inversion count and even-size
    orbits with the stair form of alpha."""
    return invariant_classes([alpha])[alpha]


def invariant_classes(alphas):
    """`invariant_class` of each label in `alphas`, all of one degree n,
    from one pass over S_n.  The stair form is rebuilt here: deal 1..n
    alternately from the low and the high end, cut the sequence into blocks
    of sizes alpha and close each block into a cycle."""
    n = sum(alphas[0])
    targets = {}
    for alpha in alphas:
        rest = list(range(1, n + 1))
        seq = [rest.pop(0) if r % 2 == 0 else rest.pop() for r in range(n)]
        img = list(range(1, n + 1))
        start = 0
        for part in alpha:
            block = seq[start:start + part]
            for t, v in enumerate(block):
                img[v - 1] = block[(t + 1) % part]
            start += part
        stair = tuple(img)
        lam = tuple(sorted(alpha, reverse=True))
        key = (inv_count(stair), _even(orbit_sets(stair)))
        targets.setdefault(lam, {}).setdefault(key, []).append(alpha)
    out = {alpha: set() for alpha in alphas}
    for p in permutations(range(1, n + 1)):
        orbits = orbit_sets(p)
        by_key = targets.get(tuple(sorted(map(len, orbits), reverse=True)))
        if by_key:
            for alpha in by_key.get((inv_count(p), _even(orbits)), ()):
                out[alpha].add(p)
    return out


def _even(orbits):
    return frozenset(b for b in orbits if len(b) % 2 == 0)


def compositions_of(n):
    """All compositions of n (ordered parts)."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        out.extend((first,) + rest for rest in compositions_of(n - first))
    return out
