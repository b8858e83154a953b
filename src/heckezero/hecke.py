"""
Sparse arithmetic in the 0-Hecke algebra of S_n on its natural basis.

An element is a finite integer combination of basis vectors T_w indexed by
permutations.  The generators satisfy T_i^2 = -T_i together with the braid
relations, so multiplication by a generator either climbs the Bruhat order
or flips a sign:

    T_i * T_w = T_{s_i w}   if length(s_i w) > length(w)
              = -T_w        otherwise.

The center has a basis of indicator sums over Bruhat order ideals
generated by the maximal cyclic-shift classes.  `verify_center_basis`
checks centrality, linear independence and the dimension count from one
walk over the one-line prefixes of S_n, which decides Bruhat order by the
tableau criterion and gives each permutation, built once, a bitmask of the
ideals holding it.  For a lower ideal I, T_i times the indicator sum of I is the
indicator sum of its upper boundary {z : s_i z < z, s_i z in I, z not in I},
and the right product is the same with z s_i, so centrality is a comparison
of boundaries, made for every ideal at once by XOR.  Independence is
certified by the unitriangular minor on the stair-form columns, with exact
Bareiss elimination as the fallback when that pattern fails.  The sparse
products and `is_central` stay as the algebra API and as the reference the
sweep is tested against.

Integer coefficients suffice throughout: all structure constants are
integral, so any field case follows by extension of scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .compositions import Composition, enumerate_maximal, is_maximal
from .counting import dim_center
from .cyclic_shift import _check_degree
from .permutations import Perm, length
from .stair_classes import sigma_class, stair_form

__all__ = [
    "HeckeElement", "t_basis",
    "left_mul_gen", "right_mul_gen", "mul", "reduced_word",
    "order_ideal", "t_leq_sigma", "is_central",
    "integer_matrix_rank", "CenterBasisReport", "verify_center_basis",
]


@dataclass(frozen=True, eq=False)
class HeckeElement:
    """A sparse integer combination of basis vectors T_w of fixed degree.

    `terms` maps permutations to nonzero coefficients.  Treated as
    immutable; all operations return fresh elements.
    """

    n: int
    terms: Mapping[Perm, int]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.n == other.n
            and dict(self.terms) == dict(other.terms)
        )

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
    """A reduced word for `w`, produced by repeatedly stripping the smallest
    right descent.  Any reduced word gives the same T_w, so the choice is
    only for determinism.

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


def order_ideal(sigma) -> frozenset[Perm]:
    """The downward Bruhat closure of a set of permutations of one degree.

    Accepts an EquivClass or any iterable of permutations, of any mix of
    lengths; the closure is the one-ideal case of `_ideal_masks`.

    >>> sorted(order_ideal([(2, 3, 1)]))
    [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1)]
    """
    return frozenset(_ideal_masks([getattr(sigma, "elements", sigma)]))


def _ideal_masks(seeds: Sequence[Iterable[Perm]]) -> dict[Perm, int]:
    """Every order ideal of `seeds` at once: bit r of the mask of w is set
    exactly when w lies below some element of `seeds[r]`.  The seeds must
    share one degree; the keys come out in lexicographic order.

    By the tableau criterion (Bjorner-Brenti, GTM 231, Thm 2.1.5), x <= w
    exactly when, for every k, the set of the first k values of x lies
    below that of w in Gale order (`_gale_leq`).  The sweep walks one-line
    prefixes depth first, smallest value first, carrying the bitmask of
    the generators whose prefixes stay above; a prefix with none left is
    pruned, and the last position is forced.  Each element is built once,
    as a leaf, and a prefix set is tested against each distinct generator
    prefix once, on first reaching it.  The generator bits lie label by
    label, each block topped by a zero guard bit, so one addition carries
    into the guard of every label with a generator left.
    """
    blocks = [set(elements) for elements in seeds]
    degrees = {len(w) for block in blocks for w in block}
    if len(degrees) > 1:
        raise ValueError(
            f"seeds of mixed degrees {min(degrees)} and {max(degrees)}")
    if not degrees:
        return {}
    n = degrees.pop()
    if n == 0:
        return {(): sum(1 << r for r, block in enumerate(blocks) if block)}
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

    full = (1 << n) - 1
    below: dict[int, int] = {}
    labels: dict[int, int] = {}
    masks: dict[Perm, int] = {}
    stack: list[tuple[Perm, int, int]] = [((), 0, ones)]
    while stack:
        prefix, s, alive = stack.pop()
        free = full ^ s
        if len(prefix) == n - 1:
            hit = alive + ones & guards
            if hit not in labels:
                labels[hit] = sum(label for g, label in guard_labels if hit & g)
            masks[prefix + (free.bit_length(),)] = labels[hit]
            continue
        # largest value first, so the smallest prefix is popped next
        while free:
            v = free.bit_length()
            free ^= 1 << v - 1
            t = s | 1 << v - 1
            if t not in below:
                below[t] = sum(gens for p, gens in tops[len(prefix) + 1].items()
                               if _gale_leq(t, p))
            live = below[t] & alive
            if live:
                stack.append((prefix + (v,), t, live))
    return masks


def _noncentral_bits(masks: Mapping[Perm, int], n: int) -> int:
    """The bits r whose ideal sum chi_r = sum of T_w over the w with bit r
    set fails to commute with some generator; the masks must describe
    lower ideals, as `_ideal_masks` builds them.

    For a lower ideal I the terms of T_i * chi_I from each pair {y, s_i y}
    inside I cancel, so the coefficient of T_z is [s_i z < z, s_i z in I,
    z not in I]: the upper boundary of I along left multiplication by s_i.
    The product chi_I * T_i is the same with z s_i in place of s_i z.  So
    chi_I is central exactly when, for every i, the left and right
    boundaries agree, and one XOR of boundary masks tests every ideal.
    Climbs are decided by position, as in `left_mul_gen` and
    `right_mul_gen`; no length is computed.
    """
    bad = 0
    for i in range(1, n):
        left: dict[Perm, int] = {}
        right: dict[Perm, int] = {}
        for y, m in masks.items():
            a = y.index(i)
            b = y.index(i + 1)
            if a < b:
                v = list(y)
                v[a], v[b] = i + 1, i
                z = tuple(v)
                out = m & ~masks.get(z, 0)
                if out:
                    left[z] = out
            if y[i - 1] < y[i]:
                z = y[: i - 1] + (y[i], y[i - 1]) + y[i + 1:]
                out = m & ~masks.get(z, 0)
                if out:
                    right[z] = out
        for z in left.keys() | right.keys():
            bad |= left.get(z, 0) ^ right.get(z, 0)
    return bad


def t_leq_sigma(alpha: Composition, n: int, force: bool = False) -> HeckeElement:
    """The central element of the class labelled by `alpha`: the indicator
    sum of T_x over the Bruhat order ideal generated by the class.

    The ideal can hold most of S_n, so n is gated by the brute-force soft
    limit `DEGREE_SOFT_LIMIT`, lifted by `force=True`.

    >>> t_leq_sigma((1, 1, 1), 3) == t_basis(3, (1, 2, 3))
    True
    """
    if not is_maximal(alpha):
        raise ValueError(f"not a maximal composition: {alpha}")
    if sum(alpha) != n:
        raise ValueError(f"|{alpha}| != {n}")
    _check_degree(n, force)
    # the walk yields the ideal in lexicographic order, so the terms are sorted
    ideal = _ideal_masks([sigma_class(alpha).elements])
    return HeckeElement(n, dict.fromkeys(ideal, 1))


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


@dataclass(frozen=True)
class CenterBasisReport:
    """Outcome of the center-basis verification at one degree.

    `certificate` names the check that decided `rank`: "unitriangular"
    when the stair-form minor proved full rank, "bareiss" when the
    elimination fallback computed it.
    """

    n: int
    alphas: tuple[Composition, ...]
    central: tuple[bool, ...]
    rank: int
    certificate: str
    dim: int
    failures: tuple[str, ...] = field(default=())

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


def _stair_minor_is_unitriangular(
    alphas: Sequence[Composition], masks: Mapping[Perm, int]
) -> bool:
    """Whether the ideal sums restricted to the stair-form columns form a
    unitriangular minor once the labels are sorted by class length.

    Entry (alpha, beta) is 1 when stair_form(beta) lies in the ideal of
    class alpha.  The check asks for a 1 on the diagonal and, off it, a 1
    only where the class of beta is strictly shorter than the class of
    alpha.  When it holds, the minor has determinant 1, so the family has
    full rank.  (It always should: an off-diagonal 1 at equal lengths would
    put stair_form(beta) in the class of alpha.)
    """
    ell = [length(stair_form(beta)) for beta in alphas]
    for c, beta in enumerate(alphas):
        column = masks.get(stair_form(beta), 0)
        for r in range(len(alphas)):
            hit = column >> r & 1
            if r == c:
                if not hit:
                    return False
            elif hit and ell[c] >= ell[r]:
                return False
    return True


def verify_center_basis(n: int, force: bool = False) -> CenterBasisReport:
    """Check that the ideal sums over all labelled classes of S_n are
    central, linearly independent, and as many as the center dimension.

    The degree is gated by `DEGREE_SOFT_LIMIT` before any work, lifted by
    `force=True`.  One prefix walk (`_ideal_masks`) builds every
    ideal at once as label bitmasks.  Centrality is read off the upper
    boundaries of the ideals (`_noncentral_bits`), with no Hecke product.
    Independence is decided by a certificate: the minor on the stair-form
    columns is checked to be unitriangular, which proves rank k.  If that
    pattern fails, the rank of the k rows over S_n is computed by Bareiss
    elimination instead and reported as it is; the failed pattern never
    counts as a pass.

    Returns a report rather than raising, so callers can surface every
    failing assertion at once.
    """
    _check_degree(n, force)
    alphas = tuple(enumerate_maximal(n))
    masks = _ideal_masks([sigma_class(alpha).elements for alpha in alphas])
    bad = _noncentral_bits(masks, n)
    central = tuple(not bad >> r & 1 for r in range(len(alphas)))

    if _stair_minor_is_unitriangular(alphas, masks):
        certificate, rank = "unitriangular", len(alphas)
    else:
        # permutations outside every ideal give zero columns, left out
        columns = [masks[w] for w in sorted(masks)]
        rows = [[m >> r & 1 for m in columns] for r in range(len(alphas))]
        certificate, rank = "bareiss", integer_matrix_rank(rows)
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
        n, alphas, central, rank, certificate, dim, tuple(failures))
