#!/usr/bin/env python3
"""
A walk through the cyclic-shift relation on a small symmetric group.

Conjugating a permutation w by an adjacent transposition s_i swaps the
values i and i+1 in its cycle notation.  Keeping only the conjugations
that do not increase Coxeter length yields a directed relation; mutual
reachability chops S_n into classes on which the length is constant.
"""

from heckezero import (
    cycle_string, equiv_classes, label_max_classes, length, one_step,
)
from heckezero.permutations import from_cycles

# Start from the 3-cycle (1,2,3) in S_3 and try both generators.
w = from_cycles(3, [(1, 2, 3)])
print(f"w = {cycle_string(w)}, length {length(w)}")
for i in (1, 2):
    stepped = one_step(w, i)
    if stepped is None:
        print(f"  conjugating by s_{i} would increase the length: no edge")
    else:
        print(f"  s_{i} w s_{i} = {cycle_string(stepped)}, "
              f"length {length(stepped)}")

# Equal lengths mean the step is reversible, so (1,2,3) and (1,3,2) form
# one class.  The full catalog of S_3 splits the maximal-length stratum
# into three classes:
print("\nmaximal-length classes of S_3:")
for cls in equiv_classes(3, "id", "max"):
    members = ", ".join(cycle_string(v) for v in cls.sorted_elements())
    print(f"  length {cls.common_length}: {{{members}}}")

# Each class contains exactly one stair form, which labels it by a
# maximal composition.
print("\nlabels at n = 4:")
for alpha, cls in label_max_classes(4).items():
    members = ", ".join(
        cycle_string(v, include_trivial=False) or "()"
        for v in cls.sorted_elements())
    print(f"  {alpha}: size {cls.size:2d}  {{{members}}}")

# The twisted relation w -> s_i w s_{n-i} ("nu") is the plain one moved
# by w0: its minimal stratum is the maximal one times w0, labelled by the
# same compositions.
print("\nnu-twisted minimal classes of S_3:",
      len(equiv_classes(3, "nu", "min")))
