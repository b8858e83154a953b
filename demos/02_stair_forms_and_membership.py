#!/usr/bin/env python3
"""
Stair forms: canonical representatives of the maximal classes.

Interleave 1, n, 2, n-1, ... and cut the sequence into blocks sized by a
composition; each block, read as a cycle, gives one cycle of the stair
form.  For maximal compositions (evens first, odds weakly decreasing at
the end) the stair form has maximal length in its conjugacy class, and
membership in its class is pinned down by three cheap invariants.
"""

from heckezero import (
    cycle_string, cycle_type, even_orbits, is_maximal, length,
    member_sigma_alpha, stair_form,
)
from heckezero.permutations import stair_sequence

n = 9
print(f"interleaved sequence for n={n}: {stair_sequence(n)}")
for alpha in [(9,), (4, 5), (4, 3, 1, 1), (2, 2, 5)]:
    sf = stair_form(alpha)
    print(f"  alpha={alpha!s:14} stair form {cycle_string(sf):28} "
          f"length {length(sf):2d}  maximal={is_maximal(alpha)}")

# Maximality of the composition <-> maximal length in the conjugacy class.
# Both orders below give cycle type (5, 4), but only the evens-first order
# (4, 5) is maximal, and only its stair form tops its conjugacy class:
for alpha in [(4, 5), (5, 4)]:
    print(f"  {alpha}: maximal={is_maximal(alpha)}, "
          f"length {length(stair_form(alpha))}")

# The three membership invariants: cycle type, length, even-size orbits.
alpha = (4, 2)
sf = stair_form(alpha)
print(f"\nclass membership test against {cycle_string(sf)}:")
print(f"  cycle type  {cycle_type(sf)}")
print(f"  length      {length(sf)}")
print(f"  even orbits {sorted(sorted(b) for b in even_orbits(sf))}")

from heckezero.permutations import from_cycles

candidates = [
    from_cycles(6, [(1, 5, 2, 6), (3, 4)]),   # member
    from_cycles(6, [(1, 2, 5, 6), (3, 4)]),   # right type, wrong length
    from_cycles(6, [(1, 6, 2, 3), (4, 5)]),   # wrong even orbits
]
for p in candidates:
    print(f"  {cycle_string(p, include_trivial=False):18} "
          f"member: {member_sigma_alpha(p, alpha)}")
