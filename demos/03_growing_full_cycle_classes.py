#!/usr/bin/env python3
"""
The class of full n-cycles, grown one degree at a time.

A full cycle belongs to the maximal class exactly when it is oscillating
(entries alternate between the lower and upper half of 1..n) and has
connected intervals (every centered interval [i, n-i+1] forms a
contiguous arc).  Inserting the middle value of 1..n into a class member
of degree n-1 (`lift_cycle_class`) gives a bijection onto the degree-n
class, with three insertion slots when n is odd; so the counts go 1, 1, 2,
2, 6, 6, 18, ...  Deleting the middle value (`lower_cycle_class`) undoes
the insertion and names the slot it used.
"""

from heckezero import cycle_class, cycle_string, size_sigma_formula
from heckezero.stair_classes import (
    has_connected_intervals_cycle, is_oscillating_cycle, lift_cycle_class,
    lower_cycle_class,
)

for n in range(1, 11):
    generated = cycle_class(n)
    print(f"n={n:2d}: {len(generated):4d} class members "
          f"(closed form {size_sigma_formula((n,))})")

print("\nthe degree-5 class, traced back to degree 4:")
for sigma in sorted(cycle_class(5)):
    down, q = lower_cycle_class(sigma)
    print(f"  {cycle_string(sigma):14} <- {cycle_string(down):12} slot {q}")

# Round trip: re-inserting with the recorded slot recovers the element.
sigma = sorted(cycle_class(5))[0]
down, q = lower_cycle_class(sigma)
assert lift_cycle_class(5, down, q) == sigma

# The two predicates that characterize the class, on raw cycles:
print("\npredicates on two 6-cycles:")
for cyc in [(1, 6, 2, 5, 3, 4), (1, 5, 2, 6, 3, 4)]:
    print(f"  {cyc}: oscillating={is_oscillating_cycle(cyc)}, "
          f"connected intervals={has_connected_intervals_cycle(cyc)}")
