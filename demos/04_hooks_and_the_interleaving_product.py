#!/usr/bin/env python3
"""
Hook classes and the interleaving product.

Two constructions reach far beyond brute force:

* hook shapes (k, 1, ..., 1): the class is the image of an explicit
  embedding of the degree-k full-cycle class, and
* an even first part splits off: the class of (a1, a2, ...) with a1 even
  is the elementwise product of the class of (a1,) with the class of the
  rest, under an interleaving embedding of S_{n1} x S_{n2}.

`sigma_class` applies both: it builds the odd tail (a hook embedding, or
the class search from the tail's stair form when the odd parts are not a
hook) and then splits the even parts off one product at a time.
"""

from heckezero import (
    approx_class, cycle_class, cycle_string, from_cycles,
    has_connected_intervals, hook_properties, iprod, is_oscillating,
    odd_hook_embed, sigma_class, size_sigma_formula, stair_form,
)

# The interleaving product relabels the left factor onto the outer block
# {1..k} | {k+n2+1..n} and the right factor onto the middle block.
a = stair_form((4,))
b = stair_form((3, 1))
print(f"{cycle_string(a, include_trivial=False)} * "
      f"{cycle_string(b, include_trivial=False)} = "
      f"{cycle_string(iprod(a, b), include_trivial=False)}")

# Odd hook (3,1,1): six elements from two 3-cycles times three supports.
print("\nodd hook (3,1,1):")
for tau in sorted(cycle_class(3)):
    row = [cycle_string(odd_hook_embed(tau, j, (3, 1, 1)),
                        include_trivial=False) for j in (2, 3, 4)]
    print(f"  {cycle_string(tau):10} -> {' '.join(row)}")

# Within its cycle type, a hook class is cut out by three properties: the
# cycles oscillate, they have connected intervals, and the long cycle holds
# 1..m and the matching top values.  The 3-cycle (2,5,3) has the first two
# and lacks the third.
print("\nhook properties for (3,1,1):")
for w in (stair_form((3, 1, 1)), from_cycles(5, [(2, 5, 3)])):
    print(f"  {cycle_string(w, include_trivial=False):10} "
          f"oscillating={is_oscillating(w)}, "
          f"connected intervals={has_connected_intervals(w)}, "
          f"all three={hook_properties(w, (3, 1, 1))}")

# Assembling (2,4,3,1,1): split the even parts off one at a time.
alpha = (2, 4, 3, 1, 1)
cls = sigma_class(alpha)
print(f"\nclass of {alpha}: {cls.size} elements, e.g.")
for w in cls.sorted_elements()[:3]:
    print(f"  {cycle_string(w, include_trivial=False)}")
print(f"closed formula agrees: {size_sigma_formula(alpha)}")

# Cross-check against the defining relation (reachability search from the
# stair form never leaves the class, so this is an honest brute force).
assert cls.elements == approx_class(stair_form(alpha))
print("matches the reachability search from the stair form")

# The same assembly at a degree far beyond any exhaustive search:
big = (2, 8, 4, 5, 1, 1, 1)
print(f"\nclass of {big} at degree {sum(big)}: "
      f"{sigma_class(big).size} elements "
      f"(formula {size_sigma_formula(big)})")
