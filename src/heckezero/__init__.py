"""
Cyclic-shift classes of maximal-length permutations and the center of the
0-Hecke algebra of the symmetric group.

The package has two halves that check each other:

* a brute-force half (`cyclic_shift`) that computes the equivalence
  classes of the length-non-increasing conjugation relation on all of S_n
  as the connected components of its length-preserving steps, and
* a constructive half (`stair_classes`, `inductive_product`, `counting`)
  whose single route, `sigma_class`, builds each maximal-stratum class from
  its odd tail (a hook embedding of a grown full-cycle class, or else the
  class search from the tail's stair form) and then joins the even parts
  through the interleaving product, together with closed counting
  formulas.

On top of both, `hecke` realizes the center of the 0-Hecke algebra as
indicator sums over Bruhat order ideals of the maximal classes and
verifies the basis property at small degree.
"""

from .compositions import (
    enumerate_maximal, hook_kind, is_maximal, sort_to_partition,
    split_even_odd,
)
from .counting import dim_center, size_sigma_formula, size_sigma_n
from .cyclic_shift import (
    EquivClass, approx_class, equiv_classes, label_max_classes,
    min_representatives, one_step,
)
from .errors import DegreeLimitError, InvariantError
from .hecke import (
    HeckeElement, is_central, mul, order_ideal, t_basis, t_leq_sigma,
    verify_center_basis,
)
from .inductive_product import iprod, iprod_length_law, orbit_partition_histogram
from .permutations import (
    compose, conj_w0, cycle_string, cycle_type, cycles, even_orbits,
    from_cycles, identity, inverse, length, longest_element,
)
from .stair_classes import (
    cycle_class, has_connected_intervals, hook_properties, is_oscillating,
    lift_cycle_class, lower_cycle_class, member_sigma_alpha, odd_hook_embed,
    sigma_class, stair_form,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeLimitError", "EquivClass", "HeckeElement", "InvariantError",
    "approx_class", "compose", "conj_w0", "cycle_class", "cycle_string",
    "cycle_type", "cycles", "dim_center",
    "enumerate_maximal", "equiv_classes", "even_orbits", "from_cycles",
    "has_connected_intervals",
    "hook_kind", "hook_properties", "identity", "inverse", "iprod",
    "iprod_length_law", "is_central", "is_maximal",
    "is_oscillating", "label_max_classes", "length",
    "lift_cycle_class", "longest_element", "lower_cycle_class",
    "member_sigma_alpha", "min_representatives", "mul", "odd_hook_embed",
    "one_step", "orbit_partition_histogram", "order_ideal", "sigma_class",
    "size_sigma_formula", "size_sigma_n", "sort_to_partition",
    "split_even_odd", "stair_form", "t_basis", "t_leq_sigma",
    "verify_center_basis",
]
