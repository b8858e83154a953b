"""
Cyclic-shift classes of maximal-length permutations and the center of the
0-Hecke algebra of the symmetric group.

Two halves check each other on a shared base (`errors` with the soft
limits, `compositions`, `permutations` with stair forms and `EquivClass`):

* a brute-force half (`cyclic_shift`), importing nothing else, that finds
  the classes of the length-non-increasing conjugation relation on S_n as
  the connected components of its length-preserving steps, and
* a constructive half (`stair_classes`, `inductive_product`, `counting`)
  whose single route, `sigma_class`, builds each maximal-stratum class from
  its odd tail (a hook embedding of a grown full-cycle class; only a
  non-hook tail calls the brute half, for the search from its stair form)
  and joins the even parts through the interleaving product, together
  with closed counting formulas.

On the constructive half, `hecke` realizes the center of the 0-Hecke
algebra as indicator sums over Bruhat order ideals of the maximal classes
and verifies the basis property at small degree.

Every submodule but `errors` and `cli` is registered lazily
(`importlib.util.LazyLoader`) and runs on first use, so a CLI command
compiles only the modules it reaches.  On Python 3.11 that first use
takes no lock: the CLI runs in one thread, and a threaded caller should
import the modules it needs before it starts its threads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .errors import DegreeLimitError, InvariantError

__version__ = "0.1.0"

# the public names of the package, by the submodule that defines them
_EXPORTS = {
    "compositions": ("enumerate_maximal", "hook_kind", "is_maximal",
                     "sort_to_partition", "split_even_odd"),
    "counting": ("dim_center", "size_sigma_formula"),
    "cyclic_shift": ("approx_class", "equiv_classes", "label_max_classes",
                     "min_representatives", "one_step"),
    "hecke": ("HeckeElement", "is_central", "mul", "order_ideal", "t_basis",
              "t_leq_sigma", "verify_center_basis"),
    "inductive_product": ("iprod", "iprod_length_law"),
    "permutations": ("EquivClass", "compose", "conj_w0", "cycle_string",
                     "cycle_type", "cycles", "even_orbits", "from_cycles",
                     "identity", "inverse", "length", "longest_element",
                     "stair_form"),
    "stair_classes": ("cycle_class", "has_connected_intervals",
                      "hook_properties", "is_oscillating", "lift_cycle_class",
                      "lower_cycle_class", "member_sigma_alpha",
                      "odd_hook_embed", "sigma_class"),
    "verify": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

for _module in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_module}")
    _spec.loader = LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(["DegreeLimitError", "InvariantError", *_OWNER])
