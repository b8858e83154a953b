"""
Exception types shared by the brute-force and constructive halves, and the
two soft limits they enforce: on elements, and on degree with its gate.
"""

from __future__ import annotations

__all__ = ["DegreeLimitError", "InvariantError", "ELEMENT_SOFT_LIMIT",
           "DEGREE_SOFT_LIMIT"]

#: Largest class `sigma_class` builds, largest class search `approx_class`
#: runs, and largest label list `enumerate_maximal` returns without
#: `force=True`: the benchmark's largest class, (19,), has 13,122 elements,
#: and (23,), with 118,098, takes about 0.24 s and 39 MB in a fresh CLI
#: process (Python 3.11, 2 shared vCPUs).
ELEMENT_SOFT_LIMIT = 200_000

#: Largest degree brute-forced without `force=True` (8! = 40320 vertices).
DEGREE_SOFT_LIMIT = 8


class DegreeLimitError(ValueError):
    """A degree beyond a soft limit for exponential work, requested
    without `force=True`.  A subclass of ValueError, so the CLI still maps
    it to exit code 1, while callers can tell it from other invalid
    input."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a constructed object does not
    have the property the construction guarantees.  Always a bug; the CLI
    maps it, and only it, to exit code 2."""


def _check_degree(n: int, force: bool) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DEGREE_SOFT_LIMIT and not force:
        raise DegreeLimitError(
            f"degree {n} exceeds the practical bound {DEGREE_SOFT_LIMIT} "
            "for brute-force enumeration; pass force=True to override")
