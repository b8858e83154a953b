"""
Exception types shared by the brute-force and constructive halves, and the
element soft limit that both enforce.
"""

from __future__ import annotations

__all__ = ["DegreeLimitError", "InvariantError", "ELEMENT_SOFT_LIMIT"]

#: Largest class `sigma_class` builds, largest class search `approx_class`
#: runs, and largest label list `enumerate_maximal` returns without
#: `force=True`: the benchmark's largest class, (19,), has 13,122 elements,
#: and (23,), with 118,098, takes about 1.2 s and 78 MB in a fresh CLI
#: process.
ELEMENT_SOFT_LIMIT = 200_000


class DegreeLimitError(ValueError):
    """A degree beyond a soft limit for exponential work, requested
    without `force=True`.  A subclass of ValueError, so the CLI still maps
    it to exit code 1, while callers can tell it from other invalid
    input."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a constructed object does not
    have the property the construction guarantees.  Always a bug; the CLI
    maps it, and only it, to exit code 2."""
