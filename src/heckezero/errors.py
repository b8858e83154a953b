"""
Exception types shared by the brute-force and constructive halves.
"""

from __future__ import annotations

__all__ = ["DegreeLimitError", "InvariantError"]


class DegreeLimitError(ValueError):
    """A degree beyond a soft limit for exponential work, requested
    without `force=True`.  A subclass of ValueError, so the CLI still maps
    it to exit code 1, while callers can tell it from other invalid
    input."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a constructed object does not
    have the property the construction guarantees.  Always a bug; the CLI
    maps it, and only it, to exit code 2."""
