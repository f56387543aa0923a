"""Gamma and beta functions on positive reals, from libm.

All callers in this package need positive real arguments only;
nonpositive input is a programming error and raises ``ValueError``.
"""

from __future__ import annotations

import math

__all__ = ["gamma", "beta"]


def gamma(x: float) -> float:
    """Gamma function for x > 0."""
    if not x > 0.0:
        raise ValueError(f"gamma: argument must be positive, got {x!r}")
    return math.gamma(x)


def beta(x: float, y: float) -> float:
    """Euler beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), x, y > 0.

    Evaluated in log space; safe for small first arguments where the
    individual gamma values would be large.
    """
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"beta: arguments must be positive, got {x!r}, {y!r}")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
