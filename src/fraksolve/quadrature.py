"""Gauss-Jacobi quadrature on [0, 1] for the singular weight s^(-sigma),
and the split composite scheme integrating the Green kernel against
forcings that carry that singularity.

``split_panels`` builds that scheme's sample points and coefficients for
a whole vector of t at once; the solver's collocation operator, and
``integrate_green`` with it the verification suite, both use it, so
there is one implementation of the split rule.

Rules come from the three-term recurrence of the Jacobi-type orthogonal
polynomials by the Golub-Welsch method: LAPACK's symmetric eigensolver,
through numpy, diagonalizes the tridiagonal recurrence matrix.  The 64
most recently used rules are cached per (size, exponents) and shared
read-only.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .kernel import GreenParams, green_eval
from .specfun import beta

__all__ = [
    "QuadRule",
    "jacobi_rule",
    "legendre_rule",
    "integrate_green",
    "split_panels",
    "panel_sums",
    "MAX_POINTS",
    "RuleConfigError",
]

MAX_POINTS = 256


class RuleConfigError(ValueError):
    """Requested quadrature rule is outside the supported configuration."""


class QuadRule(NamedTuple):
    """Gauss rule on [0, 1] whose positive ``weights`` absorb the weight
    function: sum(w_i f(x_i)) approximates its weighted integral of f.
    ``nodes`` are strictly increasing and strictly inside (0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=64)  # a sweep over fresh sigma must not grow it
def _jacobi01(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] for the weight x^b (1-x)^a, a, b > -1;
    the 64 most recently used (n, a, b) are kept, and every caller
    shares a kept rule's read-only arrays.

    Golub-Welsch (Math. Comp. 23, 1969): the recurrence coefficients of
    the Jacobi polynomials fill a symmetric tridiagonal matrix whose
    eigenvalues, from LAPACK through ``np.linalg.eigh``, are the nodes on
    [-1, 1]; the weights are the squared first eigenvector components
    scaled by the zeroth moment B(b+1, a+1).
    """
    ab = a + b
    k = np.arange(1.0, n)
    diag = np.empty(n)
    diag[0] = (b - a) / (ab + 2.0)
    diag[1:] = (b * b - a * a) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    sub = np.empty(n - 1)
    if n > 1:
        sub[0] = math.sqrt(4.0 * (a + 1.0) * (b + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0)))
        k = np.arange(2.0, n)
        num = 4.0 * k * (k + a) * (k + b) * (k + ab)
        den = (2.0 * k + ab) ** 2 * (2.0 * k + ab + 1.0) * (2.0 * k + ab - 1.0)
        sub[1:] = np.sqrt(num / den)
    jac = np.diag(diag) + np.diag(sub, 1) + np.diag(sub, -1)
    x, vecs = np.linalg.eigh(jac)
    nodes = 0.5 * (1.0 + x)
    weights = beta(b + 1.0, a + 1.0) * vecs[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _check_points(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_POINTS:
        raise RuleConfigError(f"rule size must be an integer in [1, {MAX_POINTS}], got {n!r}")
    return int(n)


def jacobi_rule(n: int, sigma: float) -> QuadRule:
    """n-point Gauss rule on [0, 1] for the singular weight s^(-sigma).

    Exact on integrands s^k, k <= 2n-1: reproduces the moments
    1/(k+1-sigma).
    """
    n = _check_points(n)
    if not 0.0 < sigma < 1.0:
        raise RuleConfigError(f"sigma must be in (0, 1), got {sigma!r}")
    return QuadRule(*_jacobi01(n, 0.0, -sigma))


def legendre_rule(n: int) -> QuadRule:
    """n-point Gauss-Legendre rule on [0, 1] (unit weight)."""
    n = _check_points(n)
    return QuadRule(*_jacobi01(n, 0.0, 0.0))


def split_panels(params: GreenParams, t, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample points and coefficients of the split rule for each t.

    Returns (s, coef), each of shape (len(t), 2n), such that for a
    regularized forcing f_reg continuous on [0, 1] the integral over s of
    G(t_i,s) s^(-sigma) f_reg(s) is coef[i] @ f_reg(s[i]).

    The kernel has a derivative kink at s = t, so the integral splits
    there into two panels, the first n columns and the last n: on [0, t]
    the substitution s = t*x maps the weight to x^(-sigma) and reuses the
    canonical Jacobi rule (factor t^(1-sigma)); on [t, 1] the integrand
    is smooth and a Legendre rule integrates it with s^(-sigma) folded
    in.  A panel of zero length gets zero coefficients.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("split_panels: t must be a 1-d array of values in [0, 1]")
    sg = params.sigma
    tc = t[:, None]
    jr = jacobi_rule(n, sg)
    lr = legendre_rule(n)
    # right panel: s >= t + (1-t) * (first node) > 0
    s = np.concatenate([tc * jr.nodes, tc + (1.0 - tc) * lr.nodes], axis=1)
    coef = green_eval(params, tc, s) * np.concatenate(
        [tc ** (1.0 - sg) * jr.weights, (1.0 - tc) * lr.weights], axis=1
    )
    coef[:, n:] *= s[:, n:] ** (-sg)
    return s, coef


def integrate_green(params: GreenParams, t, f_reg, n: int):
    """Integral over s of G(t,s) s^(-sigma) f_reg(s), f_reg continuous.

    f_reg is the regularized forcing s^sigma F(s); it must accept numpy
    arrays.  The sum is the one ``split_panels`` defines, the same the
    solver's collocation operator applies.  A scalar t gives a float, a
    1-d array of t an array.
    """
    out = panel_sums(split_panels(params, np.atleast_1d(t), n), f_reg)
    return float(out[0]) if np.ndim(t) == 0 else out


def panel_sums(rule, f_reg) -> np.ndarray:
    """Per-t integrals of f_reg from ``split_panels`` output (or a row
    slice of it)."""
    s, coef = rule
    return (coef * f_reg(s)).sum(axis=1)
