"""Green kernel of the clamped fractional boundary value problem.

The kernel turns D^alpha u = h with u(0)=u(1)=u'(0)=u'(1)=0 into
u(t) = integral of G(t,s) h(s) ds.  This module evaluates G, the closed
form of its s^(-sigma)-weighted integral L(t), the maximum N of L over t
(the constant gating the contraction condition) from the closed form of
L', and the explicit bound on |H(t) - H(0)| for bounded regularized
forcings.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .specfun import beta, gamma

__all__ = [
    "GreenParams",
    "green_eval",
    "green_weight_integral",
    "green_weight_integral_max",
    "origin_continuity_bound",
]

# N's closed form cancels as sigma -> 1: against 50-digit mpmath it is off
# by 2.5e-8 rel. at 1 - sigma = 1e-8 and by 2.8e-4 at 1e-12, so no closer
_SIGMA_GAP = 1e-8


def _real(name: str, value, kind: type = float):
    """``value`` as a ``kind`` (float or int), or a ValueError naming field
    ``name``: a float field takes a ``numbers.Real``, an int field a
    ``numbers.Integral``, never a bool, a string or an array (0-d too)."""
    abc, what = (numbers.Integral, "an integer") if kind is int else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, abc):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{name} is out of range") from None


@dataclass(frozen=True)
class GreenParams:
    """Problem parameters: fractional order alpha in (3, 4], singularity
    exponent sigma in (0, 1 - 1e-8], real numbers kept as floats."""

    alpha: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "sigma"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 3.0 < self.alpha <= 4.0:
            raise ValueError(f"alpha must be in (3, 4], got {self.alpha!r}")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must be in (0, 1), got {self.sigma!r}")
        if self.sigma > 1.0 - _SIGMA_GAP:
            raise ValueError(f"sigma must be at most 1 - {_SIGMA_GAP:g} for N to be accurate, "
                             f"got {self.sigma!r}")


# Below this x the kink remainder is summed from its binomial series;
# above it the c*x cancellation costs at most ~1.5 digits.
_SERIES_CUT = 0.05
_SERIES_TERMS = 10


def _kink_remainder(x: np.ndarray, c: float) -> np.ndarray:
    """R(x) = (1-x)^c - 1 + c*x for x in [0, 1], without cancellation.

    The three terms cancel to O(x^2) as x -> 0; there R is summed as its
    binomial series sum_{k>=2} C(c,k) (-x)^k, whose terms shrink at
    least like x^k for c in (2, 3].
    """
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives R(1) = c - 1
        log_1mx = np.log1p(-x)
    out = np.expm1(c * log_1mx) + c * x
    coefs = [c * (c - 1.0) / 2.0]  # C(c,k) (-1)^k from k = 2 on
    for k in range(2, 1 + _SERIES_TERMS):
        coefs.append(coefs[-1] * (k - c) / (k + 1.0))
    small = np.flatnonzero(x < _SERIES_CUT)
    xs = x.take(small)
    acc = np.zeros_like(xs)
    for coef in reversed(coefs):  # Horner
        acc = acc * xs + coef
    out[small] = acc * xs * xs
    return out


def green_eval(params: GreenParams, t, s):
    """Evaluate the kernel G(t, s) on [0,1]^2.

    Piecewise: for s <= t the kernel carries an extra (t-s)^(alpha-1)
    term; both branches agree at s = t, where the evaluation uses the
    branch without that term.  Accepts scalars or broadcastable arrays.

    Both branches carry the factor A^(alpha-2), A = t(1-s).  For s < t
    the two terms cancel as s -> 0 or t -> 1, so that branch is
    evaluated as Gamma(alpha) G = A^(alpha-1) R(x) with x = s(1-t)/A,
    which keeps full relative accuracy there.

    G is +0.0 on the whole boundary of the square with no special case:
    there either A = 0, so A^(alpha-2) = 0, or x = 0 on the s < t branch,
    where R(0) = 0.
    """
    a = params.alpha
    t_arr = np.asarray(t, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    # written so that NaN fails the check
    if not (np.all((t_arr >= 0.0) & (t_arr <= 1.0)) and np.all((s_arr >= 0.0) & (s_arr <= 1.0))):
        raise ValueError("green_eval: t and s must lie in [0, 1]")
    shape = np.broadcast_shapes(t_arr.shape, s_arr.shape)
    tf = np.broadcast_to(t_arr, shape).ravel()
    sf = np.broadcast_to(s_arr, shape).ravel()
    base = tf * (1.0 - sf)
    out = (sf - tf) + (a - 2.0) * (1.0 - tf) * sf  # both terms >= 0 for s >= t
    # integer indices: one flatnonzero plus takes beats three mask gathers
    below = np.flatnonzero(sf < tf)
    ab, tb, sb = base.take(below), tf.take(below), sf.take(below)
    # rounding can put x a hair above 1 when s is within an ulp of t
    x = np.minimum(sb * (1.0 - tb) / ab, 1.0)
    out[below] = ab * _kink_remainder(x, a - 1.0)
    out *= base ** (a - 2.0)
    out /= gamma(a)
    if np.isscalar(t) and np.isscalar(s):
        return float(out[0])
    return out.reshape(shape)


def _weight_integral_coeffs(params: GreenParams) -> tuple[float, float, float, float]:
    """Prefactor and the three power coefficients of the closed form."""
    a, sg = params.alpha, params.sigma
    pre = beta(1.0 - sg, a - 1.0) / gamma(a)
    c_hi = (a - 1.0) / (a - sg)
    c_mid = -(1.0 + (a - 2.0) * (1.0 - sg) / (a - sg))
    c_lo = (a - 1.0) * (1.0 - sg) / (a - sg)
    return pre, c_hi, c_mid, c_lo


def green_weight_integral(params: GreenParams, t):
    """Closed form of integral over s of G(t,s) s^(-sigma).

    Vanishes at t = 0 and t = 1 (the power coefficients telescope).
    Accepts scalars or arrays.
    """
    a, sg = params.alpha, params.sigma
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):  # NaN fails too
        raise ValueError("green_weight_integral: t must lie in [0, 1]")
    pre, c_hi, c_mid, c_lo = _weight_integral_coeffs(params)
    out = pre * (
        c_hi * t_arr ** (a - sg)
        + c_mid * t_arr ** (a - 1.0)
        + c_lo * t_arr ** (a - 2.0)
    )
    if np.isscalar(t):
        return float(out)
    return out


def green_weight_integral_max(params: GreenParams) -> tuple[float, float]:
    """Maximum of the weighted kernel integral over t in [0, 1].

    Returns (value, argmax).  L'(t) = pre * t^(alpha-3) * q(t) with
    q(t) = c_hi (alpha-sigma) t^(2-sigma) + c_mid (alpha-1) t + c_lo (alpha-2).
    q(0) = c_lo (alpha-2) > 0, q(1) = 0 (the coefficients telescope) and
    q'' > 0 on (0, 1), so q has exactly one root t* in (0, 1), where L
    peaks.  Newton's method from t = 0 climbs to t* monotonically; it
    stops once a step is no longer positive beyond 1e-15.  The bound is
    absolute: near t* rounding noise in q keeps a relative one from firing
    for sigma near 1.
    """
    a, sg = params.alpha, params.sigma
    _, c_hi, c_mid, c_lo = _weight_integral_coeffs(params)
    k2, k1, k0 = c_hi * (a - sg), c_mid * (a - 1.0), c_lo * (a - 2.0)
    t = 0.0
    while True:
        dt = -(k2 * t ** (2.0 - sg) + k1 * t + k0) / (k2 * (2.0 - sg) * t ** (1.0 - sg) + k1)
        if not dt > 1e-15:
            break
        t += dt
    return green_weight_integral(params, t), t


def origin_continuity_bound(params: GreenParams, t: float, m: float) -> float:
    """Bound on |H(t) - H(0)| for H the kernel applied to a forcing whose
    regularized form is bounded by m in absolute value.

    Equals m*(alpha-1)*t^(alpha-2)*B(1-sigma, alpha-1)/Gamma(alpha)
         + m*t^(alpha-sigma)*B(1-sigma, alpha)/Gamma(alpha),
    evaluated with B(1-sigma, alpha)/Gamma(alpha) = c_hi * pre.
    """
    a, sg = params.alpha, params.sigma
    if not 0.0 <= t <= 1.0:
        raise ValueError("origin_continuity_bound: t must lie in [0, 1]")
    if m < 0.0:
        raise ValueError(f"origin_continuity_bound: m must be >= 0, got {m!r}")
    pre, c_hi, _, _ = _weight_integral_coeffs(params)
    return m * pre * ((a - 1.0) * t ** (a - 2.0) + c_hi * t ** (a - sg))
