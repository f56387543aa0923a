"""Gauss-Jacobi quadrature on [0, 1] for the singular weight s^(-sigma),
and the product-integration rule that integrates the Green kernel against
forcings that carry that singularity.

The product rule samples a forcing at P fixed points ``shared_samples()``,
the same for every t: ``SAMPLES_PER_PANEL`` Gauss-Legendre points on each
panel of one layout of [0, 1] that is graded geometrically toward both
ends.  ``product_weights`` gives, for a vector of t, the (len(t), P)
matrix W with W[i, p] = integral of G(t_i, s) s^(-sigma) l_p(s) ds, where
l_p is the piecewise Lagrange basis on the samples; W @ f_reg(samples)
integrates the piecewise-polynomial interpolant of f_reg against the
kernel (product integration, Atkinson 1997, section 4.2).  The solver's
collocation operator and ``integrate_green``, and with it the verification
suite, both use W, so there is one quadrature of the kernel.

Rules come from the three-term recurrence of the Jacobi-type orthogonal
polynomials by the Golub-Welsch method: LAPACK's symmetric eigensolver,
through numpy, diagonalizes the tridiagonal recurrence matrix.  The 64
most recently used rules are cached per (size, exponents) and shared
read-only.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .kernel import GreenParams, green_eval
from .specfun import beta, gamma

__all__ = [
    "QuadRule",
    "jacobi_rule",
    "legendre_rule",
    "integrate_green",
    "MAX_POINTS",
    "RuleConfigError",
]

MAX_POINTS = 256
# Smallest rule ``product_weights`` takes: from 8 points on its rules
# integrate the samples' degree-11 basis well enough that W >= 0, so the
# product rule maps a forcing >= 0 to a non-negative integral
MIN_PRODUCT_POINTS = 8


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




# ---------------------------------------------------------------------------
# product rule on shared samples

# Gauss-Legendre sample points per panel: the forcing is interpolated by
# polynomials of degree SAMPLES_PER_PANEL - 1 on each panel
SAMPLES_PER_PANEL = 12
# The layout: geometric panels toward 0 up to _ZONE_END, _BULK_PANELS
# equal ones up to 0.9, geometric ones toward 1
_ZONE_PANELS, _ZONE_END, _BULK_PANELS = 10, 0.1, 6
# A left panel at least its own width from t sees no kink: G(t, .) is
# smooth there and is integrated through its interpolant on the panel's
# samples.  From t >= 2 * _ZONE_END, G(t, s) / s^2 is smooth on the whole
# zone [0, _ZONE_END] of the panels toward 0, and is read at _ZONE_POINTS
# Chebyshev points of it instead.
_ZONE_POINTS = 20
# Largest rule where the integrand is smooth: right of t in the panel
# that holds t, and the reference rules of whole panels
_SMOOTH_POINTS = 24
# (t, s) pairs of kernel samples per block of rows of a build, and the
# largest len(t) * n whose plans (``_plans``) are kept: 65 nodes at 128
# points, under 1 MB
_BUILD_BLOCK = 1 << 17
_PLAN_CACHE_POINTS = 65 * 128


class _Layout(NamedTuple):
    """The panels' ends ``lo``/``hi``; the sample points on [0, 1] of
    every panel, ``xi``, with their barycentric weights ``bary``; the
    samples themselves; and the zone's Chebyshev points ``zone`` with
    their barycentric weights ``zone_bary``."""

    lo: np.ndarray
    hi: np.ndarray
    xi: np.ndarray
    bary: np.ndarray
    samples: np.ndarray
    zone: np.ndarray
    zone_bary: np.ndarray


@functools.cache
def _layout() -> _Layout:
    """24 panels: 10 toward 0 whose ends shrink by 0.2 from 0.1 (the first
    is [0, 5.1e-8]), 6 equal ones over [0.1, 0.9], and 8 toward 1 whose
    distances to 1 shrink by 0.3 from 0.1 (the last is 2.2e-5 wide)."""
    ends = np.concatenate([[0.0], _ZONE_END * 0.2 ** np.arange(_ZONE_PANELS - 1.0, -1.0, -1.0),
                           np.linspace(_ZONE_END, 0.9, _BULK_PANELS + 1)[1:],
                           1.0 - 0.1 * 0.3 ** np.arange(1.0, 8.0), [1.0]])
    xi = legendre_rule(SAMPLES_PER_PANEL).nodes
    bary = 1.0 / np.prod(np.where(np.eye(xi.size, dtype=bool), 1.0, xi[:, None] - xi), axis=1)
    lo, hi = ends[:-1], ends[1:]
    samples = (lo[:, None] + (hi - lo)[:, None] * xi).ravel()
    angle = (2.0 * np.arange(_ZONE_POINTS) + 1.0) * np.pi / (2.0 * _ZONE_POINTS)
    zone = 0.5 * _ZONE_END * (1.0 - np.cos(angle))
    zone_bary = (-1.0) ** np.arange(_ZONE_POINTS) * np.sin(angle)
    out = _Layout(lo, hi, xi, bary, samples, zone, zone_bary)
    for arr in out:
        arr.setflags(write=False)
    return out


def shared_samples() -> np.ndarray:
    """The P points, increasing in (0, 1), at which ``product_weights``
    reads a forcing; read-only, shared by every caller."""
    return _layout().samples


def _barycentric(x: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The Lagrange basis of ``nodes`` (barycentric ``weights``) at points
    x, in the second barycentric form: shape x.shape + (len(nodes),).  A
    point on a node is that node's unit row."""
    diff = x[..., None] - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(weights, diff, out=diff)
        out *= (1.0 / (out @ np.ones(nodes.size)))[..., None]
    if not np.isfinite(out).all():
        hit = x[..., None] == nodes
        rows = hit.any(axis=-1)
        out[rows] = hit[rows]
    return out


def _lagrange(x: np.ndarray) -> np.ndarray:
    """The Lagrange basis of a panel's samples at points x on [0, 1] of
    the panel."""
    lay = _layout()
    return _barycentric(x, lay.xi, lay.bary)


@functools.lru_cache(maxsize=8)
def _legendre_basis(n: int) -> np.ndarray:
    """The Lagrange basis of a panel's samples at the n-point
    Gauss-Legendre nodes, (n, k); read-only."""
    out = _lagrange(legendre_rule(n).nodes)
    out.setflags(write=False)
    return out


@functools.cache
def _rules() -> tuple[np.ndarray, ...]:
    """The sigma-free part of the n = ``_SMOOTH_POINTS``-point
    Gauss-Legendre reference rules: per panel their ``nodes`` and ``base``
    weights (panels, n); the samples' Lagrange ``basis`` at them (n, k)
    and its pairwise products ``pairs`` (n, k * k); and on the zone's
    panels the zone's Lagrange basis times s^2, ``zone`` (_ZONE_PANELS,
    _ZONE_POINTS, n)."""
    lay = _layout()
    n = _SMOOTH_POINTS
    leg = legendre_rule(n)
    width = lay.hi - lay.lo
    nodes = lay.lo[:, None] + width[:, None] * leg.nodes
    basis = _legendre_basis(n)
    pairs = (basis[:, :, None] * basis[:, None, :]).reshape(n, -1)
    zn = nodes[:_ZONE_PANELS]
    zone = (_barycentric(zn, lay.zone, lay.zone_bary) * (zn * zn)[..., None]).transpose(0, 2, 1)
    out = nodes, width[:, None] * leg.weights, basis, pairs, zone
    for arr in out:
        arr.setflags(write=False)
    return out


class _Reference(NamedTuple):
    """The reference rules of a build, for one sigma: per panel, the
    ``nodes`` of the n-point Gauss-Legendre rule of ``_rules`` and its
    ``weights`` with s^(-sigma) folded in, and the samples' Lagrange
    ``basis`` there (n, k).  ``mass`` (panels, k, k) integrates
    s^(-sigma) l_a l_b over each panel, and ``zone`` (_ZONE_POINTS,
    _ZONE_PANELS * k) integrates s^(2-sigma) z_r l_b over the zone, z_r
    the Lagrange basis of its Chebyshev points.  On the panel at 0 the
    rule meets s^(-sigma) unresolved, but G(t, s) ~ s^2 there, so that
    panel carries below 1e-20 of any row."""

    nodes: np.ndarray
    weights: np.ndarray
    basis: np.ndarray
    mass: np.ndarray
    zone: np.ndarray


@functools.lru_cache(maxsize=8)
def _reference(sigma: float) -> _Reference:
    nodes, base, basis, pairs, zone_basis = _rules()
    k = basis.shape[1]
    weights = base * nodes ** (-sigma)
    mass = (weights @ pairs).reshape(-1, k, k)
    zone = ((zone_basis * weights[:_ZONE_PANELS, None, :]) @ basis).transpose(1, 0, 2)
    out = _Reference(nodes, weights, basis, mass, zone.reshape(_ZONE_POINTS, -1))
    for arr in out:
        arr.setflags(write=False)
    return out


def product_weights(params: GreenParams, t, n: int) -> np.ndarray:
    """W of shape (len(t), P): for a regularized forcing f_reg continuous
    on [0, 1], the integral over s of G(t_i,s) s^(-sigma) f_reg(s) is
    about W[i] @ f_reg(shared_samples()).

    W[i, p] integrates G(t_i, s) s^(-sigma) l_p(s) over the panel of
    sample p.  ``n`` sets the Gauss-Legendre rules where the kink s = t_i
    is near: left of t_i in the panel that holds it, and on every panel
    less than its own width left of t_i; it must be at least
    ``MIN_PRODUCT_POINTS``, from which every entry of W is >= 0.  Farther
    left, and on the panel at 0, G(t_i, .) is smooth and is read at the
    panel's samples (against the panel's mass matrix) or, from t_i >= 0.2,
    on the zone of panels toward 0 at its Chebyshev points.  Right of t_i,
    G is t^(alpha-2) (1-s)^(alpha-2) [(s-t) + (alpha-2)(1-t)s] /
    Gamma(alpha): in the panel that holds t_i that form takes a rule of
    min(n, ``_SMOOTH_POINTS``) points, and the panels beyond are
    t-independent moments weighted per row.  The moments and the mass matrices come from
    Gauss-Legendre rules of ``_SMOOTH_POINTS`` points per panel, so a build
    solves no eigenproblem but once per rule size.  Rows at t = 0 and t = 1,
    where G vanishes, are 0.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("product_weights: t must be a 1-d array of values in [0, 1]")
    n = _check_points(n)
    if n < MIN_PRODUCT_POINTS:
        raise RuleConfigError(f"product rule size must be at least {MIN_PRODUCT_POINTS}, got {n}")
    a = params.alpha
    lay = _layout()
    ref = _reference(params.sigma)
    panels, k = lay.lo.size, lay.xi.size
    # right of t: (s - lo) + (lo - t) + (alpha-2)(1-t) s, each >= 0, so the
    # row's combination of the moments cancels nothing
    damp = ref.weights * (1.0 - ref.nodes) ** (a - 2.0) / gamma(a)
    factors = np.stack([damp * (ref.nodes - lay.lo[:, None]), damp, damp * ref.nodes], axis=1)
    moments = factors @ ref.basis
    # one product per panel: the right-panel coefficients with the moments
    # and the far kernel values with the mass matrix
    stacked = np.concatenate([moments, ref.mass], axis=1)
    out = np.zeros((t.size, panels, k))
    small = t.size * n <= _PLAN_CACHE_POINTS
    for plan in _plans(t.tobytes(), n) if small else _block_plans(t, n):
        out[plan.rows] = _weight_rows(params, plan, ref, stacked)
    return out.reshape(t.size, panels * k)


class _Plan(NamedTuple):
    """What a block of rows of ``product_weights`` needs of t alone.

    ``rows`` index t, ``home`` is the panel that holds each t and
    ``right`` (panels, rows) marks the panels right of it.  The far
    (``rf``, ``jf``) and near (``rn``, ``jn``) left (row, panel) pairs, and
    the rows that read the zone (``zoned``), share one kernel call at
    (``kern_t``, ``kern_s``), cut at ``cuts``.  ``near_s`` and ``near_h``
    are the near panels' Legendre nodes and weights without s^(-sigma);
    ``split_s`` and ``split_h`` the same for the panel that holds t, left of
    t and right of it, with ``split_base``, ``split_s`` with inf for 0 (a
    node below the smallest double carries no weight), and ``lag`` the
    samples' Lagrange basis there."""

    rows: np.ndarray
    t: np.ndarray
    home: np.ndarray
    right: np.ndarray
    rf: np.ndarray
    jf: np.ndarray
    rn: np.ndarray
    jn: np.ndarray
    zoned: np.ndarray
    kern_t: np.ndarray
    kern_s: np.ndarray
    cuts: np.ndarray
    near_s: np.ndarray
    near_h: np.ndarray
    split_s: np.ndarray
    split_h: np.ndarray
    split_base: np.ndarray
    lag: np.ndarray


@functools.lru_cache(maxsize=2)  # sweep_cold alternates two grids
def _plans(t_bytes: bytes, n: int) -> tuple[_Plan, ...]:
    """``_block_plans`` at the t whose bytes are ``t_bytes``, kept: they
    depend on t and n only, so a sweep over (alpha, sigma) on one grid
    reuses them.  Only sizes up to ``_PLAN_CACHE_POINTS`` come here."""
    return tuple(_block_plans(np.frombuffer(t_bytes), n))


def _block_plans(t_all: np.ndarray, n: int):
    """The plans of the blocks of rows of ``product_weights``, one at a
    time: rows in (0, 1), at most ``_BUILD_BLOCK`` kernel pairs' worth
    per block."""
    lay = _layout()
    panels, k = lay.lo.size, lay.xi.size
    leg, smooth = legendre_rule(n), legendre_rule(min(n, _SMOOTH_POINTS))
    width = lay.hi - lay.lo
    samples = lay.samples.reshape(panels, k)
    inner = np.flatnonzero((t_all > 0.0) & (t_all < 1.0))
    per_block = max(1, _BUILD_BLOCK // ((panels + 2) * n))
    for start in range(0, inner.size, per_block):
        rows = inner[start:start + per_block]
        t = t_all[rows]
        tc = t[:, None]
        home = np.searchsorted(lay.lo, t, side="right") - 1  # lo <= t < hi
        pj = np.arange(panels)
        zoned = np.flatnonzero(t >= 2.0 * _ZONE_END)
        left = pj < home[:, None]
        left[zoned, :_ZONE_PANELS] = False
        far = left & ((tc - lay.hi >= width) | (pj == 0))
        rf, jf = np.nonzero(far)
        rn, jn = np.nonzero(left & ~far)
        near_s = lay.lo[jn, None] + width[jn, None] * leg.nodes
        lo, hi = lay.lo[home][:, None], lay.hi[home][:, None]
        s_left = lo + (tc - lo) * leg.nodes
        s_right = tc + (hi - tc) * smooth.nodes
        split_s = np.concatenate([s_left, s_right], axis=1)
        kern_t = np.concatenate([np.repeat(t[rf], k), np.repeat(t[rn], n),
                                 np.repeat(t[zoned], _ZONE_POINTS), np.repeat(t, n)])
        kern_s = np.concatenate([samples[jf].ravel(), near_s.ravel(),
                                 np.tile(lay.zone, zoned.size), s_left.ravel()])
        plan = _Plan(
            rows, t, home, (pj > home[:, None]).T, rf, jf, rn, jn, zoned, kern_t, kern_s,
            np.cumsum([rf.size * k, rn.size * n, zoned.size * _ZONE_POINTS]),
            near_s, width[jn, None] * leg.weights,
            split_s, np.concatenate([(tc - lo) * leg.weights, (hi - tc) * smooth.weights], axis=1),
            np.where(split_s > 0.0, split_s, np.inf), _lagrange((split_s - lo) / (hi - lo)))
        for arr in plan:
            arr.setflags(write=False)
        yield plan


def _weight_rows(params: GreenParams, plan: _Plan, ref: _Reference,
                 stacked: np.ndarray) -> np.ndarray:
    """``product_weights`` blocks (rows, panels, k) of one plan."""
    a, sg = params.alpha, params.sigma
    lay = _layout()
    panels, k = lay.lo.size, lay.xi.size
    n = plan.near_s.shape[1]
    t = plan.t
    k_far, k_near, k_zone, k_left = np.split(green_eval(params, plan.kern_t, plan.kern_s),
                                             plan.cuts)
    coef = np.zeros((panels, t.size, 3 + k))
    tpow = t ** (a - 2.0)
    coef[..., 0] = plan.right * tpow
    coef[..., 1] = plan.right * (tpow * (lay.lo[:, None] - t))
    coef[..., 2] = plan.right * (tpow * (a - 2.0) * (1.0 - t))
    coef[plan.jf, plan.rf, 3:] = k_far.reshape(plan.rf.size, k)
    block = np.matmul(coef, stacked).transpose(1, 0, 2)
    near = k_near.reshape(plan.rn.size, n) * plan.near_h * plan.near_s ** (-sg)
    block[plan.rn, plan.jn] = near @ _legendre_basis(n)
    zone = (k_zone.reshape(plan.zoned.size, _ZONE_POINTS) / lay.zone**2) @ ref.zone
    block[plan.zoned, :_ZONE_PANELS] = zone.reshape(plan.zoned.size, _ZONE_PANELS, k)
    tc, s_right = t[:, None], plan.split_s[:, n:]
    k_right = ((tc * (1.0 - s_right)) ** (a - 2.0) / gamma(a)
               * ((s_right - tc) + (a - 2.0) * (1.0 - tc) * s_right))
    split = np.concatenate([k_left.reshape(t.size, n), k_right], axis=1)
    split *= plan.split_h * plan.split_base ** (-sg)
    block[np.arange(t.size), plan.home] = np.matmul(split[:, None, :], plan.lag)[:, 0]
    return block


def integrate_green(params: GreenParams, t, f_reg, n: int):
    """Integral over s of G(t,s) s^(-sigma) f_reg(s), f_reg continuous.

    f_reg is the regularized forcing s^sigma F(s); it must accept numpy
    arrays.  The sum is ``product_weights(params, t, n) @
    f_reg(shared_samples())``, the one the solver's collocation operator
    applies.  A scalar t gives a float, a 1-d array of t an array.
    """
    s = shared_samples()
    out = product_weights(params, np.atleast_1d(t), n) @ np.broadcast_to(f_reg(s), s.shape)
    return float(out[0]) if np.ndim(t) == 0 else out
