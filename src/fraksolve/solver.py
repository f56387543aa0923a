"""Fixed-point solver for the singular fractional boundary value problem.

The integral operator (Tu)(t) = integral of G(t,s) s^(-sigma) g(s, u(s)) ds
acts on the cone of non-negative continuous functions; under the sampled
contraction condition certified by ``certify_contraction`` the Picard
iteration converges to the unique non-negative solution.  Discretization
is Nystrom-style collocation on Chebyshev-distributed nodes with
barycentric interpolation between sweeps; per-node integrals use the
split rule of the quadrature module.

A converged solution can be cross-checked two independent ways:
``check_positivity`` tests the hypotheses under which the solution is
strictly positive inside (0,1), and ``grunwald_letnikov_residual``
plugs the solution back into the differential equation through a
finite-difference fractional derivative that shares nothing with the
Green-kernel pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import exprparse
from .exprparse import Expression
from .kernel import GreenParams, green_weight_integral_max
from .quadrature import MAX_POINTS, split_panels
from .specfun import gamma

__all__ = [
    "ProblemSpec",
    "SolutionGrid",
    "ContractionCertificate",
    "PositivityReport",
    "ResidualProfile",
    "SolveResult",
    "SolverError",
    "ConeViolationError",
    "CertificateError",
    "NonConvergenceError",
    "catalog_g",
    "G_CATALOG_IDS",
    "apply_green_operator",
    "certify_contraction",
    "solve",
    "check_positivity",
    "grunwald_letnikov_residual",
    "check_residual_step",
    "chebyshev_lobatto_nodes",
]

MAX_GRID = 1024


class SolverError(Exception):
    pass


class ConeViolationError(SolverError):
    """The nonlinearity g evaluated negative at a quadrature sample."""


class CertificateError(SolverError):
    """Contraction certificate failed and no uncertified override was given."""

    def __init__(self, certificate: "ContractionCertificate"):
        super().__init__(
            "contraction certificate failed: "
            f"lambda_observed={certificate.lambda_observed:.6g}, "
            f"lambda_claim={certificate.lambda_claim:.6g}, "
            f"lambda_claim*N={certificate.lambda_claim * certificate.N:.6g}"
        )
        self.certificate = certificate


class NonConvergenceError(SolverError):
    """Iteration budget exhausted on one ladder level; carries the delta
    trace and the grid size of that level."""

    def __init__(self, trace: np.ndarray, tol: float, grid: int):
        super().__init__(
            f"no convergence on the {grid}-point level after {len(trace)} sweeps "
            f"(last delta {trace[-1]:.3e}, tol {tol:.3e})"
        )
        self.trace = np.asarray(trace)
        self.grid = grid


GFunction = Union[Expression, str, Callable]

G_CATALOG_IDS = ("manufactured", "unit")


def catalog_g(name: str, params: GreenParams) -> Callable:
    """Built-in regularized nonlinearities, resolved against the problem
    parameters.

    * ``manufactured``: g(s, u) = s^sigma (-2 Gamma(alpha+1) + Gamma(alpha+2) s),
      the u-independent forcing whose exact solution is t^(alpha-1)(1-t)^2.
    * ``unit``: g(s, u) = s^sigma (constant unregularized forcing).
    """
    a, sg = params.alpha, params.sigma
    if name == "manufactured":
        c1, c2 = -2.0 * gamma(a + 1.0), gamma(a + 2.0)

        def g(t, u):
            t = np.asarray(t, dtype=float)
            return t**sg * (c1 + c2 * t)

        return g
    if name == "unit":

        def g(t, u):
            t = np.asarray(t, dtype=float)
            return t**sg

        return g
    raise ValueError(f"unknown catalog id {name!r}; available: {G_CATALOG_IDS}")


@dataclass
class ProblemSpec:
    """Full problem description.

    ``g`` is the regularized nonlinearity g(t, u) = t^sigma f(t, u), as a
    parsed Expression, expression text, a catalog id, or an
    array-compatible callable.  ``enforce_cone`` keeps the faithful error
    contract (g must be non-negative); manufactured verification runs
    with sign-changing forcings disable it explicitly.
    """

    params: GreenParams
    g: GFunction
    lambda_claim: float
    tau: float
    quad_points: int = 48
    grid_points: int = 33
    tol: float = 1e-10
    max_iters: int = 200
    u_max: float = 10.0
    enforce_cone: bool = True
    _g_resolved: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("lambda_claim", "tau", "tol"):
            val = getattr(self, name)
            if not (val > 0.0 and np.isfinite(val)):
                raise ValueError(f"{name} must be finite and > 0, got {val!r}")
        if not 1 <= self.quad_points <= MAX_POINTS:
            raise ValueError(f"quad_points must be in [1, {MAX_POINTS}]")
        if not 3 <= self.grid_points <= MAX_GRID:
            raise ValueError(f"grid_points must be in [3, {MAX_GRID}]")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.u_max > 0.0 and np.isfinite(self.u_max)):
            raise ValueError(f"u_max must be finite and > 0, got {self.u_max!r}")
        _check_g(self.g)

    def g_callable(self) -> Callable:
        """g as an array callable.  Resolved, and expression text parsed,
        on first use; reused until ``g`` or ``params`` is replaced."""
        hit = self._g_resolved
        if hit is None or hit[0] is not self.g or hit[1] is not self.params:
            hit = self._g_resolved = (self.g, self.params, _resolve_g(self.g, self.params))
        return hit[2]


def _check_g(g) -> None:
    if not (isinstance(g, (str, Expression)) or callable(g)):
        raise TypeError(
            f"g must be an Expression, expression text, catalog id or callable, got {type(g)}"
        )


def _resolve_g(g: GFunction, params: GreenParams) -> Callable:
    _check_g(g)
    if isinstance(g, str):
        if g in G_CATALOG_IDS:
            return catalog_g(g, params)
        g = exprparse.parse(g)
    if isinstance(g, Expression):
        return lambda t, u: exprparse.evaluate(g, t, u)

    def wrapped(t, u):
        out = g(t, u)
        if np.ndim(out) == 0 and np.ndim(t) > 0:
            return np.full(np.shape(t), float(out))
        return out

    return wrapped


# ---------------------------------------------------------------------------
# grid and interpolation


def chebyshev_lobatto_nodes(m: int) -> np.ndarray:
    """m Chebyshev-distributed nodes on [0, 1] including both endpoints."""
    if m < 2:
        raise ValueError("need at least 2 nodes")
    return (1.0 - np.cos(np.pi * np.arange(m) / (m - 1))) / 2.0


def _bary_weights(m: int) -> np.ndarray:
    w = np.ones(m)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _bary_reciprocals(nodes: np.ndarray, weights: np.ndarray, x: np.ndarray):
    """weights / (x - nodes) per point of x, in one buffer, and row sums.
    An exact node hit, or a near-hit where weight/diff overflowed, leaves
    a non-finite sum; such rows, and zero-sum ones, snap to the nearest
    node (a one-hot row with sum 1)."""
    mat = x[:, None] - nodes[None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(weights, mat, out=mat)
        rowsum = mat.sum(axis=1)
    snap = np.flatnonzero(~np.isfinite(rowsum) | (rowsum == 0.0))
    mat[snap] = 0.0
    mat[snap, np.abs(x[snap, None] - nodes).argmin(axis=1)] = 1.0
    rowsum[snap] = 1.0
    return mat, rowsum


def _bary_matrix(nodes: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows map node values to interpolant values at the points x (Berrut
    & Trefethen, SIAM Rev. 46, 2004)."""
    mat, rowsum = _bary_reciprocals(nodes, weights, np.asarray(x, dtype=float).ravel())
    mat /= rowsum[:, None]
    return mat


_INTERP_BLOCK = 1 << 21  # matrix entries (16 MB) per interpolation block


@dataclass
class SolutionGrid:
    """Interpolable representation of a function on [0, 1].

    ``nodes`` are the Chebyshev-distributed collocation points (with
    endpoints); ``values`` the function there.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.nodes.shape != self.values.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and values must be 1-d arrays of equal length")

    @classmethod
    def zeros(cls, m: int) -> "SolutionGrid":
        return cls(chebyshev_lobatto_nodes(m), np.zeros(m))

    @classmethod
    def constant(cls, c: float, m: int) -> "SolutionGrid":
        nodes = chebyshev_lobatto_nodes(m)
        vals = np.full(m, float(c))
        vals[0] = vals[-1] = 0.0
        return cls(nodes, vals)

    @classmethod
    def from_function(cls, fn, m: int) -> "SolutionGrid":
        nodes = chebyshev_lobatto_nodes(m)
        return cls(nodes, np.asarray(fn(nodes), dtype=float))

    def interpolate(self, x):
        """Barycentric interpolation, second form, at scalar or array x.

        Points are taken in blocks, so the reciprocal matrix stays within
        ``_INTERP_BLOCK`` entries however many points are asked for.
        """
        w = _bary_weights(len(self.nodes))
        x_arr = np.asarray(x, dtype=float)
        flat = x_arr.ravel()
        out = np.empty(flat.size)
        step = max(1, _INTERP_BLOCK // len(self.nodes))
        for i in range(0, flat.size, step):
            mat, rowsum = _bary_reciprocals(self.nodes, w, flat[i:i + step])
            out[i:i + step] = (mat @ self.values) / rowsum
        if x_arr.ndim == 0:
            return float(out[0])
        return out.reshape(x_arr.shape)

    def sup_diff(self, other: "SolutionGrid") -> float:
        return float(np.max(np.abs(self.values - other.values)))


# ---------------------------------------------------------------------------
# discretized integral operator


class DiscreteGreenOperator:
    """One Picard sweep, precomputed for fixed (params, grid, quadrature).

    Per collocation node the split quadrature samples are fixed
    (``split_panels``), so kernel values, rule weights and the
    barycentric map from grid values to sample points are matrices built
    once.  ``apply`` is then a handful of vectorized operations; per-node
    sums use a fixed order, so results do not depend on scheduling.

    With ``out_nodes`` the operator takes values on the ``grid_points``
    grid and returns T u at ``out_nodes`` instead (a Nystrom
    interpolation step); ``nodes`` stays the input grid.
    """

    def __init__(self, params: GreenParams, grid_points: int, quad_points: int,
                 out_nodes: np.ndarray | None = None):
        self.params = params
        tt = chebyshev_lobatto_nodes(grid_points)
        self.nodes = tt
        out_nodes = tt if out_nodes is None else np.asarray(out_nodes, dtype=float)
        self.s, self.coef = split_panels(params, out_nodes, quad_points)
        self._interp = _bary_matrix(tt, _bary_weights(grid_points), self.s.ravel())
        # the kernel vanishes identically at t = 0 and t = 1
        self._boundary = (out_nodes == 0.0) | (out_nodes == 1.0)

    def apply(self, values: np.ndarray, g: Callable, enforce_cone: bool) -> np.ndarray:
        u = (self._interp @ values).reshape(self.s.shape)
        if enforce_cone:
            # cone elements stay non-negative; interpolation overshoot is
            # projected back so g never sees a spurious negative u
            u = np.maximum(u, 0.0)
        gs = np.asarray(g(self.s, u), dtype=float)
        if enforce_cone and np.any(gs < 0.0):
            raise ConeViolationError(
                f"g evaluated negative ({gs.min():.6g}) at a quadrature sample; "
                "the nonlinearity must map into [0, inf)"
            )
        out = (self.coef * gs).sum(axis=1)
        out[self._boundary] = 0.0
        return out


@functools.lru_cache(maxsize=2)
def _operators(params: GreenParams, grid_points: int, quad_points: int) -> dict:
    """The operators a solve of the requested (params, grid, quad) uses,
    keyed (grid, quad, output grid or None) and filled by ``_operator``.
    A sweep over fresh (alpha, sigma) never hits; more entries only hold
    memory."""
    return {}


def _operator(entry: dict, params: GreenParams, grid_points: int, quad_points: int,
              out_points: int | None = None) -> DiscreteGreenOperator:
    """The entry's operator, built on first use; T u at out_points nodes."""
    key = (grid_points, quad_points, out_points)
    if key not in entry:
        out = None if out_points is None else chebyshev_lobatto_nodes(out_points)
        entry[key] = DiscreteGreenOperator(params, grid_points, quad_points, out)
    return entry[key]


def apply_green_operator(u: SolutionGrid, p: ProblemSpec) -> SolutionGrid:
    """One application of the integral operator to the grid function u.

    Output is clamped to exactly 0 at both endpoints (the kernel vanishes
    identically there) and is non-negative whenever g is.  With
    ``enforce_cone`` set, a negative g sample raises ConeViolationError.
    """
    op = _operator(_operators(p.params, p.grid_points, p.quad_points), p.params,
                   p.grid_points, p.quad_points)
    if len(u.nodes) != len(op.nodes) or not np.array_equal(u.nodes, op.nodes):
        raise ValueError("grid of u does not match ProblemSpec.grid_points")
    vals = op.apply(u.values, p.g_callable(), p.enforce_cone)
    return SolutionGrid(op.nodes, vals)


# ---------------------------------------------------------------------------
# contraction certificate


@dataclass
class ContractionCertificate:
    """Sampled falsification check of the contraction hypothesis.

    ``lambda_observed`` is the largest sampled ratio
    |g(t,x)-g(t,y)| (1 + tau sqrt|x-y|)^2 / |x-y|; sampling cannot prove
    the bound globally, so a passing verdict records the budget
    (``samples``, ``u_max``) it was checked under.
    """

    N: float
    t_star: float
    lambda_observed: float
    lambda_claim: float
    tau: float
    samples: int
    u_max: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "t_star": self.t_star,
            "lambda_observed": self.lambda_observed,
            "lambda_claim": self.lambda_claim,
            "lambda_claim_times_N": self.lambda_claim * self.N,
            "tau": self.tau,
            "samples": self.samples,
            "u_max": self.u_max,
            "verdict": self.verdict,
        }


# (t, x, y) triples the certificate samples
_CERT_SAMPLES = 2000


def certify_contraction(p: ProblemSpec, seed: int = 0) -> ContractionCertificate:
    """Sample the contraction condition; a failing certificate is a valid
    result, not an error."""
    g = p.g_callable()
    tau = p.tau
    rng = np.random.default_rng(seed)
    tt = chebyshev_lobatto_nodes(p.grid_points)
    t = rng.choice(tt, size=_CERT_SAMPLES)
    x = rng.uniform(0.0, p.u_max, size=_CERT_SAMPLES)
    y = rng.uniform(0.0, p.u_max, size=_CERT_SAMPLES)
    # probe small separations as well: the ratio peaks as |x-y| -> 0.
    # Below ~1e-8 the difference g(x)-g(y) is cancellation noise in
    # doubles and the ratio would measure rounding, not the nonlinearity,
    # so separations are floored there.
    shrink = rng.uniform(0.0, 1.0, size=_CERT_SAMPLES) ** 4
    y = x + (y - x) * shrink
    ok = np.abs(x - y) >= 1e-8
    t, x, y = t[ok], x[ok], y[ok]
    dxy = np.abs(x - y)
    ratio = np.abs(np.asarray(g(t, x)) - np.asarray(g(t, y))) * (1.0 + tau * np.sqrt(dxy)) ** 2 / dxy
    lambda_observed = float(ratio.max()) if ratio.size else 0.0
    n_value, t_star = green_weight_integral_max(p.params)
    passed = (lambda_observed <= p.lambda_claim + 1e-12) and (p.lambda_claim * n_value <= 1.0)
    return ContractionCertificate(
        N=n_value,
        t_star=t_star,
        lambda_observed=lambda_observed,
        lambda_claim=p.lambda_claim,
        tau=tau,
        samples=int(t.size),
        u_max=p.u_max,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Picard iteration


@dataclass
class SolveResult:
    """``u`` is on the requested grid; ``trace`` and ``iterations`` count
    the sweeps on ``solve_grid``, the ladder level that served it, and
    ``start_iterations`` those on the levels below (0 on a one-level
    ladder)."""

    u: SolutionGrid
    trace: np.ndarray
    certificate: ContractionCertificate | None
    iterations: int
    start_iterations: int = 0
    solve_grid: int = 0


# On grids below _LADDER_MIN_GRID the coarse solves of a ladder, with
# their operator builds, cost more than the fine sweeps they save.
_LADDER_MIN_GRID = 129


def _picard(
    op: DiscreteGreenOperator, g: Callable, u: np.ndarray, p: ProblemSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Sweeps u <- T u until a delta reaches p.tol or p.max_iters sweeps
    are spent; returns the last iterate and the deltas."""
    deltas: list[float] = []
    for _ in range(p.max_iters):
        u_next = op.apply(u, g, p.enforce_cone)
        deltas.append(float(np.max(np.abs(u_next - u))))
        u = u_next
        if deltas[-1] <= p.tol:
            break
    return u, np.asarray(deltas)


def solve(p: ProblemSpec, u0: SolutionGrid | None = None, uncertified: bool = False) -> SolveResult:
    """Picard iteration u_{k+1} = T u_k to the fixed point, on a ladder of
    grids that ends at the requested one.

    Refuses to iterate when the contraction certificate fails, unless
    ``uncertified`` is set.  Without ``u0``, grids of 129 points or more
    climb from zero on 33 points (rule of at most 48 points) through 65,
    129, ... points; each level starts from one Nystrom application of the
    level below's rule to its solution (Atkinson 1997, section 4.1).  The
    first level above 33 points whose first delta is <= tol serves: one
    more application fills the requested nodes, and ``trace`` and
    ``iterations`` count that level's sweeps.  A ``u0`` solve, or a
    smaller grid (from zero), is a one-level ladder.  The limit is the
    unique fixed point either way.  ``max_iters`` is a budget per level,
    not for the whole ladder.  An error on any level ends the solve;
    NonConvergenceError carries the deltas and the grid size of the level
    whose max_iters sweeps did not reach tol.
    """
    certificate = None
    if not uncertified:
        certificate = certify_contraction(p)
        if not certificate.passed:
            raise CertificateError(certificate)
    g = p.g_callable()
    m, n = p.grid_points, p.quad_points
    entry = _operators(p.params, m, n)
    nodes = chebyshev_lobatto_nodes(m)
    if u0 is not None and (len(u0.nodes) != m or not np.array_equal(u0.nodes, nodes)):
        raise ValueError("u0 grid does not match ProblemSpec.grid_points")
    grid, quad = (33, min(48, n)) if u0 is None and m >= _LADDER_MIN_GRID else (m, n)
    u, below = (np.zeros(grid) if u0 is None else u0.values), 0
    while True:
        u, deltas = _picard(_operator(entry, p.params, grid, quad), g, u, p)
        if not deltas[-1] <= p.tol:
            raise NonConvergenceError(deltas, p.tol, grid)
        if grid == m:
            break
        served = grid > 33 and deltas[0] <= p.tol
        up = m if served else min(2 * grid - 1, m)
        u = _operator(entry, p.params, grid, quad, up).apply(u, g, p.enforce_cone)
        if served:
            break
        below += len(deltas)
        grid, quad = up, n
    return SolveResult(SolutionGrid(nodes, u), deltas, certificate, len(deltas), below, grid)


# ---------------------------------------------------------------------------
# positivity report


@dataclass
class PositivityReport:
    """Checks of the sufficient conditions for strict interior positivity.

    The solver alone guarantees a non-negative solution; "verified
    positive" additionally needs g non-decreasing in u and a forcing that
    stays away from zero at the origin (so the unregularized f(t, 0)
    blows up as t -> 0).
    """

    monotone_in_u: bool
    forcing_positive_at_origin: bool
    min_interior: float
    verdict: str  # "verified positive" | "not-verified"

    def to_dict(self) -> dict:
        return {
            "monotone_in_u": self.monotone_in_u,
            "forcing_positive_at_origin": self.forcing_positive_at_origin,
            "min_interior": self.min_interior,
            "verdict": self.verdict,
        }


# u pairs sampled for the monotonicity check; the least g(t, 0) near the
# origin that counts as a forcing positive there
_POSITIVITY_SAMPLES, _ORIGIN_FLOOR = 256, 1e-8


def check_positivity(p: ProblemSpec, u: SolutionGrid, seed: int = 0) -> PositivityReport:
    g = p.g_callable()
    rng = np.random.default_rng(seed)
    tt = u.nodes
    xs = rng.uniform(0.0, p.u_max, size=(_POSITIVITY_SAMPLES, 1))
    ys = xs + rng.uniform(0.0, p.u_max, size=(_POSITIVITY_SAMPLES, 1))
    t_row = tt[None, :]
    monotone = bool(np.all(np.asarray(g(t_row, xs)) <= np.asarray(g(t_row, ys)) + 1e-12))
    t_near0 = np.geomspace(1e-8, 1e-2, 25)
    g_origin = np.asarray(g(t_near0, np.zeros_like(t_near0)))
    forcing_ok = bool(np.min(g_origin) >= _ORIGIN_FLOOR)
    min_interior = float(np.min(u.values[1:-1]))
    verdict = (
        "verified positive"
        if (monotone and forcing_ok and min_interior > 0.0)
        else "not-verified"
    )
    return PositivityReport(monotone, forcing_ok, min_interior, verdict)


# ---------------------------------------------------------------------------
# independent residual oracle


@dataclass
class ResidualProfile:
    checkpoints: np.ndarray
    residuals: np.ndarray
    h: float

    def max(self) -> float:
        return float(np.max(self.residuals))


def check_residual_step(h: float) -> None:
    """Raise ValueError unless h is a step the residual oracle accepts."""
    if not 1e-4 <= h <= 1e-2:
        raise ValueError(f"h must lie in [1e-4, 1e-2], got {h!r}")


def _gl_coeffs(alpha: float, count: int) -> np.ndarray:
    """(-1)^j binom(alpha, j) for j = 0..count-1, as the running product
    of the ratios (j - 1 - alpha) / j."""
    j = np.arange(1.0, count)
    return np.concatenate(([1.0], np.cumprod((j - 1.0 - alpha) / j)))


def grunwald_letnikov_residual(
    p: ProblemSpec,
    u: SolutionGrid,
    h: float,
    checkpoints: np.ndarray | None = None,
) -> ResidualProfile:
    """|D^alpha u(t) - t^(-sigma) g(t, u(t))| at interior checkpoints.

    D^alpha is approximated by the shifted Grunwald-Letnikov sum
    h^(-alpha) sum_j (-1)^j binom(alpha, j) u(t - (j - shift) h), first
    order in h.  The shift round(alpha/2) keeps the leading error
    coefficient |shift - alpha/2| <= 1/2; the unshifted sum carries the
    coefficient alpha/2 itself, several times larger.  Entirely
    independent of the Green-kernel quadrature pipeline.

    All checkpoints' stencils are evaluated together: one interpolation
    of u over the distinct stencil points and checkpoints, one vector call
    of g.
    """
    check_residual_step(h)
    a, sg = p.params.alpha, p.params.sigma
    shift = int(round(a / 2.0))
    if checkpoints is None:
        checkpoints = np.linspace(0.2, 0.8, 13)
    checkpoints = np.asarray(checkpoints, dtype=float)
    if np.any((checkpoints < 0.2 - 1e-12) | (checkpoints > 0.8 + 1e-12)):
        raise ValueError("checkpoints must lie in [0.2, 0.8]")
    if checkpoints.max() + shift * h > 1.0:
        raise ValueError("shifted sample t + shift*h exceeds 1")
    g = p.g_callable()
    terms = np.floor(checkpoints / h + 1e-9).astype(int) + 1 + shift
    ends = np.cumsum(terms)
    j = np.arange(ends[-1]) - np.repeat(ends - terms, terms)
    stencil = np.repeat(checkpoints, terms) - h * (j - shift)
    # neighbouring checkpoints' stencils share most of their points;
    # each distinct point is interpolated once
    points, where = np.unique(
        np.concatenate([np.clip(stencil, 0.0, 1.0), checkpoints]), return_inverse=True
    )
    uvals = u.interpolate(points)[where]
    u_stencil, u_t = uvals[:stencil.size], uvals[stencil.size:]
    # Each stencil's sum cancels from terms of size |u| down to about
    # h^alpha |D^alpha u| within its first few terms.  A running sum in
    # stencil order rounds against those small partial sums; blocked sums
    # such as np.dot or pairwise reduction round several times worse.
    running = np.cumsum(_gl_coeffs(a, int(terms.max()))[j] * u_stencil)
    gl = h ** (-a) * np.diff(running[ends - 1], prepend=0.0)
    rhs = checkpoints ** (-sg) * np.asarray(g(checkpoints, u_t), dtype=float)
    return ResidualProfile(checkpoints, np.abs(gl - rhs), h)
