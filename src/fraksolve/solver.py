"""Fixed-point solver for the singular fractional boundary value problem.

The integral operator (Tu)(t) = integral of G(t,s) s^(-sigma) g(s, u(s)) ds
acts on the cone of non-negative continuous functions; under the sampled
contraction condition certified by ``certify_contraction`` the Picard
iteration converges to the unique non-negative solution.  Discretization
is Nystrom-style collocation on Chebyshev-distributed nodes with
barycentric interpolation between sweeps; the integrals are the product
rule of the quadrature module, on samples shared by every node.

A converged solution can be cross-checked two independent ways:
``check_positivity`` tests the hypotheses under which the solution is
strictly positive inside (0,1), and ``grunwald_letnikov_residual``
plugs the solution back into the differential equation through a
finite-difference fractional derivative that shares nothing with the
Green-kernel pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import exprparse
from .exprparse import Expression
from .kernel import GreenParams, _real, green_weight_integral_max
from .quadrature import MAX_POINTS, MIN_PRODUCT_POINTS, product_weights, shared_samples
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


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem description: an immutable value, checked once when it
    is made, its sizes kept as ints and its numbers as floats (``_real``).
    ``dataclasses.replace`` makes a changed copy and checks it again.

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

    def __post_init__(self) -> None:
        for name in ("grid_points", "quad_points", "max_iters"):
            object.__setattr__(self, name, _real(name, getattr(self, name), int))
        for name in ("lambda_claim", "tau", "tol", "u_max"):
            val = _real(name, getattr(self, name))
            if not 0.0 < val < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {val!r}")
            object.__setattr__(self, name, val)
        if not isinstance(self.enforce_cone, (bool, np.bool_)):
            raise ValueError(f"enforce_cone must be a bool, got {self.enforce_cone!r}")
        if not MIN_PRODUCT_POINTS <= self.quad_points <= MAX_POINTS:
            raise ValueError(f"quad_points must be in [{MIN_PRODUCT_POINTS}, {MAX_POINTS}]")
        if not 3 <= self.grid_points <= MAX_GRID:
            raise ValueError(f"grid_points must be in [3, {MAX_GRID}]")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if not (isinstance(self.g, (str, Expression)) or callable(self.g)):
            raise TypeError(
                f"g must be an Expression, expression text, catalog id or callable, "
                f"got {type(self.g)}"
            )

    def g_callable(self) -> Callable:
        """g as an array callable.  Resolved, and expression text parsed,
        on first use, then kept."""
        return self._g[0]

    def g_reads_t(self) -> bool:
        """False when g is known not to depend on t: expressions without
        t.  The catalog ids read t, and a Python callable is taken to."""
        return self._g[1]

    def g_reads_u(self) -> bool:
        """False when g is known not to depend on u: the catalog ids and
        expressions without u.  A Python callable is taken to read u."""
        return self._g[2]

    @functools.cached_property
    def _g(self) -> tuple[Callable, bool, bool]:
        return _resolve_g(self.g, self.params)


def _resolve_g(g: GFunction, params: GreenParams) -> tuple[Callable, bool, bool]:
    """g as an array callable, and whether it reads t and whether u."""
    if isinstance(g, str):
        if g in G_CATALOG_IDS:
            return catalog_g(g, params), True, False
        g = exprparse.parse(g)
    if isinstance(g, Expression):
        reads = exprparse.variables(g)
        return (lambda t, u: exprparse.evaluate(g, t, u)), "t" in reads, "u" in reads

    def wrapped(t, u):
        out = g(t, u)
        if np.ndim(out) == 0 and np.ndim(t) > 0:
            return np.full(np.shape(t), float(out))
        return out

    return wrapped, True, True


# ---------------------------------------------------------------------------
# grid and interpolation


def chebyshev_lobatto_nodes(m: int) -> np.ndarray:
    """m Chebyshev-distributed nodes on [0, 1] including both endpoints."""
    if m < 2:
        raise ValueError("need at least 2 nodes")
    return (1.0 - np.cos(np.pi * np.arange(m) / (m - 1))) / 2.0


def _bary_reciprocals(m: int, x: np.ndarray):
    """weights / (x - nodes) at the nodes ``chebyshev_lobatto_nodes(m)``,
    as one node-major (m, len(x)) array, the points on the fast axis, and
    its column sums: the interpolant at x is (values @ recip) / colsum,
    the second barycentric form (Berrut & Trefethen, SIAM Rev. 46, 2004)
    with the weights of those nodes.  An exact node hit, or a near-hit
    where weight/diff overflowed, leaves a non-finite sum; such columns,
    and zero-sum ones, snap to the nearest node (a one-hot column with
    sum 1)."""
    nodes = chebyshev_lobatto_nodes(m)
    weights = np.ones(m)
    weights[1::2] = -1.0
    weights[[0, -1]] *= 0.5
    recip = np.subtract(x, nodes[:, None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(weights[:, None], recip, out=recip)
        colsum = recip.sum(axis=0)
    snap = np.flatnonzero(~np.isfinite(colsum) | (colsum == 0.0))
    recip[:, snap] = 0.0
    recip[np.abs(x[snap] - nodes[:, None]).argmin(axis=0), snap] = 1.0
    colsum[snap] = 1.0
    return recip, colsum


_INTERP_BLOCK = 1 << 21  # matrix entries (16 MB) per interpolation block


@dataclass
class SolutionGrid:
    """Interpolable representation of a function on [0, 1]: its
    ``values`` at ``nodes``, which are ``chebyshev_lobatto_nodes(len(values))``,
    the nodes whose barycentric weights ``_bary_reciprocals`` knows.  A
    grid is thus its size; ``values`` must be 1-d with at least 2 entries,
    all finite.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValueError("values must be a 1-d array of at least 2 entries")
        if not np.all(np.isfinite(self.values)):
            i = int(np.argmin(np.isfinite(self.values)))  # the first non-finite entry
            raise ValueError(f"values must be finite, got {self.values[i]:g} at index {i}")

    @property
    def nodes(self) -> np.ndarray:
        return chebyshev_lobatto_nodes(len(self.values))

    @classmethod
    def zeros(cls, m: int) -> "SolutionGrid":
        return cls(np.zeros(m))

    @classmethod
    def constant(cls, c: float, m: int) -> "SolutionGrid":
        values = np.zeros(m)
        values[1:-1] = c
        return cls(values)

    @classmethod
    def from_function(cls, fn, m: int) -> "SolutionGrid":
        values = np.zeros(m)
        values[:] = fn(chebyshev_lobatto_nodes(m))
        return cls(values)

    def interpolate(self, x):
        """Barycentric interpolation, second form, at scalar or array x.

        Points are taken in blocks, so the node-major reciprocals
        (``_bary_reciprocals``) stay within ``_INTERP_BLOCK`` entries
        however many points are asked for.  An x outside [0, 1] is a
        ValueError, NaN included: the interpolant does not extrapolate.
        """
        x_arr = np.asarray(x, dtype=float)
        flat = x_arr.ravel()
        if not np.all((flat >= 0.0) & (flat <= 1.0)):  # NaN fails too
            raise ValueError("interpolate: x must lie in [0, 1]")
        out = np.empty(flat.size)
        m = len(self.values)
        step = max(1, _INTERP_BLOCK // m)
        for i in range(0, flat.size, step):
            recip, colsum = _bary_reciprocals(m, flat[i:i + step])
            out[i:i + step] = (self.values @ recip) / colsum
        if x_arr.ndim == 0:
            return float(out[0])
        return out.reshape(x_arr.shape)

    def sup_diff(self, other: "SolutionGrid") -> float:
        return float(np.max(np.abs(self.values - other.values)))


# ---------------------------------------------------------------------------
# discretized integral operator


@functools.lru_cache(maxsize=16)
def _sample_map(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``_bary_reciprocals`` of the m-point grid at ``shared_samples()``,
    node-major (m, P), with its column sums: the map from values on m
    nodes to the shared samples, one per input size for every operator.
    Read-only, as every later call shares it."""
    recip = _bary_reciprocals(m, shared_samples())
    for arr in recip:
        arr.flags.writeable = False
    return recip


class DiscreteGreenOperator:
    """T at its own ``nodes``, precomputed for fixed (params, grid,
    quadrature): the product-rule weights ``W`` (grid_points, P) on the
    shared samples ``s`` (``quadrature.product_weights``).

    ``apply`` reads u from its values on any Chebyshev-Lobatto grid at the
    P samples, through ``_sample_map`` of that grid's size, built on first
    use: a g that does not read u never needs one.  A coarser input grid
    makes ``apply`` a Nystrom step (Atkinson 1997, section 4.1).  A sweep
    is one (m_in, P) product, one call of g on P points and one (m, P)
    product, whatever the grid and quadrature sizes.
    """

    def __init__(self, params: GreenParams, grid_points: int, quad_points: int):
        self.nodes = chebyshev_lobatto_nodes(grid_points)
        self.W = product_weights(params, self.nodes, quad_points)
        self.s = shared_samples()

    def apply(self, values: np.ndarray, p: ProblemSpec) -> np.ndarray:
        """T u at the nodes, for u given by its values on the
        Chebyshev-Lobatto grid of ``len(values)`` points; g and
        ``enforce_cone`` come from p.  A g that does not read u gets
        u = 0."""
        if p.g_reads_u():
            recip, colsum = _sample_map(len(values))
            u = (values @ recip) / colsum
        else:
            u = np.zeros(self.s.size)
        if p.enforce_cone:
            # cone elements stay non-negative; interpolation overshoot is
            # projected back so g never sees a spurious negative u
            u = np.maximum(u, 0.0)
        gs = np.asarray(p.g_callable()(self.s, u), dtype=float)
        if p.enforce_cone and np.any(gs < 0.0):
            raise ConeViolationError(
                f"g evaluated negative ({gs.min():.6g}) at a quadrature sample; "
                "the nonlinearity must map into [0, inf)"
            )
        out = self.W @ gs
        out[[0, -1]] = 0.0  # the kernel vanishes identically at t = 0 and t = 1
        return out


@functools.lru_cache(maxsize=2)
def _operators(params: GreenParams, grid_points: int, quad_points: int) -> dict:
    """The operators a solve of the requested (params, grid, quad) uses,
    keyed (grid, quad) and filled by ``_operator``.  A sweep over fresh
    (alpha, sigma) never hits; more entries only hold memory."""
    return {}


def _operator(entry: dict, params: GreenParams, grid_points: int,
              quad_points: int) -> DiscreteGreenOperator:
    """The entry's operator, built on first use."""
    key = (grid_points, quad_points)
    if key not in entry:
        entry[key] = DiscreteGreenOperator(params, grid_points, quad_points)
    return entry[key]


def apply_green_operator(u: SolutionGrid, p: ProblemSpec) -> SolutionGrid:
    """One application of the integral operator to the grid function u.

    Output is clamped to exactly 0 at both endpoints (the kernel vanishes
    identically there) and is non-negative whenever g is: the
    product-rule weights are >= 0 at every allowed ``quad_points`` (Tier-1
    checks them on the verify pairs at 33, 65 and 257 nodes).  With
    ``enforce_cone`` set, a negative g at a shared sample raises
    ConeViolationError.
    """
    if len(u.values) != p.grid_points:
        raise ValueError("grid of u does not match ProblemSpec.grid_points")
    op = _operator(_operators(p.params, p.grid_points, p.quad_points), p.params,
                   p.grid_points, p.quad_points)
    return SolutionGrid(op.apply(u.values, p))


# ---------------------------------------------------------------------------
# contraction certificate


@dataclass
class ContractionCertificate:
    """Sampled falsification check of the contraction hypothesis.

    ``lambda_observed`` is the largest sampled ratio
    |g(t,x)-g(t,y)| (1 + tau sqrt|x-y|)^2 / |x-y|; sampling cannot prove
    the bound globally, so a passing verdict records the budget
    (``samples``, ``u_max``) it was checked under.  With no sample (every
    pair closer than the 1e-8 separation floor) the verdict is fail.
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
_FLOAT_MAX = float(np.finfo(float).max)


@functools.lru_cache(maxsize=2)  # sweep_cold alternates two grids
def _certificate_samples(grid_points: int, u_max: float, seed: int) -> tuple[np.ndarray, ...]:
    """The (t, x, y) triples ``certify_contraction`` samples, t among the
    grid's nodes and x, y in [0, u_max]; read-only, as every later call
    shares them."""
    rng = np.random.default_rng(seed)
    t = rng.choice(chebyshev_lobatto_nodes(grid_points), size=_CERT_SAMPLES)
    x = rng.uniform(0.0, u_max, size=_CERT_SAMPLES)
    y = rng.uniform(0.0, u_max, size=_CERT_SAMPLES)
    # probe small separations as well: the ratio peaks as |x-y| -> 0.
    # Below ~1e-8 the difference g(x)-g(y) is cancellation noise in
    # doubles and the ratio would measure rounding, not the nonlinearity,
    # so separations are floored there.
    shrink = rng.uniform(0.0, 1.0, size=_CERT_SAMPLES) ** 4
    y = x + (y - x) * shrink
    ok = np.abs(x - y) >= 1e-8
    samples = t[ok], x[ok], y[ok]
    for arr in samples:
        arr.flags.writeable = False
    return samples


def certify_contraction(p: ProblemSpec, seed: int = 0) -> ContractionCertificate:
    """Sample the contraction condition; a failing certificate is a valid
    result, not an error.  The samples are fixed by (grid_points, u_max,
    seed), drawn once and shared read-only between calls."""
    g = p.g_callable()
    tau = p.tau
    t, x, y = _certificate_samples(p.grid_points, p.u_max, seed)
    dxy = np.abs(x - y)
    # a g constant in u meets the condition at any tau, even where the
    # factor (1 + tau sqrt|x-y|)^2 overflows; a ratio that overflows is
    # capped at the largest double, a lower bound of the true one
    with np.errstate(over="ignore", invalid="ignore"):
        gx = np.asarray(g(t, x))
        gy = np.asarray(g(t, y)) if p.g_reads_u() else gx  # the same values
        diff = np.abs(gx - gy)
        ratio = np.where(diff == 0.0, 0.0, diff * (1.0 + tau * np.sqrt(dxy)) ** 2 / dxy)
    lambda_observed = min(float(ratio.max()), _FLOAT_MAX) if ratio.size else 0.0
    n_value, t_star = green_weight_integral_max(p.params)
    # no sample left (u_max at the separation floor) certifies nothing
    passed = (t.size > 0 and lambda_observed <= p.lambda_claim + 1e-12
              and p.lambda_claim * n_value <= 1.0)
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
    op: DiscreteGreenOperator, u: np.ndarray, p: ProblemSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Sweeps u <- T u until a delta reaches p.tol or p.max_iters sweeps
    are spent; returns the last iterate and the deltas."""
    deltas: list[float] = []
    for _ in range(p.max_iters):
        u_next = op.apply(u, p)
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
    whose g reads u climb from zero on 33 points (rule of at most 48
    points) through 65, 129, ... points; each level starts from one
    Nystrom step, the operator at its nodes with the level below's rule
    applied to the level below's solution (Atkinson 1997, section 4.1).
    The first level above 33 points whose first delta is <= tol serves:
    one more step fills the requested nodes, and ``trace`` and
    ``iterations`` count that level's sweeps.  A ``u0`` solve, a smaller
    grid (from zero), or a g that does not read u (T is constant: the
    first sweep is the answer, the second sees delta 0) is a one-level
    ladder.  The limit is the unique fixed point either way.
    ``max_iters`` is a budget per level, not for the whole ladder.  An
    error on any level ends the solve; NonConvergenceError carries the
    deltas and the grid size of the level whose max_iters sweeps did not
    reach tol.
    """
    certificate = None
    if not uncertified:
        certificate = certify_contraction(p)
        if not certificate.passed:
            raise CertificateError(certificate)
    m, n = p.grid_points, p.quad_points
    entry = _operators(p.params, m, n)
    if u0 is not None and len(u0.values) != m:
        raise ValueError("u0 grid does not match ProblemSpec.grid_points")
    climb = u0 is None and m >= _LADDER_MIN_GRID and p.g_reads_u()
    grid, quad = (33, min(48, n)) if climb else (m, n)
    u, below = (np.zeros(grid) if u0 is None else u0.values), 0
    while True:
        u, deltas = _picard(_operator(entry, p.params, grid, quad), u, p)
        if not deltas[-1] <= p.tol:
            raise NonConvergenceError(deltas, p.tol, grid)
        if grid == m:
            break
        served = grid > 33 and deltas[0] <= p.tol
        up = m if served else min(2 * grid - 1, m)
        u = _operator(entry, p.params, up, quad).apply(u, p)
        if served:
            break
        below += len(deltas)
        grid, quad = up, n
    return SolveResult(SolutionGrid(u), deltas, certificate, len(deltas), below, grid)


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


# u pairs sampled for the monotonicity check; the t at which the forcing
# is probed near the origin, and the least g(t, 0) there that counts as
# positive
_POSITIVITY_SAMPLES, _ORIGIN_FLOOR = 256, 1e-8
_ORIGIN_T = np.geomspace(1e-8, 1e-2, 25)
_ORIGIN_T.flags.writeable = False


@functools.lru_cache(maxsize=2)
def _positivity_samples(u_max: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (x, y) pairs, x <= y <= u_max, of the monotonicity check, as
    (_POSITIVITY_SAMPLES, 1) columns; read-only, as every later call
    shares them."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, u_max, size=(_POSITIVITY_SAMPLES, 1))
    ys = rng.uniform(xs, u_max)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def check_positivity(p: ProblemSpec, u: SolutionGrid, seed: int = 0) -> PositivityReport:
    """The samples are fixed by (u_max, seed), drawn once and shared
    read-only between calls.  The monotonicity grid (the u pairs against
    u's nodes) spans only the variables g reads: g is the same all along
    an axis it does not read, so that axis keeps its first entry."""
    g = p.g_callable()
    xs, ys = _positivity_samples(p.u_max, seed)
    t_row = u.nodes[None, :] if p.g_reads_t() else u.nodes[None, :1]
    if not p.g_reads_u():
        xs, ys = xs[:1], ys[:1]
    monotone = bool(np.all(np.asarray(g(t_row, xs)) <= np.asarray(g(t_row, ys)) + 1e-12))
    g_origin = np.asarray(g(_ORIGIN_T, np.zeros_like(_ORIGIN_T)))
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
    """Residual per checkpoint (the multiples of h nearest
    ``_CHECKPOINTS``), and ``floor``, the roundoff the checkpoint's GL
    sum can carry: eps * sum_{j<terms} |c_j| * h^(-alpha) * max|u|.  A
    residual near its floor says nothing about the solution."""

    checkpoints: np.ndarray
    residuals: np.ndarray
    floor: np.ndarray

    def max(self) -> float:
        return float(np.max(self.residuals))


def check_residual_step(h: float) -> float:
    """h as a float, if it is a step the residual oracle accepts (a real
    number, ``_real``, in [1e-4, 1e-2]); else ValueError."""
    h = _real("h", h)
    if not 1e-4 <= h <= 1e-2:
        raise ValueError(f"h must lie in [1e-4, 1e-2], got {h!r}")
    return h


def _gl_coeffs(alpha: float, count: int) -> np.ndarray:
    """(-1)^j binom(alpha, j) for j = 0..count-1, as the running product
    of the ratios (j - 1 - alpha) / j."""
    j = np.arange(1.0, count)
    return np.concatenate(([1.0], np.cumprod((j - 1.0 - alpha) / j)))


@dataclass(frozen=True)
class _ResidualPlan:
    """The u-independent part of the residual oracle.

    Checkpoint k sits at lattice index ``at[k]`` of h * arange(at[-1] + 3);
    its stencil has at[k] + 3 entries.  ``j`` is the coefficient index of
    every stencil entry and ``idx`` its lattice index, at[k] + 2 - j.
    ``recip`` is ``_bary_reciprocals`` at the lattice: node-major
    reciprocals (m, at[-1] + 3) and their column sums.
    """

    at: np.ndarray
    j: np.ndarray
    idx: np.ndarray
    recip: tuple[np.ndarray, np.ndarray]


# The oracle's checkpoints: 13 interior points in [0.2, 0.8], each taken
# at the nearest multiple of h, so all stencils are runs of one lattice.
# The GL stencil's shift round(alpha/2) is 2 for every alpha in (3, 4],
# as alpha/2 lies in (1.5, 2]; the farthest shifted sample, 0.8 + 2.5h
# with h <= 1e-2 (check_residual_step), stays below 1.
_CHECKPOINTS = np.linspace(0.2, 0.8, 13)
_CHECKPOINTS.flags.writeable = False
_GL_SHIFT = 2


@functools.lru_cache(maxsize=2)  # sweep_cold alternates two grids
def _residual_plan(m: int, h: float) -> _ResidualPlan:
    """The stencil plan at ``_CHECKPOINTS`` for u on m nodes."""
    at = np.rint(_CHECKPOINTS / h).astype(int)
    terms = at + 1 + _GL_SHIFT
    ends = np.cumsum(terms)
    j = np.arange(ends[-1]) - np.repeat(ends - terms, terms)
    idx = np.repeat(at + _GL_SHIFT, terms) - j
    recip = _bary_reciprocals(m, h * np.arange(terms[-1]))
    for arr in (at, j, idx, *recip):
        arr.flags.writeable = False  # every later call shares them
    return _ResidualPlan(at, j, idx, recip)


def grunwald_letnikov_residual(p: ProblemSpec, u: SolutionGrid, h: float) -> ResidualProfile:
    """|D^alpha u(t) - t^(-sigma) g(t, u(t))| at 13 checkpoints t in
    [0.2, 0.8], each the nearest multiple of h to ``_CHECKPOINTS``.

    D^alpha is approximated by the shifted Grunwald-Letnikov sum
    h^(-alpha) sum_j (-1)^j binom(alpha, j) u(t - (j - shift) h), first
    order in h.  The shift round(alpha/2) keeps the leading error
    coefficient |shift - alpha/2| <= 1/2; the unshifted sum carries the
    coefficient alpha/2 itself, several times larger.  Entirely
    independent of the Green-kernel quadrature pipeline.

    Every stencil point and checkpoint lies on the lattice
    h * arange(rint(0.8/h) + 3), at most 8,003 points: one interpolation
    of u there, one vector call of g.  The stencil plan (the lattice
    indices, and the barycentric reciprocals at the lattice) depends on
    u's grid size and h only, so it is built once per (grid size, h); the
    last two plans are kept, at most 8,003 * m doubles each.
    """
    h = check_residual_step(h)
    a, sg = p.params.alpha, p.params.sigma
    g = p.g_callable()
    plan = _residual_plan(len(u.values), h)
    recip, colsum = plan.recip
    lattice = (u.values @ recip) / colsum
    terms = plan.at + 1 + _GL_SHIFT
    # Each stencil's sum cancels from terms of size |u| down to about
    # h^alpha |D^alpha u| within its first few terms.  A running sum in
    # stencil order rounds against those small partial sums; blocked sums
    # such as np.dot or pairwise reduction round several times worse.
    c = _gl_coeffs(a, int(terms[-1]))
    running = np.cumsum(c[plan.j] * lattice[plan.idx])
    scale = h ** (-a)
    gl = scale * np.diff(running[np.cumsum(terms) - 1], prepend=0.0)
    t = h * plan.at
    rhs = t ** (-sg) * np.asarray(g(t, lattice[plan.at]), dtype=float)
    floor = (np.finfo(float).eps * np.cumsum(np.abs(c))[terms - 1]
             * scale * np.max(np.abs(u.values)))
    return ResidualProfile(t, np.abs(gl - rhs), floor)
