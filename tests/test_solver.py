import json
import math
import re
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraksolve import exprparse
from fraksolve.exprparse import EvalDomainError
from fraksolve.kernel import (
    GreenParams,
    _weight_integral_coeffs,
    green_weight_integral,
    green_weight_integral_max,
)
from fraksolve import solver as solver_module
from fraksolve.quadrature import integrate_green, shared_samples
from fraksolve.solver import (
    G_CATALOG_IDS,
    CertificateError,
    ConeViolationError,
    DiscreteGreenOperator,
    NonConvergenceError,
    PositivityReport,
    ProblemSpec,
    SolutionGrid,
    apply_green_operator,
    catalog_g,
    certify_contraction,
    chebyshev_lobatto_nodes,
    check_positivity,
    check_residual_step,
    grunwald_letnikov_residual,
    solve,
)
from fraksolve.specfun import gamma

P35 = GreenParams(3.5, 0.5)


def spec_for(g, lam=0.1, tau=1.0, **kw):
    return ProblemSpec(P35, g, lambda_claim=lam, tau=tau, **kw)


def u_star(t):
    return t**2.5 * (1 - t) ** 2


def exact_nonlinear_g(params, c):
    """g = 1 + c (psi(u) - psi(L+(t))) with psi(v) = v/(1+sqrt v)^2, as
    expression text.  T L = L, so the exact solution is L, the closed form
    of the kernel's weight integral.  L rounds to about -1e-17 near t = 1,
    so psi reads its positive part L+ = (L + |L|)/2."""
    a, sg = params.alpha, params.sigma
    pre, c_hi, c_mid, c_lo = _weight_integral_coeffs(params)
    L = (f"({pre!r})*(({c_hi!r})*t^({a - sg!r}) + ({c_mid!r})*t^({a - 1.0!r})"
         f" + ({c_lo!r})*t^({a - 2.0!r}))")
    psi = lambda v: f"({v})/(1 + sqrt({v}))^2"
    return f"1 + ({c!r})*({psi('u')} - {psi(f'(({L}) + abs({L}))/2')})"


def exact_spec(params, **kw):
    """The exact nonlinear problem at c = 0.5/N, certified with lambda = c
    and tau = 1 (psi is concave from 0, hence subadditive); returns the
    spec and N."""
    n_value = green_weight_integral_max(params)[0]
    c = 0.5 / n_value
    return ProblemSpec(params, exact_nonlinear_g(params, c), lambda_claim=c, tau=1.0, **kw), n_value


# --- grids and interpolation ------------------------------------------------


def test_chebyshev_nodes_include_endpoints():
    tt = chebyshev_lobatto_nodes(33)
    assert tt[0] == 0.0 and tt[-1] == 1.0
    assert np.all(np.diff(tt) > 0)


def test_interpolation_exact_at_nodes_and_for_low_degree():
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1, 1, size=6)
    poly = lambda x: sum(c * np.asarray(x) ** k for k, c in enumerate(coeffs))
    grid = SolutionGrid.from_function(poly, 9)
    assert np.allclose(grid.interpolate(grid.nodes), grid.values, atol=1e-13)
    xs = rng.uniform(0, 1, 257)
    assert np.max(np.abs(grid.interpolate(xs) - poly(xs))) <= 1e-12


@given(x=st.floats(min_value=0.0, max_value=1.0))
def test_interpolation_never_nan(x):
    grid = SolutionGrid.from_function(lambda t: t * (1 - t), 17)
    assert np.isfinite(grid.interpolate(x))


def _bary_map(nodes, x):
    """The normalised barycentric map, one column per point of x."""
    recip, colsum = solver_module._bary_reciprocals(len(nodes), x)
    return recip / colsum


def test_bary_matrix_unit_rows_at_and_next_to_nodes():
    nodes = chebyshev_lobatto_nodes(33)
    x = np.concatenate(
        [nodes, [0.0, 1.0], nodes * (1.0 + 2.0**-52), nodes * (1.0 - 2.0**-52)]
    )
    mat = _bary_map(nodes, x)
    unit = np.zeros_like(mat)
    unit[np.abs(x - nodes[:, None]).argmin(axis=0), np.arange(x.size)] = 1.0
    assert np.array_equal(mat[:, :35], unit[:, :35])  # exact hits, 0 and 1
    np.testing.assert_allclose(mat, unit, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(mat.sum(axis=0), 1.0, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.5, -0.5])
def test_interpolate_refuses_non_finite_points(bad):
    # NaN would snap to node 0, and outside [0, 1] the interpolant
    # extrapolates silently (1.1e9 at t = 1.5 for a 33-point solution)
    grid = SolutionGrid.from_function(lambda t: 1.0 + t, 9)
    for x in (bad, np.array([0.5, bad])):
        with pytest.raises(ValueError, match=r"^interpolate: x must lie in \[0, 1\]$"):
            grid.interpolate(x)
    assert grid.interpolate(0.0) == 1.0 and grid.interpolate(1.0) == 2.0


def test_interpolate_in_blocks_matches_one_matrix(monkeypatch):
    grid = SolutionGrid.from_function(lambda t: np.sin(3.0 * t), 17)
    x = np.linspace(0.0, 1.0, 1001).reshape(7, 143)
    whole = grid.values @ _bary_map(grid.nodes, x.ravel())
    monkeypatch.setattr(solver_module, "_INTERP_BLOCK", 17 * 50)
    np.testing.assert_allclose(grid.interpolate(x), whole.reshape(x.shape), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("grid, quad", [(33, 48), (65, 64)])
def test_bary_matrix_rows_sum_to_one_on_operator_samples(grid, quad):
    # every operator reads u at the same shared samples, whatever its size
    nodes = chebyshev_lobatto_nodes(grid)
    s = DiscreteGreenOperator(GreenParams(3.05, 0.95), grid, quad).s
    assert s is shared_samples() and s.shape == (288,)
    mat = _bary_map(nodes, s)
    np.testing.assert_allclose(mat.sum(axis=0), 1.0, rtol=0.0, atol=1e-13)


def _bary_pointwise(nodes, values, x):
    """The second barycentric form at one point, summed term by term and
    exactly rounded: values[k] at a node x_k, else
    sum_k w_k f_k / (x - x_k) over sum_k w_k / (x - x_k), with
    w_k = (-1)^k, halved at both ends.  A point so close to a node that
    a term overflows is that node."""
    w = [(-1.0) ** k * (0.5 if k in (0, len(nodes) - 1) else 1.0) for k in range(len(nodes))]
    diff = [x - node for node in nodes]
    if 0.0 in diff:
        return values[diff.index(0.0)]
    terms = [wk / d for wk, d in zip(w, diff)]
    if not all(math.isfinite(t) for t in terms):
        return values[min(range(len(diff)), key=lambda k: abs(diff[k]))]
    return math.fsum(t * f for t, f in zip(terms, values)) / math.fsum(terms)


@pytest.mark.parametrize("m_in, grid, quad", [(33, 33, 48), (33, 65, 48), (65, 65, 64),
                                              (65, 257, 128)])
def test_operator_map_matches_pointwise_barycentric_sum(m_in, grid, quad):
    # every map shape a solve builds, on a spread of its samples, at the
    # input nodes and one ulp to either side of them
    nodes = chebyshev_lobatto_nodes(m_in)
    s = DiscreteGreenOperator(P35, grid, quad).s
    x = np.concatenate([s[::7], nodes, np.nextafter(nodes, -1.0)[1:],
                        np.nextafter(nodes, 2.0)[:-1]])
    values = 1.5 + np.sin(3.0 * nodes) + nodes**2
    recip, colsum = solver_module._bary_reciprocals(len(nodes), x)
    assert recip.shape == (m_in, x.size) and colsum.shape == (x.size,)
    want = [_bary_pointwise(nodes.tolist(), values.tolist(), xi) for xi in x.tolist()]
    np.testing.assert_allclose((values @ recip) / colsum, want, rtol=1e-13, atol=0.0)


def test_solution_grid_validation():
    for values in (np.zeros((3, 4)), np.zeros((33, 1)), np.zeros(1), np.zeros(0), 0.0):
        with pytest.raises(ValueError, match="^values must be a 1-d array of at least 2 entries$"):
            SolutionGrid(values)


def test_solution_grid_refuses_nodes_it_cannot_weight():
    # the barycentric weights are those of Chebyshev-Lobatto nodes; on
    # equispaced ones the interpolant would be off by 4e-4 for sin(3t)+t^3,
    # so a grid takes no nodes at all and its own cannot be replaced
    with pytest.raises(TypeError):
        SolutionGrid(np.linspace(0.0, 1.0, 65), np.zeros(65))
    with pytest.raises(TypeError):
        SolutionGrid(np.zeros(33), nodes=chebyshev_lobatto_nodes(33)[::-1])
    grid = SolutionGrid(np.zeros(65))
    with pytest.raises(AttributeError):
        grid.nodes = np.linspace(0.0, 1.0, 65)
    assert np.array_equal(grid.nodes, chebyshev_lobatto_nodes(65))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solution_grid_refuses_non_finite_values(bad):
    values = np.ones(33)
    values[[1, 5]] = bad, math.nan
    message = f"^values must be finite, got {bad} at index 1$"
    with pytest.raises(ValueError, match=message):
        SolutionGrid(values)
    with pytest.raises(ValueError, match=message):
        SolutionGrid.from_function(lambda t: np.where(t == t[1], bad, t), 33)
    with pytest.raises(ValueError, match=message):
        SolutionGrid.constant(bad, 33)


@pytest.mark.parametrize("g", ["1 + 0.1*u", lambda t, u: 1.0 + 0.1 * u], ids=["expr", "callable"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_start_is_refused_before_any_sweep(g, bad):
    # a NaN start once blamed g (EvalDomainError) or ran max_iters NaN
    # sweeps (a Python g); an inf one also warned from the matmul
    values = SolutionGrid.constant(1.0, 33).values
    values[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^values must be finite, got {bad} at index 1$"):
            solve(spec_for(g, lam=1.0), u0=SolutionGrid(values), uncertified=True)


@pytest.mark.parametrize("m", [2, 3, 33, 257])
def test_solution_grid_nodes_are_its_size(m):
    # the grid holds only its values: its nodes are those its barycentric
    # weights fit, whichever way it was built
    vals = np.linspace(0.0, 1.0, m)
    for grid in (SolutionGrid(vals), SolutionGrid.zeros(m), SolutionGrid.constant(2.0, m),
                 SolutionGrid.from_function(np.sin, m)):
        assert [f.name for f in fields(grid)] == ["values"]
        assert np.array_equal(grid.nodes, chebyshev_lobatto_nodes(m))
    assert np.array_equal(SolutionGrid.from_function(np.sin, m).values,
                          np.sin(chebyshev_lobatto_nodes(m)))
    assert SolutionGrid.constant(2.0, m).values.tolist() == [0.0] + [2.0] * (m - 2) + [0.0]


# --- operator ---------------------------------------------------------------


def test_apply_zero_forcing_gives_zero():
    p = spec_for("0")
    u = SolutionGrid.zeros(33)
    out = apply_green_operator(u, p)
    assert np.all(out.values == 0.0)


def test_apply_manufactured_matches_exact_solution():
    p = spec_for("manufactured", enforce_cone=False)
    out = apply_green_operator(SolutionGrid.zeros(33), p)
    assert np.max(np.abs(out.values - u_star(out.nodes))) <= 1e-6
    assert out.values[0] == 0.0 and out.values[-1] == 0.0


def test_apply_monotone_in_forcing():
    g1 = spec_for("1 + 0.05*u")
    g2 = spec_for("1.5 + 0.05*u")
    u = SolutionGrid.constant(0.5, 33)
    out1 = apply_green_operator(u, g1)
    out2 = apply_green_operator(u, g2)
    assert np.all(out1.values <= out2.values + 1e-15)


def test_cone_violation_raised_for_signed_forcing():
    p = spec_for("manufactured")  # enforce_cone defaults to True
    with pytest.raises(ConeViolationError):
        apply_green_operator(SolutionGrid.zeros(33), p)


@pytest.mark.parametrize("grid, quad", [(33, 48), (65, 64)])
def test_apply_is_the_product_rule_for_u_independent_forcing(grid, quad):
    # one rule, one reduction: the sweep and integrate_green agree bit for bit
    op = DiscreteGreenOperator(P35, grid, quad)
    fcos = lambda s: np.cos(3.0 * np.asarray(s))
    p = spec_for(lambda s, u: fcos(s), enforce_cone=False)  # a callable reads u
    out = op.apply(np.linspace(0.0, 1.0, grid), p)
    assert np.array_equal(out, integrate_green(P35, op.nodes, fcos, quad))


def test_apply_keeps_output_nodes_near_the_ends():
    op = DiscreteGreenOperator(P35, 65, 128)
    out = op.apply(np.zeros(33), spec_for(lambda s, u: np.ones_like(s)))
    t = op.nodes[[1, -2]]  # 5.9e-4 from either end
    np.testing.assert_allclose(out[[1, -2]], green_weight_integral(P35, t), rtol=1e-8, atol=0.0)


def test_apply_rejects_mismatched_grid():
    p = spec_for("1")
    with pytest.raises(ValueError):
        apply_green_operator(SolutionGrid.zeros(17), p)


# --- certificates -----------------------------------------------------------


def test_certificate_u_independent_forcing():
    cert = certify_contraction(spec_for("manufactured", enforce_cone=False))
    assert cert.lambda_observed == 0.0
    assert cert.passed
    assert cert.N > 0 and cert.t_star > 0


def test_certificate_bounded_by_construction():
    # g = c + lam0 * u/(1+tau sqrt(u))^2 satisfies the condition with
    # lambda = lam0: beta(v) = v/(1+tau sqrt v)^2 is concave increasing
    # from 0, hence subadditive (dense 2-d scan oracle in the quadrature
    # experiments backs this)
    p = spec_for("1 + 0.1*u/(1+1.0*sqrt(u))^2")
    cert = certify_contraction(p)
    assert cert.lambda_observed <= 0.1 + 1e-12
    assert cert.passed


def test_certificate_fails_for_steep_linear_forcing():
    p = spec_for("5*u", lam=5.0 / 0.011)  # lambda_claim * N > 1
    cert = certify_contraction(p)
    assert not cert.passed


def test_certificate_without_samples_fails():
    # every pair lies within the 1e-8 separation floor: nothing is certified
    cert = certify_contraction(spec_for("1 + 1000*u", lam=0.001, u_max=1e-9))
    assert cert.samples == 0 and cert.lambda_observed == 0.0
    assert not cert.passed and cert.verdict == "fail"


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@pytest.mark.parametrize("g, lam, tau, observed", [
    ("1", 0.5, 1e200, 0.0),  # constant in u: met at any tau
    ("1+0.1*u", 1.0, 1e200, np.finfo(float).max),  # (1 + tau sqrt|x-y|)^2 overflows
    ("1e307*u", 1.0, 1.0, np.finfo(float).max),  # |g(x)-g(y)| times that factor overflows
])
def test_certificate_overflowing_ratio_is_capped(g, lam, tau, observed):
    cert = certify_contraction(spec_for(g, lam=lam, tau=tau))
    assert cert.lambda_observed == observed
    assert cert.passed == (observed == 0.0)
    json.loads(json.dumps(cert.to_dict()), parse_constant=_reject_constant)


VERIFY_PAIRS = [(a, sg) for a in (3.01, 3.5, 4.0) for sg in (0.1, 0.5, 0.9)]


def _mp_weight_integral_max(alpha, sigma):
    """N at 50 digits, from G itself: integrated termwise against
    s^(-sigma), the s >= t form of G gives beta functions and the
    (t-s)^(alpha-1) term of s < t gives t^(alpha-sigma) B(1-sigma, alpha);
    the maximum is at the one root of L' in (0, 1), bracketed."""
    with mpmath.workdps(50):
        a, sg = mpmath.mpf(alpha), mpmath.mpf(sigma)
        b1, b2, b3 = mpmath.beta(1 - sg, a - 1), mpmath.beta(2 - sg, a - 1), mpmath.beta(1 - sg, a)
        lin = lambda t: (a - 1 - (a - 2) * t) * b2 - t * b1
        L = lambda t: (t ** (a - 2) * lin(t) + t ** (a - sg) * b3) / mpmath.gamma(a)
        dL = lambda t: ((a - 2) * t ** (a - 3) * lin(t) - t ** (a - 2) * ((a - 2) * b2 + b1)
                        + (a - sg) * t ** (a - sg - 1) * b3)
        return float(L(mpmath.findroot(dL, (mpmath.mpf("0.01"), mpmath.mpf("0.999")),
                                       solver="anderson")))


@pytest.mark.parametrize("alpha, sigma", VERIFY_PAIRS)
def test_certificate_N_is_the_weight_integral_maximum(alpha, sigma):
    # the certificate's own N, not green_weight_integral_max's: a certificate
    # that used a wrong N at its use site passed every other check
    cert = certify_contraction(ProblemSpec(GreenParams(alpha, sigma), "1 + 0.1*u",
                                           lambda_claim=1.0, tau=1.0))
    want = _mp_weight_integral_max(alpha, sigma)
    assert abs(cert.N - want) <= 1e-13 * want


@pytest.mark.parametrize("alpha, sigma", VERIFY_PAIRS)
def test_certificate_gate_sits_at_lambda_N_one(alpha, sigma):
    # lambda_observed is at most 0.001, far below either claim: only
    # lambda_claim * N <= 1 decides, and it decides at 1e-9 of the true N
    n_value = _mp_weight_integral_max(alpha, sigma)
    verdicts = []
    for lam in ((1.0 - 1e-9) / n_value, (1.0 + 1e-9) / n_value):
        cert = certify_contraction(ProblemSpec(GreenParams(alpha, sigma),
                                               "1 + 0.001*u/(1+sqrt(u))^2", lambda_claim=lam,
                                               tau=1.0))
        assert cert.lambda_observed <= 0.001 + 1e-12 < lam
        verdicts.append(cert.passed)
    assert verdicts == [True, False]


def test_certificate_gate_blocks_solve():
    p = spec_for("5*u", lam=500.0)
    with pytest.raises(CertificateError):
        solve(p)
    result = solve(p, uncertified=True)  # fixed point of 5*u from u0=0 is 0
    assert np.all(result.u.values == 0.0)


# --- Picard iteration -------------------------------------------------------


def test_constant_map_converges_in_one_extra_sweep():
    # a g that does not read u makes T constant: one level on the requested
    # grid, whatever its size
    for grid, quad in ((33, 48), (257, 128)):
        p = spec_for("manufactured", enforce_cone=False, grid_points=grid, quad_points=quad)
        result = solve(p)
        assert (result.iterations, result.start_iterations, result.solve_grid) == (2, 0, grid)
        assert result.trace[-1] == 0.0


def test_solve_matches_manufactured_solution():
    result = solve(spec_for("manufactured", enforce_cone=False))
    assert np.max(np.abs(result.u.values - u_star(result.u.nodes))) <= 1e-6


def test_solve_unique_limit_from_multiple_starts():
    p = spec_for("1 + 0.1*u/(1+1.0*sqrt(u))^2")
    r0 = solve(p)
    r1 = solve(p, u0=SolutionGrid.constant(1.0, 33))
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.0, 1.0, 33)
    vals[0] = vals[-1] = 0.0
    rr = solve(p, u0=SolutionGrid(vals))
    assert r0.u.sup_diff(r1.u) <= 10 * p.tol
    assert r0.u.sup_diff(rr.u) <= 10 * p.tol


def test_trace_contraction_recursion():
    tau = 1.0
    p = spec_for("1 + 0.1*u/(1+1.0*sqrt(u))^2", tau=tau)
    result = solve(p)
    tr = result.trace
    for a_n, a_next in zip(tr, tr[1:]):
        assert a_next <= a_n / (1.0 + tau * np.sqrt(a_n)) ** 2 + 1e-9


def test_iterates_stay_in_cone_with_exact_boundary_zeros():
    p = spec_for("1 + 0.1*u/(1+1.0*sqrt(u))^2")
    op_u = SolutionGrid.zeros(33)
    for _ in range(5):
        op_u = apply_green_operator(op_u, p)
        assert np.all(op_u.values >= 0.0)
        assert op_u.values[0] == 0.0 and op_u.values[-1] == 0.0


def _one_sided_slopes(u, h):
    # second-order one-sided estimates of u'(0) and u'(1); a first-order
    # quotient cannot resolve the clamped condition below h itself when
    # the solution vanishes exactly quadratically at an endpoint
    left = (-3.0 * u.interpolate(0.0) + 4.0 * u.interpolate(h) - u.interpolate(2 * h)) / (2 * h)
    right = (3.0 * u.interpolate(1.0) - 4.0 * u.interpolate(1.0 - h) + u.interpolate(1.0 - 2 * h)) / (2 * h)
    return abs(left), abs(right)


def test_boundary_derivative_estimates_vanish():
    h = 1e-3
    result = solve(spec_for("manufactured", enforce_cone=False))
    dl, dr = _one_sided_slopes(result.u, h)
    assert dl <= 1e-4 and dr <= 1e-4
    p4 = ProblemSpec(GreenParams(4.0, 1e-8), "unit", lambda_claim=0.1, tau=1.0)
    r4 = solve(p4)
    dl, dr = _one_sided_slopes(r4.u, h)
    assert dl <= 1e-4 and dr <= 1e-4


def test_monotone_forcing_gives_monotone_solutions():
    p1 = spec_for("1 + 0.1*u/(1+1.0*sqrt(u))^2")
    p2 = spec_for("1.25 + 0.1*u/(1+1.0*sqrt(u))^2")
    u1 = solve(p1).u
    u2 = solve(p2).u
    assert np.all(u1.values <= u2.values + 10 * p1.tol)


def test_non_convergence_carries_trace():
    p = spec_for("1 + 0.1*u/(1+1.0*sqrt(u))^2", max_iters=1)
    with pytest.raises(NonConvergenceError) as exc:
        solve(p)
    assert len(exc.value.trace) == 1
    assert exc.value.trace[0] > 0


# --- nested start on large grids --------------------------------------------


def nested_spec(g, grid=129, **kw):
    return ProblemSpec(P35, g, lambda_claim=40.0, tau=1.0, grid_points=grid, quad_points=96, **kw)


def test_nested_start_reaches_the_zero_start_fixed_point_in_fewer_sweeps():
    p = nested_spec("1 + 40*u/(1+sqrt(u))^2")
    nested = solve(p)
    direct = solve(p, u0=SolutionGrid.zeros(129))
    assert nested.start_iterations > 0 and direct.start_iterations == 0
    assert nested.u.sup_diff(direct.u) <= 1e-8
    assert nested.iterations <= 3 < direct.iterations
    tr = nested.trace
    for a_n, a_next in zip(tr, tr[1:]):
        assert a_next <= a_n / (1.0 + p.tau * np.sqrt(a_n)) ** 2 + 1e-9


def test_nested_start_bit_identical_for_u_independent_forcing():
    # no ladder for a g that does not read u: the solve is the zero-start
    # one on the requested grid
    p = nested_spec("manufactured", enforce_cone=False)
    nested, direct = solve(p), solve(p, u0=SolutionGrid.zeros(129))
    assert (nested.start_iterations, nested.solve_grid) == (0, 129)
    assert np.array_equal(nested.u.values, direct.u.values)
    assert np.array_equal(nested.trace, direct.trace)


def test_small_grid_starts_from_zero():
    p = nested_spec("1 + 40*u/(1+sqrt(u))^2", grid=65)
    result = solve(p)
    assert result.start_iterations == 0
    assert np.array_equal(result.trace, solve(p, u0=SolutionGrid.zeros(65)).trace)


def test_ladder_non_convergence_carries_the_level_deltas():
    # the 33-point level misses tol first, and its deltas end the solve
    p = nested_spec("1 + 40*u/(1+sqrt(u))^2", max_iters=3)
    with pytest.raises(NonConvergenceError) as ladder:
        solve(p)
    with pytest.raises(NonConvergenceError) as level:
        solve(replace(p, grid_points=33, quad_points=48))
    assert len(ladder.value.trace) == 3
    assert np.array_equal(ladder.value.trace, level.value.trace)
    assert ladder.value.grid == level.value.grid == 33
    assert "on the 33-point level" in str(ladder.value)


@pytest.mark.parametrize("g, error", [("sqrt(u-1)", EvalDomainError),
                                      ("0.1*u - 1", ConeViolationError)])
def test_nested_start_errors_left_to_fine_loop(g, error):
    with pytest.raises(error):
        solve(nested_spec(g), uncertified=True)


@pytest.mark.parametrize("c", [0.5, 20.0, 40.0])
def test_nystrom_start_needs_one_fine_sweep(c):
    p = ProblemSpec(P35, f"1 + {c!r}*u/(1+sqrt(u))^2", lambda_claim=c, tau=1.0,
                    grid_points=257, quad_points=128)
    nested = solve(p)
    assert nested.iterations == 1
    assert nested.u.sup_diff(solve(p, u0=SolutionGrid.zeros(257)).u) <= 1e-10


def interpolated_start(p):
    """The start grids of 129 points used before the Nystrom step: the
    33-point solution interpolated onto the fine nodes, negative values
    and both endpoints set to 0."""
    coarse = solve(replace(p, grid_points=33, quad_points=min(48, p.quad_points)),
                   uncertified=True)
    nodes = chebyshev_lobatto_nodes(p.grid_points)
    vals = np.maximum(coarse.u.interpolate(nodes), 0.0)
    vals[0] = vals[-1] = 0.0
    return SolutionGrid(vals)


@pytest.mark.parametrize("alpha", [3.01, 3.5, 4.0])
@pytest.mark.parametrize("sigma", [0.1, 0.9])
def test_nystrom_start_takes_no_more_fine_sweeps_than_interpolated_start(alpha, sigma):
    p = ProblemSpec(GreenParams(alpha, sigma), "1 + 10*u/(1+sqrt(u))^2", lambda_claim=10.0,
                    tau=1.0, grid_points=129, quad_points=96)
    nested = solve(p, uncertified=True)
    assert nested.start_iterations > 0
    assert nested.iterations <= solve(p, u0=interpolated_start(p), uncertified=True).iterations


@pytest.mark.parametrize("error", [ConeViolationError, EvalDomainError])
@pytest.mark.parametrize("key", [(65, 96), (129, 96)], ids=["level", "output"])
def test_ladder_error_propagates(monkeypatch, error, key):
    class Failing:
        def apply(self, values, p):
            raise error("injected")

    p = nested_spec("1 + 40*u/(1+sqrt(u))^2")
    assert solve(p).solve_grid == 65  # the injection below hits the path taken
    monkeypatch.setitem(solver_module._operators(P35, 129, 96), key, Failing())
    with pytest.raises(error, match="injected"):
        solve(p)


@pytest.mark.parametrize("c", [0.5, 20.0, 40.0])
def test_ladder_serves_continuation_grid_from_65_points(c):
    p = ProblemSpec(P35, f"1 + {c!r}*u/(1+sqrt(u))^2", lambda_claim=c, tau=1.0,
                    grid_points=257, quad_points=128)
    result = solve(p)
    assert result.solve_grid == 65 and result.start_iterations > 0
    assert result.trace[0] <= p.tol and len(result.u.values) == 257


@pytest.mark.parametrize("alpha", [3.01, 3.5, 4.0])
def test_ladder_closer_to_tight_solve_than_direct_solve(alpha):
    # g = 1 + c u/(1+sqrt(u))^2 at c N = 0.95, the slowest contraction: the
    # served values are within 2e-8 N of a tol 1e-14 solve, and no farther from
    # it than a zero-start solve to the default tol (measured 8.8e-9 N
    # against 4.5e-8 N at alpha = 4)
    params = GreenParams(alpha, 0.1)
    n_value = green_weight_integral_max(params)[0]
    c = 0.95 / n_value
    p = ProblemSpec(params, f"1 + {c!r}*u/(1+sqrt(u))^2", lambda_claim=c, tau=1.0,
                    grid_points=129, quad_points=96)
    served = solve(p)
    direct = solve(p, u0=SolutionGrid.zeros(129))
    tight = solve(replace(p, tol=1e-14), u0=SolutionGrid.zeros(129))
    assert served.start_iterations > 0
    assert served.u.sup_diff(tight.u) <= min(2e-8 * n_value, direct.u.sup_diff(tight.u))


def test_expression_parsed_once_per_spec(monkeypatch):
    calls = []
    real_parse = exprparse.parse
    monkeypatch.setattr(exprparse, "parse", lambda text: calls.append(text) or real_parse(text))
    p = spec_for("1 + 0.1*u/(1+sqrt(u))^2")
    result = solve(p)
    check_positivity(p, result.u)
    grunwald_letnikov_residual(p, result.u, 1e-3)
    assert len(calls) == 1
    p = replace(p, g="2 + u")  # a changed copy resolves its g afresh
    assert p.g_callable()(0.5, 1.0) == 3.0 and len(calls) == 2


def test_expression_syntax_error_surfaces_at_first_use():
    p = spec_for("1 +")
    with pytest.raises(exprparse.ParseError):
        solve(p)


def test_operator_cache_holds_one_ladder_per_entry():
    entries = solver_module._operators
    entries.cache_clear()
    solve(nested_spec("1 + 40*u/(1+sqrt(u))^2"))
    ladder = entries(P35, 129, 96)
    # the solve made the one entry, and it is keyed by the requested grid
    assert entries.cache_info()[:2] == (1, 1) and entries.cache_info().currsize == 1
    # the 33 -> 65 levels, each entered by the operator at its nodes with
    # the rule of the level below, and the 129-point operator that fills
    # the requested nodes from the 65 served ones
    assert set(ladder) == {(33, 48), (65, 48), (65, 96), (129, 96)}
    # each holds its weights on the shared samples; u reaches them through
    # one map per input size, which every operator shares
    output = ladder[(129, 96)]
    assert output.W.shape == (129, 288) and output.s is shared_samples()
    recip, colsum = solver_module._sample_map(65)
    assert recip.shape == (65, 288) and colsum.shape == (288,)
    solve(spec_for("1", grid_points=17))
    solve(spec_for("1"))
    # two entries at most: the least recently used, the ladder, went first;
    # small grids keep one operator per entry, as before
    assert entries.cache_info()[:2] == (1, 3) and entries.cache_info().currsize == 2
    assert list(entries(P35, 17, 48)) == [(17, 48)]
    assert list(entries(P35, 33, 48)) == [(33, 48)]
    assert entries.cache_info()[:2] == (3, 3)


def _no_map(*args):
    raise AssertionError("barycentric map built")


@pytest.mark.parametrize("grid, quad", [(33, 48), (257, 128)])
@pytest.mark.parametrize("g", ["manufactured", "unit", "1 + t^2"])
def test_u_free_g_builds_no_map(monkeypatch, g, grid, quad):
    monkeypatch.setattr(solver_module, "_bary_reciprocals", _no_map)
    solver_module._sample_map.cache_clear()  # no map built already
    p = ProblemSpec(P35, g, lambda_claim=1.0, tau=1.0, grid_points=grid, quad_points=quad,
                    enforce_cone=g != "manufactured")
    assert not p.g_reads_u()
    result = solve(p)
    applied = apply_green_operator(result.u, p)
    assert np.max(np.abs(applied.values - result.u.values)) <= 1e-8
    assert solver_module._sample_map.cache_info().currsize == 0


@pytest.mark.parametrize("grid, quad", [(33, 48), (257, 128)])
@pytest.mark.parametrize("free, reading", [("1", "1 + 0*u"), ("1 + t^2", "1 + t^2 + 0*u")])
def test_u_free_g_solves_bit_for_bit_as_through_the_map(free, reading, grid, quad):
    solver_module._sample_map.cache_clear()
    a, b = (solve(spec_for(g, lam=1.0, grid_points=grid, quad_points=quad))
            for g in (free, reading))
    assert not spec_for(free).g_reads_u() and spec_for(reading).g_reads_u()
    assert a.u.values.tobytes() == b.u.values.tobytes()
    if grid < 129:
        assert a.trace.tobytes() == b.trace.tobytes()
        assert ((a.iterations, a.start_iterations, a.solve_grid)
                == (b.iterations, b.start_iterations, b.solve_grid))
    else:  # only the reading g climbs the ladder
        assert (a.iterations, a.start_iterations, a.solve_grid) == (2, 0, grid)
        assert b.start_iterations > 0 and a.trace[-1] == 0.0
    # the reading g went through the map of every input size it used: its
    # own, or on the ladder those of the 33 and 65 points
    assert solver_module._sample_map.cache_info().currsize == (1 if grid < 129 else 2)


def test_u_reading_solve_builds_each_map_once(monkeypatch):
    built = []
    real = solver_module._bary_reciprocals
    monkeypatch.setattr(solver_module, "_bary_reciprocals",
                        lambda *a: built.append(a[0]) or real(*a))
    solver_module._operators.cache_clear()
    solver_module._sample_map.cache_clear()
    p = nested_spec("1 + 40*u/(1+sqrt(u))^2")
    first = solve(p)
    # four operators, two input sizes: the 33-point values feed the first
    # level and the step to 65 points, the 65-point ones the rest
    assert len(solver_module._operators(P35, 129, 96)) == 4 and sorted(built) == [33, 65]
    assert solve(p).u.values.tobytes() == first.u.values.tobytes() and len(built) == 2
    # a climb to the requested grid: each level past 65 points enters from
    # the values below and sweeps on its own, and reuses the maps there are
    params = GreenParams(3.05, 0.9)
    c = 0.95 / green_weight_integral_max(params)[0]
    p = ProblemSpec(params, f"1 + {c!r}*u/(1+sqrt(u))^2", lambda_claim=c, tau=1.0,
                    grid_points=257, quad_points=128)
    first = solve(p)
    assert first.solve_grid == 257
    assert sorted(built) == [33, 65, 129, 257]
    assert solve(p).u.values.tobytes() == first.u.values.tobytes() and len(built) == 4


def test_u_free_solve_builds_one_operator_and_no_map():
    # T is constant, so no ladder: the requested grid's operator alone
    solver_module._operators.cache_clear()
    solver_module._sample_map.cache_clear()
    p = ProblemSpec(P35, "manufactured", lambda_claim=1.0, tau=1.0, grid_points=257,
                    quad_points=128, enforce_cone=False)
    assert solve(p).solve_grid == 257
    ladder = solver_module._operators(P35, 257, 128)
    assert set(ladder) == {(257, 128)}
    assert solver_module._sample_map.cache_info().currsize == 0


@pytest.mark.parametrize("g, reads", [
    ("manufactured", False), ("unit", False), ("1", False), ("t^2 + exp(-t)", False),
    ("1 + 0*u", True), ("sqrt(u)", True), (exprparse.parse("pow(t, u)"), True),
    (lambda t, u: np.ones_like(t), True),  # a callable is taken to read u
])
def test_g_reads_u_is_derived_from_g(g, reads):
    p = spec_for(g)
    assert p.g_reads_u() is reads
    assert replace(p, g="u").g_reads_u()


@pytest.mark.parametrize("g, reads", [
    ("manufactured", True), ("unit", True), ("1", False), ("sqrt(u) + 0*u", False),
    ("t^2 + exp(-t)", True), ("pow(t, u)", True),
    (lambda t, u: np.ones_like(t), True),  # a callable is taken to read t
])
def test_g_reads_t_is_derived_from_g(g, reads):
    p = spec_for(g)
    assert p.g_reads_t() is reads
    assert replace(p, g="t").g_reads_t()


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        spec_for("1", lam=0.0)
    with pytest.raises(ValueError):
        spec_for("1", tau=-1.0)
    with pytest.raises(ValueError):
        spec_for("1", tol=0.0)
    with pytest.raises(ValueError):
        spec_for("1", quad_points=0)
    with pytest.raises(ValueError):
        spec_for("1", grid_points=2)
    for bad in (float("inf"), float("nan"), 0.0):
        with pytest.raises(ValueError, match="u_max"):
            spec_for("1", u_max=bad)
        with pytest.raises(ValueError, match="tol"):
            spec_for("1", tol=bad)
        with pytest.raises(ValueError, match="tau"):
            spec_for("1", tau=bad)
        with pytest.raises(ValueError, match="lambda_claim"):
            spec_for("1", lam=bad)
    with pytest.raises(TypeError):
        spec_for(12345)


@pytest.mark.parametrize("key", [f.name for f in fields(ProblemSpec)])
def test_problem_spec_is_frozen(key):
    # a field assigned after the checks would skip them
    p = spec_for("1 + 0.1*u")
    with pytest.raises(FrozenInstanceError):
        setattr(p, key, getattr(p, key))
    assert p == spec_for("1 + 0.1*u") and not hasattr(p, "_g_resolved")


@pytest.mark.parametrize("key, value", [
    ("grid_points", 1025), ("grid_points", 2), ("u_max", math.nan),
])
def test_problem_spec_replace_checks_again(key, value):
    with pytest.raises(ValueError, match=f"^{key} must"):
        replace(spec_for("1 + 0.1*u"), **{key: value})


@pytest.mark.parametrize("key", ["lambda_claim", "tau", "tol", "u_max"])
def test_problem_spec_refuses_bool_numbers(key):
    # True would pass as 1.0: the CLI refuses a JSON bool there too
    with pytest.raises(ValueError, match=f"^{key} must be a number, got True$"):
        replace(spec_for("1"), **{key: True})


@pytest.mark.parametrize("key, value, message", [
    ("tau", "1", "tau must be a number, got '1'"),
    ("tol", None, "tol must be a number, got None"),
    ("u_max", np.array([1.0, 2.0]), "u_max must be a number, got array([1., 2.])"),
    ("tau", np.array(1.0), "tau must be a number, got array(1.)"),  # 0-d arrays too
    ("lambda_claim", 10**400, "lambda_claim is out of range"),
    ("grid_points", np.array(33), "grid_points must be an integer, got array(33)"),
    ("max_iters", "200", "max_iters must be an integer, got '200'"),
])
def test_problem_spec_names_the_field_of_a_value_that_is_no_number(key, value, message):
    with pytest.raises(ValueError) as exc:
        replace(spec_for("1"), **{key: value})
    assert str(exc.value) == message


def test_problem_spec_keeps_sizes_as_ints_and_numbers_as_floats():
    p = spec_for("1", lam=Fraction(1, 10), tau=np.float32(2.0), tol=np.int64(1), u_max=10,
                 grid_points=np.int64(17), quad_points=np.uint8(8), max_iters=200)
    kept = {name: getattr(p, name) for name in ("lambda_claim", "tau", "tol", "u_max")}
    assert kept == {"lambda_claim": 0.1, "tau": 2.0, "tol": 1.0, "u_max": 10.0}
    assert {type(v) for v in kept.values()} == {float}
    assert (p.grid_points, p.quad_points, p.max_iters) == (17, 8, 200)
    assert {type(v) for v in (p.grid_points, p.quad_points, p.max_iters)} == {int}


@pytest.mark.parametrize("h", ["0.001", None, [1e-3], np.array(1e-3), True])
def test_residual_step_must_be_a_number(h):
    with pytest.raises(ValueError, match=f"^h must be a number, got {re.escape(repr(h))}$"):
        check_residual_step(h)
    with pytest.raises(ValueError, match="^h must be a number, got "):
        grunwald_letnikov_residual(spec_for("1"), SolutionGrid.zeros(33), h)


def test_residual_step_is_kept_as_a_float():
    p = spec_for("1 + 0.1*u")
    u = solve(p, uncertified=True).u
    assert check_residual_step(Fraction(1, 1000)) == 1e-3
    assert type(check_residual_step(np.float32(2 ** -10))) is float
    want = grunwald_letnikov_residual(p, u, 1e-3)
    got = grunwald_letnikov_residual(p, u, Fraction(1, 1000))
    assert np.array_equal(got.residuals, want.residuals)


@pytest.mark.parametrize("value", ["no", 0, 1, None, np.array([True])])
def test_problem_spec_refuses_non_bool_enforce_cone(value):
    # "no" is truthy: taken as a truth value it would enforce the cone
    with pytest.raises(ValueError, match="^enforce_cone must be a bool, got "):
        spec_for("manufactured", enforce_cone=value)


def test_problem_spec_accepts_numpy_bool_enforce_cone():
    p = spec_for("manufactured", lam=1.0, enforce_cone=np.bool_(False))
    assert solve(p).u.values.shape == (33,)
    with pytest.raises(ConeViolationError):
        solve(replace(p, enforce_cone=np.bool_(True)))


@pytest.mark.parametrize("key, value", [
    ("grid_points", 33.5), ("grid_points", 33.0), ("max_iters", 2.5), ("quad_points", 48.0),
    ("grid_points", True), ("quad_points", True), ("max_iters", True),
])
def test_problem_spec_sizes_must_be_integers(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        spec_for("1", **{key: value})


def test_problem_spec_accepts_numpy_integer_sizes():
    p = spec_for("1", grid_points=np.int64(17), quad_points=np.int32(8), max_iters=np.uint8(9))
    assert solve(p).u.values.shape == (17,)


def test_catalog_forcings():
    g = catalog_g("manufactured", P35)
    s = np.array([0.25, 0.75])
    expected = s**0.5 * (-2 * gamma(4.5) + gamma(5.5) * s)
    assert np.allclose(g(s, None), expected, rtol=1e-14)
    g_unit = catalog_g("unit", P35)
    assert np.allclose(g_unit(s, None), s**0.5, rtol=1e-14)
    with pytest.raises(ValueError):
        catalog_g("nope", P35)


# --- positivity -------------------------------------------------------------


def test_positivity_zero_forcing_not_verified():
    p = spec_for("0")
    u = solve(p, uncertified=True).u
    rep = check_positivity(p, u)
    assert rep.verdict == "not-verified"
    assert not rep.forcing_positive_at_origin


@pytest.mark.parametrize("u_max", [1e-3, 10.0, 1e308])
def test_positivity_samples_u_within_u_max(u_max):
    seen = []

    def g(t, u):
        seen.append(np.asarray(u))
        return np.ones(np.broadcast(t, u).shape)

    p = spec_for(g, u_max=u_max)
    check_positivity(p, SolutionGrid.zeros(17))
    assert min(u.min() for u in seen) >= 0.0 and max(u.max() for u in seen) <= u_max


def _fresh_positivity(p, u, seed=0):
    """check_positivity as written before its samples were cached: fresh
    draws, g on the full (256, len(u.nodes)) grid."""
    g = p.g_callable()
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, p.u_max, size=(256, 1))
    ys = rng.uniform(xs, p.u_max)
    t_row = u.nodes[None, :]
    monotone = bool(np.all(np.asarray(g(t_row, xs)) <= np.asarray(g(t_row, ys)) + 1e-12))
    t_near0 = np.geomspace(1e-8, 1e-2, 25)
    forcing_ok = bool(np.min(np.asarray(g(t_near0, np.zeros_like(t_near0)))) >= 1e-8)
    min_interior = float(np.min(u.values[1:-1]))
    verdict = ("verified positive" if (monotone and forcing_ok and min_interior > 0.0)
               else "not-verified")
    return PositivityReport(monotone, forcing_ok, min_interior, verdict)


def _both(t, u):
    return 1.0 + 0.1 * np.asarray(t) * np.log1p(u)


# (g, variables it reads): each axis case, monotone or not
_AXIS_CASES = [
    ("manufactured", "t"), ("1+t^2", "t"), ("1 + 0.1*ln(1+u)", "u"),
    ("1 + 0.001*sqrt(10.5-u)", "u"), ("1 + 0.1*t*ln(1+u)", "tu"), ("1", ""),
    ("1 - 0.1*t*ln(1+u)", "tu"), (_both, "tu"),
]


@pytest.mark.parametrize("g, reads", _AXIS_CASES)
@pytest.mark.parametrize("grid, seed", [(33, 0), (65, 7), (257, 0)])
def test_positivity_matches_the_full_grid_on_fresh_draws(g, reads, grid, seed):
    p = spec_for(g, enforce_cone=False)
    assert (p.g_reads_t(), p.g_reads_u()) == ("t" in reads, "u" in reads)
    u = SolutionGrid.from_function(u_star, grid)
    assert check_positivity(p, u, seed) == _fresh_positivity(p, u, seed)


@pytest.mark.parametrize("g, reads", [(g, r) for g, r in _AXIS_CASES
                                      if isinstance(g, str) and g not in G_CATALOG_IDS])
def test_positivity_grid_spans_the_variables_g_reads(monkeypatch, g, reads):
    shapes = []
    real = exprparse.evaluate
    monkeypatch.setattr(exprparse, "evaluate", lambda expr, t, u: shapes.append(
        np.broadcast_shapes(np.shape(t), np.shape(u))) or real(expr, t, u))
    check_positivity(spec_for(g), SolutionGrid.zeros(17))
    want = (256 if "u" in reads else 1, 17 if "t" in reads else 1)
    assert shapes == [want, want, (25,)]


@pytest.mark.parametrize("g, message", [
    ("1 + ln(1-t)", "ln of non-positive argument: ln(0)"),
    ("sqrt(9.5-u)", "sqrt of negative argument: sqrt(-0.47209935789211066)"),
])
def test_positivity_domain_error_names_the_full_grid_sample(g, message):
    p = spec_for(g)
    u = SolutionGrid.from_function(u_star, 33)
    with pytest.raises(EvalDomainError) as fresh:
        _fresh_positivity(p, u)
    with pytest.raises(EvalDomainError) as cached:
        check_positivity(p, u)
    assert str(cached.value) == str(fresh.value) == message


def _fresh_certificate_samples(grid_points, u_max, seed):
    """certify_contraction's (t, x, y) draws as written before they were
    cached."""
    rng = np.random.default_rng(seed)
    t = rng.choice(chebyshev_lobatto_nodes(grid_points), size=2000)
    x = rng.uniform(0.0, u_max, size=2000)
    y = rng.uniform(0.0, u_max, size=2000)
    y = x + (y - x) * rng.uniform(0.0, 1.0, size=2000) ** 4
    ok = np.abs(x - y) >= 1e-8
    return t[ok], x[ok], y[ok]


@pytest.mark.parametrize("grid", [33, 65, 257])
@pytest.mark.parametrize("seed", [0, 7])
def test_cached_samples_are_the_fresh_draws_and_read_only(grid, seed):
    cert = solver_module._certificate_samples(grid, 10.0, seed)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 10.0, size=(256, 1))
    pos = solver_module._positivity_samples(10.0, seed)
    fresh = (*_fresh_certificate_samples(grid, 10.0, seed), xs, rng.uniform(xs, 10.0))
    for got, want in zip((*cert, *pos), fresh):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 0.0
    assert not solver_module._ORIGIN_T.flags.writeable


def test_cached_samples_are_kept_per_key():
    cert, pos = solver_module._certificate_samples, solver_module._positivity_samples
    assert cert(33, 10.0, 0) is cert(33, 10.0, 0)
    assert pos(10.0, 0) is pos(10.0, 0)
    def data(samples):
        return b"".join(arr.tobytes() for arr in samples)

    for other in (cert(33, 5.0, 0), cert(33, 10.0, 7), cert(65, 10.0, 0)):
        assert other is not cert(33, 10.0, 0) and data(other) != data(cert(33, 10.0, 0))
    for other in (pos(5.0, 0), pos(10.0, 7)):
        assert other is not pos(10.0, 0) and data(other) != data(pos(10.0, 0))


def test_g_that_writes_into_its_samples_is_refused():
    def g(t, u):
        u += 1.0
        return np.ones(np.broadcast_shapes(np.shape(t), np.shape(u)))

    with pytest.raises(ValueError, match="read-only"):
        certify_contraction(spec_for(g))
    with pytest.raises(ValueError, match="read-only"):
        check_positivity(spec_for(g), SolutionGrid.zeros(17))


@pytest.mark.parametrize("g", ["manufactured", "1", "1 + 0.1*ln(1+u)", "1e307*u", _both])
def test_certificate_matches_fresh_draws(g):
    p = spec_for(g, enforce_cone=False)
    t, x, y = _fresh_certificate_samples(p.grid_points, p.u_max, 0)
    gf = p.g_callable()
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.abs(np.asarray(gf(t, x)) - np.asarray(gf(t, y)))
        dxy = np.abs(x - y)
        ratio = np.where(diff == 0.0, 0.0, diff * (1.0 + p.tau * np.sqrt(dxy)) ** 2 / dxy)
    cert = certify_contraction(p)
    assert cert.samples == t.size
    assert cert.lambda_observed == min(float(ratio.max()), np.finfo(float).max)


def test_positivity_manufactured_interior_minimum():
    p = spec_for("manufactured", enforce_cone=False)
    u = solve(p).u
    rep = check_positivity(p, u)
    assert rep.min_interior > 0.0
    # the manufactured forcing is negative near the origin, so the
    # sufficient conditions do not certify positivity
    assert rep.verdict == "not-verified"


def test_positivity_verified_for_monotone_positive_forcing():
    p = spec_for("1 + 0.1*ln(1+u)", lam=0.5)
    u = solve(p).u
    rep = check_positivity(p, u)
    assert rep.verdict == "verified positive"
    assert rep.monotone_in_u and rep.forcing_positive_at_origin
    assert rep.min_interior > 0.0


# --- residual oracle --------------------------------------------------------


def test_residual_zero_solution_zero_forcing():
    p = spec_for("0")
    u = SolutionGrid.zeros(33)
    prof = grunwald_letnikov_residual(p, u, 1e-3)
    assert prof.max() == 0.0


def test_residual_integer_order_quartic():
    p = ProblemSpec(GreenParams(4.0, 1e-8), "unit", lambda_claim=0.1, tau=1.0)
    u = SolutionGrid.from_function(lambda t: t**2 * (1 - t) ** 2 / 24.0, 33)
    prof = grunwald_letnikov_residual(p, u, 1e-3)
    assert prof.max() <= 1e-3


def test_residual_manufactured_first_order():
    p = spec_for("manufactured", enforce_cone=False)
    u = SolutionGrid.from_function(u_star, 257)
    prof1 = grunwald_letnikov_residual(p, u, 1e-3)
    prof2 = grunwald_letnikov_residual(p, u, 5e-4)
    assert prof1.max() <= 5e-2
    assert 0.4 * prof1.max() <= prof2.max() <= 0.6 * prof1.max()


# the oracle's checkpoints, spelled out independently of the solver's constant
CHECKPOINTS = np.linspace(0.2, 0.8, 13)

# at 1e-3 and 5e-4 every checkpoint is a multiple of h; 3e-3 and 7e-4
# are off-lattice steps (0.05/h is no integer), where the oracle moves
# each checkpoint to the nearest multiple of h
RESIDUAL_STEPS = [1e-3, 5e-4, 3e-3, 7e-4]


def _residual_loop(p, u, h):
    """Per-checkpoint reference for the residual oracle: coefficients by
    the recurrence, an exactly rounded GL sum, scalar g.  u is read where
    the oracle reads it, at the lattice h * k, so the two differ only by
    the sums' rounding.  Also returns each sum's roundoff floor
    eps * sum|c_j| * h^(-alpha) * max|u|."""
    a, sg = p.params.alpha, p.params.sigma
    shift = int(round(a / 2.0))
    g = p.g_callable()
    at_all = np.rint(CHECKPOINTS / h).astype(int)
    lattice = u.interpolate(h * np.arange(at_all[-1] + 1 + shift))
    res, floor = [], []
    for at in at_all:
        t = h * at
        terms = at + 1 + shift
        c = np.empty(terms)
        c[0] = 1.0
        for k in range(1, terms):
            c[k] = c[k - 1] * (k - 1.0 - a) / k
        uvals = lattice[at + shift - np.arange(terms)]
        gl = h ** (-a) * math.fsum(c * uvals)
        rhs = t ** (-sg) * float(np.asarray(g(t, lattice[at])))
        res.append(abs(gl - rhs))
        floor.append(np.finfo(float).eps * np.abs(c).sum() * h ** (-a) * np.max(np.abs(u.values)))
    return np.array(res), np.array(floor)


@pytest.mark.parametrize("h", RESIDUAL_STEPS)
@pytest.mark.parametrize("g", ["manufactured", "1 + 0.1*ln(1+u)"])
def test_residual_matches_per_checkpoint_loop(g, h):
    for alpha, sigma in ((3.05, 0.05), (3.5, 0.5), (4.0, 0.95)):
        p = ProblemSpec(GreenParams(alpha, sigma), g, lambda_claim=0.1, tau=1.0,
                        enforce_cone=g != "manufactured")
        u = solve(p, uncertified=True).u
        prof = grunwald_letnikov_residual(p, u, h)
        ref, floor = _residual_loop(p, u, h)
        assert np.array_equal(prof.checkpoints, h * np.rint(CHECKPOINTS / h))
        assert np.all(np.abs(prof.residuals - ref) <= floor)
        np.testing.assert_allclose(prof.floor, floor, rtol=1e-12)


def test_residual_step_bounds():
    p = spec_for("0")
    u = SolutionGrid.zeros(33)
    with pytest.raises(ValueError):
        grunwald_letnikov_residual(p, u, 1e-5)
    with pytest.raises(ValueError):
        grunwald_letnikov_residual(p, u, 0.5)


# --- residual stencil plan --------------------------------------------------


def _residual_uncached(p, u, h):
    """The oracle without a plan: u.interpolate over the lattice h * k,
    then the same sums in the same order."""
    a, sg = p.params.alpha, p.params.sigma
    at = np.rint(CHECKPOINTS / h).astype(int)
    shift = int(round(a / 2.0))
    terms = at + 1 + shift
    ends = np.cumsum(terms)
    j = np.arange(ends[-1]) - np.repeat(ends - terms, terms)
    lattice = u.interpolate(h * np.arange(terms[-1]))
    c = solver_module._gl_coeffs(a, int(terms[-1]))
    running = np.cumsum(c[j] * lattice[np.repeat(at + shift, terms) - j])
    gl = h ** (-a) * np.diff(running[ends - 1], prepend=0.0)
    g = np.asarray(p.g_callable()(h * at, lattice[at]), dtype=float)
    return np.abs(gl - (h * at) ** (-sg) * g)


RESIDUAL_SPEC = spec_for("1 + 0.1*ln(1+u)")


@pytest.mark.parametrize("h", RESIDUAL_STEPS)
@pytest.mark.parametrize("m", [33, 65, 257])
def test_residual_plan_matches_uncached_bit_for_bit(m, h):
    u = SolutionGrid.from_function(u_star, m)
    prof = grunwald_letnikov_residual(RESIDUAL_SPEC, u, h)
    assert np.array_equal(prof.residuals, _residual_uncached(RESIDUAL_SPEC, u, h))


def test_residual_plan_reused_for_new_values_not_for_new_nodes():
    plan = solver_module._residual_plan
    plan.cache_clear()
    h = 1e-3
    u1 = SolutionGrid.from_function(u_star, 65)
    grunwald_letnikov_residual(RESIDUAL_SPEC, u1, h)
    u2 = SolutionGrid(np.sin(np.pi * u1.nodes) ** 2)
    prof = grunwald_letnikov_residual(RESIDUAL_SPEC, u2, h)
    assert (plan.cache_info().hits, plan.cache_info().misses) == (1, 1)
    assert np.array_equal(prof.residuals, _residual_uncached(RESIDUAL_SPEC, u2, h))
    # another size: a plan of its own
    u3 = SolutionGrid.from_function(u_star, 33)
    prof = grunwald_letnikov_residual(RESIDUAL_SPEC, u3, h)
    assert (plan.cache_info().hits, plan.cache_info().misses) == (1, 2)
    assert np.array_equal(prof.residuals, _residual_uncached(RESIDUAL_SPEC, u3, h))
    # another step on the same size: a plan of its own
    prof = grunwald_letnikov_residual(RESIDUAL_SPEC, u3, 7e-4)
    assert (plan.cache_info().hits, plan.cache_info().misses) == (1, 3)
    assert plan(33, 7e-4) is not plan(33, h)
    assert np.array_equal(prof.residuals, _residual_uncached(RESIDUAL_SPEC, u3, 7e-4))


@pytest.mark.parametrize("m, h", [(257, 1e-4), (1024, 1e-3)])
def test_residual_plan_holds_the_lattice(m, h):
    u = SolutionGrid.from_function(u_star, m)
    prof = grunwald_letnikov_residual(RESIDUAL_SPEC, u, h)
    recip, colsum = solver_module._residual_plan(m, h).recip
    assert recip.shape == (m, round(0.8 / h) + 3) and colsum.shape == (round(0.8 / h) + 3,)
    assert np.array_equal(prof.residuals, _residual_uncached(RESIDUAL_SPEC, u, h))


@pytest.mark.parametrize("h", [3e-3, 7e-4])
def test_off_lattice_checkpoints_are_the_nearest_multiples_of_h(h):
    prof = grunwald_letnikov_residual(RESIDUAL_SPEC, SolutionGrid.from_function(u_star, 33), h)
    at = np.rint(prof.checkpoints / h)
    assert np.array_equal(prof.checkpoints, h * at)
    assert np.all(np.abs(prof.checkpoints - CHECKPOINTS) <= h / 2)
    assert not np.array_equal(prof.checkpoints, CHECKPOINTS)


def test_residual_plan_cache_holds_two_grids():
    plan = solver_module._residual_plan
    plan.cache_clear()
    assert plan.cache_info().maxsize == 2
    grids = {m: SolutionGrid.from_function(u_star, m) for m in (33, 65)}
    for m in (33, 65, 33):
        grunwald_letnikov_residual(RESIDUAL_SPEC, grids[m], 1e-3)
    assert (plan.cache_info().hits, plan.cache_info().misses) == (1, 2)

# --- exact nonlinear problem -----------------------------------------------

# 1,401 points: 1,201 uniform ones and 100 geometric ones within 1e-2 of
# either end, down to 1e-6
_ENDS = np.geomspace(1e-6, 1e-2, 100)
OFF_NODE = np.concatenate([np.linspace(0.0, 1.0, 1201), _ENDS, 1.0 - _ENDS])


@pytest.mark.parametrize("alpha", [3.01, 3.5, 4.0])
@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
def test_exact_nonlinear_problem_on_33_points(alpha, sigma):
    params = GreenParams(alpha, sigma)
    p, n_value = exact_spec(params, tol=1e-14)
    u = solve(p).u
    # measured max 3.7e-10 N, at (3.01, 0.9)
    assert np.max(np.abs(u.values - green_weight_integral(params, u.nodes))) <= 1e-9 * n_value
    # between nodes the t^(alpha-2) profile at 0 slows barycentric
    # interpolation in t: a measured bound (max 6.6e-5 N) until the
    # graded collocation grid closes the gap
    off = np.abs(u.interpolate(OFF_NODE) - green_weight_integral(params, OFF_NODE))
    assert np.max(off) <= 1e-4 * n_value


@pytest.mark.parametrize("alpha", [3.01, 3.5, 4.0])
@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
def test_exact_nonlinear_problem_on_65_points(alpha, sigma):
    # measured max 6.8e-12 N at the nodes, at (3.01, 0.9); between them
    # the t-grid's interpolant, 9.4e-6 N at most
    params = GreenParams(alpha, sigma)
    p, n_value = exact_spec(params, grid_points=65, quad_points=64, tol=1e-14)
    u = solve(p).u
    assert np.max(np.abs(u.values - green_weight_integral(params, u.nodes))) <= 1e-10 * n_value
    off = np.abs(u.interpolate(OFF_NODE) - green_weight_integral(params, OFF_NODE))
    assert np.max(off) <= 2e-5 * n_value


@pytest.mark.parametrize("alpha, sigma, served", [(3.01, 0.9, 65), (3.5, 0.5, 65)])
def test_exact_nonlinear_problem_on_the_ladder(alpha, sigma, served):
    # measured 8.6e-12 N and 3.0e-11 N
    params = GreenParams(alpha, sigma)
    p, n_value = exact_spec(params, grid_points=257, quad_points=128)
    result = solve(p)
    assert result.solve_grid == served
    err = np.max(np.abs(result.u.values - green_weight_integral(params, result.u.nodes)))
    assert err <= 1e-10 * n_value


@pytest.mark.parametrize("grid", [33, 65, 257])
def test_product_rule_accuracy_on_the_verify_pairs(grid):
    # the CLI's default rule: g = 1 against L (measured 5.4e-14 N at most)
    # and the manufactured forcing against its solution (4.7e-13)
    for alpha, sigma in VERIFY_PAIRS:
        params = GreenParams(alpha, sigma)
        unit = solve(ProblemSpec(params, "1", lambda_claim=1.0, tau=1.0, grid_points=grid)).u
        closed = green_weight_integral(params, unit.nodes)
        assert np.max(np.abs(unit.values - closed)) <= 1e-12 * np.max(closed)
        man = solve(ProblemSpec(params, "manufactured", lambda_claim=1.0, tau=1.0,
                                grid_points=grid, enforce_cone=False)).u
        exact = man.nodes ** (alpha - 1.0) * (1.0 - man.nodes) ** 2
        assert np.max(np.abs(man.values - exact)) <= 1e-11 * np.max(exact)


@pytest.mark.parametrize("u0", [False, True], ids=["ladder", "u0"])
def test_largest_grid_solve_memory(u0):
    # a u-reading solve at (MAX_GRID, MAX_POINTS) holds W (1024 x 288) and
    # one (1024, 288) map; the 65 -> 1024 fill once read a 272 MB map, and
    # a u0 start its own-size one, 4.3 GB (measured peak 9.8 and 8.0 MB)
    solver_module._operators.cache_clear()
    solver_module._sample_map.cache_clear()
    p = ProblemSpec(P35, "1 + 0.1*ln(1+u)", lambda_claim=0.5, tau=1.0,
                    grid_points=solver_module.MAX_GRID, quad_points=256)
    tracemalloc.start()
    try:
        result = solve(p, u0=SolutionGrid.zeros(p.grid_points) if u0 else None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    solver_module._operators.cache_clear()
    assert result.solve_grid == (p.grid_points if u0 else 65)
    assert peak <= 16e6


# --- integrate_green agreement (vectorized path vs scalar path) -------------


def test_operator_matches_scalar_integration():
    from fraksolve.quadrature import integrate_green

    p = spec_for("1 + 0.05*u", grid_points=17, quad_points=32)
    u = SolutionGrid.from_function(lambda t: t * (1 - t), 17)
    out = apply_green_operator(u, p)
    g = p.g_callable()
    for i, t in enumerate(u.nodes):
        f_reg = lambda s: g(s, np.maximum(u.interpolate(s), 0.0))
        direct = integrate_green(p.params, float(t), f_reg, 32)
        assert out.values[i] == pytest.approx(direct, abs=1e-12)
