import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraksolve import exprparse
from fraksolve.exprparse import EvalDomainError
from fraksolve.kernel import GreenParams, green_weight_integral, green_weight_integral_max
from fraksolve import solver as solver_module
from fraksolve.quadrature import panel_sums, split_panels
from fraksolve.solver import (
    CertificateError,
    ConeViolationError,
    DiscreteGreenOperator,
    NonConvergenceError,
    ProblemSpec,
    SolutionGrid,
    _bary_matrix,
    _bary_weights,
    apply_green_operator,
    catalog_g,
    certify_contraction,
    chebyshev_lobatto_nodes,
    check_positivity,
    grunwald_letnikov_residual,
    solve,
)
from fraksolve.specfun import gamma

P35 = GreenParams(3.5, 0.5)


def spec_for(g, lam=0.1, tau=1.0, **kw):
    return ProblemSpec(P35, g, lambda_claim=lam, tau=tau, **kw)


def u_star(t):
    return t**2.5 * (1 - t) ** 2


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


def test_bary_matrix_unit_rows_at_and_next_to_nodes():
    nodes = chebyshev_lobatto_nodes(33)
    x = np.concatenate(
        [nodes, [0.0, 1.0], nodes * (1.0 + 2.0**-52), nodes * (1.0 - 2.0**-52)]
    )
    mat = _bary_matrix(nodes, _bary_weights(33), x)
    unit = np.zeros_like(mat)
    unit[np.arange(x.size), np.abs(x[:, None] - nodes).argmin(axis=1)] = 1.0
    assert np.array_equal(mat[:35], unit[:35])  # exact hits, 0 and 1
    np.testing.assert_allclose(mat, unit, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(mat.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


def test_interpolate_in_blocks_matches_one_matrix(monkeypatch):
    grid = SolutionGrid.from_function(lambda t: np.sin(3.0 * t), 17)
    x = np.linspace(0.0, 1.0, 1001).reshape(7, 143)
    whole = _bary_matrix(grid.nodes, _bary_weights(17), x.ravel()) @ grid.values
    monkeypatch.setattr(solver_module, "_INTERP_BLOCK", 17 * 50)
    np.testing.assert_allclose(grid.interpolate(x), whole.reshape(x.shape), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("grid, quad", [(33, 48), (65, 64)])
def test_bary_matrix_rows_sum_to_one_on_operator_samples(grid, quad):
    nodes = chebyshev_lobatto_nodes(grid)
    s, _ = split_panels(GreenParams(3.05, 0.95), nodes, quad)
    assert s.shape == (grid, 2 * quad)
    mat = _bary_matrix(nodes, _bary_weights(grid), s.ravel())
    np.testing.assert_allclose(mat.sum(axis=1), 1.0, rtol=0.0, atol=1e-13)


def test_solution_grid_validation():
    with pytest.raises(ValueError):
        SolutionGrid(np.zeros(3), np.zeros(4))


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
def test_apply_is_the_split_rule_for_u_independent_forcing(grid, quad):
    # one rule, one reduction: the sweep and panel_sums agree bit for bit
    op = DiscreteGreenOperator(P35, grid, quad)
    fcos = lambda s: np.cos(3.0 * np.asarray(s))
    out = op.apply(np.linspace(0.0, 1.0, grid), lambda s, u: fcos(s), False)
    assert np.array_equal(out, panel_sums(split_panels(P35, op.nodes, quad), fcos))


def test_apply_keeps_output_nodes_near_the_ends():
    t = np.array([1e-3, 0.5, 0.999])
    op = DiscreteGreenOperator(P35, 33, 128, out_nodes=t)
    out = op.apply(np.zeros(33), lambda s, u: np.ones_like(s), True)
    np.testing.assert_allclose(out, green_weight_integral(P35, t), rtol=1e-8, atol=0.0)


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


def test_certificate_gate_blocks_solve():
    p = spec_for("5*u", lam=500.0)
    with pytest.raises(CertificateError):
        solve(p)
    result = solve(p, uncertified=True)  # fixed point of 5*u from u0=0 is 0
    assert np.all(result.u.values == 0.0)


# --- Picard iteration -------------------------------------------------------


def test_constant_map_converges_in_one_extra_sweep():
    p = spec_for("manufactured", enforce_cone=False)
    result = solve(p)
    assert result.iterations == 2
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
    rr = solve(p, u0=SolutionGrid(chebyshev_lobatto_nodes(33), vals))
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
    p = nested_spec("manufactured", enforce_cone=False)
    nested = solve(p)
    assert nested.start_iterations > 0
    assert np.array_equal(nested.u.values, solve(p, u0=SolutionGrid.zeros(129)).u.values)


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
    return SolutionGrid(nodes, vals)


@pytest.mark.parametrize("alpha", [3.01, 3.5, 4.0])
@pytest.mark.parametrize("sigma", [0.1, 0.9])
def test_nystrom_start_takes_no_more_fine_sweeps_than_interpolated_start(alpha, sigma):
    p = ProblemSpec(GreenParams(alpha, sigma), "1 + 10*u/(1+sqrt(u))^2", lambda_claim=10.0,
                    tau=1.0, grid_points=129, quad_points=96)
    nested = solve(p, uncertified=True)
    assert nested.start_iterations > 0
    assert nested.iterations <= solve(p, u0=interpolated_start(p), uncertified=True).iterations


@pytest.mark.parametrize("error", [ConeViolationError, EvalDomainError])
@pytest.mark.parametrize("key", [(65, 96, None), (65, 96, 129)], ids=["level", "output"])
def test_ladder_error_propagates(monkeypatch, error, key):
    class Failing:
        def apply(self, values, g, enforce_cone):
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
    p.g = "2 + u"  # a replaced g is resolved afresh
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
    # 33 -> 65 levels and the Nystrom map from 65 points to the 129 nodes
    assert set(ladder) == {(33, 48, None), (33, 48, 65), (65, 96, None), (65, 96, 129)}
    output = ladder[(65, 96, 129)]
    assert output._interp.shape == (129 * 192, 65) and output.s.shape == (129, 192)
    solve(spec_for("1", grid_points=17))
    solve(spec_for("1"))
    # two entries at most: the least recently used, the ladder, went first;
    # small grids keep one operator per entry, as before
    assert entries.cache_info()[:2] == (1, 3) and entries.cache_info().currsize == 2
    assert list(entries(P35, 17, 48)) == [(17, 48, None)]
    assert list(entries(P35, 33, 48)) == [(33, 48, None)]
    assert entries.cache_info()[:2] == (3, 3)


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


def _residual_loop(p, u, h, checkpoints):
    """Per-checkpoint reference for the residual oracle: coefficients by
    the recurrence, an exactly rounded GL sum, scalar g.  Also returns
    each sum's roundoff floor eps * sum|c_j| * h^(-alpha) * max|u|."""
    a, sg = p.params.alpha, p.params.sigma
    shift = int(round(a / 2.0))
    g = p.g_callable()
    res, floor = [], []
    for t in checkpoints:
        terms = int(np.floor(t / h + 1e-9)) + 1 + shift
        c = np.empty(terms)
        c[0] = 1.0
        for k in range(1, terms):
            c[k] = c[k - 1] * (k - 1.0 - a) / k
        uvals = u.interpolate(np.clip(t - h * (np.arange(terms) - shift), 0.0, 1.0))
        gl = h ** (-a) * math.fsum(c * uvals)
        rhs = t ** (-sg) * float(np.asarray(g(t, u.interpolate(t))))
        res.append(abs(gl - rhs))
        floor.append(np.finfo(float).eps * np.abs(c).sum() * h ** (-a) * np.max(np.abs(u.values)))
    return np.array(res), np.array(floor)


@pytest.mark.parametrize("h", [1e-3, 5e-4])
@pytest.mark.parametrize("g", ["manufactured", "1 + 0.1*ln(1+u)"])
def test_residual_matches_per_checkpoint_loop(g, h):
    off_lattice = np.array([0.2 + 1e-7, 0.3141592653589793, 0.5 + h / 3.0, 0.8 - 0.71 * h])
    for alpha, sigma in ((3.05, 0.05), (3.5, 0.5), (4.0, 0.95)):
        p = ProblemSpec(GreenParams(alpha, sigma), g, lambda_claim=0.1, tau=1.0,
                        enforce_cone=g != "manufactured")
        u = solve(p, uncertified=True).u
        for checkpoints in (np.linspace(0.2, 0.8, 13), off_lattice):
            prof = grunwald_letnikov_residual(p, u, h, checkpoints=checkpoints)
            ref, floor = _residual_loop(p, u, h, checkpoints)
            assert np.all(np.abs(prof.residuals - ref) <= floor)


def test_residual_step_bounds():
    p = spec_for("0")
    u = SolutionGrid.zeros(33)
    with pytest.raises(ValueError):
        grunwald_letnikov_residual(p, u, 1e-5)
    with pytest.raises(ValueError):
        grunwald_letnikov_residual(p, u, 0.5)
    with pytest.raises(ValueError):
        grunwald_letnikov_residual(p, u, 1e-3, checkpoints=np.array([0.05]))


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
