"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line
per criterion; each test also prints an ACCEPTANCE line on success.
"""

import time

import numpy as np
import pytest

from fraksolve.fcontraction import control_catalog, verify_wardowski
from fraksolve.kernel import (
    GreenParams,
    green_eval,
    green_weight_integral,
    green_weight_integral_max,
)
from fraksolve.quadrature import integrate_green, jacobi_rule
from fraksolve.solver import (
    ProblemSpec,
    SolutionGrid,
    apply_green_operator,
    check_positivity,
    grunwald_letnikov_residual,
    solve,
)
from fraksolve.specfun import beta

SWEEP_ALPHAS = (3.01, 3.5, 4.0)
SWEEP_SIGMAS = (0.1, 0.5, 0.9)


def u_star(t):
    return t**2.5 * (1 - t) ** 2


@pytest.fixture(scope="module")
def manufactured_spec():
    return ProblemSpec(
        GreenParams(3.5, 0.5), "manufactured", lambda_claim=0.1, tau=1.0,
        grid_points=33, quad_points=48, enforce_cone=False,
    )


@pytest.fixture(scope="module")
def manufactured_result(manufactured_spec):
    t0 = time.perf_counter()
    result = solve(manufactured_spec)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def integer_order_spec():
    return ProblemSpec(GreenParams(4.0, 1e-8), "unit", lambda_claim=0.1, tau=1.0)


@pytest.fixture(scope="module")
def integer_order_result(integer_order_spec):
    return solve(integer_order_spec)


@pytest.fixture(scope="module")
def contraction_spec():
    return ProblemSpec(
        GreenParams(3.5, 0.5), "1 + 0.1*u/(1+1.0*sqrt(u))^2", lambda_claim=0.1, tau=1.0
    )


def test_criterion_01_manufactured_convergence(manufactured_result):
    result, elapsed = manufactured_result
    err = float(np.max(np.abs(result.u.values - u_star(result.u.nodes))))
    assert err <= 1e-6
    assert elapsed <= 5.0
    print(f"\nACCEPTANCE 1 PASS - manufactured solve sup-error {err:.3e} <= 1e-6 in {elapsed:.2f}s")


def test_criterion_02_integer_order_cross_check(integer_order_spec, integer_order_result):
    u = integer_order_result.u
    err = float(np.max(np.abs(u.values - u.nodes**2 * (1 - u.nodes) ** 2 / 24.0)))
    assert err <= 1e-5
    n_value, t_star = green_weight_integral_max(integer_order_spec.params)
    assert abs(n_value - 1.0 / 384.0) <= 1e-6
    assert abs(t_star - 0.5) <= 1e-3
    print(f"\nACCEPTANCE 2 PASS - quartic error {err:.3e}, N={n_value:.9f}, t*={t_star:.6f}")


def test_criterion_03_weight_integral_consistency():
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    ts = np.linspace(0.0, 1.0, 34)[1:-1]
    worst = 0.0
    for alpha in SWEEP_ALPHAS:
        for sigma in SWEEP_SIGMAS:
            p = GreenParams(alpha, sigma)
            assert abs(green_weight_integral(p, 0.0)) <= 1e-12
            assert abs(green_weight_integral(p, 1.0)) <= 1e-12
            for t in ts:
                err = abs(integrate_green(p, float(t), one, 48) - green_weight_integral(p, float(t)))
                worst = max(worst, err)
                assert err <= 1e-8
    print(f"\nACCEPTANCE 3 PASS - closed form vs quadrature, worst {worst:.3e} <= 1e-8 over 9 sweeps")


def test_criterion_04_kernel_positivity():
    rng = np.random.default_rng(12345)
    for alpha in SWEEP_ALPHAS:
        p = GreenParams(alpha, 0.5)
        t = rng.uniform(0.0, 1.0, size=100_000)
        s = rng.uniform(0.0, 1.0, size=100_000)
        inside = (t > 0) & (t < 1) & (s > 0) & (s < 1)
        assert float(np.min(green_eval(p, t[inside], s[inside]))) > 0.0
        edge = np.linspace(0.0, 1.0, 513)
        assert np.all(green_eval(p, np.zeros_like(edge), edge) == 0.0)
        assert np.all(green_eval(p, np.ones_like(edge), edge) == 0.0)
        assert np.all(green_eval(p, edge, np.zeros_like(edge)) == 0.0)
        assert np.all(green_eval(p, edge, np.ones_like(edge)) == 0.0)
    print("\nACCEPTANCE 4 PASS - kernel positive on 3x10^5 interior samples, boundary rows/columns zero")


def test_criterion_05_beta_identities():
    rng = np.random.default_rng(99)
    # sigma window [0.01, 0.99]: the identity residual scales like
    # Gamma(1-sigma)*eps, so an absolute 1e-12 is representable only away
    # from sigma = 1 (see decisions ledger)
    sigmas = rng.uniform(0.01, 0.99, size=1000)
    alphas = rng.uniform(3.0, 4.0, size=1000)
    worst = 0.0
    for sg, a in zip(sigmas, alphas):
        base = beta(1.0 - sg, a - 1.0)
        e1 = abs(beta(1.0 - sg, a) - (a - 1.0) / (a - sg) * base)
        e2 = abs(beta(2.0 - sg, a - 1.0) - (1.0 - sg) / (a - sg) * base)
        worst = max(worst, e1, e2)
        assert e1 <= 1e-12 and e2 <= 1e-12
    print(f"\nACCEPTANCE 5 PASS - beta identities on 10^3 samples, worst {worst:.3e} <= 1e-12")


def test_criterion_06_contraction_behavior(contraction_spec):
    p = contraction_spec
    tau = p.tau
    r0 = solve(p)
    for a_n, a_next in zip(r0.trace, r0.trace[1:]):
        assert a_next <= a_n / (1.0 + tau * np.sqrt(a_n)) ** 2 + 1e-9
    r1 = solve(p, u0=SolutionGrid.constant(1.0, p.grid_points))
    rng = np.random.default_rng(17)
    vals = rng.uniform(0.0, 1.0, p.grid_points)
    vals[0] = vals[-1] = 0.0
    rr = solve(p, u0=SolutionGrid(vals))
    d01 = r0.u.sup_diff(r1.u)
    d0r = r0.u.sup_diff(rr.u)
    assert d01 <= 1e-8 and d0r <= 1e-8
    print(f"\nACCEPTANCE 6 PASS - trace recursion holds; multi-start agreement {max(d01, d0r):.3e} <= 1e-8")


def test_criterion_07_wardowski_harness(contraction_spec):
    from fraksolve.solver import certify_contraction

    p = contraction_spec
    assert certify_contraction(p).passed  # T below is the certified operator
    phi = control_catalog("neg_inv_sqrt")
    cert_tau = p.tau
    rng = np.random.default_rng(4242)

    def cone_element():
        vals = rng.uniform(0.0, p.u_max, size=p.grid_points)
        vals[0] = vals[-1] = 0.0
        return SolutionGrid(vals)

    points = [cone_element() for _ in range(2000)]
    pairs = [(2 * i, 2 * i + 1) for i in range(1000)]
    report = verify_wardowski(
        points,
        lambda u: apply_green_operator(u, p),
        lambda a, b: float(np.max(np.abs(a.values - b.values))),
        tau=cert_tau,
        phi=phi,
        pairs=pairs,
        tol=1e-9,
    )
    assert report.passed, report.violations[:3]
    assert report.checked >= 900
    identity = verify_wardowski(
        [0.0, 1.0], lambda x: x, lambda x, y: abs(x - y), tau=cert_tau, phi=phi
    )
    assert not identity.passed
    print(f"\nACCEPTANCE 7 PASS - contraction inequality on {report.checked} cone pairs; identity map flagged")


def test_criterion_08_residual_oracle(manufactured_spec, integer_order_spec, integer_order_result):
    u_fine = SolutionGrid.from_function(u_star, 257)
    prof1 = grunwald_letnikov_residual(manufactured_spec, u_fine, 1e-3)
    prof2 = grunwald_letnikov_residual(manufactured_spec, u_fine, 5e-4)
    assert prof1.max() <= 5e-2
    ratio = prof2.max() / prof1.max()
    assert 0.4 <= ratio <= 0.6
    prof4 = grunwald_letnikov_residual(integer_order_spec, integer_order_result.u, 1e-3)
    assert prof4.max() <= 1e-3
    print(
        f"\nACCEPTANCE 8 PASS - GL residual {prof1.max():.3e} <= 5e-2, halving ratio {ratio:.3f}, "
        f"integer-order residual {prof4.max():.3e} <= 1e-3"
    )


def test_criterion_09_positivity_verification():
    p = ProblemSpec(GreenParams(3.5, 0.5), "1 + 0.1*ln(1+u)", lambda_claim=0.5, tau=1.0)
    result = solve(p)
    report = check_positivity(p, result.u)
    assert report.min_interior > 0.0
    assert report.verdict == "verified positive"
    print(f"\nACCEPTANCE 9 PASS - interior minimum {report.min_interior:.3e} > 0, verdict '{report.verdict}'")


def test_criterion_10_quadrature_exactness():
    worst = 0.0
    for sigma in (1e-8, 0.1, 0.3, 0.5, 0.9):
        for n in (1, 4, 8, 16, 48, 96):
            rule = jacobi_rule(n, sigma)
            ks = np.arange(0, 2 * n)
            moments = np.array([float(np.dot(rule.weights, rule.nodes**k)) for k in ks])
            err = float(np.max(np.abs(moments - 1.0 / (ks + 1 - sigma))))
            worst = max(worst, err)
            assert err <= 1e-12
    print(f"\nACCEPTANCE 10 PASS - moment exactness, worst {worst:.3e} <= 1e-12 over all generated rules")
