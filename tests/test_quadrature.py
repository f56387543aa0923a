import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraksolve.kernel import GreenParams, green_weight_integral
from fraksolve.quadrature import (
    MAX_POINTS,
    RuleConfigError,
    _jacobi01,
    integrate_green,
    jacobi_rule,
    legendre_rule,
    product_weights,
    shared_samples,
)
from fraksolve.solver import ProblemSpec, chebyshev_lobatto_nodes
from fraksolve.specfun import gamma


def test_one_point_rule_moment_matching():
    # m0 = 1/(1-sigma) = 2, m1 = 1/(2-sigma) = 2/3, node = m1/m0
    rule = jacobi_rule(1, 0.5)
    assert rule.nodes[0] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert rule.weights[0] == pytest.approx(2.0, abs=1e-13)


def test_weight_sum_is_zeroth_moment():
    rule = jacobi_rule(4, 0.5)
    assert float(rule.weights.sum()) == pytest.approx(2.0, abs=1e-13)


def test_eighth_order_moment():
    rule = jacobi_rule(8, 0.3)
    val = float(np.dot(rule.weights, rule.nodes**5))
    assert val == pytest.approx(1.0 / 5.7, abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 48, 96, 128, 256])
@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5, 0.9])
def test_moment_exactness(n, sigma):
    rule = jacobi_rule(n, sigma)
    ks = np.arange(0, 2 * n)
    moments = np.array([float(np.dot(rule.weights, rule.nodes**k)) for k in ks])
    assert np.max(np.abs(moments - 1.0 / (ks + 1 - sigma))) <= 1e-12


@given(
    n=st.integers(min_value=1, max_value=64),
    sigma=st.floats(min_value=0.02, max_value=0.98),
)
@settings(max_examples=60, deadline=None)
def test_rule_structure(n, sigma):
    rule = jacobi_rule(n, sigma)
    assert np.all(rule.weights > 0.0)
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert rule.nodes[0] > 0.0 and rule.nodes[-1] < 1.0


def test_rule_config_errors():
    with pytest.raises(RuleConfigError):
        jacobi_rule(0, 0.5)
    with pytest.raises(RuleConfigError):
        jacobi_rule(MAX_POINTS + 1, 0.5)
    with pytest.raises(RuleConfigError):
        jacobi_rule(8, 0.0)
    with pytest.raises(RuleConfigError):
        jacobi_rule(8, 1.0)


def test_against_scipy_reference():
    # independent construction path for the same rules
    scipy_special = pytest.importorskip("scipy.special")
    for n in (3, 16, 48):
        for a, b in ((0.0, -0.5), (0.0, -0.1), (0.0, 0.0)):
            mine_x, mine_w = _jacobi01(n, a, b)
            xs, ws = scipy_special.roots_jacobi(n, a, b)
            order = np.argsort(xs)
            assert np.max(np.abs(mine_x - 0.5 * (1 + xs[order]))) <= 1e-13
            assert np.max(np.abs(mine_w - ws[order] / 2 ** (a + b + 1))) <= 1e-12


def test_legendre_rule_polynomial_exactness():
    rule = legendre_rule(6)
    assert float(np.dot(rule.weights, rule.nodes**11)) == pytest.approx(1.0 / 12.0, abs=1e-14)


def test_cache_shares_read_only_rule():
    first, _ = _jacobi01(32, 0.0, -0.37)
    ids = {id(_jacobi01(32, 0.0, -0.37)[0]) for _ in range(50)}
    assert ids == {id(first)}  # one shared immutable rule
    with pytest.raises(ValueError):
        first[0] = 0.0  # read-only


def test_cache_is_bounded_over_fresh_sigma():
    maxsize = _jacobi01.cache_info().maxsize
    assert maxsize == 64
    sigmas = 0.4321 + 1e-7 * np.arange(maxsize + 20)  # none of them used elsewhere
    for sg in sigmas:
        jacobi_rule(4, float(sg))
    assert _jacobi01.cache_info().currsize == maxsize
    hits = _jacobi01.cache_info().hits
    jacobi_rule(4, float(sigmas[-1]))  # the latest rule is kept
    assert _jacobi01.cache_info().hits == hits + 1


def test_integrate_green_zero_forcing():
    p = GreenParams(3.5, 0.5)
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    assert integrate_green(p, 0.4, zero, 48) == 0.0


def test_integrate_green_reproduces_closed_form():
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    for alpha, sigma in ((3.01, 0.9), (3.5, 0.5), (4.0, 0.1)):
        p = GreenParams(alpha, sigma)
        for t in (0.1, 0.37, 0.5, 0.93):
            assert integrate_green(p, t, one, 48) == pytest.approx(
                green_weight_integral(p, t), abs=1e-8
            )


def test_integrate_green_manufactured_value():
    # oracle: termwise power rule for the fractional derivative gives the
    # forcing of u*(t) = t^(alpha-1)(1-t)^2; at t = 0.5 the value is
    # 0.5^2.5 * 0.25
    a, sg = 3.5, 0.5
    p = GreenParams(a, sg)
    c1, c2 = -2.0 * gamma(a + 1.0), gamma(a + 2.0)
    f_reg = lambda s: np.asarray(s) ** sg * (c1 + c2 * np.asarray(s))
    expected = 0.5**2.5 * 0.25
    assert expected == pytest.approx(0.04419417382415922, abs=1e-14)
    assert integrate_green(p, 0.5, f_reg, 48) == pytest.approx(expected, abs=1e-8)


def test_integrate_green_endpoint_degeneracy():
    p = GreenParams(3.5, 0.5)
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    assert abs(integrate_green(p, 0.0, one, 48)) <= 1e-12
    assert abs(integrate_green(p, 1.0, one, 48)) <= 1e-12


def test_integrate_green_split_consistency():
    p = GreenParams(3.5, 0.5)
    fcos = lambda s: np.cos(np.asarray(s, dtype=float))
    for t in np.linspace(0.0, 1.0, 17):
        d = abs(integrate_green(p, float(t), fcos, 48) - integrate_green(p, float(t), fcos, 96))
        assert d <= 1e-9


def test_integrate_green_array_matches_scalar_calls():
    p = GreenParams(3.01, 0.9)
    fcos = lambda s: np.cos(np.asarray(s, dtype=float))
    ts = np.concatenate([[0.0], np.linspace(0.0, 1.0, 13)[1:-1], [1e-9, 1.0 - 1e-9, 1.0]])
    batched = integrate_green(p, ts, fcos, 32)
    assert batched.shape == ts.shape
    scalar = np.array([integrate_green(p, float(t), fcos, 32) for t in ts])
    assert isinstance(integrate_green(p, 0.5, fcos, 32), float)
    np.testing.assert_allclose(batched, scalar, rtol=1e-14, atol=0.0)
    assert batched[0] == 0.0 and batched[-1] == 0.0


@pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, float("nan")])
def test_integrate_green_rejects_t_outside_unit_interval(bad):
    p = GreenParams(3.5, 0.5)
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    with pytest.raises(ValueError):
        integrate_green(p, np.array([0.0, 0.5, bad]), one, 16)
    with pytest.raises(ValueError):
        integrate_green(p, bad, one, 16)


VERIFY_PAIRS = [(a, sg) for a in (3.01, 3.5, 4.0) for sg in (0.1, 0.5, 0.9)]


@pytest.mark.parametrize("grid", [33, 65, 257])
@pytest.mark.parametrize("n", [8, 48, 128])
def test_product_weights_are_non_negative_from_eight_points(grid, n):
    # the cone contract: T maps g >= 0 to a non-negative output only if
    # W >= 0, which the Lagrange basis does not give by construction
    t = chebyshev_lobatto_nodes(grid)
    for alpha, sigma in VERIFY_PAIRS:
        assert product_weights(GreenParams(alpha, sigma), t, n).min() >= 0.0


@pytest.mark.parametrize("n", range(1, 8))
def test_product_rules_below_eight_points_are_refused(n):
    # below 8 points the rules do not integrate the degree-11 basis and W
    # can take negative entries (-3.8e-6 at 6 points), so no caller gets one
    with pytest.raises(RuleConfigError):
        product_weights(GreenParams(3.5, 0.5), chebyshev_lobatto_nodes(33), n)
    with pytest.raises(ValueError, match=r"quad_points must be in \[8, 256\]"):
        ProblemSpec(GreenParams(3.5, 0.5), "1", lambda_claim=1.0, tau=1.0, quad_points=n)


def test_product_weights_rows_are_L_and_vanish_at_the_ends():
    t = np.concatenate([[0.0], np.geomspace(1e-9, 0.5, 40), 1.0 - np.geomspace(1e-9, 0.5, 40),
                        [1.0]])
    s = shared_samples()
    assert s.shape == (288,) and np.all(np.diff(s) > 0.0) and 0.0 < s[0] and s[-1] < 1.0
    for alpha, sigma in VERIFY_PAIRS:
        p = GreenParams(alpha, sigma)
        w = product_weights(p, t, 48)
        assert w.shape == (t.size, s.size)
        assert not w[[0, -1]].any()
        closed = green_weight_integral(p, t)
        assert np.max(np.abs(w.sum(axis=1) - closed)) <= 1e-13 * np.max(closed)
