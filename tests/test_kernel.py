import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraksolve.kernel import (
    GreenParams,
    green_eval,
    green_weight_integral,
    green_weight_integral_max,
    origin_continuity_bound,
)
from fraksolve.quadrature import integrate_green

ALPHAS = (3.01, 3.5, 4.0)


def test_params_validation():
    with pytest.raises(ValueError):
        GreenParams(3.0, 0.5)
    with pytest.raises(ValueError):
        GreenParams(4.5, 0.5)
    with pytest.raises(ValueError):
        GreenParams(3.5, 0.0)
    with pytest.raises(ValueError):
        GreenParams(3.5, 1.0)
    GreenParams(4.0, 1e-8)  # alpha = 4 admitted
    GreenParams(3.5, 1.0 - 1e-8)  # the sigma closest to 1 admitted
    with pytest.raises(ValueError, match="for N to be accurate"):
        GreenParams(3.5, 1.0 - 1e-9)


@pytest.mark.parametrize("alpha, sigma, message", [
    ("3.5", 0.5, "alpha must be a number, got '3.5'"),
    (3.5, None, "sigma must be a number, got None"),
    (np.array([3.5, 3.6]), 0.5, "alpha must be a number, got array([3.5, 3.6])"),
    (np.array(3.5), 0.5, "alpha must be a number, got array(3.5)"),  # 0-d arrays too
    (True, 0.5, "alpha must be a number, got True"),
    (3.5, np.bool_(True), "sigma must be a number, got np.True_"),
    (10**400, 0.5, "alpha is out of range"),
])
def test_params_must_be_real_numbers(alpha, sigma, message):
    with pytest.raises(ValueError) as exc:
        GreenParams(alpha, sigma)
    assert str(exc.value) == message


def test_params_are_kept_as_floats():
    p = GreenParams(4, np.float32(0.5))
    assert type(p.alpha) is float and type(p.sigma) is float
    assert p == GreenParams(4.0, 0.5)


def test_green_anchor_values():
    p = GreenParams(3.5, 0.5)
    assert green_eval(p, 0.0, 0.3) == 0.0
    assert green_eval(p, 1.0, 0.3) == 0.0
    # hand evaluation at alpha=4, t=s=0.5: 0.25*0.25*0.5/6
    p4 = GreenParams(4.0, 0.5)
    assert green_eval(p4, 0.5, 0.5) == pytest.approx(1.0 / 192.0, rel=1e-13)


# (alpha, t, s) samples of the verify suite's positivity check (seeds
# 100019, 100025, 100047, 100050) where G is ~1e-17 or smaller and the
# two-term form of the s < t branch cancelled to zero
CANCELLATION_POINTS = (
    (3.01, 0.9999998448241932, 0.0005891379895068827),
    (3.5, 0.9980575900980428, 3.526284175880967e-06),
    (4.0, 0.9863852004483331, 2.8337307167447534e-07),
    (3.01, 0.9998392359941203, 7.69303711878333e-06),
)


@pytest.mark.parametrize("alpha,t,s", CANCELLATION_POINTS)
def test_green_positive_where_terms_cancel(alpha, t, s):
    # array arguments, as the suite passes them
    assert green_eval(GreenParams(alpha, 0.5), np.array([t]), np.array([s]))[0] > 0.0


def _green_mp(mpmath, alpha, t, s):
    a, t, s = mpmath.mpf(alpha), mpmath.mpf(t), mpmath.mpf(s)
    val = (1 - s) ** (a - 2) * t ** (a - 2) * ((s - t) + (a - 2) * (1 - t) * s)
    if s < t:
        val += (t - s) ** (a - 1)
    return val / mpmath.gamma(a)


@pytest.mark.parametrize("alpha", (3.01, 3.3, 3.5, 3.99, 4.0))
def test_green_below_diagonal_matches_mpmath(alpha):
    # oracle: the defining two-term form at 40 digits, on s < t pairs
    # spread over the square, near t = 1 and near s = 0
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(int(alpha * 1000))
    t = rng.uniform(0.0, 1.0, size=120)
    t[:40] = 1.0 - 10.0 ** -rng.integers(1, 13, size=40)
    s = t * rng.uniform(0.0, 1.0, size=120)
    s[40:80] = t[40:80] * 10.0 ** -rng.uniform(0.0, 12.0, size=40)
    got = green_eval(GreenParams(alpha, 0.5), t, s)
    with mpmath.workdps(40):
        ref = np.array([float(_green_mp(mpmath, alpha, ti, si)) for ti, si in zip(t, s)])
    assert np.all(s < t) and np.all(ref > 0.0)
    assert np.max(np.abs(got - ref) / ref) <= 1e-13


def test_green_one_ulp_below_diagonal_is_quiet_and_at_the_limit():
    # s an ulp below t rounds x to 1, where log1p(-x) = -inf; the value
    # R(1) = c - 1 is still right, so no floating-point warning may leak
    p = GreenParams(3.5, 0.5)
    t, s = 0.002738500170148095, 0.0027385001701480944
    assert s == np.nextafter(t, 0.0)
    ts = np.random.default_rng(5).uniform(0.001, 0.999, size=2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = green_eval(p, [t], [s])[0]
        green_eval(p, ts, np.nextafter(ts, 0.0))
    limit = green_eval(p, t, t)
    assert abs(got - limit) <= 1e-15 * limit


@pytest.mark.parametrize("alpha", (3.01, 3.3, 3.5, 4.0))
def test_green_broadcast_matches_scalar_calls(alpha):
    # the (m, 1) x (m, 2n) shapes split_panels passes, with rows that
    # cross the diagonal, the boundary and points an ulp off the diagonal
    p = GreenParams(alpha, 0.5)
    rng = np.random.default_rng(int(alpha * 100))
    t = rng.uniform(0.0, 1.0, size=(9, 1))
    t[0, 0], t[-1, 0] = 0.0, 1.0
    s = rng.uniform(0.0, 1.0, size=(9, 16))
    s[:, 0], s[:, 1], s[:, 2] = t[:, 0], np.nextafter(t[:, 0], 0.0), 1.0
    got = green_eval(p, t, s)
    assert got.shape == (9, 16)
    ref = np.array([[green_eval(p, float(ti), float(sij)) for sij in row]
                    for ti, row in zip(t[:, 0], s)])
    assert np.array_equal(got, ref)


def test_green_domain_errors():
    p = GreenParams(3.5, 0.5)
    for t, s in ((-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.2)):
        with pytest.raises(ValueError):
            green_eval(p, t, s)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_domain_errors(bad):
    p = GreenParams(3.5, 0.5)
    for t, s in ((bad, 0.5), (0.5, bad), (np.array([0.2, bad]), 0.5)):
        with pytest.raises(ValueError, match=r"^green_eval: t and s must lie in \[0, 1\]$"):
            green_eval(p, t, s)
    for t in (bad, np.array([0.5, bad])):
        with pytest.raises(ValueError, match=r"^green_weight_integral: t must lie in \[0, 1\]$"):
            green_weight_integral(p, t)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_green_positivity_sampled(alpha):
    p = GreenParams(alpha, 0.5)
    rng = np.random.default_rng(42)
    t = rng.uniform(1e-12, 1.0 - 1e-12, size=100_000)
    s = rng.uniform(1e-12, 1.0 - 1e-12, size=100_000)
    assert np.min(green_eval(p, t, s)) > 0.0


@pytest.mark.parametrize("alpha", ALPHAS)
def test_green_boundary_rows_and_columns_zero(alpha):
    p = GreenParams(alpha, 0.5)
    grid = np.linspace(0.0, 1.0, 101)
    assert np.all(green_eval(p, np.zeros(101), grid) == 0.0)
    assert np.all(green_eval(p, np.ones(101), grid) == 0.0)
    assert np.all(green_eval(p, grid, np.zeros(101)) == 0.0)
    assert np.all(green_eval(p, grid, np.ones(101)) == 0.0)


# alpha down to an ulp-scale step above 3, and edge coordinates down to
# the smallest subnormal and up to an ulp below 1
_EDGE_ALPHAS = (3.0 + 1e-15, 3.0 + 1e-9, *np.linspace(3.0, 4.0, 44)[1:].tolist())
_EDGE_COORDS = np.array([0.0, 5e-324, 1e-300, 2.0**-53, 1e-8, 0.3, 0.5, 1.0 - 2.0**-53, 1.0])


@pytest.mark.parametrize("alpha", _EDGE_ALPHAS)
def test_green_boundary_is_positive_zero_from_the_formula(alpha):
    # no special case for the boundary: A^(alpha-2) = 0 or R(0) = 0 gives +0.0
    p = GreenParams(alpha, 0.5)
    c = _EDGE_COORDS
    zeros, ones = np.zeros_like(c), np.ones_like(c)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for t, s in ((zeros, c), (ones, c), (c, zeros), (c, ones)):
            g = green_eval(p, t, s)
            assert np.all(g == 0.0) and not np.any(np.signbit(g)), (t, s, g)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_green_branch_continuity_at_kink(alpha):
    p = GreenParams(alpha, 0.5)
    eps = 1e-6
    ts = np.linspace(0.05, 0.95, 37)
    jump = np.abs(green_eval(p, ts, ts - eps) - green_eval(p, ts, ts + eps))
    assert np.max(jump) <= 1e-4


@given(
    alpha=st.floats(min_value=3.01, max_value=4.0),
    t=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    s=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
)
def test_green_positive_property(alpha, t, s):
    # near the (t -> 1, s -> 0) corner the true value drops below the
    # double-precision cancellation floor (~1e-16), so the strict check
    # keeps a 1e-3 margin; the uniform-sampling positivity check covers
    # the full interior
    assert green_eval(GreenParams(alpha, 0.5), t, s) > 0.0


def test_weight_integral_vanishes_at_endpoints():
    for alpha in ALPHAS:
        for sigma in (0.1, 0.5, 0.9):
            p = GreenParams(alpha, sigma)
            assert abs(green_weight_integral(p, 0.0)) <= 1e-12
            assert abs(green_weight_integral(p, 1.0)) <= 1e-12


def test_weight_integral_near_integer_limit():
    # sigma -> 0 at alpha = 4 reduces to the clamped fourth-order problem
    # with forcing 1, whose solution is t^2 (1-t)^2 / 24
    p = GreenParams(4.0, 1e-8)
    assert green_weight_integral(p, 0.5) == pytest.approx(1.0 / 384.0, abs=1e-6)
    ts = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(green_weight_integral(p, ts) - ts**2 * (1 - ts) ** 2 / 24.0)) <= 1e-6


@pytest.mark.parametrize(
    "alpha,sigma",
    [(3.01, 0.1), (3.5, 0.5), (3.5, 0.9), (4.0, 0.1), (3.01, 0.9)],
)
def test_weight_integral_matches_quadrature(alpha, sigma):
    p = GreenParams(alpha, sigma)
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    for t in np.linspace(0.0, 1.0, 34)[1:-1]:
        assert abs(green_weight_integral(p, float(t)) - integrate_green(p, float(t), one, 48)) <= 1e-8


def test_constant_max_clamped_limit():
    n_value, t_star = green_weight_integral_max(GreenParams(4.0, 1e-8))
    assert n_value == pytest.approx(1.0 / 384.0, abs=1e-6)
    assert abs(t_star - 0.5) <= 1e-3


# the verify suite's sweep, plus the corners of the parameter box
MAX_PAIRS = [(a, sg) for a in (3.01, 3.5, 4.0) for sg in (0.1, 0.5, 0.9)] + [
    (4.0, 1e-8), (3.05, 0.95), (3.0 + 1e-9, 0.5), (3.5, 0.99),
]


@pytest.mark.parametrize("alpha,sigma", MAX_PAIRS)
def test_constant_max_against_dense_scan(alpha, sigma):
    # oracle: dense grid scan, independent of the Newton iteration on L'
    p = GreenParams(alpha, sigma)
    ts = np.linspace(0.0, 1.0, 1_000_001)
    vals = green_weight_integral(p, ts)
    scan_max = float(vals.max())
    scan_arg = float(ts[np.argmax(vals)])
    n_value, t_star = green_weight_integral_max(p)
    assert n_value >= scan_max - 1e-15
    assert abs(n_value - scan_max) <= 1e-11
    assert abs(t_star - scan_arg) <= 2e-6
    assert n_value > 0.0
    assert green_weight_integral(p, t_star) == pytest.approx(n_value, abs=1e-15)


def test_origin_bound_values_and_errors():
    p = GreenParams(3.5, 0.5)
    assert origin_continuity_bound(p, 0.0, 3.0) == 0.0
    assert origin_continuity_bound(p, 0.7, 0.0) == 0.0
    # oracle: direct formula with libm gamma/beta, independent of specfun
    def libm_beta(x, y):
        return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))

    t, m = 0.5, 1.0
    a, sg = 3.5, 0.5
    oracle = (
        m * (a - 1) * t ** (a - 2) * libm_beta(1 - sg, a - 1) / math.gamma(a)
        + m * t ** (a - sg) * libm_beta(1 - sg, a) / math.gamma(a)
    )
    assert origin_continuity_bound(p, t, m) == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(ValueError):
        origin_continuity_bound(p, 0.5, -1.0)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=3.01, max_value=4.0),
    sigma=st.floats(min_value=0.05, max_value=0.95),
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_origin_bound_dominates_kernel_application(alpha, sigma, t):
    # |H(t) - H(0)| <= bound whenever |s^sigma F(s)| <= m; H(0) = 0
    p = GreenParams(alpha, sigma)
    for f_reg, m in ((lambda s: np.cos(3.0 * np.asarray(s)), 1.0),
                     (lambda s: 0.5 + np.asarray(s) ** 2, 1.5)):
        h_t = integrate_green(p, t, f_reg, 32)
        assert abs(h_t) <= origin_continuity_bound(p, t, m) + 1e-12
