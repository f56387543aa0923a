import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraksolve.specfun import beta, gamma

SQRT_PI = 1.7724538509055160


def test_gamma_anchors():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(4.0) == pytest.approx(6.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)


def test_gamma_relative_error_envelope():
    # independent oracle: the libm gamma, correct to a few ulp
    xs = np.concatenate([np.linspace(0.1, 2.0, 2001), np.linspace(2.0, 50.0, 2001)])
    worst = max(abs(gamma(float(x)) - math.gamma(float(x))) / math.gamma(float(x)) for x in xs)
    assert worst <= 1e-13


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
def test_gamma_domain_errors(bad):
    with pytest.raises(ValueError):
        gamma(bad)


def test_beta_anchors():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert beta(1.0, 3.0) == pytest.approx(1.0 / 3.0, rel=1e-13)
    # oracle: Gamma(0.5)Gamma(3.5)/Gamma(4) via libm
    oracle = math.gamma(0.5) * math.gamma(3.5) / math.gamma(4.0)
    assert oracle == pytest.approx(0.98174770424681, abs=1e-14)
    assert beta(0.5, 3.5) == pytest.approx(0.98174770424681, rel=1e-12)


def test_beta_domain_errors():
    with pytest.raises(ValueError):
        beta(0.0, 1.0)
    with pytest.raises(ValueError):
        beta(1.0, -2.0)
    with pytest.raises(ValueError):
        beta(-1.0, 1.0)


@given(
    x=st.floats(min_value=0.05, max_value=30.0),
    y=st.floats(min_value=0.05, max_value=30.0),
)
def test_beta_symmetry(x, y):
    b1, b2 = beta(x, y), beta(y, x)
    assert abs(b1 - b2) <= 1e-13 * max(1.0, abs(b1))


@settings(max_examples=300)
@given(
    sigma=st.floats(min_value=0.01, max_value=0.99),
    alpha=st.floats(min_value=3.001, max_value=4.0),
)
def test_beta_recurrence_identities(sigma, alpha):
    # the two identities the closed-form kernel integral relies on:
    # B(1-s, a) = (a-1)/(a-s) B(1-s, a-1)
    # B(2-s, a-1) = (1-s)/(a-s) B(1-s, a-1)
    base = beta(1.0 - sigma, alpha - 1.0)
    assert abs(beta(1.0 - sigma, alpha) - (alpha - 1.0) / (alpha - sigma) * base) <= 1e-12
    assert abs(beta(2.0 - sigma, alpha - 1.0) - (1.0 - sigma) / (alpha - sigma) * base) <= 1e-12


def test_beta_log_space_small_first_argument():
    # log-space evaluation stays accurate where the direct product of
    # gammas would already be large
    val = beta(0.01, 3.5)
    oracle = math.exp(math.lgamma(0.01) + math.lgamma(3.5) - math.lgamma(3.51))
    assert val == pytest.approx(oracle, rel=1e-12)
