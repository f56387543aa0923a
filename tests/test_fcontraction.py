import numpy as np
import pytest

from fraksolve.fcontraction import (
    CATALOG_IDS,
    ControlFunction,
    MetricError,
    control_catalog,
    verify_control_class,
    verify_wardowski,
)


def test_catalog_anchor_values():
    assert control_catalog("neg_inv_sqrt")(4.0) == pytest.approx(-0.5)
    assert control_catalog("ln")(1.0) == pytest.approx(0.0)
    assert control_catalog("ln_plus_t")(1.0) == pytest.approx(1.0)
    assert control_catalog("ln_t2_plus_t")(1.0) == pytest.approx(np.log(2.0))


def test_catalog_unknown_id():
    with pytest.raises(KeyError):
        control_catalog("tanh")


@pytest.mark.parametrize("cid", CATALOG_IDS)
def test_catalog_members_pass_with_shipped_witness(cid):
    rep = verify_control_class(control_catalog(cid))
    assert rep.passed, rep


def test_wrong_witness_fails_power_condition():
    # t^(1/4) * (-t^(-1/2)) = -t^(-1/4) blows up instead of vanishing
    bad = ControlFunction("neg_inv_sqrt", control_catalog("neg_inv_sqrt").evaluator, 0.25)
    rep = verify_control_class(bad)
    assert not rep.power_limit_ok
    assert not rep.passed
    assert rep.strictly_increasing and rep.diverges_at_zero


def test_sqrt_member_power_limit_value():
    # with k = 3/4 the probe value is t^(1/4) at t = 2^-40
    rep = verify_control_class(control_catalog("neg_inv_sqrt"))
    assert rep.power_limit_value == pytest.approx(2.0**-10.0, rel=1e-12)


def test_bounded_function_fails_divergence():
    bounded = ControlFunction("atan_like", lambda t: np.arctan(t) - 2.0, 0.5)
    rep = verify_control_class(bounded)
    assert not rep.diverges_at_zero


def test_non_monotone_fails():
    wavy = ControlFunction("wavy", lambda t: np.log(t) + 0.5 * np.sin(10.0 * np.asarray(t)), 0.5)
    rep = verify_control_class(wavy)
    assert not rep.strictly_increasing


# --- contraction inequality checker ----------------------------------------


def test_identity_map_is_reported_as_violation():
    rep = verify_wardowski(
        [0.0, 1.0],
        lambda x: x,
        lambda x, y: abs(x - y),
        tau=0.5,
        phi=control_catalog("neg_inv_sqrt"),
    )
    assert rep.checked == 1
    assert not rep.passed
    assert rep.violations[0].d_before == rep.violations[0].d_after == 1.0


def test_constant_map_is_vacuous_pass():
    rep = verify_wardowski(
        [0.0, 1.0, 5.0],
        lambda x: 2.0,
        lambda x, y: abs(x - y),
        tau=0.5,
        phi=control_catalog("neg_inv_sqrt"),
    )
    assert rep.passed and rep.vacuous


def test_true_contraction_passes():
    # x -> x/4 on the reals: d(Tx,Ty) = d/4, and with phi = -1/sqrt(t)
    # tau <= (2 - 1)/sqrt(d) for d <= 1, so tau = 1 works on [0, 1]
    pts = list(np.linspace(0.0, 1.0, 9))
    rep = verify_wardowski(
        pts, lambda x: x / 4.0, lambda x, y: abs(x - y), tau=1.0, phi=control_catalog("neg_inv_sqrt")
    )
    assert rep.checked > 0
    assert rep.passed


def test_metric_axioms_enforced():
    phi = control_catalog("ln")
    with pytest.raises(MetricError):
        verify_wardowski([0.0, 1.0], lambda x: x, lambda x, y: -abs(x - y), tau=1.0, phi=phi)
    with pytest.raises(MetricError):
        verify_wardowski([0.0, 1.0], lambda x: x, lambda x, y: x + y, tau=1.0, phi=phi)  # d(x,x)>0
    # triangle violation: d(0,2)=10 but d(0,1)+d(1,2)=2
    def bad_triangle(x, y):
        if x == y:
            return 0.0
        return 10.0 if {x, y} == {0.0, 2.0} else 1.0

    with pytest.raises(MetricError):
        verify_wardowski([0.0, 1.0, 2.0], lambda x: x, bad_triangle, tau=1.0, phi=phi)


def test_expansion_from_coincident_points_is_violation():
    # T maps two points at distance 0 to distinct images
    pts = [(0.0, "a"), (0.0, "b")]
    rep = verify_wardowski(
        pts,
        lambda x: 1.0 if x[1] == "a" else 2.0,
        lambda x, y: abs((x[0] if isinstance(x, tuple) else x) - (y[0] if isinstance(y, tuple) else y)),
        tau=0.5,
        phi=control_catalog("ln"),
    )
    assert not rep.passed


def test_solver_operator_satisfies_inequality_on_cone_samples():
    from fraksolve.kernel import GreenParams
    from fraksolve.solver import ProblemSpec, SolutionGrid, apply_green_operator

    tau = 1.0
    p = ProblemSpec(GreenParams(3.5, 0.5), "1 + 0.1*u/(1+1.0*sqrt(u))^2",
                    lambda_claim=0.1, tau=tau)
    rng = np.random.default_rng(21)
    m = p.grid_points
    nodes = SolutionGrid.zeros(m).nodes

    def random_cone_element():
        vals = rng.uniform(0.0, p.u_max, size=m)
        vals[0] = vals[-1] = 0.0
        return SolutionGrid(nodes, vals)

    points = [random_cone_element() for _ in range(40)]
    images = {id(pt): apply_green_operator(pt, p) for pt in points}
    phi = control_catalog("neg_inv_sqrt")
    checked = 0
    for i in range(0, len(points), 2):
        u, v = points[i], points[i + 1]
        d_uv = u.sup_diff(v)
        d_tuv = images[id(u)].sup_diff(images[id(v)])
        if d_tuv <= 0.0:
            continue
        checked += 1
        assert tau + float(phi(d_tuv)) <= float(phi(d_uv)) + 1e-9
        # square-root form of the same display
        assert np.sqrt(d_tuv) <= np.sqrt(d_uv) / (1.0 + tau * np.sqrt(d_uv)) + 1e-9
    assert checked >= 10
