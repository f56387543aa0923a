from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraksolve import exprparse
from fraksolve.exprparse import (
    BinOp,
    Call,
    EvalDomainError,
    Neg,
    Num,
    ParseError,
    Var,
    evaluate,
    parse,
)


def test_basic_arithmetic():
    assert evaluate(parse("2+3*t"), 1.0, 0.0) == pytest.approx(5.0)
    assert evaluate(parse("u/(1+0.5*sqrt(u))^2"), 0.0, 4.0) == pytest.approx(1.0)
    assert evaluate(parse("t"), 0.3, 9.0) == pytest.approx(0.3)
    assert evaluate(parse("sqrt(u)"), 0.0, 9.0) == pytest.approx(3.0)


def test_precedence_conformance():
    assert evaluate(parse("2^3^2"), 0.0, 0.0) == 512.0
    assert evaluate(parse("-2^2"), 0.0, 0.0) == -4.0
    assert evaluate(parse("2^-2"), 0.0, 0.0) == 0.25
    assert evaluate(parse("-2*3"), 0.0, 0.0) == -6.0
    assert evaluate(parse("2*-3"), 0.0, 0.0) == -6.0
    assert evaluate(parse("1-2-3"), 0.0, 0.0) == -4.0
    assert evaluate(parse("8/4/2"), 0.0, 0.0) == 1.0


def test_syntax_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse("2+*3")
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("(1+2")
    with pytest.raises(ParseError):
        parse("1 2")


def test_unknown_identifier_named():
    with pytest.raises(ParseError, match="frobnicate"):
        parse("1 + frobnicate")
    with pytest.raises(ParseError, match="x"):
        parse("x + 1")


def test_function_arity():
    with pytest.raises(ParseError):
        parse("sqrt(1, 2)")
    with pytest.raises(ParseError):
        parse("pow(2)")
    assert evaluate(parse("pow(2, 10)"), 0.0, 0.0) == 1024.0


def test_domain_errors_name_function_and_argument():
    with pytest.raises(EvalDomainError, match="ln"):
        evaluate(parse("ln(u)"), 0.5, 0.0)
    with pytest.raises(EvalDomainError, match="sqrt"):
        evaluate(parse("sqrt(u-1)"), 0.0, 0.0)
    with pytest.raises(EvalDomainError, match="divide"):
        evaluate(parse("1/t"), 0.0, 0.0)
    with pytest.raises(EvalDomainError, match="pow"):
        evaluate(parse("(-2)^0.5"), 0.0, 0.0)
    with pytest.raises(EvalDomainError, match="exp"):
        evaluate(parse("exp(t)"), 1000.0, 0.0)


def test_array_evaluation_broadcasts():
    ts = np.linspace(0.0, 1.0, 5)
    us = np.full(5, 4.0)
    out = evaluate(parse("t + sqrt(u)"), ts, us)
    assert out.shape == (5,)
    assert np.allclose(out, ts + 2.0)
    # scalar expression against array input still yields an array
    out = evaluate(parse("3"), ts, us)
    assert out.shape == (5,)
    assert np.all(out == 3.0)
    # a lone variable takes the broadcast shape of both inputs too
    tc, ur = np.arange(4.0).reshape(4, 1), np.arange(3.0).reshape(1, 3)
    for text, want in (("t", np.broadcast_to(tc, (4, 3))), ("u", np.broadcast_to(ur, (4, 3))),
                       ("2", np.full((4, 3), 2.0)), ("t+u", tc + ur)):
        out = evaluate(parse(text), tc, ur)
        assert out.shape == (4, 3)
        assert np.array_equal(out, want)


def test_array_domain_error():
    with pytest.raises(EvalDomainError, match="ln"):
        evaluate(parse("ln(t)"), np.array([0.5, 0.0, 0.2]), 0.0)


def test_matrix_domain_error_reports_offender():
    u = np.array([[1.0, 2.0], [-3.0, 1.0]])
    with pytest.raises(EvalDomainError, match=r"ln\(-3"):
        evaluate(parse("ln(u)"), np.ones((2, 2)), u)


@pytest.mark.parametrize("t_axis", [0, 1])
def test_broadcast_zero_divisor_reports_offender(t_axis):
    # the divisor's mask spans one axis, the quotient two
    t, u = np.array([1.0, 2.0, 3.0]), np.array([4.0, 0.0])
    t, u = (t[:, None], u[None, :]) if t_axis == 0 else (t[None, :], u[:, None])
    with pytest.raises(EvalDomainError, match=r"^division by zero: divide\(1, 0\)$"):
        evaluate(parse("t/u"), t, u)
    with pytest.raises(EvalDomainError, match=r"^division by zero: divide\(1, 0\)$"):
        evaluate(parse("t/0"), t, u)


def test_atan_and_abs():
    assert evaluate(parse("atan(1)*4"), 0.0, 0.0) == pytest.approx(np.pi)
    assert evaluate(parse("abs(-3)"), 0.0, 0.0) == 3.0


def test_scientific_notation():
    assert evaluate(parse("1e-3 + 2E2"), 0.0, 0.0) == pytest.approx(200.001)
    assert evaluate(parse("t^1e0"), 0.25, 0.0) == 0.25
    assert evaluate(parse("1e-400 + 1.7e308"), 0.0, 0.0) == 1.7e308  # underflow is no error


@pytest.mark.parametrize("text, offset", [("1e400", 0), ("atan(1e400)", 5), ("1/1e400", 2),
                                          ("u + 2E+309*t", 4)])
def test_overflowing_literal_is_a_parse_error(text, offset):
    with pytest.raises(ParseError, match="number out of range") as exc:
        parse(text)
    assert exc.value.position == offset


def test_whitespace_insensitive():
    assert evaluate(parse(" 2 + 3\t*\nt "), 1.0, 0.0) == 5.0


def test_oversize_input_rejected():
    with pytest.raises(ParseError):
        parse("1+" * 40000 + "1")


@pytest.mark.parametrize("text", ["(" * 20000 + "1" + ")" * 20000, "-" * 30000 + "1"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(text)


# literals as the parser makes them: finite and not negative
_LITERALS = st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 3.0, 700.0, 1e200, 1.7e308])
_POINTS = st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e-300, 0.5, 1.0, -2.5, 3.0, 710.0,
                           1e200, -1e200, 1.7e308, np.inf, -np.inf, np.nan])
_UNARY = ("sqrt", "ln", "exp", "atan", "abs")


def _trees(variables: str):
    """Expression trees whose leaves are literals and the given variables."""
    return st.recursive(
        st.builds(Num, _LITERALS) | st.builds(Var, st.sampled_from(variables)),
        lambda sub: (st.builds(Neg, sub)
                     | st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub)
                     | st.builds(lambda fn, a: Call(fn, (a,)), st.sampled_from(_UNARY), sub)
                     | st.builds(lambda a, b: Call("pow", (a, b)), sub, sub)),
        max_leaves=10,
    )


expressions = _trees("tu")


@st.composite
def points(draw):
    """(t, u) as two scalars, two equal-shape arrays or a broadcast pair."""
    kind = draw(st.sampled_from(["scalar", "same", "outer"]))
    if kind == "scalar":
        return draw(_POINTS), draw(_POINTS)
    shapes = [(4,), (4,)] if kind == "same" else draw(st.permutations([(3, 1), (1, 2)]))
    return tuple(np.array(draw(st.lists(_POINTS, min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape))))).reshape(shape)
                 for shape in shapes)


@st.composite
def _other(draw, x):
    """Values of the same shape as x, not all the same as x's."""
    other = np.array(draw(st.lists(_POINTS, min_size=np.size(x), max_size=np.size(x))))
    other = other.reshape(np.shape(x)) if np.ndim(x) else float(other[0])
    assume(np.asarray(other).tobytes() != np.asarray(x).tobytes())
    return other


def _outcome(expr, t, u):
    try:
        out = evaluate(expr, t, u)
    except EvalDomainError as exc:
        return "EvalDomainError", str(exc)
    return type(out), np.shape(out), np.asarray(out).tobytes()


def _trap(*args):
    raise FloatingPointError


@settings(max_examples=500, deadline=None)
@given(expressions, points())
def test_fast_path_matches_checked_walk(expr, tu):
    fast = _outcome(expr, *tu)
    # every fast call traps, so every evaluation with a call takes the checked walk
    with mock.patch.dict(exprparse._FAST, dict.fromkeys(exprparse._FAST, _trap)):
        checked = _outcome(expr, *tu)
    assert fast == checked


def test_clean_input_skips_checked_walk():
    t, u = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 10.0, 5)
    with mock.patch.dict(exprparse._CHECKED, dict.fromkeys(exprparse._CHECKED, _trap)):
        out = evaluate(parse("1 + 17.3*u/(1+sqrt(u))^2"), t, u)
    assert np.allclose(out, 1 + 17.3 * u / (1 + np.sqrt(u)) ** 2, rtol=1e-14, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(expressions, points())
def test_caller_errstate_plays_no_part(expr, tu):
    want = _outcome(expr, *tu)
    before = np.geterr()
    for state in ({"all": "raise"}, {"under": "raise"}, {"all": "ignore"}):
        with np.errstate(**state):
            inside = np.geterr()
            assert _outcome(expr, *tu) == want
            assert np.geterr() == inside
    assert np.geterr() == before


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["t", "u", "tu"]).flatmap(_trees))
def test_reads_u_finds_every_u(expr):
    # every variable, not only u: each is reported exactly when the tree holds it
    assert exprparse.variables(expr) == {v for v in "tu" if f"Var(name='{v}')" in repr(expr)}


@settings(max_examples=300, deadline=None)
@given(_trees("t"), points(), st.data())
def test_tree_without_u_gives_the_same_value_at_any_u(expr, tu, data):
    t, u = tu
    assert "u" not in exprparse.variables(expr)
    assert _outcome(expr, t, u) == _outcome(expr, t, data.draw(_other(u)))


@settings(max_examples=300, deadline=None)
@given(_trees("u"), points(), st.data())
def test_tree_without_t_gives_the_same_value_at_any_t(expr, tu, data):
    t, u = tu
    assert "t" not in exprparse.variables(expr)
    assert _outcome(expr, t, u) == _outcome(expr, data.draw(_other(t)), u)
