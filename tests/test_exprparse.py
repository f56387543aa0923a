import numpy as np
import pytest

from fraksolve.exprparse import (
    EvalDomainError,
    ParseError,
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
