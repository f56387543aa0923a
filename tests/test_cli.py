import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraksolve import cli
from fraksolve.cli import main
from fraksolve.kernel import GreenParams
from fraksolve.solver import ProblemSpec

MANUFACTURED = {
    "alpha": 3.5,
    "sigma": 0.5,
    "g": "manufactured",
    "lambda": 0.1,
    "tau": 1.0,
    "grid_points": 33,
    "quad_points": 48,
    "tol": 1e-10,
    "max_iters": 200,
    "enforce_cone": False,
}


@pytest.fixture
def manufactured_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(MANUFACTURED))
    return str(path)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_solve_manufactured_problem_file(manufactured_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", manufactured_file, "--out", str(out)])
    assert code == 0
    header, rows = _read_csv(out / "solution.csv")
    assert header == "t,u"
    t, u = rows[:, 0], rows[:, 1]
    assert np.max(np.abs(u - t**2.5 * (1 - t) ** 2)) <= 1e-6
    header, trace = _read_csv(out / "trace.csv")
    assert header == "iter,delta"
    assert trace[0, 0] == 1.0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "pass"
    pos = json.loads((out / "positivity.json").read_text())
    assert pos["verdict"] in ("verified positive", "not-verified")
    header, resid = _read_csv(out / "residual.csv")
    assert header == "t,residual"
    assert np.all(resid[:, 0] >= 0.2) and np.all(resid[:, 0] <= 0.8)


def test_solve_flags_override_file(manufactured_file, tmp_path):
    out = tmp_path / "run"
    code = main(["solve", manufactured_file, "--grid", "17", "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out / "solution.csv")
    assert len(rows) == 17


def test_solve_certificate_gate_exit_code(tmp_path):
    code = main(
        ["solve", "--alpha", "3.5", "--sigma", "0.5", "--g", "5*u",
         "--lambda", "500", "--tau", "1.0", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    cert = json.loads((tmp_path / "x" / "certificate.json").read_text())
    assert cert["verdict"] == "fail"


def test_solve_certificate_without_samples_exit_code(tmp_path):
    # --umax at the 1e-8 separation floor leaves no sample to certify with
    out = tmp_path / "x"
    code = main(["solve", "--alpha", "3.5", "--sigma", "0.5", "--g", "1 + 1000*u",
                 "--lambda", "0.001", "--tau", "1", "--umax", "1e-9", "--out", str(out)])
    assert code == 2
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["samples"] == 0 and cert["verdict"] == "fail"


@pytest.mark.parametrize("argv", [
    ["solve", "--grid", "abc"],
    ["kernel", "--alpha", "3.5"],
    ["solve", "--bogus", "1"],
    ["verify", "--seed", "x"],
    [],
    ["solve", "--format", "xml"],
], ids=["bad-int", "missing-flag", "unknown-flag", "bad-seed", "no-command", "bad-choice"])
def test_usage_error_is_bad_input(argv, tmp_path, monkeypatch, capsys):
    # exit 2 is the certificate-failure code, so a typo must not end with it
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "x"] if argv else argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--lambda LAMBDA" in capsys.readouterr().out


def test_parser_is_built_once_and_keeps_nothing_between_calls(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    base = ["solve", "--alpha", "3.5", "--sigma", "0.5", "--g", "1", "--lambda", "0.1",
            "--tau", "1"]
    assert main([*base, "--grid", "17", "--format", "json", "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", "--alpha", "x"]) == 1  # a usage error part-way through a parse
    assert main([*base, "--out", str(tmp_path / "b")]) == 0
    # the second solve has the defaults, not the first one's flags
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == [
        "certificate.json", "positivity.json", "residual.csv", "solution.csv", "trace.csv"]
    assert len(_read_csv(tmp_path / "b" / "solution.csv")[1]) == 33
    fresh = cli._parser.__wrapped__()
    assert cli._parser().format_help() == fresh.format_help()
    assert cli._parser().format_usage() == fresh.format_usage()


def test_solve_bad_expression_exit_code(tmp_path, capsys):
    code = main(
        ["solve", "--alpha", "3.5", "--sigma", "0.5", "--g", "2+*3",
         "--lambda", "0.1", "--tau", "1.0", "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "offset 2" in capsys.readouterr().err


def test_solve_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": 3.5,,}')
    code = main(["solve", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "char" in err or "column" in err  # position-bearing message


def test_solve_missing_fields_exit_code(tmp_path, capsys):
    code = main(["solve", "--alpha", "3.5", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_solve_unknown_problem_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MANUFACTURED, "sigma_typo": 1}))
    assert main(["solve", str(bad), "--out", str(tmp_path / "x")]) == 1


def test_solve_infinite_umax_is_bad_input(manufactured_file, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["solve", manufactured_file, "--umax", "inf", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "u_max" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, name",
    [("--tol", "inf", "tol"), ("--tau", "inf", "tau"), ("--lambda", "inf", "lambda_claim"),
     ("--lambda", "nan", "lambda_claim"), ("--h", "0.5", "h"), ("--h", "nan", "h")],
)
def test_solve_bad_value_exits_before_any_artifact(manufactured_file, tmp_path, capsys,
                                                   flag, value, name):
    out = tmp_path / "x"
    assert main(["solve", manufactured_file, flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["grid_points", "quad_points", "max_iters"])
def test_solve_non_integral_size_is_bad_input(key, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MANUFACTURED, key: 33.7}))
    out = tmp_path / "x"
    assert main(["solve", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "3.5", "--sigma", "0.5", "--g", "1", "--lambda", "0.1", "--tau", "1",
     "--seed", "-1"],
    ["verify", "--seed", "-1"],
], ids=["solve", "verify"])
def test_negative_seed_is_bad_input(argv, tmp_path, capsys):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seed") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text", ["[]", "3"])
def test_solve_problem_file_not_an_object_is_bad_input(text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "x"
    assert main(["solve", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: problem file must contain a JSON object\n"
    assert not out.exists()


def test_solve_integral_float_size_accepted(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**MANUFACTURED, "grid_points": 17.0}))
    assert main(["solve", str(path), "--out", str(tmp_path / "x")]) == 0
    _, rows = _read_csv(tmp_path / "x" / "solution.csv")
    assert len(rows) == 17


# the whole stderr line of each bad g; the sampled offenders follow from
# the default seed
BAD_G_ERRORS = {
    "exp(u)": "error: non-finite result from exp(827.7629198311454)",
    "sqrt(u-1)": "error: sqrt of negative argument: sqrt(-0.8699232662511471)",
    "0.1*u-1": "error: g evaluated negative (-1) at a quadrature sample; "
               "the nonlinearity must map into [0, inf)",
    "u^1000": "error: non-finite result from pow(8.277629198311454, 1000)",
    # a scalar zero divisor against a sampled array of u
    "1 + u/0": "error: division by zero: divide(0.13007673374885287, 0)",
}


@pytest.mark.parametrize(
    "flags",
    [["--g", "exp(u)", "--umax", "1000", "--lambda", "1"],
     ["--g", "sqrt(u-1)", "--lambda", "1"],
     ["--g", "0.1*u-1", "--lambda", "2"],
     ["--g", "u^1000", "--lambda", "1"],
     ["--g", "1 + u/0", "--lambda", "0.5"]],
)
def test_solve_g_outside_domain_or_cone_is_bad_input(flags, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["solve", "--alpha", "3.5", "--sigma", "0.5", "--tau", "1", *flags,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == BAD_G_ERRORS[flags[1]] + "\n"
    assert not out.exists()  # nothing is written before the solve succeeds


@pytest.mark.parametrize("command", [
    ["kernel", "--grid", "9"],
    ["solve", "--g", "1", "--lambda", "0.5", "--tau", "1"],
])
@pytest.mark.parametrize("sigma", ["0.999999999999999", "0.9999999999999999"])
def test_sigma_too_close_to_one_is_bad_input(command, sigma, tmp_path, capsys):
    # N from the closed form is no longer accurate there
    out = tmp_path / "x"
    assert main([*command, "--alpha", "3.5", "--sigma", sigma, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: sigma must be at most 1 - 1e-08 for N to be accurate, got {sigma}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000,
     '{"alpha": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["document", "field"],
)
def test_solve_deeply_nested_json_is_malformed(text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "x"
    assert main(["solve", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed JSON") and err.count("\n") == 1
    assert not out.exists()


def _not(valid):
    """JSON values of other types than the field's valid ones."""
    others = {"bool": st.booleans(), "null": st.none(), "text": st.text(max_size=4),
              "list": st.lists(st.integers(), max_size=2),
              "number": st.integers() | st.floats(allow_nan=False)}
    return st.one_of([strategy for kind, strategy in others.items() if kind not in valid])


_NOT_NUMBER = _not({"number"})
_NAN = st.just(float("nan"))
_MALFORMED_FIELDS = {
    "alpha": _NOT_NUMBER | _NAN | st.floats(max_value=3.0) | st.floats(min_value=4.0, exclude_min=True),
    "sigma": _NOT_NUMBER | _NAN | st.floats(max_value=0.0) | st.floats(min_value=1.0),
    "lambda": _NOT_NUMBER | _NAN | st.floats(max_value=0.0) | st.just(float("inf")),
    "tau": _NOT_NUMBER | _NAN | st.floats(max_value=0.0),
    "tol": _NOT_NUMBER | _NAN | st.floats(max_value=0.0),
    "u_max": _NOT_NUMBER | _NAN | st.floats(max_value=0.0) | st.just(float("inf")),
    "grid_points": _NOT_NUMBER | st.integers(max_value=2) | st.integers(min_value=1025)
    | st.floats(3.0, 65.0).filter(lambda v: not v.is_integer()),
    "quad_points": _NOT_NUMBER | st.integers(max_value=7) | st.integers(min_value=257)
    | st.floats(1.0, 65.0).filter(lambda v: not v.is_integer()),
    "max_iters": _NOT_NUMBER | st.integers(max_value=0) | st.floats(1.0, 9.0).filter(
        lambda v: not v.is_integer()),
    "enforce_cone": _not({"bool"}),
    "g": _not({"text"}) | st.sampled_from(["", "1 +", "2+*3", "foo(u)", "(" * 3000 + "u",
                                           "sqrt(u-1)", "u^1000", "1e400"]),
    "sigma_typo": st.integers(),
}


_MALFORMED_FIELD = st.one_of([st.tuples(st.just(k), v) for k, v in _MALFORMED_FIELDS.items()])


@settings(max_examples=150, deadline=None)
@given(bad=st.lists(_MALFORMED_FIELD, min_size=1, max_size=2, unique_by=lambda kv: kv[0]))
@example(bad=[("enforce_cone", "no")])
@example(bad=[("tol", True)])
@example(bad=[("alpha", 10**400)])  # an integer beyond the float range
@example(bad=[("g", "sqrt(u-1)"), ("u_max", 0.0)])
@example(bad=[("g", "1e400")])
def test_solve_malformed_problem_field_is_bad_input(bad):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "p.json", Path(tmp) / "x"
        path.write_text(json.dumps({**MANUFACTURED, **dict(bad)}))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["solve", str(path), "--out", str(out)])
        assert code == 1, bad
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
        assert not out.exists()


# Every kind of value the input rules sort: text, None, bools (numpy's
# too), numpy scalars, 0-d and 1-d arrays, lists, ints beyond the float
# range, and floats with +-inf, NaN and negatives; then, per field, valid
# values, sizes also as integral floats (33.0, which only a problem file
# reads as 33).
_ANY_VALUE = st.one_of(
    st.text(max_size=3), st.none(), st.booleans(), st.booleans().map(np.bool_),
    st.integers(-10, 2000), st.integers(min_value=2**1024), st.integers(max_value=-2**1024),
    st.floats(), st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.array), st.lists(st.floats(), max_size=2),
    st.lists(st.floats(), min_size=1, max_size=2).map(np.array),
)
_POSITIVE = st.floats(1e-300, 1e300)
_VALID = {
    "alpha": st.floats(3.0, 4.0, exclude_min=True),
    "sigma": st.floats(0.0, 0.99, exclude_min=True),
    "lambda": _POSITIVE, "tau": _POSITIVE, "tol": _POSITIVE, "u_max": _POSITIVE,
    "grid_points": st.integers(3, 1024), "quad_points": st.integers(8, 256),
    "max_iters": st.integers(1, 10**6),
    "enforce_cone": st.booleans(),
}
_SIZES = ("grid_points", "quad_points", "max_iters")


class _Accepted(Exception):
    """Raised in place of the certificate: the command line built its spec."""


def _library(key, value):
    """What the library keeps of ``value`` in field ``key`` (a problem
    file key) of the MANUFACTURED problem, or the ValueError it raises."""
    fields = {"lambda_claim" if k == "lambda" else k: v for k, v in MANUFACTURED.items()}
    name = "lambda_claim" if key == "lambda" else key
    fields[name] = value
    try:
        params = GreenParams(fields.pop("alpha"), fields.pop("sigma"))
        if name in ("alpha", "sigma"):
            return getattr(params, name)
        return getattr(ProblemSpec(params, **fields), name)
    except ValueError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(sorted(_VALID)).flatmap(
    lambda key: st.tuples(st.just(key), _ANY_VALUE | _VALID[key]
                          | (_VALID[key].map(float) if key in _SIZES else st.nothing()))))
@example(field=("tau", "1"))
@example(field=("tau", np.array(1.0)))
@example(field=("lambda", 10**400))
@example(field=("grid_points", 33.0))
@example(field=("grid_points", 33.5))
@example(field=("enforce_cone", np.bool_(False)))
def test_library_and_command_line_agree_on_every_field(field):
    key, value = field
    kept = _library(key, value)
    if isinstance(kept, ValueError):  # refused, naming the field
        assert str(kept).startswith("lambda_claim " if key == "lambda" else f"{key} ")
    elif key == "enforce_cone":
        assert isinstance(kept, (bool, np.bool_)) and kept == value
    else:  # a number, kept normalised
        kind = int if key in _SIZES else float
        assert not isinstance(value, (bool, np.bool_, str, list, np.ndarray, type(None)))
        assert type(kept) is kind and kept == kind(value)
    if type(value) not in (str, type(None), bool, int, float, list):
        return  # no JSON value
    # a problem file's 33.0 is a size of 33: the one rule the command line adds
    if key in _SIZES and isinstance(value, float) and value.is_integer():
        kept = _library(key, int(value))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "p.json", Path(tmp) / "x"
        path.write_text(json.dumps({**MANUFACTURED, key: value}))
        with mock.patch.object(cli, "certify_contraction", side_effect=_Accepted), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(["solve", str(path), "--out", str(out)])
            except _Accepted:
                code = None
        if isinstance(kept, ValueError):
            assert (code, err.getvalue()) == (1, f"error: {kept}\n") and not out.exists()
        else:
            assert (code, err.getvalue()) == (None, "")


@pytest.mark.parametrize("extra", [[], ["--uncertified"]], ids=["certified", "uncertified"])
def test_solve_overflowing_literal_is_bad_input(extra, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["solve", "--alpha", "3.5", "--sigma", "0.5", "--g", "1e400", "--lambda", "1",
                 "--tau", "1", "--out", str(out), *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: invalid expression: number out of range at offset 0\n"
    assert not out.exists()


def test_solve_parses_expression_once(monkeypatch, tmp_path):
    import fraksolve.cli as cli_module
    from fraksolve import exprparse

    calls = []
    real_parse = exprparse.parse

    def counting(text):
        calls.append(text)
        return real_parse(text)

    monkeypatch.setattr(exprparse, "parse", counting)
    code = main(["solve", "--alpha", "3.5", "--sigma", "0.5", "--g", "1 + 0.1*ln(1+u)",
                 "--lambda", "0.5", "--tau", "1", "--out", str(tmp_path / "x")])
    assert code == 0
    assert calls == ["1 + 0.1*ln(1+u)"]


def test_solve_non_convergence_exit_code(tmp_path):
    code = main(
        ["solve", "--alpha", "3.5", "--sigma", "0.5",
         "--g", "1 + 0.1*u/(1+1.0*sqrt(u))^2",
         "--lambda", "0.1", "--tau", "1.0", "--max-iters", "1",
         "--out", str(tmp_path / "x")]
    )
    assert code == 3
    assert (tmp_path / "x" / "trace.csv").exists()


def test_solve_non_convergence_names_the_level(tmp_path, capsys):
    # a 257-point solve climbs from the 33-point level, which spends the
    # per-level budget of 3 sweeps first
    code = main(
        ["solve", "--alpha", "3.5", "--sigma", "0.5", "--g", "1 + 0.1*ln(1+u)",
         "--lambda", "0.5", "--tau", "1", "--grid", "257", "--quad", "128",
         "--max-iters", "3", "--out", str(tmp_path / "x")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no convergence on the 33-point level after 3 sweeps")
    _, rows = _read_csv(tmp_path / "x" / "trace.csv")
    assert len(rows) == 3


def test_solve_artifacts_deterministic(manufactured_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", manufactured_file, "--seed", "3", "--out", str(out1)]) == 0
    assert main(["solve", manufactured_file, "--seed", "3", "--out", str(out2)]) == 0
    for name in ("solution.csv", "trace.csv", "certificate.json", "positivity.json", "residual.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_json_format_adds_copies(manufactured_file, tmp_path):
    out = tmp_path / "run"
    assert main(["solve", manufactured_file, "--format", "json", "--out", str(out)]) == 0
    assert (out / "solution.csv").exists()
    data = json.loads((out / "solution.json").read_text())
    assert len(data["t"]) == 33


# --- exit contract: one bad-input handler, artifacts written after all work --


def _strict_json(path):
    """The JSON at path; NaN and Infinity, which are not JSON, raise."""

    def reject(name):
        raise ValueError(f"{path.name} holds {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def _boom(*args, **kwargs):
    raise ValueError("boom")


@pytest.mark.parametrize("target, argv", [
    ("green_weight_integral", ["kernel", "--alpha", "3.5", "--sigma", "0.5"]),
    ("grunwald_letnikov_residual", ["solve", "--alpha", "3.5", "--sigma", "0.5", "--g", "1",
                                    "--lambda", "0.5", "--tau", "1"]),
])
def test_late_failure_is_bad_input_and_writes_nothing(target, argv, monkeypatch, tmp_path, capsys):
    import fraksolve.cli as cli_module

    monkeypatch.setattr(cli_module, target, _boom)
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists()


_P35 = ["solve", "--alpha", "3.5", "--sigma", "0.5"]
_FLOAT_MAX = 1.7976931348623157e308


@pytest.mark.parametrize("flags, extra, code, observed", [
    # a g constant in u meets the condition at any tau
    (["--g", "1", "--lambda", "0.5", "--tau", "1e200"], [], 0, 0.0),
    # an overflowing ratio is capped at the largest double: the certificate fails
    (["--g", "1+0.1*u", "--lambda", "1", "--tau", "1e200"], [], 2, _FLOAT_MAX),
    (["--g", "1e307*u", "--lambda", "1", "--tau", "1"], [], 2, _FLOAT_MAX),
    (["--g", "1+0.1*u", "--lambda", "1", "--tau", "1e200"], ["--uncertified"], 0, _FLOAT_MAX),
], ids=["constant-g", "huge-tau", "huge-slope", "huge-tau-uncertified"])
def test_solve_overflowing_certificate_ratio_is_strict_json(flags, extra, code, observed,
                                                            tmp_path, capsys):
    out = tmp_path / "x"
    assert main([*_P35, *flags, *extra, "--out", str(out)]) == code
    assert capsys.readouterr().err.count("\n") == (code != 0)
    assert _strict_json(out / "certificate.json")["lambda_observed"] == observed


def test_solve_positivity_samples_u_within_umax(monkeypatch, tmp_path):
    # g decreases in u and leaves its domain past u = 10.5, just above the
    # default u_max of 10
    from fraksolve import exprparse

    seen = []
    real_evaluate = exprparse.evaluate

    def recording(expr, t, u):
        seen.append(np.asarray(u, dtype=float))
        return real_evaluate(expr, t, u)

    monkeypatch.setattr(exprparse, "evaluate", recording)
    out = tmp_path / "x"
    assert main([*_P35, "--g", "1 + 0.001*sqrt(10.5-u)", "--lambda", "0.01", "--tau", "1",
                 "--out", str(out)]) == 0
    assert _strict_json(out / "positivity.json")["verdict"] == "not-verified"
    assert min(u.min() for u in seen) >= 0.0 and max(u.max() for u in seen) <= 10.0


_LOG_UNIFORM = st.floats(-6.0, 300.0).map(lambda e: f"{10.0 ** e:.6g}")


@settings(max_examples=100, deadline=None)
@given(g=st.sampled_from(["1", "1+0.1*u", "1 + 0.1*ln(1+u)"]), tau=_LOG_UNIFORM,
       lam=_LOG_UNIFORM, umax=_LOG_UNIFORM, uncertified=st.booleans())
@example(g="1", tau="1e200", lam="0.5", umax="10", uncertified=False)
@example(g="1+0.1*u", tau="1e200", lam="1", umax="10", uncertified=True)
@example(g="1e307*u", tau="1", lam="1", umax="10", uncertified=True)
@example(g="1 + 0.1*ln(1+u)", tau="1", lam="0.5", umax="1e308", uncertified=True)
@example(g="1 + 0.001*sqrt(10.5-u)", tau="1", lam="0.01", umax="10", uncertified=False)
def test_solve_exit_contract_property(g, tau, lam, umax, uncertified):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "x"
        argv = [*_P35, "--g", g, "--lambda", lam, "--tau", tau, "--umax", umax,
                "--grid", "17", "--quad", "16", "--out", str(out)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--uncertified"] * uncertified)
        assert code in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
        for path in out.glob("*.json"):
            _strict_json(path)


def test_kernel_command(tmp_path, capsys):
    out = tmp_path / "k"
    code = main(["kernel", "--alpha", "4.0", "--sigma", "1e-8", "--grid", "17", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    n_printed = float(printed.split("N = ")[1].split(" at")[0])
    t_printed = float(printed.split("t_star = ")[1])
    assert abs(n_printed - 1.0 / 384.0) <= 1e-6
    assert abs(t_printed - 0.5) <= 1e-3
    header, rows = _read_csv(out / "green.csv")
    assert header == "t,s,G"
    assert len(rows) == 17 * 17
    edge = rows[(rows[:, 0] == 0.0) | (rows[:, 0] == 1.0)]
    assert np.all(edge[:, 2] == 0.0)
    header, lrows = _read_csv(out / "L.csv")
    assert header == "t,L_closed,L_quad"
    assert np.max(np.abs(lrows[:, 1] - lrows[:, 2])) <= 1e-8


def test_kernel_green_csv_matches_row_by_row_evaluation(tmp_path):
    from fraksolve.cli import _write
    from fraksolve.kernel import GreenParams, green_eval

    out = tmp_path / "k"
    assert main(["kernel", "--alpha", "3.5", "--sigma", "0.5", "--grid", "33",
                 "--out", str(out)]) == 0
    p = GreenParams(3.5, 0.5)
    ts = np.linspace(0.0, 1.0, 33)
    rows = []
    for t in ts:
        rows.extend((t, s, g) for s, g in zip(ts, green_eval(p, np.full(33, t), ts)))
    _write(tmp_path, {"ref.csv": ("t,s,G", rows)})
    assert (out / "green.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_kernel_invalid_params(tmp_path):
    assert main(["kernel", "--alpha", "2.0", "--sigma", "0.5", "--out", str(tmp_path)]) == 1
    assert main(["kernel", "--alpha", "3.5", "--sigma", "1.5", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("quad", ["0", "7", "300"])
def test_kernel_bad_quad_writes_nothing(quad, tmp_path, capsys):
    out = tmp_path / "k"
    assert main(["kernel", "--alpha", "3.5", "--sigma", "0.5", "--quad", quad,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --quad") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("grid", ["1", "1025"])
def test_kernel_grid_out_of_range_writes_nothing(grid, tmp_path, capsys):
    # 1025 is one past MAX_GRID; the m x m dump must not be attempted
    out = tmp_path / "k"
    assert main(["kernel", "--alpha", "3.5", "--sigma", "0.5", "--grid", grid,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --grid must be in [2, 1024]") and err.count("\n") == 1
    assert not out.exists()


def test_verify_default_passes(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"]
    assert all(c["passed"] for c in report["checks"])


def test_verify_fault_injection_fails(tmp_path):
    out = tmp_path / "v"
    assert main(["verify", "--perturb-kernel", "1e-3", "--out", str(out)]) == 4
    report = json.loads((out / "verify.json").read_text())
    failing = {c["name"] for c in report["checks"] if not c["passed"]}
    assert any("positivity" in name or "consistency" in name or "boundary" in name for name in failing)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_non_finite_perturbation_writes_nothing(value, tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--perturb-kernel", value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --perturb-kernel must be finite") and err.count("\n") == 1
    assert not out.exists()


def test_verify_huge_finite_perturbation_is_quiet(tmp_path):
    out = tmp_path / "v"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--perturb-kernel", "1e308", "--out", str(out)]) == 4
    json.loads((out / "verify.json").read_text(), parse_constant=pytest.fail)


def test_verify_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["verify", "--seed", "7", "--out", str(out2)]) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


def test_kernel_positivity_metric_skips_boundary_samples(monkeypatch):
    # t = 0 and s = 1 samples, where G = 0, are injected into the first
    # block of each drawn stream; the metric must equal a mask-and-min
    # over the interior of the full streams
    from fraksolve.kernel import GreenParams, green_eval

    streams = []  # the blocks each generator drew, in creation order: t, s
    default_rng = np.random.default_rng

    class InjectingRng:
        def __init__(self, seed):
            self._rng = default_rng(seed)
            self.bit_generator = self._rng.bit_generator
            self._blocks = []
            streams.append(self._blocks)

        def random(self, size):
            x = self._rng.random(size)
            if not self._blocks:
                if self._blocks is streams[0]:
                    x[:7] = 0.0
                else:
                    x[7:14] = 1.0
            self._blocks.append(x)
            return x

        def uniform(self, low, high, size):
            return self._rng.uniform(low, high, size)

    monkeypatch.setattr(cli.np.random, "default_rng", InjectingRng)
    check = cli._kernel_checks(3.5, 0, 0.0)[0]
    t, s = (np.concatenate(blocks) for blocks in streams)
    assert len(t) == len(s) == cli._KERNEL_SAMPLES
    assert np.all(t[:7] == 0.0) and np.all(s[7:14] == 1.0)
    inside = (t > 0) & (t < 1) & (s > 0) & (s < 1)
    gmin = float(np.min(green_eval(GreenParams(3.5, 0.5), t[inside], s[inside])))
    assert check["name"] == "kernel_positivity_alpha_3.5"
    assert check["metric"] == -gmin and check["passed"]


def _record_green_eval(monkeypatch):
    """Wrap the suite's green_eval; returns the list of its (t, s) arguments."""
    calls = []
    green_eval = cli.green_eval

    def recording(params, t, s):
        calls.append((np.array(t, dtype=float), np.array(s, dtype=float)))
        return green_eval(params, t, s)

    monkeypatch.setattr(cli, "green_eval", recording)
    return calls


@pytest.mark.parametrize("seed", [0, 7, 100019])
@pytest.mark.parametrize("alpha", cli.SWEEP_ALPHAS)
def test_kernel_positivity_blocks_reproduce_one_stream(seed, alpha, monkeypatch):
    # the blocks are the old single generator's draws, bit for bit: t,
    # then s, then the 64 kink points
    from fraksolve.kernel import GreenParams, green_eval

    calls = _record_green_eval(monkeypatch)
    check = cli._kernel_checks(alpha, seed, 0.0)[0]
    n_blocks = -(-cli._KERNEL_SAMPLES // cli._KERNEL_BLOCK)
    t = np.concatenate([c[0] for c in calls[:n_blocks]])
    s = np.concatenate([c[1] for c in calls[:n_blocks]])
    tk = calls[-1][0]  # the kink check evaluates G(tk, tk + eps) last
    rng = np.random.default_rng([seed, int(alpha * 100)])
    assert np.array_equal(t, rng.random(100_000))
    assert np.array_equal(s, rng.random(100_000))
    assert np.array_equal(tk, rng.uniform(0.05, 0.95, 64))
    inside = (t > 0) & (t < 1) & (s > 0) & (s < 1)
    assert check["metric"] == -float(np.min(green_eval(GreenParams(alpha, 0.5), t, s)[inside]))


def test_kernel_positivity_fails_on_nan_in_a_later_block(monkeypatch):
    # one NaN kernel value past the first block fails the check, as a
    # whole-array np.min does; a plain min over the blocks would drop it
    green_eval = cli.green_eval
    seen = [0]  # samples evaluated so far

    def nan_at_50000(params, t, s):
        g = np.array(green_eval(params, t, s), dtype=float)
        if seen[0] <= 50_000 < seen[0] + g.size:
            g.flat[50_000 - seen[0]] = np.nan
        seen[0] += g.size
        return g

    monkeypatch.setattr(cli, "green_eval", nan_at_50000)
    check = cli._kernel_checks(3.5, 0, 0.0)[0]
    assert check["name"] == "kernel_positivity_alpha_3.5"
    assert np.isnan(check["metric"]) and not check["passed"]


def test_verify_suite_evaluates_kernel_in_small_blocks(monkeypatch):
    # a deterministic guard against whole-stream temporaries: no kernel
    # evaluation of the suite sees more than one block of samples
    calls = _record_green_eval(monkeypatch)
    assert cli.run_verify_suite(0)["passed"]
    assert max(t.size for t, _ in calls) <= cli._KERNEL_BLOCK
    assert sum(t.size for t, _ in calls) >= len(cli.SWEEP_ALPHAS) * cli._KERNEL_SAMPLES


def test_verify_passes_on_seed_with_near_corner_kernel_sample():
    # seed 100019 samples G at t = 1 - 1.6e-7, s = 5.9e-4, where the
    # kernel's two terms cancel almost completely
    from fraksolve.cli import run_verify_suite

    assert run_verify_suite(seed=100019)["passed"]
