import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraksolve.cli import main

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


@pytest.mark.parametrize(
    "flags",
    [["--g", "exp(u)", "--umax", "1000", "--lambda", "1"],
     ["--g", "sqrt(u-1)", "--lambda", "1"],
     ["--g", "0.1*u-1", "--lambda", "2"],
     ["--g", "u^1000", "--lambda", "1"]],
)
def test_solve_g_outside_domain_or_cone_is_bad_input(flags, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["solve", "--alpha", "3.5", "--sigma", "0.5", "--tau", "1", *flags,
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()  # nothing is written before the solve succeeds


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
    "quad_points": _NOT_NUMBER | st.integers(max_value=0) | st.integers(min_value=257)
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
    monkeypatch.setattr(cli_module, "parse", counting)
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
    from fraksolve.cli import _write_csv
    from fraksolve.kernel import GreenParams, green_eval

    out = tmp_path / "k"
    assert main(["kernel", "--alpha", "3.5", "--sigma", "0.5", "--grid", "33",
                 "--out", str(out)]) == 0
    p = GreenParams(3.5, 0.5)
    ts = np.linspace(0.0, 1.0, 33)
    rows = []
    for t in ts:
        rows.extend((t, s, g) for s, g in zip(ts, green_eval(p, np.full(33, t), ts)))
    _write_csv(tmp_path / "ref.csv", "t,s,G", rows)
    assert (out / "green.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_kernel_invalid_params(tmp_path):
    assert main(["kernel", "--alpha", "2.0", "--sigma", "0.5", "--out", str(tmp_path)]) == 1
    assert main(["kernel", "--alpha", "3.5", "--sigma", "1.5", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("quad", ["0", "300"])
def test_kernel_bad_quad_writes_nothing(quad, tmp_path, capsys):
    out = tmp_path / "k"
    assert main(["kernel", "--alpha", "3.5", "--sigma", "0.5", "--quad", quad,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --quad") and err.count("\n") == 1
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


def test_verify_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["verify", "--seed", "7", "--out", str(out2)]) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


def test_kernel_positivity_metric_skips_boundary_samples(monkeypatch):
    # t = 0 and s = 1 samples, where G = 0, are injected into the drawn
    # streams; the metric must equal a mask-and-min over the interior
    from fraksolve import cli
    from fraksolve.kernel import GreenParams, green_eval

    drawn = []
    default_rng = np.random.default_rng

    class InjectingRng:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def uniform(self, low, high, size):
            x = self._rng.uniform(low, high, size)
            if size == 100_000:  # the t stream, then the s stream
                if drawn:
                    x[7:14] = 1.0
                else:
                    x[:7] = 0.0
                drawn.append(x)
            return x

    monkeypatch.setattr(cli.np.random, "default_rng", InjectingRng)
    check = cli._kernel_checks(3.5, 0, 0.0)[0]
    t, s = drawn
    assert np.all(t[:7] == 0.0) and np.all(s[7:14] == 1.0)
    inside = (t > 0) & (t < 1) & (s > 0) & (s < 1)
    gmin = float(np.min(green_eval(GreenParams(3.5, 0.5), t[inside], s[inside])))
    assert check.name == "kernel_positivity_alpha_3.5"
    assert check.metric == -gmin and check.passed


def test_verify_passes_on_seed_with_near_corner_kernel_sample():
    # seed 100019 samples G at t = 1 - 1.6e-7, s = 5.9e-4, where the
    # kernel's two terms cancel almost completely
    from fraksolve.cli import run_verify_suite

    assert run_verify_suite(seed=100019)["passed"]
