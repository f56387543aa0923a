"""Command-line surface: solve problems, dump kernel data, run the
verification suite.

Exit codes: 0 success, 1 malformed input (a g that leaves its domain or
evaluates negative included), 2 certificate failure without
--uncertified, 3 non-convergence, 4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .exprparse import EvalDomainError, ParseError, parse
from .fcontraction import CATALOG_IDS, control_catalog, verify_control_class, verify_wardowski
from .kernel import (
    GreenParams,
    green_eval,
    green_weight_integral,
    green_weight_integral_max,
    origin_continuity_bound,
)
from .quadrature import MAX_POINTS, integrate_green, jacobi_rule, panel_sums, split_panels
from .solver import (
    G_CATALOG_IDS,
    ConeViolationError,
    NonConvergenceError,
    ProblemSpec,
    certify_contraction,
    check_positivity,
    check_residual_step,
    grunwald_letnikov_residual,
    solve,
)
from .specfun import beta

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CERTIFICATE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4

SWEEP_ALPHAS = (3.01, 3.5, 4.0)
SWEEP_SIGMAS = (0.1, 0.5, 0.9)

_PROBLEM_KEYS = {
    "alpha",
    "sigma",
    "g",
    "lambda",
    "tau",
    "grid_points",
    "quad_points",
    "tol",
    "max_iters",
    # optional extensions
    "enforce_cone",
    "u_max",
}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_problem_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # nesting deeper than the interpreter's stack
            raise ValueError("malformed JSON: arrays or objects nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("problem file must contain a JSON object")
    unknown = set(data) - _PROBLEM_KEYS
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    return data


def _float_field(data: dict, key: str) -> float:
    """A numeric problem field: a JSON number, not a bool or a string."""
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"{key} must be a number, got {type(val).__name__}")
    try:
        return float(val)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{key} is out of range") from None


def _int_field(data: dict, key: str) -> int:
    """An integer problem field; 33.0 is accepted, 33.7 is an error."""
    val = _float_field(data, key)
    if not val.is_integer():
        raise ValueError(f"{key} must be an integer, got {val!r}")
    return int(val)


def _bool_field(data: dict, key: str) -> bool:
    """A problem field that must be JSON true or false."""
    val = data[key]
    if not isinstance(val, bool):
        raise ValueError(f"{key} must be true or false, got {type(val).__name__}")
    return val


_OPTIONAL_FIELDS = {
    "quad_points": _int_field,
    "grid_points": _int_field,
    "tol": _float_field,
    "max_iters": _int_field,
    "u_max": _float_field,
    "enforce_cone": _bool_field,
}


def _build_spec(args) -> ProblemSpec:
    data: dict = {}
    if args.problem:
        data = _load_problem_file(args.problem)
    overrides = {
        "alpha": args.alpha,
        "sigma": args.sigma,
        "g": args.g,
        "lambda": getattr(args, "lam"),
        "tau": args.tau,
        "tol": args.tol,
        "grid_points": args.grid,
        "quad_points": args.quad,
        "max_iters": args.max_iters,
        "u_max": args.umax,
    }
    for key, val in overrides.items():
        if val is not None:
            data[key] = val
    if args.allow_signed_g:
        data["enforce_cone"] = False
    missing = [k for k in ("alpha", "sigma", "g", "lambda", "tau") if k not in data]
    if missing:
        raise ValueError(f"missing problem fields: {missing} (supply a file or flags)")
    g = data["g"]
    if isinstance(g, str) and g not in G_CATALOG_IDS:
        g = parse(g)  # syntax errors surface with their offset before any work
    # fields left out take ProblemSpec's defaults
    optional = {key: read(data, key) for key, read in _OPTIONAL_FIELDS.items() if key in data}
    return ProblemSpec(
        params=GreenParams(_float_field(data, "alpha"), _float_field(data, "sigma")),
        g=g,
        lambda_claim=_float_field(data, "lambda"),
        tau=_float_field(data, "tau"),
        **optional,
    )


def cmd_solve(args) -> int:
    try:
        spec = _build_spec(args)
        check_residual_step(args.h)  # before any artifact is written
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
    except ParseError as exc:
        print(f"error: invalid expression: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return _solve_and_write(spec, args)
    except (EvalDomainError, ConeViolationError) as exc:
        # g left its domain or the cone at a sampled point
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def _solve_and_write(spec: ProblemSpec, args) -> int:
    """Everything that can fail on a bad g runs before the first write, so
    an exit 1 leaves no output behind."""
    out = Path(args.out)
    certificate = certify_contraction(spec, seed=args.seed)
    if not certificate.passed and not args.uncertified:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "certificate.json", certificate.to_dict())
        print(
            f"certificate failed (lambda_observed={certificate.lambda_observed:.6g}, "
            f"lambda_claim*N={certificate.lambda_claim * certificate.N:.6g}); "
            "rerun with --uncertified to iterate anyway",
            file=sys.stderr,
        )
        return EXIT_CERTIFICATE

    try:
        result = solve(spec, uncertified=True)
    except NonConvergenceError as exc:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "certificate.json", certificate.to_dict())
        _write_csv(out / "trace.csv", "iter,delta", [(i + 1, d) for i, d in enumerate(exc.trace)])
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    u = result.u
    report = check_positivity(spec, u, seed=args.seed)
    profile = grunwald_letnikov_residual(spec, u, args.h)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "certificate.json", certificate.to_dict())
    _write_csv(out / "solution.csv", "t,u", zip(u.nodes, u.values))
    _write_csv(out / "trace.csv", "iter,delta", [(i + 1, d) for i, d in enumerate(result.trace)])
    _write_json(out / "positivity.json", report.to_dict())
    _write_csv(out / "residual.csv", "t,residual", zip(profile.checkpoints, profile.residuals))
    if args.format == "json":
        _write_json(out / "solution.json", {"t": list(u.nodes), "u": list(u.values)})
        _write_json(out / "trace.json", {"delta": list(result.trace)})
        _write_json(
            out / "residual.json",
            {"t": list(profile.checkpoints), "residual": list(profile.residuals)},
        )
    print(
        f"converged in {result.iterations} sweeps; "
        f"certificate {certificate.verdict}; positivity: {report.verdict}"
    )
    return EXIT_OK


def cmd_kernel(args) -> int:
    try:
        params = GreenParams(args.alpha, args.sigma)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    m = args.grid
    if m < 2:
        print("error: --grid must be at least 2", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not 1 <= args.quad <= MAX_POINTS:
        print(f"error: --quad must be in [1, {MAX_POINTS}]", file=sys.stderr)
        return EXIT_BAD_INPUT
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ts = np.linspace(0.0, 1.0, m)
    gv = green_eval(params, ts[:, None], ts[None, :])
    rows = ((t, s, g) for t, row in zip(ts, gv) for s, g in zip(ts, row))
    _write_csv(out / "green.csv", "t,s,G", rows)
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    _write_csv(
        out / "L.csv",
        "t,L_closed,L_quad",
        zip(ts, green_weight_integral(params, ts), integrate_green(params, ts, one, args.quad)),
    )
    n_value, t_star = green_weight_integral_max(params)
    print(f"N = {_fmt(n_value)} at t_star = {_fmt(t_star)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite


class _Check:
    def __init__(self, name: str, metric: float, tolerance: float, passed: bool | None = None):
        self.name = name
        self.metric = float(metric)
        self.tolerance = float(tolerance)
        self.passed = bool(metric <= tolerance) if passed is None else passed

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "metric": self.metric,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _perturbed_green(params: GreenParams, perturb: float):
    """Pointwise kernel evaluations used by the sampled kernel checks;
    the fault-injection hook adds a sign-varying perturbation."""

    def geval(t, s):
        g = green_eval(params, t, s)
        if perturb:
            g = g + perturb * np.sin(73.0 * np.asarray(t) * np.asarray(s) + 1.0)
        return g

    return geval


def _kernel_checks(alpha: float, seed: int, perturb: float) -> list[_Check]:
    params = GreenParams(alpha, 0.5)  # G does not depend on sigma
    geval = _perturbed_green(params, perturb)
    rng = np.random.default_rng([seed, int(alpha * 100)])
    t = rng.uniform(0.0, 1.0, size=100_000)
    s = rng.uniform(0.0, 1.0, size=100_000)
    interior = (t > 0) & (t < 1) & (s > 0) & (s < 1)
    # G on every sample, reduced over the interior: no masked copies
    gmin = float(np.min(geval(t, s), where=interior, initial=np.inf))
    checks = [
        _Check(f"kernel_positivity_alpha_{alpha:g}", -gmin, 0.0, passed=gmin > 0.0)
    ]
    ss = np.linspace(0.0, 1.0, 257)
    edge = max(
        float(np.max(np.abs(geval(np.zeros_like(ss), ss)))),
        float(np.max(np.abs(geval(np.ones_like(ss), ss)))),
    )
    checks.append(_Check(f"kernel_boundary_zero_alpha_{alpha:g}", edge, 0.0, passed=edge == 0.0))
    tk = rng.uniform(0.05, 0.95, size=64)
    eps = 1e-6
    jump = float(np.max(np.abs(geval(tk, tk - eps) - geval(tk, tk + eps))))
    checks.append(_Check(f"kernel_kink_continuity_alpha_{alpha:g}", jump, 1e-4))
    return checks


# points per panel of the split rule the combination checks run
_COMBO_QUAD = 48


def _combo_checks(alpha: float, sigma: float) -> list[_Check]:
    params = GreenParams(alpha, sigma)
    tag = f"alpha_{alpha:g}_sigma_{sigma:g}"
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    ts = np.linspace(0.0, 1.0, 34)[1:-1]  # 32 interior points
    rule = split_panels(params, ts, _COMBO_QUAD)
    consist = np.max(np.abs(panel_sums(rule, one) - green_weight_integral(params, ts)))
    checks = [_Check(f"weight_integral_consistency_{tag}", consist, 1e-8)]
    ends = max(abs(green_weight_integral(params, 0.0)), abs(green_weight_integral(params, 1.0)))
    checks.append(_Check(f"weight_integral_boundary_{tag}", ends, 1e-12))
    fcos = lambda s: np.cos(np.asarray(s, dtype=float))
    split = np.max(
        np.abs(panel_sums(rule, fcos) - panel_sums(split_panels(params, ts, 2 * _COMBO_QUAD), fcos))
    )
    checks.append(_Check(f"split_consistency_{tag}", split, 1e-9))
    # |H(t) - H(0)| dominated by the closed bound, for sampled bounded forcings
    worst = -math.inf
    tb = ts[::4]
    rule_b = tuple(a[::4] for a in rule)  # the rows of tb
    for f_reg in (one, fcos, lambda s: 0.25 + np.asarray(s)):
        m_bound = float(np.max(np.abs(f_reg(np.linspace(0.0, 1.0, 2001)))))
        h_t = np.abs(panel_sums(rule_b, f_reg))
        bound = [origin_continuity_bound(params, float(t), m_bound) for t in tb]
        worst = max(worst, float(np.max(h_t - bound)))
    checks.append(_Check(f"origin_bound_domination_{tag}", worst, 1e-12))
    return checks


def _beta_identity_checks(seed: int) -> list[_Check]:
    rng = np.random.default_rng([seed, 7])
    # sigma capped at 0.99: the identity residual scales like
    # Gamma(1-sigma) * eps, so closer to 1 an absolute 1e-12 stops being
    # representable in doubles
    sg = rng.uniform(0.01, 0.99, size=1000)
    al = rng.uniform(3.0, 4.0, size=1000)
    e1 = e2 = 0.0
    for s, a in zip(sg.tolist(), al.tolist()):  # Python floats: no numpy-scalar overhead
        b_base = beta(1.0 - s, a - 1.0)
        e1 = max(e1, abs(beta(1.0 - s, a) - (a - 1.0) / (a - s) * b_base))
        e2 = max(e2, abs(beta(2.0 - s, a - 1.0) - (1.0 - s) / (a - s) * b_base))
    checks = [
        _Check("beta_identity_order_raise", e1, 1e-12),
        _Check("beta_identity_first_arg_shift", e2, 1e-12),
    ]
    x = rng.uniform(0.05, 20.0, size=500)
    y = rng.uniform(0.05, 20.0, size=500)
    sym = max(abs(beta(a, b) - beta(b, a)) / beta(a, b) for a, b in zip(x.tolist(), y.tolist()))
    checks.append(_Check("beta_symmetry", sym, 1e-13))
    return checks


def _quadrature_checks() -> list[_Check]:
    checks = []
    for sigma in SWEEP_SIGMAS:
        worst = 0.0
        for n in (1, 4, 8, 48):
            rule = jacobi_rule(n, sigma)
            ks = np.arange(0, 2 * n)
            moments = np.array([float(np.dot(rule.weights, rule.nodes**k)) for k in ks])
            worst = max(worst, float(np.max(np.abs(moments - 1.0 / (ks + 1 - sigma)))))
        checks.append(_Check(f"jacobi_moments_sigma_{sigma:g}", worst, 1e-12))
    return checks


def _contraction_checks() -> list[_Check]:
    checks = []
    ok = all(verify_control_class(control_catalog(cid)).passed for cid in CATALOG_IDS)
    checks.append(_Check("control_catalog_membership", 0.0 if ok else 1.0, 0.0, passed=ok))
    identity_rep = verify_wardowski(
        [0.0, 1.0], lambda x: x, lambda x, y: abs(x - y), tau=0.5, phi=control_catalog("neg_inv_sqrt")
    )
    flagged = not identity_rep.passed
    checks.append(
        _Check("wardowski_flags_identity_map", 0.0 if flagged else 1.0, 0.0, passed=flagged)
    )
    return checks


def run_verify_suite(seed: int = 0, perturb_kernel: float = 0.0) -> dict:
    """Run every invariant check across the built-in parameter sweep."""
    checks: list[_Check] = []
    for alpha in SWEEP_ALPHAS:
        checks.extend(_kernel_checks(alpha, seed, perturb_kernel))
    for alpha in SWEEP_ALPHAS:
        for sigma in SWEEP_SIGMAS:
            checks.extend(_combo_checks(alpha, sigma))
    checks.extend(_beta_identity_checks(seed))
    checks.extend(_quadrature_checks())
    checks.extend(_contraction_checks())
    return {
        "seed": seed,
        "perturb_kernel": perturb_kernel,
        "checks": [c.to_dict() for c in checks],
        "passed": all(c.passed for c in checks),
    }


def cmd_verify(args) -> int:
    if args.seed < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_BAD_INPUT
    report = run_verify_suite(seed=args.seed, perturb_kernel=args.perturb_kernel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify.json", report)
    n_fail = sum(not c["passed"] for c in report["checks"])
    print(f"{len(report['checks'])} checks, {n_fail} failed -> {out / 'verify.json'}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def _add_solve_parser(sub) -> None:
    sp = sub.add_parser("solve", help="solve a problem and write solution artifacts")
    sp.add_argument("problem", nargs="?", help="JSON problem file; flags override its values")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--sigma", type=float)
    sp.add_argument("--g", help="regularized nonlinearity g(t,u), an expression in t and u")
    sp.add_argument("--lambda", dest="lam", type=float, help="claimed contraction constant")
    sp.add_argument("--tau", type=float)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--grid", type=int, help="collocation grid size")
    sp.add_argument("--quad", type=int, help="quadrature points per panel")
    sp.add_argument("--max-iters", type=int)
    sp.add_argument("--umax", type=float, help="certificate sampling range for u")
    sp.add_argument("--uncertified", action="store_true", help="iterate even if the certificate fails")
    sp.add_argument(
        "--allow-signed-g",
        action="store_true",
        help="permit sign-changing forcings (manufactured verification runs)",
    )
    sp.add_argument("--h", type=float, default=1e-3, help="residual oracle step")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="csv writes the contract files only; json adds JSON copies")
    sp.set_defaults(fn=cmd_solve)


def _add_kernel_parser(sub) -> None:
    kp = sub.add_parser("kernel", help="dump kernel values and the weighted-integral constant")
    kp.add_argument("--alpha", type=float, required=True)
    kp.add_argument("--sigma", type=float, required=True)
    kp.add_argument("--grid", type=int, default=33, help="grid resolution m (m x m kernel dump)")
    kp.add_argument("--quad", type=int, default=48)
    kp.add_argument("--out", default=".", help="output directory")
    kp.set_defaults(fn=cmd_kernel)


def _add_verify_parser(sub) -> None:
    vp = sub.add_parser("verify", help="run the full invariant suite")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument(
        "--perturb-kernel",
        type=float,
        default=0.0,
        help="fault-injection test hook: add a sign-varying perturbation to sampled kernel values",
    )
    vp.add_argument("--out", default=".", help="output directory")
    vp.set_defaults(fn=cmd_verify)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="fraksolve",
        description="Solver and verification toolkit for the singular fractional "
        "clamped boundary value problem",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _add_solve_parser(sub)
    _add_kernel_parser(sub)
    _add_verify_parser(sub)
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
