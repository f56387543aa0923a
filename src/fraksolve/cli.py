"""Command-line surface: solve problems, dump kernel data, run the
verification suite.

Exit codes: 0 success, 1 malformed input (a command-line usage error, and
a g that leaves its domain or evaluates negative, included), 2 certificate
failure without --uncertified, 3 non-convergence, 4 verification-suite
failure.

``main`` alone turns an exception into exit 1 and one ``error:`` line.  A
command does all of its work before its one ``_write`` of its artifacts,
so an exit 1 leaves nothing in ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from .exprparse import EvalDomainError, ParseError
from .fcontraction import CATALOG_IDS, control_catalog, verify_control_class, verify_wardowski
from .kernel import (
    GreenParams,
    green_eval,
    green_weight_integral,
    green_weight_integral_max,
    origin_continuity_bound,
)
from .quadrature import (
    MAX_POINTS,
    MIN_PRODUCT_POINTS,
    integrate_green,
    jacobi_rule,
    product_weights,
    shared_samples,
)
from .solver import (
    MAX_GRID,
    ConeViolationError,
    NonConvergenceError,
    ProblemSpec,
    certify_contraction,
    check_positivity,
    check_residual_step,
    grunwald_letnikov_residual,
    solve,
)
from .specfun import beta, gamma

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_CERTIFICATE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VERIFY_FAILED = 4

SWEEP_ALPHAS = (3.01, 3.5, 4.0)
SWEEP_SIGMAS = (0.1, 0.5, 0.9)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write(out, files: dict) -> None:
    """Create directory ``out`` and write each of ``files`` by its suffix:
    a ``.csv`` name takes ``(header, rows)``, a ``.json`` name any JSON
    value."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        with open(out / name, "w") as fh:
            if name.endswith(".csv"):
                header, rows = content
                fh.write(header + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
            else:
                json.dump(content, fh, indent=2, sort_keys=True)
                fh.write("\n")


def _load_problem_file(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # nesting deeper than the interpreter's stack
            raise ValueError("malformed JSON: arrays or objects nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("problem file must contain a JSON object")
    unknown = set(data) - {f.key for f in _FIELDS}
    if unknown:
        raise ValueError(f"unknown problem keys: {sorted(unknown)}")
    return data


# One row per problem field, in flag order: JSON key (the ProblemSpec
# argument of that name, save that alpha and sigma form its GreenParams and
# lambda is its lambda_claim), solve flag (None: file only), argparse type,
# flag help, and whether the field is required; optional fields left out
# take ProblemSpec's defaults.  Values go to GreenParams and ProblemSpec as
# given, and those check them.
_Field = namedtuple("_Field", "key flag type help required", defaults=(False,))
_FIELDS = (
    _Field("alpha", "--alpha", float, None, True),
    _Field("sigma", "--sigma", float, None, True),
    _Field("g", "--g", str, "regularized nonlinearity g(t,u), an expression in t and u", True),
    _Field("lambda", "--lambda", float, "claimed contraction constant", True),
    _Field("tau", "--tau", float, None, True),
    _Field("tol", "--tol", float, None),
    _Field("grid_points", "--grid", int, "collocation grid size"),
    _Field("quad_points", "--quad", int, "Gauss-Legendre points near the kernel's kink"),
    _Field("max_iters", "--max-iters", int, None),
    _Field("u_max", "--umax", float, "certificate sampling range for u"),
    _Field("enforce_cone", None, None, None),
)


def _build_spec(args) -> ProblemSpec:
    data = _load_problem_file(args.problem) if args.problem else {}
    for f in _FIELDS:
        if f.flag and getattr(args, f.key) is not None:
            data[f.key] = getattr(args, f.key)
    if args.allow_signed_g:
        data["enforce_cone"] = False
    missing = [f.key for f in _FIELDS if f.required and f.key not in data]
    if missing:
        raise ValueError(f"missing problem fields: {missing} (supply a file or flags)")
    for f in _FIELDS:  # JSON has one number type: 33.0 in a size field is 33
        if f.type is int and isinstance(data.get(f.key), float) and data[f.key].is_integer():
            data[f.key] = int(data[f.key])
    params = GreenParams(data.pop("alpha"), data.pop("sigma"))
    spec = ProblemSpec(params, lambda_claim=data.pop("lambda"), **data)
    spec.g_callable()  # syntax errors surface with their offset before any work
    return spec


def cmd_solve(args) -> int:
    """Certificate, solve, positivity report and residual, then one write of
    the artifacts of the exit taken; certificate.json is in every one."""
    spec = _build_spec(args)
    check_residual_step(args.h)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    certificate = certify_contraction(spec, seed=args.seed)
    files = {"certificate.json": certificate.to_dict()}
    if not certificate.passed and not args.uncertified:
        _write(args.out, files)
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
        files["trace.csv"] = ("iter,delta", enumerate(exc.trace, 1))
        _write(args.out, files)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    u = result.u
    report = check_positivity(spec, u, seed=args.seed)
    profile = grunwald_letnikov_residual(spec, u, args.h)
    files["solution.csv"] = ("t,u", zip(u.nodes, u.values))
    files["trace.csv"] = ("iter,delta", enumerate(result.trace, 1))
    files["positivity.json"] = dataclasses.asdict(report)
    files["residual.csv"] = ("t,residual", zip(profile.checkpoints, profile.residuals))
    if args.format == "json":
        files["solution.json"] = {"t": list(u.nodes), "u": list(u.values)}
        files["trace.json"] = {"delta": list(result.trace)}
        files["residual.json"] = {"t": list(profile.checkpoints), "residual": list(profile.residuals)}
    _write(args.out, files)
    print(
        f"converged in {result.iterations} sweeps; "
        f"certificate {certificate.verdict}; positivity: {report.verdict}"
    )
    return EXIT_OK


def cmd_kernel(args) -> int:
    params = GreenParams(args.alpha, args.sigma)
    if not 2 <= args.grid <= MAX_GRID:
        raise ValueError(f"--grid must be in [2, {MAX_GRID}]")
    if not MIN_PRODUCT_POINTS <= args.quad <= MAX_POINTS:
        raise ValueError(f"--quad must be in [{MIN_PRODUCT_POINTS}, {MAX_POINTS}]")
    ts = np.linspace(0.0, 1.0, args.grid)
    gv = green_eval(params, ts[:, None], ts[None, :])
    g_rows = ((t, s, g) for t, row in zip(ts, gv) for s, g in zip(ts, row))
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    l_rows = zip(ts, green_weight_integral(params, ts), integrate_green(params, ts, one, args.quad))
    n_value, t_star = green_weight_integral_max(params)
    _write(args.out, {"green.csv": ("t,s,G", g_rows), "L.csv": ("t,L_closed,L_quad", l_rows)})
    print(f"N = {_fmt(n_value)} at t_star = {_fmt(t_star)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite


def _check(name: str, metric: float, tolerance: float, passed: bool | None = None) -> dict:
    """One verify.json entry; passes when metric <= tolerance unless told."""
    return {
        "name": name,
        "metric": float(metric),
        "tolerance": float(tolerance),
        "passed": bool(metric <= tolerance) if passed is None else passed,
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


# random (t, s) samples of the positivity check, and how many are drawn
# and evaluated at once: with 800 KB whole-stream temporaries glibc
# returned and refaulted its heap on every call; 64 KB blocks stay below
# its 128 KB thresholds one by one
_KERNEL_SAMPLES = 100_000
_KERNEL_BLOCK = 8192


def _kernel_checks(alpha: float, seed: int, perturb: float) -> list[dict]:
    params = GreenParams(alpha, 0.5)  # G does not depend on sigma
    geval = _perturbed_green(params, perturb)
    # one stream: t takes its first _KERNEL_SAMPLES doubles, s the next
    # ones (a second generator moved past t), then the kink points
    key = [seed, int(alpha * 100)]
    t_rng, rng = np.random.default_rng(key), np.random.default_rng(key)
    rng.bit_generator.advance(_KERNEL_SAMPLES)
    gmin = np.inf
    for start in range(0, _KERNEL_SAMPLES, _KERNEL_BLOCK):
        size = min(_KERNEL_BLOCK, _KERNEL_SAMPLES - start)
        t, s = t_rng.random(size), rng.random(size)
        interior = (t > 0) & (t < 1) & (s > 0) & (s < 1)
        # G on every sample, reduced over the interior: no masked copies;
        # np.minimum keeps a NaN, where min(gmin, nan) would drop it
        gmin = np.minimum(gmin, np.min(geval(t, s), where=interior, initial=np.inf))
    gmin = float(gmin)
    checks = [
        _check(f"kernel_positivity_alpha_{alpha:g}", -gmin, 0.0, passed=gmin > 0.0)
    ]
    ss = np.linspace(0.0, 1.0, 257)
    edge = max(
        float(np.max(np.abs(geval(np.zeros_like(ss), ss)))),
        float(np.max(np.abs(geval(np.ones_like(ss), ss)))),
    )
    checks.append(_check(f"kernel_boundary_zero_alpha_{alpha:g}", edge, 0.0, passed=edge == 0.0))
    tk = rng.uniform(0.05, 0.95, size=64)
    eps = 1e-6
    jump = float(np.max(np.abs(geval(tk, tk - eps) - geval(tk, tk + eps))))
    checks.append(_check(f"kernel_kink_continuity_alpha_{alpha:g}", jump, 1e-4))
    return checks


# reference points of the product rule the combination checks run, and
# the 32 interior points they check it at
_COMBO_QUAD = 48
_COMBO_T = np.linspace(0.0, 1.0, 34)[1:-1]
# a power of s beyond the samples' degree (11), so that the rule's
# interpolation of the forcing on the samples is in error
_COMBO_POWER = 20


@functools.cache  # called with the nine sweep pairs only
def _combo_weights(alpha: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The product-rule weights at ``_COMBO_T`` with ``_COMBO_QUAD``
    reference points, and the integrals of cos by the rule of twice as
    many, all that ``split_consistency`` reads of it."""
    params = GreenParams(alpha, sigma)
    doubled = product_weights(params, _COMBO_T, 2 * _COMBO_QUAD)
    return product_weights(params, _COMBO_T, _COMBO_QUAD), doubled @ np.cos(shared_samples())


def _combo_checks(alpha: float, sigma: float) -> list[dict]:
    params = GreenParams(alpha, sigma)
    tag = f"alpha_{alpha:g}_sigma_{sigma:g}"
    ts, s = _COMBO_T, shared_samples()
    weights, doubled_cos = _combo_weights(alpha, sigma)
    consist = np.max(np.abs(weights.sum(axis=1) - green_weight_integral(params, ts)))
    checks = [_check(f"weight_integral_consistency_{tag}", consist, 1e-8)]
    ends = max(abs(green_weight_integral(params, 0.0)), abs(green_weight_integral(params, 1.0)))
    checks.append(_check(f"weight_integral_boundary_{tag}", ends, 1e-12))
    # both rules read cos at the same samples: this bounds how the rule
    # near the kink depends on its size, not the interpolation of cos
    split = np.max(np.abs(weights @ np.cos(s) - doubled_cos))
    checks.append(_check(f"split_consistency_{tag}", split, 1e-9))
    # the interpolation of the forcing, against the closed form of
    # integral G(t, s) s^(k - sigma) ds, k = _COMBO_POWER
    a, k = alpha, _COMBO_POWER
    power = (ts ** (a - 2.0) * ((a - 1.0 - (a - 2.0) * ts) * beta(k + 2.0 - sigma, a - 1.0)
                                - ts * beta(k + 1.0 - sigma, a - 1.0))
             + ts ** (a + k - sigma) * beta(k + 1.0 - sigma, a)) / gamma(a)
    power_err = np.max(np.abs(weights @ s**k - power)) / np.max(power)
    checks.append(_check(f"power_forcing_closed_form_{tag}", power_err, 1e-10))
    # |H(t) - H(0)| dominated by the closed bound, for sampled bounded forcings
    worst = -math.inf
    tb = ts[::4]
    fine = np.linspace(0.0, 1.0, 2001)
    for f_reg in (np.ones_like, np.cos, lambda x: 0.25 + x):
        m_bound = float(np.max(np.abs(f_reg(fine))))
        h_t = np.abs(weights[::4] @ f_reg(s))
        bound = [origin_continuity_bound(params, float(t), m_bound) for t in tb]
        worst = max(worst, float(np.max(h_t - bound)))
    checks.append(_check(f"origin_bound_domination_{tag}", worst, 1e-12))
    return checks


def _beta_identity_checks(seed: int) -> list[dict]:
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
        _check("beta_identity_order_raise", e1, 1e-12),
        _check("beta_identity_first_arg_shift", e2, 1e-12),
    ]
    x = rng.uniform(0.05, 20.0, size=500)
    y = rng.uniform(0.05, 20.0, size=500)
    sym = max(abs(beta(a, b) - beta(b, a)) / beta(a, b) for a, b in zip(x.tolist(), y.tolist()))
    checks.append(_check("beta_symmetry", sym, 1e-13))
    return checks


def _quadrature_checks() -> list[dict]:
    checks = []
    for sigma in SWEEP_SIGMAS:
        worst = 0.0
        for n in (1, 4, 8, 48):
            rule = jacobi_rule(n, sigma)
            ks = np.arange(0, 2 * n)
            moments = np.array([float(np.dot(rule.weights, rule.nodes**k)) for k in ks])
            worst = max(worst, float(np.max(np.abs(moments - 1.0 / (ks + 1 - sigma)))))
        checks.append(_check(f"jacobi_moments_sigma_{sigma:g}", worst, 1e-12))
    return checks


def _contraction_checks() -> list[dict]:
    checks = []
    ok = all(verify_control_class(control_catalog(cid)).passed for cid in CATALOG_IDS)
    checks.append(_check("control_catalog_membership", 0.0 if ok else 1.0, 0.0, passed=ok))
    identity_rep = verify_wardowski(
        [0.0, 1.0], lambda x: x, lambda x, y: abs(x - y), tau=0.5, phi=control_catalog("neg_inv_sqrt")
    )
    flagged = not identity_rep.passed
    checks.append(
        _check("wardowski_flags_identity_map", 0.0 if flagged else 1.0, 0.0, passed=flagged)
    )
    return checks


def run_verify_suite(seed: int = 0, perturb_kernel: float = 0.0) -> dict:
    """Run every invariant check across the built-in parameter sweep."""
    checks: list[dict] = []
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
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if not math.isfinite(args.perturb_kernel):
        raise ValueError(f"--perturb-kernel must be finite, got {args.perturb_kernel}")
    report = run_verify_suite(seed=args.seed, perturb_kernel=args.perturb_kernel)
    out = Path(args.out)
    _write(out, {"verify.json": report})
    n_fail = sum(not c["passed"] for c in report["checks"])
    print(f"{len(report['checks'])} checks, {n_fail} failed -> {out / 'verify.json'}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def _add_solve_parser(sub) -> None:
    sp = sub.add_parser("solve", help="solve a problem and write solution artifacts")
    sp.add_argument("problem", nargs="?", help="JSON problem file; flags override its values")
    for f in _FIELDS:
        if f.flag:
            sp.add_argument(f.flag, dest=f.key, type=f.type, help=f.help)
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


class _Parser(argparse.ArgumentParser):
    """Hands a usage error back to main as bad input (exit 1); argparse
    would exit 2, which here means a certificate failure."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process: building it costs
    several times what parsing does."""
    ap = _Parser(
        prog="fraksolve",
        description="Solver and verification toolkit for the singular fractional "
        "clamped boundary value problem",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _add_solve_parser(sub)
    _add_kernel_parser(sub)
    _add_verify_parser(sub)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except ParseError as exc:
        print(f"error: invalid expression: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
    # EvalDomainError, ConeViolationError: g left its domain or the cone
    except (argparse.ArgumentError, OSError, ValueError, TypeError,
            EvalDomainError, ConeViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
