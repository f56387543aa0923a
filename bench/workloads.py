"""The benchmark's workloads.

Each user path of fraksolve is bound by a different layer, so no one
workload stands in for the others:

* ``sweep_cold`` -- the CLI user's parameter sweep.  Every op draws a fresh
  (alpha, sigma), so the operator and Gauss-Jacobi rule caches miss on every
  op: rule build, operator build, the certificate's N search, the
  Grunwald-Letnikov residual and argparse/artifact I/O dominate; Picard
  sweeps are a few percent.
* ``continuation_warm`` -- library-API continuation in the forcing strength
  c at one (alpha, sigma) and a fine grid.  After set-up every op hits the
  cached 135 MB operator, so the same solver layer is used the other way:
  sweep matvecs, expression evaluation and the GL residual dominate.
* ``verify_suite`` -- the invariant suite with a fresh seed per op.  The
  solver is idle; scalar ``integrate_green`` on cached rules,
  ``green_eval`` (100k samples per alpha), the special functions and the
  contraction harness carry the op.

Every CLI op writes its artifacts into a fresh directory.  Overwriting an
existing artifact on an ext4 root costs about 60 ms per file (the flush on
replace), which made a default CLI solve take ~300 ms, against ~3 ms into a
fresh directory; that cost belongs to the disk, not to the program.

The operator cache never evicts, so a long in-process sweep retains about
2.6 MB per op (ROADMAP item 3).  A CLI user runs each solve in its own
process; ``sweep_cold`` models a sweep script of ``SESSION_OPS`` solves and
re-imports fraksolve between sessions (untimed), so peak memory reports one
session and does not grow with the number of ops a faster program fits
into the run.
"""

from __future__ import annotations

import gc
import importlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SESSION_OPS = 50
SWEEP_GRIDS = ((33, 48), (65, 64))  # (grid, quad) pairs the sweep alternates


def purge() -> None:
    """Drop every fraksolve module, and with them the program's caches."""
    for name in list(sys.modules):
        if name == "fraksolve" or name.startswith("fraksolve."):
            del sys.modules[name]
    gc.collect()


def load() -> None:
    importlib.import_module("fraksolve.cli")


def api():
    """The fraksolve package as currently imported (re-resolved after
    ``purge``/``load`` and seen through any installed span wrappers)."""
    return sys.modules["fraksolve"]


def cli():
    return sys.modules["fraksolve.cli"]


def operator_bytes(grid: int, quad: int) -> int:
    """Computed size of one collocation operator: two barycentric maps of
    shape (grid*quad, grid) in float64."""
    return 2 * grid * quad * grid * 8


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], checks.Outcome]
    # (alpha, sigma, grid, quad) of the collocation operator the op uses
    operator_key: tuple | None = None
    out: Path | None = None


class SweepCold:
    name = "sweep_cold"
    nominal_rate = 100.0  # ops/s on a 2-core AMD EPYC: sets the ops per run
    session_ops = SESSION_OPS
    # Every op's output is checked, but the worst error over random draws
    # moves ~20% between seeds with how close a draw lands to the corner
    # alpha -> 3.05, sigma -> 0.95 where it peaks.  The accuracy columns are
    # therefore taken on a fixed lattice over the sweep box that contains
    # that corner, at both grid sizes.
    accuracy_configs = tuple(
        (a, s, grid, quad) for a in (3.05, 3.5, 4.0) for s in (0.05, 0.5, 0.95)
        for grid, quad in SWEEP_GRIDS
    )
    KINDS = ("manufactured", "unit", "dependent")

    def make_op(self, rng: np.random.Generator, i: int, out: Path) -> Op:
        alpha = float(rng.uniform(3.05, 4.0))
        sigma = float(rng.uniform(0.05, 0.95))
        # c * N <= 20 * 0.044 < 0.96 over the whole (alpha, sigma) box, so
        # lambda = c always certifies
        c = float(rng.uniform(0.5, 20.0))
        grid, quad = SWEEP_GRIDS[i % 2]
        kind = self.KINDS[i % 3]
        g = {"manufactured": "manufactured", "unit": "1",
             "dependent": f"1 + {c!r}*u/(1+sqrt(u))^2"}[kind]
        argv = ["solve", "--alpha", repr(alpha), "--sigma", repr(sigma), "--g", g,
                "--lambda", repr(c), "--tau", "1", "--grid", str(grid), "--quad", str(quad),
                "--out", str(out)]
        if kind == "manufactured":
            argv.append("--allow-signed-g")

        def check(rc) -> checks.Outcome:
            if rc != 0:
                return checks.Outcome(False, loud=True, reason=f"exit code {rc}")
            t, u = checks.read_table(out / "solution.csv")
            if kind == "manufactured":
                return checks.check_manufactured(alpha, t, u)
            if kind == "unit":
                fs = api()
                closed = fs.green_weight_integral(fs.GreenParams(alpha, sigma), t)
                return checks.check_unit(closed, u)
            _, trace = checks.read_table(out / "trace.csv")
            return checks.check_fixed_point(u, trace, tol=1e-10)

        return Op(
            call=lambda: cli().main(argv),
            check=check,
            operator_key=(alpha, sigma, grid, quad),
            out=out,
        )


class ContinuationWarm:
    name = "continuation_warm"
    nominal_rate = 36.0  # ops/s on a 2-core AMD EPYC: sets the ops per run
    session_ops = None
    ALPHA, SIGMA, GRID, QUAD = 3.5, 0.5, 257, 128
    accuracy_configs = ((ALPHA, SIGMA, GRID, QUAD),)

    def make_op(self, rng: np.random.Generator, i: int, out: Path) -> Op:
        # each solve starts from u = 0, so an op's cost depends on its own c
        # (5-15 sweeps) and not on the op before it
        c = float(rng.uniform(0.5, 40.0))

        def call():
            fs = api()
            spec = fs.ProblemSpec(
                fs.GreenParams(self.ALPHA, self.SIGMA), f"1 + {c!r}*u/(1+sqrt(u))^2",
                lambda_claim=c, tau=1.0, grid_points=self.GRID, quad_points=self.QUAD,
            )
            result = fs.solve(spec)
            fs.check_positivity(spec, result.u)
            profile = fs.grunwald_letnikov_residual(spec, result.u, 1e-3)
            return spec, result, profile

        def check(outcome) -> checks.Outcome:
            spec, result, profile = outcome
            if not np.all(np.isfinite(profile.residuals)):
                return checks.Outcome(False, reason="non-finite GL residual")
            return checks.check_fixed_point(result.u.values, np.asarray(result.trace), spec.tol)

        return Op(call, check, operator_key=(self.ALPHA, self.SIGMA, self.GRID, self.QUAD))


class VerifySuite:
    name = "verify_suite"
    nominal_rate = 13.0  # ops/s on a 2-core AMD EPYC: sets the ops per run
    session_ops = None
    # no op solves anything; the accuracy columns are taken over the
    # suite's own (alpha, sigma) sweep at the CLI's default sizes
    accuracy_configs = tuple(
        (a, s, 33, 48) for a in (3.01, 3.5, 4.0) for s in (0.1, 0.5, 0.9)
    )

    def make_op(self, rng: np.random.Generator, i: int, out: Path) -> Op:
        seed = int(rng.integers(0, 2**31 - 1))
        argv = ["verify", "--seed", str(seed), "--out", str(out)]

        def check(rc) -> checks.Outcome:
            if not (out / "verify.json").is_file():
                return checks.Outcome(False, loud=True, reason=f"exit code {rc}, no report")
            return checks.check_verify(rc, json.loads((out / "verify.json").read_text()))

        return Op(call=lambda: cli().main(argv), check=check, out=out)


WORKLOADS = {w.name: w for w in (SweepCold, ContinuationWarm, VerifySuite)}


def probe_accuracy(configs) -> tuple[float, float]:
    """Manufactured sup error and g = 1 relative error of library solves
    at fixed configurations, checked as the ops are."""
    fs = api()
    man = unit = 0.0
    for alpha, sigma, grid, quad in configs:
        params = fs.GreenParams(alpha, sigma)
        spec = fs.ProblemSpec(params, "manufactured", 1.0, 1.0, quad_points=quad,
                              grid_points=grid, enforce_cone=False)
        u = fs.solve(spec).u
        man = max(man, checks.manufactured_error(alpha, u.nodes, u.values))
        spec = fs.ProblemSpec(params, "1", 1.0, 1.0, quad_points=quad, grid_points=grid)
        u = fs.solve(spec).u
        unit = max(unit, checks.unit_rel_error(fs.green_weight_integral(params, u.nodes), u.values))
    return man, unit


def remove(out: Path | None) -> None:
    if out is not None:
        shutil.rmtree(out, ignore_errors=True)
