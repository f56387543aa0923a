"""Output checks for benchmark ops.

No check runs the code path it checks:

* a manufactured solve is compared with the exact solution
  t^(alpha-1) (1-t)^2, evaluated here;
* a g = 1 solve is compared with the closed form L(t) =
  ``green_weight_integral``, which shares nothing with the quadrature and
  collocation operator the solver runs;
* a u-dependent solve has no reference, so its output must be a
  non-negative fixed point: every value >= 0 and a last sweep delta within
  the tolerance;
* a verify run must exit 0 with every check passed.

A check returns ``Outcome``.  ``loud`` marks a failure the program itself
reported (non-zero exit code, exception); a failure that is not loud is a
wrong answer the program presented as a success.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MANUFACTURED_TOL = 1e-6  # sup error against the exact solution
UNIT_REL_TOL = 1e-6  # sup error against L(t), relative to max L


@dataclass
class Outcome:
    ok: bool
    loud: bool = False
    reason: str = ""
    failed_checks: list[str] = field(default_factory=list)


def manufactured_error(alpha: float, t: np.ndarray, u: np.ndarray) -> float:
    exact = t ** (alpha - 1.0) * (1.0 - t) ** 2
    return float(np.max(np.abs(u - exact)))


def unit_rel_error(closed_form: np.ndarray, u: np.ndarray) -> float:
    return float(np.max(np.abs(u - closed_form)) / np.max(np.abs(closed_form)))


def check_manufactured(alpha: float, t: np.ndarray, u: np.ndarray) -> Outcome:
    err = manufactured_error(alpha, t, u)
    ok = err <= MANUFACTURED_TOL
    return Outcome(ok, reason="" if ok else f"manufactured sup error {err:.3e}")


def check_unit(closed_form: np.ndarray, u: np.ndarray) -> Outcome:
    err = unit_rel_error(closed_form, u)
    ok = err <= UNIT_REL_TOL
    return Outcome(ok, reason="" if ok else f"g=1 relative error {err:.3e}")


def check_fixed_point(u: np.ndarray, trace: np.ndarray, tol: float) -> Outcome:
    if not np.all(u >= 0.0):
        return Outcome(False, reason=f"negative solution value {float(np.min(u)):.3e}")
    if trace.size == 0 or not trace[-1] <= tol:
        last = float(trace[-1]) if trace.size else float("nan")
        return Outcome(False, reason=f"last sweep delta {last:.3e} above tol {tol:.1e}")
    return Outcome(True)


def check_verify(exit_code: int, report: dict) -> Outcome:
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if exit_code == 0 and not failed and report["passed"]:
        return Outcome(True)
    loud = exit_code != 0
    return Outcome(False, loud=loud, reason=f"exit {exit_code}, failed {failed}", failed_checks=failed)


def read_table(path: Path) -> np.ndarray:
    """Columns of a two-column CSV artifact with a header line."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
