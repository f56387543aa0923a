"""Control functions for the fixed-point contraction condition, and a
sampled checker for the inequality tau + phi(d(Tx,Ty)) <= phi(d(x,y)).

A control function phi: (0, inf) -> R must be (a) strictly increasing,
(b) divergent to -inf exactly along sequences tending to 0, and
(c) tamed by some power: t^k phi(t) -> 0 for a k in (0, 1).  Conditions
(b) and (c) are limit statements, so the checks here are falsification
checks on dyadic sequences of fixed depth, not proofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ControlFunction",
    "ControlClassReport",
    "WardowskiReport",
    "MetricError",
    "control_catalog",
    "CATALOG_IDS",
    "verify_control_class",
    "verify_wardowski",
]


class MetricError(ValueError):
    """The supplied pairwise distances violate a metric axiom."""


@dataclass(frozen=True)
class ControlFunction:
    """A control function with a witness exponent for condition (c)."""

    id: str
    evaluator: Callable
    k_witness: float

    def __call__(self, t):
        return self.evaluator(t)


def _neg_inv_sqrt(t):
    return -1.0 / np.sqrt(t)


def _ln(t):
    return np.log(t)


def _ln_plus_t(t):
    return np.log(t) + np.asarray(t, dtype=float)


def _ln_t2_plus_t(t):
    t = np.asarray(t, dtype=float)
    return np.log(t * t + t)


_CATALOG = {
    # t^k * t^(-1/2) -> 0 needs k > 1/2; 3/4 is a comfortable witness
    "neg_inv_sqrt": ControlFunction("neg_inv_sqrt", _neg_inv_sqrt, 0.75),
    "ln": ControlFunction("ln", _ln, 0.5),
    "ln_plus_t": ControlFunction("ln_plus_t", _ln_plus_t, 0.5),
    "ln_t2_plus_t": ControlFunction("ln_t2_plus_t", _ln_t2_plus_t, 0.5),
}

CATALOG_IDS = tuple(_CATALOG)


def control_catalog(id: str) -> ControlFunction:
    """Look up a built-in control function by id."""
    try:
        return _CATALOG[id]
    except KeyError:
        raise KeyError(f"unknown control function {id!r}; available: {CATALOG_IDS}") from None


@dataclass
class ControlClassReport:
    """Per-condition verdicts of the membership checks.

    ``divergence_depth`` is the first dyadic level 2^-n at which phi
    dropped below -_DIVERGENCE_BOUND, or None if never within the checked
    depth (divergence is then judged by the non-vanishing decrement
    alone).  The reverse implication of condition (b) -- phi(t_n) -> -inf
    forces t_n -> 0 -- holds for any strictly increasing function, so it
    is implied by condition (a) rather than sampled.
    """

    id: str
    k_witness: float
    strictly_increasing: bool
    diverges_at_zero: bool
    divergence_depth: int | None
    power_limit_ok: bool
    power_limit_value: float

    @property
    def passed(self) -> bool:
        return self.strictly_increasing and self.diverges_at_zero and self.power_limit_ok


_CLASS_SAMPLES, _DEPTH, _POWER_DEPTH = 2048, 60, 40
_DIVERGENCE_BOUND, _MIN_DECREMENT, _POWER_EPS = 1e3, 0.05, 1e-3


def verify_control_class(phi: ControlFunction) -> ControlClassReport:
    """Falsification checks of the three membership conditions.

    (a) strict monotonicity on _CLASS_SAMPLES sorted random samples in
        (0, 100];
    (b) along t_n = 2^-n, n <= _DEPTH, the values must keep falling by
        at least _MIN_DECREMENT per step (a bounded-below sequence fails
        this; actual crossing of -_DIVERGENCE_BOUND is recorded when it
        happens -- slow diverging members such as ln reach large bounds
        only at depths far beyond any fixed cutoff);
    (c) |t^k phi(t)| <= _POWER_EPS at t = 2^-_POWER_DEPTH.
    """
    rng = np.random.default_rng(0)
    # log-uniform samples cover the near-zero region where monotonicity
    # failures would hide
    ts = np.sort(np.exp(rng.uniform(np.log(1e-12), np.log(100.0), size=_CLASS_SAMPLES)))
    ts = np.unique(ts)
    vals = np.asarray(phi(ts), dtype=float)
    increasing = bool(np.all(np.diff(vals) > 0.0))

    ns = np.arange(1, _DEPTH + 1)
    dyadic = np.asarray(phi(2.0 ** (-ns.astype(float))), dtype=float)
    decrements = np.diff(dyadic)
    diverges = bool(np.all(decrements <= -_MIN_DECREMENT))
    below = np.nonzero(dyadic < -_DIVERGENCE_BOUND)[0]
    depth_hit = int(ns[below[0]]) if below.size else None

    t_small = 2.0 ** (-float(_POWER_DEPTH))
    power_val = float(abs(t_small**phi.k_witness * float(np.asarray(phi(t_small)))))
    power_ok = power_val <= _POWER_EPS

    return ControlClassReport(
        id=phi.id,
        k_witness=phi.k_witness,
        strictly_increasing=increasing,
        diverges_at_zero=diverges,
        divergence_depth=depth_hit,
        power_limit_ok=power_ok,
        power_limit_value=power_val,
    )


@dataclass
class WardowskiViolation:
    pair: tuple[int, int]
    d_before: float
    d_after: float
    lhs: float  # tau + phi(d_after), or +inf when phi(d_before) is undefined
    rhs: float


@dataclass
class WardowskiReport:
    """Result of checking tau + phi(d(Tx,Ty)) <= phi(d(x,y)) over pairs.

    ``checked`` counts pairs with d(Tx,Ty) > 0; pairs where T collapses
    the distance to 0 are vacuously fine.  ``vacuous`` is set when no
    pair needed checking (e.g. a constant map).
    """

    tau: float
    control_id: str
    checked: int
    violations: list[WardowskiViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def vacuous(self) -> bool:
        return self.checked == 0


_MAX_PAIRS, _MAX_TRIPLES = 512, 256


def _validate_metric(points: Sequence, metric: Callable) -> None:
    """Falsification check of the metric axioms; exhaustive on small sets,
    seeded samples above the caps."""
    n = len(points)
    for i in range(n):
        if abs(metric(points[i], points[i])) > 1e-12:
            raise MetricError(f"d(x, x) != 0 at index {i}")
    rng = np.random.default_rng(0)
    pairs = (
        [(i, j) for i in range(n) for j in range(i + 1, n)]
        if n * (n - 1) // 2 <= _MAX_PAIRS
        else [tuple(sorted(rng.choice(n, size=2, replace=False))) for _ in range(_MAX_PAIRS)]
    )
    for i, j in pairs:
        dij = metric(points[i], points[j])
        dji = metric(points[j], points[i])
        if dij < 0.0:
            raise MetricError(f"negative distance at pair ({i}, {j})")
        if abs(dij - dji) > 1e-12 * max(1.0, abs(dij)):
            raise MetricError(f"asymmetric distance at pair ({i}, {j})")
    triples = (
        [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
        if n**3 <= _MAX_TRIPLES
        else [tuple(rng.integers(0, n, size=3)) for _ in range(_MAX_TRIPLES)]
    )
    for i, j, k in triples:
        dij = metric(points[i], points[j])
        dik = metric(points[i], points[k])
        dkj = metric(points[k], points[j])
        if dij > dik + dkj + 1e-9 * max(1.0, dij):
            raise MetricError(f"triangle inequality fails on ({i}, {k}, {j})")


def verify_wardowski(
    points: Sequence,
    t_map: Callable,
    metric: Callable,
    tau: float,
    phi: ControlFunction,
    pairs: Sequence[tuple[int, int]] | None = None,
    tol: float = 1e-12,
) -> WardowskiReport:
    """Check the contraction inequality for t_map on a finite point set.

    ``metric`` must satisfy the metric axioms on the set (validated
    first; violations raise MetricError).  For every pair with
    d(Tx, Ty) > 0 the inequality tau + phi(d(Tx,Ty)) <= phi(d(x,y)) + tol
    must hold; violations are reported, not raised.
    """
    if not tau > 0.0:
        raise ValueError("tau must be > 0")
    points = list(points)
    _validate_metric(points, metric)
    if pairs is None:
        pairs = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))]
    images = [t_map(x) for x in points]
    report = WardowskiReport(tau=tau, control_id=phi.id, checked=0)
    for i, j in pairs:
        d_after = metric(images[i], images[j])
        if d_after <= 0.0:
            continue
        report.checked += 1
        d_before = metric(points[i], points[j])
        if d_before <= 0.0:
            # T created distance out of nothing: no phi value exists to
            # dominate the left side
            report.violations.append(
                WardowskiViolation((i, j), d_before, d_after, math.inf, -math.inf)
            )
            continue
        lhs = tau + float(np.asarray(phi(d_after)))
        rhs = float(np.asarray(phi(d_before)))
        if lhs > rhs + tol:
            report.violations.append(WardowskiViolation((i, j), d_before, d_after, lhs, rhs))
    return report
