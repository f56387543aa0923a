"""Per-layer spans recorded from outside the program.

Each span wraps one public function (or one method of a public class) of a
fraksolve module.  The wrapper replaces every binding of the original
object in the loaded fraksolve modules, so a name imported with
``from .x import y`` is traced as well as the module attribute, and the
originals are put back when tracing ends.  Nothing under ``src/`` knows it
is being traced.

Spans are aggregated as they close rather than stored: a verify op opens
about ten thousand of them, and the aggregate (calls, inclusive time, self
time, points) is all the per-layer metrics need.  Self time is a span's
duration minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _points(a, b) -> int:
    """Element count of the broadcast of two array-like arguments."""
    return math.prod(np.broadcast_shapes(np.shape(a), np.shape(b)))


def _points_args12(*args, **kwargs) -> int:
    # green_eval(params, t, s) and evaluate(expr, t, u): points of (t, s|u)
    return _points(args[1], args[2]) if len(args) >= 3 else 0


@dataclass(frozen=True)
class Target:
    """A span name and the attribute path it wraps: ``module`` is the
    fraksolve submodule, ``attr`` a function or ``Class.method``."""

    span: str
    module: str
    attr: str
    points: Callable | None = None


# Layers are the fraksolve modules; a span's layer is its name's first part.
TARGETS = (
    Target("cli.main", "cli", "main"),
    Target("exprparse.parse", "exprparse", "parse"),
    Target("exprparse.evaluate", "exprparse", "evaluate", _points_args12),
    Target("quadrature.jacobi_rule", "quadrature", "jacobi_rule"),
    Target("quadrature.legendre_rule", "quadrature", "legendre_rule"),
    Target("quadrature.integrate_green", "quadrature", "integrate_green"),
    Target("kernel.green_eval", "kernel", "green_eval", _points_args12),
    Target("kernel.green_weight_integral", "kernel", "green_weight_integral"),
    Target("kernel.green_weight_integral_max", "kernel", "green_weight_integral_max"),
    Target("specfun.gamma", "specfun", "gamma"),
    Target("specfun.beta", "specfun", "beta"),
    Target("solver.certify", "solver", "certify_contraction"),
    Target("solver.solve", "solver", "solve"),
    Target("solver.positivity", "solver", "check_positivity"),
    Target("solver.gl_residual", "solver", "grunwald_letnikov_residual"),
    Target("solver.operator_build", "solver", "DiscreteGreenOperator.__init__"),
    Target("solver.sweep", "solver", "DiscreteGreenOperator.apply"),
    Target("fcontraction.verify_control_class", "fcontraction", "verify_control_class"),
    Target("fcontraction.verify_wardowski", "fcontraction", "verify_wardowski"),
)

LAYERS = ("cli", "solver", "exprparse", "quadrature", "kernel", "specfun", "fcontraction")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    points: int = 0


@dataclass
class Tracer:
    """Aggregated spans of the traced ops of one run."""

    stats: dict[str, SpanStats] = field(default_factory=dict)
    # names whose wrapped attribute does not exist in the program
    absent: set[str] = field(default_factory=set)
    _stack: list[list[float]] = field(default_factory=list)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        stats = self.stats.setdefault(target.span, SpanStats())
        stack = self._stack
        points = target.points
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if points is not None:
                    stats.points += points(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every target in the loaded fraksolve modules; returns the
        bindings to restore.  A target that is missing is recorded as
        absent and skipped."""
        loaded = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "fraksolve" or name.startswith("fraksolve."))
        ]
        restore: list[tuple[object, str, object]] = []
        for target in TARGETS:
            owner = sys.modules.get(f"fraksolve.{target.module}")
            cls_name, _, meth = target.attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                original = vars(owner).get(meth) if isinstance(owner, type) else None
            else:
                original = getattr(owner, meth, None)
            if original is None:
                self.absent.add(target.span)
                continue
            wrapper = self._wrap(target, original)
            if cls_name:
                restore.append((owner, meth, original))
                setattr(owner, meth, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return restore

    @staticmethod
    def uninstall(restore: list[tuple[object, str, object]]) -> None:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for name, s in self.stats.items() if name.split(".")[0] == layer)
