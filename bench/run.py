"""fraksolve benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; fraksolve is imported from its
``src/`` directory, never from an installed copy.  The workloads are in
``workloads.py`` and ``BENCHMARK.json`` lists the metrics.

A run sets up ``SETUP_REPS`` times (drop fraksolve's modules, import
afresh, run one untimed op that fills the caches) and reports the median
as ``setup_s``.  It then runs ops back to back, times each op, and checks
each op's output (``checks.py``).  Inputs come from ``--seed`` alone, and
so does the number of ops: a run makes ``--seconds`` times the workload's
``nominal_rate`` ops, which takes about ``--seconds`` seconds on a 2-core
AMD EPYC.  A fixed count, not a deadline, means that the same seed gives
the same ops, so ``attempted`` and ``failed`` (verify_suite's known
kernel-positivity failures are deterministic per seed) repeat exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
blocks of untraced and traced ops (``spans.py``) and prints the per-layer
metrics, per traced op, plus ``trace.overhead``, the traced median op time
over the untraced one.

The last line of standard output is the result object.  ``failed`` counts
ops whose exit code or output check failed (``error_rate`` is
failed/attempted); ``correct`` is false when an op presented a wrong
output as a success.  Lines before it stamp the run with the code and the
machine and summarise failures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 9
TRACE_BLOCK = 6  # ops per traced/untraced block: covers sweep_cold's grid x g cycle
# Timing metrics are taken per third of a run's ops and the median of the
# three is reported, so a burst of load from outside the process that
# stalls one part of the run does not set the figure.
WINDOWS = 3


def _windowed(ms: list[float], stat) -> float:
    n = len(ms)
    k = min(WINDOWS, n)
    return statistics.median(stat(ms[j * n // k:(j + 1) * n // k]) for j in range(k))


def _p(q: float):
    import numpy as np

    return lambda part: float(np.percentile(part, q))


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded into this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def stamp() -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    sources = sorted((SRC / "fraksolve").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "source_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


@contextlib.contextmanager
def quiet():
    """Keep the program's per-op prints out of the result stream."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        yield sink


def measure_setup(wl, rng, work: Path) -> list[float]:
    """Seconds to import fraksolve afresh and run one untimed op, per rep."""
    import workloads

    setup_s = []
    for r in range(SETUP_REPS):
        workloads.purge()
        start = time.perf_counter()
        workloads.load()
        op = wl.make_op(rng, 0, work / f"setup{r}")
        with quiet():
            op.call()
        setup_s.append(time.perf_counter() - start)
        workloads.remove(op.out)
    return setup_s


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np

    import checks
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[workload_name]()
    work = WORK / f"{workload_name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    setup_rng = np.random.default_rng([seed, 1])
    rng = np.random.default_rng([seed, 0])

    setup_s = measure_setup(wl, setup_rng, work)
    tracer = Tracer()
    latency = {False: [], True: []}
    failed = wrong = 0
    failures: Counter = Counter()
    first_failure = ""
    artifact_files = artifact_bytes = 0
    retained: dict[tuple, int] = {}  # operators cached since the last import
    peak_operator_bytes = 0

    n_ops = max(1, round(seconds * wl.nominal_rate))
    for i in range(n_ops):
        if wl.session_ops and i and i % wl.session_ops == 0:
            workloads.purge()
            workloads.load()
            retained.clear()
        traced = trace and (i // TRACE_BLOCK) % 2 == 1
        op = wl.make_op(rng, i, work / f"op{i}")
        with quiet() as sink:
            restore = tracer.install() if traced else None
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an op's failure is a result, not the run's
                result = exc
            elapsed = time.perf_counter() - start
            if restore is not None:
                tracer.uninstall(restore)
        latency[traced].append(elapsed)
        if isinstance(result, Exception):
            outcome = checks.Outcome(False, loud=True, reason=repr(result))
        else:
            try:
                outcome = op.check(result)
            except (OSError, ValueError, KeyError) as exc:
                outcome = checks.Outcome(False, reason=f"unreadable output: {exc!r}")
        if not outcome.ok:
            failed += 1
            wrong += not outcome.loud
            failures.update(outcome.failed_checks or [outcome.reason])
            if not first_failure:
                first_failure = f"op {i}: {outcome.reason}; program said: {sink.getvalue().strip()[-300:]}"
        if op.operator_key is not None:
            retained[op.operator_key] = workloads.operator_bytes(*op.operator_key[2:])
            peak_operator_bytes = max(peak_operator_bytes, sum(retained.values()))
        if traced and op.out is not None and op.out.is_dir():
            files = [p for p in op.out.iterdir() if p.is_file()]
            artifact_files += len(files)
            artifact_bytes += sum(p.stat().st_size for p in files)
        workloads.remove(op.out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workloads.remove(work)
    with contextlib.suppress(OSError):  # still holds another run's directory
        WORK.rmdir()

    attempted = n_ops
    for reason, count in failures.most_common():
        print(f"# failed x{count}: {reason}")
    if first_failure:
        print(f"# first failure, {first_failure}", file=sys.stderr)
    summary = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    if not trace:
        ms = [s * 1e3 for s in latency[False]]
        if len(ms) < 100 * WINDOWS:
            print(f"# only {len(ms)} ops: op_ms_p90 has fewer than 10 samples beyond it per window")
        man_err, unit_err = workloads.probe_accuracy(wl.accuracy_configs)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_ms_p50": (_windowed(ms, _p(50)), "ms"),
            "op_ms_p90": (_windowed(ms, _p(90)), "ms"),
            "ops_per_s": (_windowed(ms, lambda part: 1e3 * len(part) / sum(part)), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "manufactured_sup_err": (man_err, "abs_err"),
            "unit_rel_err": (unit_err, "rel_err"),
        }
    else:
        metrics = layer_metrics(tracer, latency, failed / attempted, peak_operator_bytes,
                                artifact_files, artifact_bytes)
        if tracer.absent:
            print(f"# absent (target not in the program): {sorted(tracer.absent)}")
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return summary


def layer_metrics(tracer, latency, error_rate, operator_bytes, artifact_files, artifact_bytes) -> dict:
    """Per-layer metrics per traced op; a metric whose span target is
    absent from the program is left out."""
    from spans import LAYERS

    n = max(len(latency[True]), 1)
    stats = tracer.stats
    metrics: dict[str, tuple[float, str]] = {}

    def span(name: str, what: str, unit: str, metric: str | None = None):
        if name in tracer.absent:
            return
        s = stats.get(name)
        value = {"calls": s.calls if s else 0, "ms": s.total_s * 1e3 if s else 0.0,
                 "points": s.points if s else 0}[what] / n
        metrics[metric or f"{name}.{what}"] = (value, unit)

    for name in ("quadrature.jacobi_rule", "quadrature.integrate_green",
                 "kernel.green_eval", "kernel.green_weight_integral_max",
                 "exprparse.parse", "exprparse.evaluate"):
        span(name, "calls", "calls/op")
        span(name, "ms", "ms/op")
    span("kernel.green_eval", "points", "points/op")
    span("exprparse.evaluate", "points", "points/op")
    span("solver.operator_build", "calls", "builds/op", "solver.operator_build.count")
    span("solver.operator_build", "ms", "ms/op")
    for name in ("solver.sweep", "solver.solve", "solver.certify", "solver.positivity",
                 "solver.gl_residual", "fcontraction.verify_control_class",
                 "fcontraction.verify_wardowski"):
        span(name, "ms", "ms/op")
    span("specfun.gamma", "calls", "calls/op")
    span("specfun.beta", "calls", "calls/op")
    if not {"solver.operator_build", "solver.solve", "solver.sweep"} & tracer.absent:
        calls = {name: s.calls for name, s in stats.items()}
        builds, solves = calls.get("solver.operator_build", 0), calls.get("solver.solve", 0)
        sweeps = calls.get("solver.sweep", 0)
        # no solve means no operator lookup, so no miss either
        metrics["solver.operator_cache.hit_ratio"] = (1.0 - builds / solves if solves else 1.0, "ratio")
        metrics["solver.solve.sweeps"] = (sweeps / solves if solves else 0.0, "sweeps/solve")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (tracer.layer_self_s(layer) * 1e3 / n, "ms/op")
    metrics["solver.operator_bytes"] = (float(operator_bytes), "B-computed")
    metrics["cli.artifact_files"] = (artifact_files / n, "files/op")
    metrics["cli.artifact_bytes"] = (artifact_bytes / n, "B/op")
    metrics["error_rate"] = (error_rate, "ratio")
    if latency[True] and latency[False]:
        overhead = statistics.median(latency[True]) / statistics.median(latency[False])
        metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep_cold", "continuation_warm", "verify_suite"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "fraksolve" / "__init__.py").is_file():
        print(f"error: no fraksolve sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fraksolve

    if not Path(fraksolve.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: fraksolve imported from {fraksolve.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"stamp": stamp()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
