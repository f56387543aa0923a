"""Tests of the benchmark itself: result schema against BENCHMARK.json,
and the output checks catching wrong answers.

    python -m pytest bench/tests
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_matches_schema(workload, trace):
    result, stdout = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    stamp = json.loads(stdout.strip().splitlines()[-2])["stamp"]
    assert stamp["source_lines"] > 0 and stamp["numpy"] == np.__version__


def test_same_seed_repeats_ops_and_failures():
    """The op count comes from the seed and --seconds, not from a deadline,
    so two runs of one seed attempt the same ops and fail the same ones."""
    first, _ = _run("verify_suite", 0)
    second, _ = _run("verify_suite", 0)
    assert first["attempted"] == second["attempted"] > 1
    assert first["failed"] == second["failed"]


def test_no_result_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _exact(alpha: float, t: np.ndarray) -> np.ndarray:
    return t ** (alpha - 1.0) * (1.0 - t) ** 2


def test_manufactured_check_flags_wrong_solution():
    alpha = 3.4
    t = np.linspace(0.0, 1.0, 33)
    assert checks.check_manufactured(alpha, t, _exact(alpha, t)).ok
    wrong = checks.check_manufactured(alpha, t, 1.001 * _exact(alpha, t))
    assert not wrong.ok and not wrong.loud


def test_unit_check_uses_closed_form():
    from fraksolve import GreenParams, green_weight_integral

    t = np.linspace(0.0, 1.0, 33)
    closed = green_weight_integral(GreenParams(3.5, 0.5), t)
    assert checks.check_unit(closed, closed * (1 + 1e-9)).ok
    assert not checks.check_unit(closed, closed + 1e-4 * np.sin(np.pi * t)).ok


def test_fixed_point_check_flags_negative_or_unconverged():
    u = np.array([0.0, 0.1, 0.2, 0.0])
    assert checks.check_fixed_point(u, np.array([1e-3, 1e-11]), 1e-10).ok
    assert not checks.check_fixed_point(u - 0.15, np.array([1e-11]), 1e-10).ok
    assert not checks.check_fixed_point(u, np.array([1e-3, 1e-6]), 1e-10).ok


def test_verify_check_flags_failed_check_even_with_exit_zero():
    passing = {"passed": True, "checks": [{"name": "a", "passed": True}]}
    failing = {"passed": False, "checks": [{"name": "kernel_positivity_alpha_4", "passed": False}]}
    assert checks.check_verify(0, passing).ok
    loud = checks.check_verify(4, failing)
    assert not loud.ok and loud.loud and loud.failed_checks == ["kernel_positivity_alpha_4"]
    silent = checks.check_verify(0, failing)
    assert not silent.ok and not silent.loud


def test_sweep_op_check_flags_wrong_artifact(tmp_path):
    """A sweep op whose solution file was tampered with after a clean exit
    is reported as a wrong answer, not as a loud failure."""
    import workloads

    workloads.load()
    rng = np.random.default_rng(3)
    op = workloads.SweepCold().make_op(rng, 0, tmp_path / "op0")  # op 0 is manufactured
    assert op.call() == 0
    assert op.check(0).ok
    path = tmp_path / "op0" / "solution.csv"
    t, u = checks.read_table(path)
    lines = ["t,u"] + [f"{a:.17g},{b:.17g}" for a, b in zip(t, u + 1e-3 * t * (1 - t))]
    path.write_text("\n".join(lines) + "\n")
    outcome = op.check(0)
    assert not outcome.ok and not outcome.loud
