"""The scripts the README documents run against the current API, each in
this process as ``python scripts/<name>.py`` would run it."""

import itertools
import math
import runpy
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, capsys, name: str, *args: str) -> list[list[str]]:
    """The script's table rows, split: the lines after the header, the
    first line that starts with a column name (``grid`` or ``alpha``)."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(_SCRIPTS / name), run_name="__main__")
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    header = next(i for i, words in enumerate(lines) if words[0] in ("grid", "alpha"))
    return lines[header + 1:]


def test_manufactured_convergence_prints_one_row_per_grid_and_quad(monkeypatch, capsys):
    rows = _run(monkeypatch, capsys, "manufactured_convergence.py", "--alpha", "3.5")
    keys = [(int(r[0]), int(r[1])) for r in rows]
    assert keys == list(itertools.product((9, 17, 33, 65), (8, 16, 32, 48, 96)))
    errors = {key: float(r[2]) for key, r in zip(keys, rows)}
    assert all(math.isfinite(e) for e in errors.values())
    # the error falls with the rule size on every grid
    for grid in (9, 17, 33, 65):
        assert errors[(grid, 96)] < errors[(grid, 8)] <= 1e-4


@pytest.mark.parametrize("args, pairs", [
    ((), list(itertools.product((3.01, 3.25, 3.5, 3.75, 4.0), (0.1, 0.3, 0.5, 0.7, 0.9)))),
    (("--alphas", "3.5", "4.0", "--sigmas", "0.5"), [(3.5, 0.5), (4.0, 0.5)]),
])
def test_kernel_constants_prints_one_row_per_alpha_and_sigma(monkeypatch, capsys, args, pairs):
    rows = _run(monkeypatch, capsys, "kernel_constants.py", *args)
    assert [(float(r[0]), float(r[1])) for r in rows] == pairs
    for r in rows:
        n_value, t_star, inv = float(r[2]), float(r[3]), float(r[4])
        assert n_value > 0.0 and 0.0 < t_star < 1.0
        assert inv == pytest.approx(1.0 / n_value, rel=1e-4)
