#!/usr/bin/env python3
"""Byte-identity A/B of the command line: a committed revision against this checkout.

    python3 scripts/artifact_ab.py --rev HEAD

The revision's committed files are unpacked from ``git archive`` into a
temporary directory (as ``bench_ab.py`` does), and every reference command
below runs once on each side, each run a fresh ``python -m fraksolve.cli``
process with that side's ``src`` first on ``PYTHONPATH``, in a temporary
working directory of its own.  Commands write to ``--out out``, so the
paths they print match.  The exit code, stdout, stderr and every file
under ``out`` are compared byte for byte.  One line per command says
``same`` or ``differs``; under a differing one, an indented line names
each difference: the exit codes, then every differing output with the
byte offset where it starts to differ.  A differing ``.csv`` or ``.json``
output that keeps its shape (same rows, same keys, same text cells) also
gets its largest absolute difference over the numbers and where it is, so
a change at rounding level can be quoted.  The exit status is 1 on any
difference.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

_README_G = '--alpha 3.5 --sigma 0.5 --g "1 + 0.1*ln(1+u)" --lambda 0.5 --tau 1'
_LADDER_G = '--g "1+20*u/(1+sqrt(u))^2" --lambda 20 --tau 1'
_SIGNED = "--alpha 3.5 --sigma 0.5 --g manufactured --lambda 1 --tau 1 --allow-signed-g"
# committed problem files, read by absolute path from this checkout on both sides
_PROBLEMS = ROOT / "scripts" / "problems"

# fraksolve arguments; every exit code of the command line is reached
REFERENCE_COMMANDS = (
    f"solve {_README_G} --out out",
    f"solve {_README_G} --grid 257 --quad 128 --out out",
    f"solve {_SIGNED} --grid 257 --quad 128 --out out",
    f"solve {_SIGNED} --grid 65 --quad 64 --out out",
    f"solve {_SIGNED} --grid 1024 --quad 64 --out out",  # u-free g on the largest grid
    "solve --alpha 3.5 --sigma 0.5 --g unit --lambda 1 --tau 1 --grid 257 --quad 128 --out out",
    'solve --alpha 3.5 --sigma 0.5 --g "1+t^2" --lambda 1 --tau 1 --grid 129 --quad 64 --out out',
    # g reading both t and u, and a u-only g that fails the monotonicity check
    'solve --alpha 3.5 --sigma 0.5 --g "1 + 0.1*t*ln(1+u)" --lambda 0.5 --tau 1 --grid 257 '
    '--quad 128 --out out',
    'solve --alpha 3.5 --sigma 0.5 --g "1 + 0.001*sqrt(10.5-u)" --lambda 0.01 --tau 1 --out out',
    # a cold u-reading 65-point solve, sweep_cold's slowest kind of op
    f"solve --alpha 3.3 --sigma 0.3 {_LADDER_G} --grid 65 --quad 64 --out out",
    f"solve --alpha 3.3 --sigma 0.3 {_LADDER_G} --grid 513 --quad 128 --out out",
    f"solve --alpha 3.5 --sigma 0.5 {_LADDER_G} --grid 1024 --quad 64 --out out",
    f"solve {_README_G} --h 1e-4 --out out",
    f"solve {_README_G} --grid 257 --quad 128 --h 7e-4 --out out",  # off-lattice step
    f"solve {_README_G} --grid 257 --quad 128 --h 1e-4 --out out",
    f"solve {_README_G} --h 3e-3 --format json --out out",  # off-lattice stencil, JSON copies
    'solve --alpha 3.5 --sigma 0.5 --g "0.1*u - 1" --lambda 2 --tau 1 --out out',  # 1: cone
    'solve --alpha 3.5 --sigma 0.5 --g "sqrt(u-1)" --lambda 1 --tau 1 --out out',  # 1: domain
    f"solve {_README_G} --no-such-flag --out out",  # 1: usage
    'solve --alpha 3.5 --sigma 0.5 --g "1 +" --lambda 1 --tau 1 --out out',  # 1: expression
    'solve --alpha 3.5 --sigma 0.5 --g "5*u" --lambda 500 --tau 1 --out out',  # 2
    f"solve {_README_G} --grid 257 --quad 128 --max-iters 3 --out out",  # 3
    "verify --perturb-kernel 1e-3 --out out",  # 4
    "verify --seed 7 --perturb-kernel 1e-3 --out out",  # 4
    "--help",
    "kernel --alpha 3.5 --sigma 0.5 --out out",
    # JSON integers, integral floats as sizes (33.0) and enforce_cone
    f"solve {shlex.quote(str(_PROBLEMS / 'integral_sizes.json'))} --out out",
    f"solve {shlex.quote(str(_PROBLEMS / 'tau_text.json'))} --out out",  # 1: "tau": "1"
    "verify --seed 0 --out out",
    "verify --seed 7 --out out",
    "verify --seed 12345 --out out",
    "verify --seed 100019 --out out",
)


class Run(NamedTuple):
    """One command's exit code and outputs: ``stdout``, ``stderr`` and
    ``out/<path>`` for every file it wrote, each as bytes."""

    code: int
    outputs: dict[str, bytes]


def _cells(name: str, data: bytes) -> list[tuple[str, object]] | None:
    """The cells of a ``.csv`` or ``.json`` output in order, each with
    where it sits, numbers as floats: ``row i`` of a CSV (the header is
    row 0), the path of a JSON value (``residual[3]``).  None for other
    outputs and for ones that do not parse."""
    def cell(text: str) -> object:
        try:
            return float(text)
        except ValueError:
            return text

    def leaves(value, path: str):
        if isinstance(value, dict):
            for key, item in value.items():
                yield from leaves(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from leaves(item, f"{path}[{i}]")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path, float(value)
        else:
            yield path, value

    try:
        if name.endswith(".csv"):
            rows = csv.reader(io.StringIO(data.decode()))
            return [(f"row {i}", cell(text)) for i, row in enumerate(rows) for text in row]
        if name.endswith(".json"):
            return list(leaves(json.loads(data), ""))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError among them
        pass
    return None


def largest_difference(name: str, a: bytes, b: bytes) -> str | None:
    """``largest difference D in WHERE`` over the numbers of two versions
    of an output that keep its shape (see ``_cells``), else None."""
    cells_a, cells_b = _cells(name, a), _cells(name, b)
    if cells_a is None or cells_b is None or len(cells_a) != len(cells_b):
        return None
    largest = None
    for (where, x), (where_b, y) in zip(cells_a, cells_b):
        numbers = isinstance(x, float) and isinstance(y, float)
        if where != where_b or (x != y and not numbers):
            return None
        if numbers and (largest is None or abs(x - y) > largest[0]):
            largest = (abs(x - y), where)
    return None if largest is None else f"largest difference {largest[0]:.3g} in {largest[1]}"


def differences(base: Run, new: Run) -> list[str]:
    """Every difference of two runs, none when they are the same: the exit
    codes, then by name each output only one side has, or that differs,
    with the byte offset where it starts to differ and, for a ``.csv`` or
    ``.json`` that keeps its shape, ``largest_difference``."""
    found = [f"exit code {base.code} -> {new.code}"] if base.code != new.code else []
    for name in sorted(base.outputs.keys() | new.outputs.keys()):
        a, b = base.outputs.get(name), new.outputs.get(name)
        if a is None or b is None:
            found.append(f"{name}: only on the {'revision' if b is None else 'change'} side")
        elif a != b:
            offset = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            largest = largest_difference(name, a, b)
            found.append(f"{name}: differs from byte {offset}"
                         + (f", {largest}" if largest else ""))
    return found


def run_command(root: Path, command: str) -> Run:
    """``command`` run by checkout ``root``'s fraksolve in a fresh process
    and a fresh working directory."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory(prefix="artifact_ab_") as cwd:
        proc = subprocess.run([sys.executable, "-m", "fraksolve.cli", *shlex.split(command)],
                              cwd=cwd, env=env, capture_output=True)
        outputs = {"stdout": proc.stdout, "stderr": proc.stderr}
        out = Path(cwd) / "out"
        for path in sorted(out.rglob("*")) if out.is_dir() else ():
            if path.is_file():
                outputs[f"out/{path.relative_to(out).as_posix()}"] = path.read_bytes()
    return Run(proc.returncode, outputs)


def main(argv=None) -> int:
    from bench_ab import _unpack

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True, help="the revision to compare against, e.g. HEAD")
    args = ap.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory(prefix="artifact_ab_rev_") as tmp:
        base_root = Path(tmp)
        _unpack(args.rev, base_root)
        for command in REFERENCE_COMMANDS:
            base, new = run_command(base_root, command), run_command(ROOT, command)
            found = differences(base, new)
            differ += bool(found)
            print(f"{'differs' if found else 'same':<8} exit {new.code}  fraksolve {command}")
            for line in found:
                print(f"    {line}")
            sys.stdout.flush()
    print(f"{len(REFERENCE_COMMANDS) - differ} of {len(REFERENCE_COMMANDS)} commands same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
