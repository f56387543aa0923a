#!/usr/bin/env python3
"""A/B timing of the benchmark: a committed revision against this checkout.

    python3 scripts/bench_ab.py --rev HEAD --workload sweep_cold --seeds 41 42 43 --seconds 8

The revision's committed files are unpacked from ``git archive`` into a
temporary directory (local, no network).  This checkout's working tree,
its uncommitted edits and untracked files included (``git ls-files -co
--exclude-standard``), is copied into a second one, so both sides run
from a fresh directory of the same kind: a run's peak RSS depends on where
it runs.  ``bench/run.py --trace 0`` runs in each once per seed, each run a
fresh process.  The side that goes first alternates from pair to pair, so
a drift in machine load does not favour one side.  For every end-to-end
metric of ``BENCHMARK.json`` it prints the median and the interquartile
range (IQR) of each side, the pairs the change won, and whether the change
moved the median by more than the revision's IQR in the better direction.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric from (revision, change) metric dicts of paired
    runs; a metric missing from a pair's either side is left out of it.
    ``metrics`` are BENCHMARK.json entries: ``name`` and ``better``
    ("lower" or "higher")."""
    rows = []
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        both = [(a[name], b[name]) for a, b in pairs if name in a and name in b]
        if not both:
            continue
        base, new = [a for a, _ in both], [b for _, b in both]
        base_med, new_med, base_iqr = statistics.median(base), statistics.median(new), _iqr(base)
        rows.append({
            "name": name,
            "base_median": base_med,
            "base_iqr": base_iqr,
            "new_median": new_med,
            "new_iqr": _iqr(new),
            "wins": sum(sign * (b - a) > 0.0 for a, b in both),
            "pairs": len(both),
            "beyond_iqr": sign * (new_med - base_med) > base_iqr,
        })
    return rows


def run_bench(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """End-to-end metrics of one ``bench/run.py`` run in checkout ``root``,
    with ``failed`` and ``attempted`` added."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update(failed=result["failed"], attempted=result["attempted"])
    return metrics


def _unpack(rev: str, dest: Path, repo: Path = ROOT) -> None:
    """The committed files of ``rev`` in ``repo``, written under ``dest``."""
    tar = subprocess.run(["git", "archive", rev], cwd=repo, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def _copy_worktree(dest: Path, repo: Path = ROOT) -> None:
    """The files of ``repo``'s working tree, as they are on disk, copied
    under ``dest``: tracked ones and untracked ones git does not ignore.
    A tracked file deleted from the tree stays deleted."""
    names = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=repo,
                           capture_output=True, check=True).stdout
    for name in filter(None, names.decode().split("\0")):
        if (repo / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(repo / name, dest / name)


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True, help="the revision to compare against, e.g. HEAD")
    ap.add_argument("--workload", required=True, choices=("sweep_cold", "continuation_warm", "verify_suite"))
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair of runs per seed")
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    with (tempfile.TemporaryDirectory(prefix="bench_ab_") as base_tmp,
          tempfile.TemporaryDirectory(prefix="bench_ab_") as new_tmp):
        base_root, new_root = Path(base_tmp), Path(new_tmp)
        _unpack(args.rev, base_root)
        _copy_worktree(new_root)
        for i, seed in enumerate(args.seeds):
            order = ((base_root, new_root) if i % 2 == 0 else (new_root, base_root))
            runs = {root: run_bench(root, args.workload, seed, args.seconds) for root in order}
            pairs.append((runs[base_root], runs[new_root]))
            base, new = pairs[-1]
            print(f"# seed {seed}: " + ", ".join(
                f"{m['name']} {_fmt(base[m['name']])} -> {_fmt(new[m['name']])}"
                for m in metrics if m["name"] in base and m["name"] in new), flush=True)
            if base["failed"] or new["failed"]:
                print(f"# seed {seed}: failed ops {base['failed']} -> {new['failed']} "
                      f"of {base['attempted']}")
    print(f"{'metric':<22}{args.rev + ' median':>16}{'IQR':>11}{'change median':>16}{'IQR':>11}"
          f"{'wins':>8}  beyond IQR")
    for r in summarize(pairs, metrics):
        print(f"{r['name']:<22}{_fmt(r['base_median']):>16}{_fmt(r['base_iqr']):>11}"
              f"{_fmt(r['new_median']):>16}{_fmt(r['new_iqr']):>11}"
              f"{r['wins']:>4}/{r['pairs']:<3}  {'yes' if r['beyond_iqr'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
