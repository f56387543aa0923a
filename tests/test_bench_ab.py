import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

METRICS = [{"name": "op_ms_p50", "better": "lower"}, {"name": "ops_per_s", "better": "higher"},
           {"name": "setup_s", "better": "lower"}]


def test_summary_medians_iqr_and_wins():
    pairs = [({"op_ms_p50": a, "ops_per_s": 1e3 / a}, {"op_ms_p50": b, "ops_per_s": 1e3 / b})
             for a, b in [(6.0, 3.5), (6.4, 3.6), (6.5, 6.6), (7.0, 3.4), (6.2, 3.5)]]
    rows = {r["name"]: r for r in bench_ab.summarize(pairs, METRICS)}
    assert set(rows) == {"op_ms_p50", "ops_per_s"}  # setup_s is in no run
    p50 = rows["op_ms_p50"]
    assert (p50["base_median"], p50["new_median"]) == (6.4, 3.5)
    assert p50["base_iqr"] == pytest.approx(6.5 - 6.2)  # inclusive quartiles of 5 values
    assert p50["new_iqr"] == pytest.approx(3.6 - 3.5)
    assert (p50["wins"], p50["pairs"], p50["beyond_iqr"]) == (4, 5, True)
    # the same pairs seen as a rate: higher is better, so the wins agree
    per_s = rows["ops_per_s"]
    assert (per_s["wins"], per_s["pairs"], per_s["beyond_iqr"]) == (4, 5, True)


def test_summary_tie_is_no_win_and_small_gain_is_within_iqr():
    pairs = [({"op_ms_p50": a}, {"op_ms_p50": b})
             for a, b in [(5.0, 4.9), (4.0, 4.1), (6.0, 6.1), (5.5, 5.5)]]
    (row,) = bench_ab.summarize(pairs, METRICS)
    assert row["wins"] == 1 and row["pairs"] == 4
    assert (row["base_median"], row["new_median"]) == (5.25, 5.2)
    assert row["base_iqr"] == pytest.approx(5.625 - 4.75) and not row["beyond_iqr"]


def test_summary_single_pair_has_zero_iqr():
    (row,) = bench_ab.summarize([({"setup_s": 0.2}, {"setup_s": 0.3})], METRICS)
    assert row["base_iqr"] == row["new_iqr"] == 0.0
    assert row["wins"] == 0 and not row["beyond_iqr"]


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_text()
            for p in root.rglob("*") if p.is_file() and ".git" not in p.parts}


def test_both_sides_are_prepared_as_fresh_copies(tmp_path):
    repo, base, new = tmp_path / "repo", tmp_path / "base", tmp_path / "new"
    for d in (repo, base, new):
        d.mkdir()
    (repo / "src").mkdir()
    (repo / "src" / "kept.py").write_text("committed\n")
    (repo / "src" / "edited.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")
    (repo / ".gitignore").write_text("*.log\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "edited.py").write_text("uncommitted\n")
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()

    bench_ab._unpack("HEAD", base, repo)
    bench_ab._copy_worktree(new, repo)
    assert _files(base) == {"src/kept.py": "committed\n", "src/edited.py": "committed\n",
                            "gone.py": "committed\n", ".gitignore": "*.log\n"}
    assert _files(new) == {"src/kept.py": "committed\n", "src/edited.py": "uncommitted\n",
                           "src/new.py": "untracked\n", ".gitignore": "*.log\n"}
