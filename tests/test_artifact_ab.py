import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "artifact_ab.py"
_spec = importlib.util.spec_from_file_location("artifact_ab", _PATH)
artifact_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_ab)

Run = artifact_ab.Run
differences = artifact_ab.differences


def _run(code=0, **files):
    return Run(code, {"stdout": b"converged\n", "stderr": b"", **files})


def test_identical_runs_are_same():
    a = _run(**{"out/solution.csv": b"t,u\n0,0\n"})
    b = _run(**{"out/solution.csv": b"t,u\n0,0\n"})
    assert differences(a, b) == []


def test_first_differing_output_and_byte():
    a = _run(**{"out/a.csv": b"t,u\n0,1\n", "out/b.csv": b"xyz"})
    b = _run(**{"out/a.csv": b"t,u\n0,2\n", "out/b.csv": b"xyz"})
    assert differences(a, b) == ["out/a.csv: differs from byte 6"]
    # a prefix differs where the shorter output ends
    assert differences(_run(**{"out/a.csv": b"t,u"}), _run(**{"out/a.csv": b"t,u\n"})) == [
        "out/a.csv: differs from byte 3"]
    assert differences(Run(0, {"stdout": b"", "stderr": b"x"}),
                       Run(0, {"stdout": b"", "stderr": b"y"})) == ["stderr: differs from byte 0"]


def test_every_differing_output_is_named():
    # a difference in residual.csv does not hide a later one in solution.csv
    a = _run(**{"out/residual.csv": b"t,r\n0.2,1\n", "out/solution.csv": b"t,u\n0,0\n",
                "out/trace.csv": b"iter\n"})
    b = _run(**{"out/residual.csv": b"t,r\n0.2,2\n", "out/solution.csv": b"t,u\n0,1\n",
                "out/trace.csv": b"iter\n"})
    b.outputs["stdout"] = b"converged!\n"
    assert differences(a, b) == [
        "out/residual.csv: differs from byte 8",
        "out/solution.csv: differs from byte 6",
        "stdout: differs from byte 9",
    ]


def test_missing_file_is_a_difference():
    a = _run(**{"out/trace.csv": b"iter,delta\n"})
    assert differences(a, _run()) == ["out/trace.csv: only on the revision side"]
    assert differences(_run(), a) == ["out/trace.csv: only on the change side"]


def test_differing_exit_code_comes_first():
    a = _run(1, **{"out/x": b"1", "out/y": b"ab"})
    b = _run(3, **{"out/x": b"2", "out/y": b"ac"})
    assert differences(a, b) == [
        "exit code 1 -> 3", "out/x: differs from byte 0", "out/y: differs from byte 1"]
    assert differences(_run(1), _run(3)) == ["exit code 1 -> 3"]


def test_reference_commands_reach_the_off_lattice_and_finest_steps():
    commands = artifact_ab.REFERENCE_COMMANDS
    assert len(set(commands)) == len(commands)
    for h in ("7e-4", "1e-4"):
        assert f"solve {artifact_ab._README_G} --grid 257 --quad 128 --h {h} --out out" in commands
