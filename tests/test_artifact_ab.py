import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "artifact_ab.py"
_spec = importlib.util.spec_from_file_location("artifact_ab", _PATH)
artifact_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_ab)

Run = artifact_ab.Run
first_difference = artifact_ab.first_difference


def _run(code=0, **files):
    return Run(code, {"stdout": b"converged\n", "stderr": b"", **files})


def test_identical_runs_are_same():
    a = _run(**{"out/solution.csv": b"t,u\n0,0\n"})
    b = _run(**{"out/solution.csv": b"t,u\n0,0\n"})
    assert first_difference(a, b) == "same"


def test_first_differing_output_and_byte():
    a = _run(**{"out/a.csv": b"t,u\n0,1\n", "out/b.csv": b"xyz"})
    b = _run(**{"out/a.csv": b"t,u\n0,2\n", "out/b.csv": b"xyw"})
    assert first_difference(a, b) == "out/a.csv: differs from byte 6"
    # a prefix differs where the shorter output ends
    assert first_difference(_run(**{"out/a.csv": b"t,u"}), _run(**{"out/a.csv": b"t,u\n"})) == (
        "out/a.csv: differs from byte 3")
    assert first_difference(Run(0, {"stdout": b"", "stderr": b"x"}),
                            Run(0, {"stdout": b"", "stderr": b"y"})) == "stderr: differs from byte 0"


def test_missing_file_is_a_difference():
    a = _run(**{"out/trace.csv": b"iter,delta\n"})
    assert first_difference(a, _run()) == "out/trace.csv: only on the revision side"
    assert first_difference(_run(), a) == "out/trace.csv: only on the change side"


def test_differing_exit_code_comes_first():
    a = _run(1, **{"out/x": b"1"})
    b = _run(3, **{"out/x": b"2"})
    assert first_difference(a, b) == "exit code 1 -> 3"

