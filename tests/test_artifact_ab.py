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
    assert differences(a, b) == ["out/a.csv: differs from byte 6, largest difference 1 in row 1"]
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
        "out/residual.csv: differs from byte 8, largest difference 1 in row 1",
        "out/solution.csv: differs from byte 6, largest difference 1 in row 1",
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


def test_numbers_that_keep_their_shape_get_the_largest_difference():
    a = _run(**{"out/solution.csv": b"t,u\n0,0\n0.5,0.25\n1,0\n",
                "out/residual.json": b'{"residual": [0.5, 0.25], "t": [0.2, 0.8]}'})
    b = _run(**{"out/solution.csv": b"t,u\n0,0\n0.5,0.25000000000000006\n1,1e-17\n",
                "out/residual.json": b'{"residual": [0.5, 0.2500001], "t": [0.2, 0.8]}'})
    assert differences(a, b) == [
        "out/residual.json: differs from byte 23, largest difference 1e-07 in residual[1]",
        "out/solution.csv: differs from byte 16, largest difference 5.55e-17 in row 2",
    ]
    # a same-length number list at the top level, with integers
    a, b = _run(**{"out/x.json": b"[1, 2, 3]"}), _run(**{"out/x.json": b"[1, 2, 3.5]"})
    assert differences(a, b) == ["out/x.json: differs from byte 8, largest difference 0.5 in [2]"]


def test_numbers_that_change_shape_get_the_byte_only():
    csv_rows = (b"t,u\n0,0\n1,0\n", b"t,u\n0,0\n")
    csv_header = (b"t,u\n0,0\n", b"t,v\n0,0\n")
    json_keys = (b'{"r": [1.0]}', b'{"s": [1.0]}')
    json_text = (b'{"verdict": "pass", "N": 1.0}', b'{"verdict": "fail", "N": 2.0}')
    json_bool = (b'{"passed": true, "N": 1.0}', b'{"passed": false, "N": 1.0}')
    for name, (x, y) in [("out/a.csv", csv_rows), ("out/a.csv", csv_header),
                         ("out/a.json", json_keys), ("out/a.json", json_text),
                         ("out/a.json", json_bool),
                         ("out/a.txt", (b"1\n", b"2\n")), ("out/a.json", (b"[1", b"[2"))]:
        found = differences(_run(**{name: x}), _run(**{name: y}))
        assert len(found) == 1 and found[0].startswith(f"{name}: differs from byte ")
        assert "largest" not in found[0]
        assert artifact_ab.largest_difference(name, x, y) is None


def test_reference_commands_reach_sweep_colds_slowest_op():
    # a cold u-reading 65-point solve: it builds the 65 <- 65 map
    assert ("solve --alpha 3.3 --sigma 0.3 --g \"1+20*u/(1+sqrt(u))^2\" --lambda 20 --tau 1"
            " --grid 65 --quad 64 --out out") in artifact_ab.REFERENCE_COMMANDS
