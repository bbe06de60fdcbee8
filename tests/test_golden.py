"""Golden CLI outputs: stdout and exit code must match the recordings byte for byte.

The inputs and the recorded outputs live in ``tests/data/golden/``.  Rerun
``python tests/test_golden.py`` to rewrite the recordings, and only when an
output change is intended.
"""

from pathlib import Path

import pytest

from graphtail import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

_EX9 = ["--graph", str(GOLDEN / "ex9.json")]
_BOUNDS_EX9 = ["bounds", *_EX9, "--t", "3", "--m", "2", "--include-mcdiarmid"]
_BOUNDS_TREE = ["bounds", "--graph", str(GOLDEN / "tree6.json"), "--c", "1,2,3,1,2,1",
                "--t", "4", "--include-mcdiarmid"]
_C9 = ["--c", "1,2,3,1,2,3,1,2,3"]
_ESTIMATE = ["simulate", "--spec", str(GOLDEN / "block_factor.json"), "--t-grid", "0.5:2:4",
             "--seed", "8", "--n", "20000"]


_JOINT_TREE = ["--spec", str(GOLDEN / "joint_tree5.json")]


def _validate(spec: str, t: str) -> list[str]:
    return ["simulate", "--spec", str(GOLDEN / spec), "--t", t, "--seed", "5",
            "--n", "20000", "--validate"]


CASES = {
    "bounds-ex9.csv": (0, _BOUNDS_EX9 + ["--format", "csv"]),
    "bounds-ex9.json": (0, _BOUNDS_EX9 + ["--format", "json"]),
    "bounds-tree6.csv": (0, _BOUNDS_TREE + ["--format", "csv"]),
    "bounds-tree6.json": (0, _BOUNDS_TREE + ["--format", "json"]),
    "covers-chi-f.json": (0, ["covers", "chi-f", *_EX9]),
    "covers-arboricity.json": (0, ["covers", "arboricity", *_EX9]),
    "covers-decomposable.json": (0, ["covers", "decomposable", *_EX9, *_C9]),
    "covers-decomposable-greedy.json": (0, ["covers", "decomposable", *_EX9, *_C9,
                                            "--strategy", "greedy"]),
    "simulate-estimates.csv": (0, _ESTIMATE + ["--format", "csv"]),
    "simulate-estimates.json": (0, _ESTIMATE + ["--format", "json"]),
    "validate-block.csv": (0, _validate("block_factor.json", "1,2,3") + ["--format", "csv"]),
    "validate-block.json": (0, _validate("block_factor.json", "1,2,3") + ["--format", "json"]),
    "validate-tree.csv": (0, _validate("latent_tree.json", "1,2,3") + ["--format", "csv"]),
    "validate-tree.json": (0, _validate("latent_tree.json", "1,2,3") + ["--format", "json"]),
    "validate-triangle.csv": (0, _validate("triangle9.json", "1,2,3,4") + ["--format", "csv"]),
    "verify-coupling-tree.json": (0, ["verify", "coupling", *_JOINT_TREE]),
    # full support but dependent along no path: pins the worst pair
    "verify-coupling-raw.json": (3, ["verify", "coupling", "--spec", str(GOLDEN / "joint_raw3.json")]),
    "verify-dependency-edgeless.json": (3, ["verify", "dependency", *_JOINT_TREE,
                                            "--graph", str(GOLDEN / "edgeless5.json")]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recording(name, capsys):
    code, argv = CASES[name]
    assert cli.run(argv) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import contextlib
    import io
    import sys

    for name, (expected, argv) in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        if code != expected:
            sys.exit(f"{name}: exit {code}, expected {expected}")
        (GOLDEN / name).write_text(buf.getvalue())
