"""Golden CLI outputs: stdout must match the recorded files byte for byte.

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


def _validate(spec: str, t: str) -> list[str]:
    return ["simulate", "--spec", str(GOLDEN / spec), "--t", t, "--seed", "5",
            "--n", "20000", "--validate"]


CASES = {
    "bounds-ex9.csv": _BOUNDS_EX9 + ["--format", "csv"],
    "bounds-ex9.json": _BOUNDS_EX9 + ["--format", "json"],
    "bounds-tree6.csv": _BOUNDS_TREE + ["--format", "csv"],
    "bounds-tree6.json": _BOUNDS_TREE + ["--format", "json"],
    "covers-chi-f.json": ["covers", "chi-f", *_EX9],
    "covers-arboricity.json": ["covers", "arboricity", *_EX9],
    "covers-decomposable.json": ["covers", "decomposable", *_EX9, *_C9],
    "covers-decomposable-greedy.json": ["covers", "decomposable", *_EX9, *_C9,
                                        "--strategy", "greedy"],
    "simulate-estimates.csv": _ESTIMATE + ["--format", "csv"],
    "simulate-estimates.json": _ESTIMATE + ["--format", "json"],
    "validate-block.csv": _validate("block_factor.json", "1,2,3") + ["--format", "csv"],
    "validate-block.json": _validate("block_factor.json", "1,2,3") + ["--format", "json"],
    "validate-tree.csv": _validate("latent_tree.json", "1,2,3") + ["--format", "csv"],
    "validate-tree.json": _validate("latent_tree.json", "1,2,3") + ["--format", "json"],
    "validate-triangle.csv": _validate("triangle9.json", "1,2,3,4") + ["--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_recording(name, capsys):
    assert cli.run(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import contextlib
    import io
    import sys

    for name, argv in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(buf.getvalue())
