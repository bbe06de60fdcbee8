"""The benchmark's tracer must find every boundary it patches.

``perfbench/tracer.py`` wraps program functions by name; a renamed or
removed one makes ``install`` raise, which this catches in seconds rather
than in a benchmark run.
"""

import importlib.util
import json
import random
from pathlib import Path

from graphtail import cli
from graphtail._simplex import CoverLp

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_traces_a_run_and_uninstall_restores(tmp_path, capsys):
    tracer_mod = load_tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer_mod.BOUNDARIES]
    spec = {
        "tree": {"n": 3, "edges": [[1, 2], [2, 3]]},
        "vertex_latents": {str(v): {"values": [0, 1], "probs": ["1/4", "3/4"]} for v in (1, 2, 3)},
        "edge_latents": {e: {"values": [0, 1], "probs": ["1/2", "1/2"]} for e in ("1-2", "2-3")},
    }
    path = tmp_path / "xor3.json"
    path.write_text(json.dumps(spec))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert cli.run(["verify", "coupling", "--spec", str(path)]) == 0
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)["ok"] is True
    names = {span[0] for span in tracer.spans}
    assert {"coupling.build_tree_joint", "coupling.verify_dependency"} <= names
    assert tracer.counts["coupling.contexts"] > 0
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_tracer_counts_every_pivot_of_column_generation(tmp_path, capsys, monkeypatch):
    """The tracer's pivot count is the sum over solves, and CoverLp comes back intact."""
    tracer_mod = load_tracer()
    methods = ("__init__", "add_column", "solve")
    originals = {attr: CoverLp.__dict__[attr] for attr in methods}
    rng = random.Random(7)
    n = 12
    edges = [[u, v] for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.3]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": n, "edges": edges}))
    argv = ["covers", "decomposable", "--graph", str(path), "--strategy", "column_generation"]

    pivots = []

    def counted_solve(self):
        before = self.iterations
        result = originals["solve"](self)
        pivots.append(result.iterations - before)
        return result

    monkeypatch.setattr(CoverLp, "solve", counted_solve)
    assert cli.run(argv) == 0
    untraced = capsys.readouterr().out
    monkeypatch.undo()

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert cli.run(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == untraced
    names = [span[0] for span in tracer.spans]
    assert names.count("simplex.solve") == len(pivots) > 2
    assert names.count("simplex.add_column") > 0
    assert tracer.counts["simplex.iterations"] == sum(pivots)
    assert all(CoverLp.__dict__[attr] is originals[attr] for attr in methods)
