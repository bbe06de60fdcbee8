"""The benchmark's tracer must find every boundary it patches.

``perfbench/tracer.py`` wraps program functions by name; a renamed or
removed one makes ``install`` raise, which this catches in seconds rather
than in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

from graphtail import cli

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
