"""Every definition in ``src/graphtail`` has a use somewhere in the project.

A function, class, method or property counts as used when its name appears
as a ``Name``, an ``Attribute``, an import alias or a whole string constant
(the benchmark's tracer names the functions it patches as strings) in any
module under ``src/``, ``tests/`` or ``perfbench/``.  A definition with no
such use is dead code: delete it rather than keep it tested.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphtail"
SEARCHED = ("src", "tests", "perfbench")

# Hooks a framework calls by name: argparse reports usage errors through
# ``ArgumentParser.error``, and Python calls the dunder methods.
FRAMEWORK_HOOKS = {("_Parser", "error")}


def _definitions(tree: ast.Module):
    """(enclosing class or None, name, line) of every def and class, nested ones included."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((owner, child.name, child.lineno))
                visit(child, child.name if isinstance(child, ast.ClassDef) else owner)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def _used_names() -> set[str]:
    used = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return used


def test_every_definition_has_a_use():
    used = _used_names()
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, name, line in _definitions(ast.parse(path.read_text(), str(path))):
            hook = (name.startswith("__") and name.endswith("__")) or (owner, name) in FRAMEWORK_HOOKS
            if not hook and name not in used:
                dead.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not dead, "definitions with no use:\n" + "\n".join(dead)
