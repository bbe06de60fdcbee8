"""Every definition in ``src/graphtail`` has a use somewhere in the project.

A function, class, method or property counts as used when its name appears
as a ``Name``, an ``Attribute``, an import alias or a whole string constant
(the benchmark's tracer names the functions it patches as strings) in any
module under ``src/``, ``tests/`` or ``perfbench/``.  A definition with no
such use is dead code: delete it rather than keep it tested.

Likewise every defaulted parameter of a function there is passed, by keyword
or by position, by some call of the function's name in those modules.  A
default no call overrides is a constant in disguise.
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


def _functions(tree: ast.Module):
    """(def, the name its callers call, leading parameters a call leaves implicit) per def.

    A constructor is called by its class's name, and a method's call passes
    ``self`` without writing it.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = (child.args.posonlyargs + child.args.args)[:1]
                implicit = 1 if cls and first and first[0].arg in ("self", "cls") else 0
                found.append((child, cls if child.name == "__init__" else child.name, implicit))
            visit(child, child.name if isinstance(child, ast.ClassDef) else None)

    visit(tree, None)
    return found


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the searched modules, by the name it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` may set the parameter ``name`` at ``position`` (None: keyword-only)."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: a **mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_set_somewhere():
    """A default that no call overrides is a constant: write it as one."""
    calls = _calls()
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, called_as, implicit in _functions(ast.parse(path.read_text(), str(path))):
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = [(p.arg, i - implicit) for i, p in enumerate(positional)]
            defaulted = defaulted[len(positional) - len(a.defaults):]
            defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for name, position in defaulted:
                if not any(_passes(call, name, position) for call in calls.get(called_as, ())):
                    unset.append(f"{path.relative_to(ROOT)}:{fn.lineno} {fn.name}({name})")
    assert not unset, "defaulted parameters no call sets:\n" + "\n".join(unset)
