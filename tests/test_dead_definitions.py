"""Every definition in ``src/graphtail`` has a use somewhere in the project.

A function, class, method or property counts as used when its name appears
as a loaded ``Name``, an ``Attribute``, an import alias or a whole string constant
(the benchmark's tracer names the functions it patches as strings) in any
module under ``src/``, ``tests/`` or ``perfbench/``.  A definition with no
such use is dead code: delete it rather than keep it tested.

Likewise every defaulted parameter of a function there is passed, by keyword
or by position, by some call of the function's name in those modules.  A
default no call overrides is a constant in disguise.

And every module-level UPPER_CASE constant there is read: its name is used
as above, which its own assignment (a stored ``Name``) is not.

And every field of a dataclass or NamedTuple there is read: its name is
loaded as an attribute or is a whole string constant in those modules, or
its class is passed to ``dataclasses.fields``.  Setting a field, by keyword
or by assignment, is not reading it.
"""

import ast
import re
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
                    if isinstance(node.ctx, ast.Load):
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


def _constants(tree: ast.Module):
    """(name, line) of every module-level UPPER_CASE constant assigned in ``tree``."""
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and re.fullmatch(r"_*[A-Z][A-Z0-9_]*", target.id):
                found.append((target.id, node.lineno))
    return found


def test_every_constant_is_read():
    used = _used_names()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _constants(ast.parse(path.read_text(), str(path))):
            if name not in used:
                unread.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not unread, "constants nothing reads:\n" + "\n".join(unread)


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


def _record_fields(tree: ast.Module):
    """(class, field, line) of every annotated field of a dataclass or NamedTuple in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list] + node.bases
        if not any(getattr(m, "id", getattr(m, "attr", None)) in ("dataclass", "NamedTuple") for m in marks):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                found.append((node.name, item.target.id, item.lineno))
    return found


def _field_reads() -> tuple[set[str], set[str]]:
    """Names loaded as attributes or written as whole strings, and classes passed to ``fields``."""
    read, listed = set(), set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
                elif isinstance(node, ast.Call):
                    if getattr(node.func, "id", getattr(node.func, "attr", None)) == "fields":
                        listed.update(a.id for a in node.args if isinstance(a, ast.Name))
    return read, listed


def test_every_record_field_is_read():
    read, listed = _field_reads()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, name, line in _record_fields(ast.parse(path.read_text(), str(path))):
            if cls not in listed and name not in read:
                unread.append(f"{path.relative_to(ROOT)}:{line} {cls}.{name}")
    assert not unread, "record fields nothing reads:\n" + "\n".join(unread)
