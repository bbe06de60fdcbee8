"""List the statements of ``src/graphtail`` that no tier-1 test executes.

Usage (from anywhere; it finds the repository from its own path):

    python tests/unreached_lines.py [PYTEST_ARGS ...] > unreached.txt

Test paths among the arguments are read from the repository root.

It runs the test suite in-process (by default every test under ``tests``,
as ``pytest`` at the repository root does; any arguments replace that
selection) under ``sys.settrace`` and ``threading.settrace``, tracing only
frames whose code lives in ``src/graphtail``.  It then prints each statement
that no test reached as ``path:line text``, in file and line order.
Docstrings and ``def`` / ``class`` lines are left out, and so are ``try``,
``global`` and ``nonlocal`` lines, which compile to no code of their own.
A statement spanning several lines counts as reached when any line of it
(of its header, for a compound statement) runs.

It needs only the standard library and the test suite's own dependencies.  Pytest's report goes to
stderr, so stdout holds the list alone, printed whatever the tests do.  A
test that fails under tracing (one that bounds its own run time, say) is run
again, untraced, in a fresh pytest process, and stderr names only those that
fail there too.  Nothing is written into the repository: the runs have no
pytest cache and no bytecode files, the traced one no hypothesis database,
and their working directory is a temporary one.  Tracing makes the suite about twice
as slow (108 s against 44 s on 2 cores, Python 3.11).  Pytest does not
collect this file.
"""

import ast
import contextlib
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphtail"

_HEADER_FIELDS = ("test", "target", "iter", "items", "subject")
_NO_CODE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try, ast.Global, ast.Nonlocal)


def _docstrings(tree: ast.Module) -> set[ast.stmt]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    out.add(first)
    return out


def statements(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each statement's own code, in line order."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE) or node in skip:
            continue
        if hasattr(node, "body"):  # a compound statement: its header only
            parts = []
            for name in _HEADER_FIELDS:
                value = getattr(node, name, None)
                parts += value if isinstance(value, list) else [value] if value else []
            parts = [p.context_expr if isinstance(p, ast.withitem) else p for p in parts]
            end = max((p.end_lineno for p in parts), default=node.lineno)
        else:
            end = node.end_lineno
        spans.append((node.lineno, end))
    return sorted(spans)


class _NoDeadline:
    """A pytest plugin: a hypothesis profile without deadline or database, for traced runs."""

    @pytest.hookimpl(tryfirst=True)  # before hypothesis's own plugin loads the profile
    def pytest_configure(self, config):
        from hypothesis import settings  # imported here: pytest rewrites its plugin's modules

        settings.register_profile("unreached-lines", database=None, deadline=None)


class _Failures:
    """A pytest plugin: the ids of the tests that fail, in the order they ran."""

    def __init__(self):
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.ids:
            self.ids.append(report.nodeid)


def _argv(args: list[str]) -> list[str]:
    """Pytest's arguments for a run from any working directory, test paths read from the root."""
    args = [str(ROOT / a) if (ROOT / a.split("::")[0]).exists() else a for a in args]
    return ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
            *(args or [str(ROOT / "tests")])]


def trace_suite(args: list[str]) -> tuple[int, list[str], dict[str, set[int]]]:
    """Run pytest with ``args`` under tracing: its exit code, failed test ids and lines run per file."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    failures = _Failures()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        os.chdir(tmp)
        threading.settrace(global_)
        sys.settrace(global_)
        try:
            code = pytest.main([*_argv(args), "--hypothesis-profile", "unreached-lines"],
                               plugins=[_NoDeadline(), failures])
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(here)
    return code, failures.ids, hits


def fails_untraced(test_id: str) -> bool:
    """Whether the test fails again, run alone and untraced in a fresh pytest process."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run([sys.executable, "-m", "pytest", *_argv([test_id])], cwd=tmp, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode != 0


def main(args: list[str]) -> int:
    code, failed, hits = trace_suite(args)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        for first, last in statements(source):
            if ran.isdisjoint(range(first, last + 1)):
                print(f"{path.relative_to(ROOT)}:{first} {lines[first - 1].strip()}")
    print(f"pytest exit code {code} under tracing", file=sys.stderr)
    for test_id in failed:
        if fails_untraced(test_id):
            print(f"fails untraced too: {test_id}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
