"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q

The counter test runs every workload twice with tracing on (three to five
minutes on two cores); the others take seconds.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from graphtail import cli  # noqa: E402
from workloads import WORKLOADS, write_workload  # noqa: E402

# Work counts a later change may rest a count-based claim on: each must
# repeat exactly across traced runs of the same inputs.
EXACT_COUNTERS = (
    "covers.columns",
    "covers.part_cost_calls",
    "covers.chi_f_calls",
    "simplex.iterations",
    "simplex.solves",
    "coupling.contexts",
    "coupling.relabel_calls",
    "coupling.dependency_checks",
    "montecarlo.samples",
    "montecarlo.chunks",
)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_across_traced_runs(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1")
    first, second = _result(_run(*args)), _result(_run(*args))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    for name in EXACT_COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    def files(seed, where):
        write_workload(workload, seed, where)
        return {p.name: p.read_bytes() for p in where.iterdir()}

    assert files(3, tmp_path / "a") == files(3, tmp_path / "b")
    assert files(3, tmp_path / "a") != files(4, tmp_path / "c")


def test_checks_reject_a_wrong_objective(tmp_path):
    job = next(j for j in write_workload("cover-lp", 2, tmp_path) if j["label"].startswith("covers-chi-f"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(job["argv"])
    assert checks.check_job(job, code, out.getvalue()) == (True, None)
    payload = json.loads(out.getvalue())
    payload["objective"] += 1e-6
    ok, reason = checks.check_job(job, code, json.dumps(payload))
    assert not ok and "HiGHS" in reason
    assert not checks.check_job(job, 3, out.getvalue())[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "mc-screen", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
