"""Runs one workload's jobs in a fresh process and writes what it measured.

Usage: python3 perfbench/worker.py JOBS_JSON RESULT_JSON SECONDS TRACE [SPANS_OUT]

Jobs call ``graphtail.cli.run(argv)`` in-process with stdout captured, as a
closed loop with one client: each job starts when the previous one returns,
cycling through the job list until SECONDS have passed and every job has run
at least once.  With TRACE=1 one more pass runs with the boundary tracer
installed.  Outputs are checked only after all timing is done.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import graphtail.cli as cli

import checks
from tracer import Tracer


def run_job(run, argv: list[str]) -> tuple[float, int, str]:
    """(wall seconds, exit code, stdout) of one CLI invocation."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    except Exception:  # a traceback is a failed job, not a failed benchmark
        return time.perf_counter() - start, -1, traceback.format_exc()
    return time.perf_counter() - start, code, out.getvalue()


def closed_loop(jobs: list[dict], seconds: float) -> dict[str, list]:
    runs = {job["id"]: [] for job in jobs}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(jobs) or time.perf_counter() < deadline:
        job = jobs[i % len(jobs)]
        runs[job["id"]].append(run_job(cli.run, job["argv"]))
        i += 1
    return runs


def traced_pass(jobs: list[dict]) -> tuple[dict[str, list], Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.root(cli.run)
        runs = {}
        for k, job in enumerate(jobs):
            tracer.job = k
            runs[job["id"]] = [run_job(root, job["argv"])]
    finally:
        tracer.uninstall()
    return runs, tracer


def check_runs(jobs: list[dict], *run_sets) -> tuple[int, int, list[str], dict]:
    """(attempted, failed, failure reasons, first stdout per job) over every run.

    Repeats of a job must print byte-identical output; each output is
    checked once.
    """
    attempted = failed = 0
    reasons: list[str] = []
    first: dict[str, str] = {}
    for job in jobs:
        verdicts: dict[tuple, tuple] = {}
        for runs in run_sets:
            for _, code, out in runs[job["id"]]:
                attempted += 1
                if (code, out) not in verdicts:
                    verdicts[(code, out)] = checks.check_job(job, code, out)
                ok, reason = verdicts[(code, out)]
                if ok and first.setdefault(job["id"], out) != out:
                    ok, reason = False, "output differs from the job's first run"
                if not ok:
                    failed += 1
                    reasons.append(f"{job['id']}: {reason}")
    return attempted, failed, reasons, first


def job_walls(runs: dict[str, list]) -> dict[str, float]:
    """Median wall time of each job over its repeats."""
    return {job_id: statistics.median(r[0] for r in rs) for job_id, rs in runs.items()}


def main(argv: list[str]) -> int:
    jobs_path, result_path, seconds, trace = argv[:4]
    jobs = json.loads(open(jobs_path).read())
    runs = closed_loop(jobs, float(seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = job_walls(runs)
    subcommand_s: dict[str, float] = {}
    for job in jobs:
        command = job["argv"][0]
        subcommand_s[command] = subcommand_s.get(command, 0.0) + walls[job["id"]]
    result = {
        "wall_s": sum(walls.values()),
        "peak_rss_mb": peak_rss_mb,
        "subcommand_s": subcommand_s,
        "job_wall_s": walls,
    }
    run_sets = [runs]
    if trace == "1":
        traced_runs, tracer = traced_pass(jobs)
        run_sets.append(traced_runs)
        traced_wall = sum(job_walls(traced_runs).values())
        result["layers"], result["layer_self_s"] = tracer.summarize(traced_wall)
        result["layers"]["trace.overhead_s"] = traced_wall - result["wall_s"]
        if len(argv) > 4:
            tracer.write(argv[4])
    attempted, failed, reasons, first = check_runs(jobs, *run_sets)
    result.update(attempted=attempted, failed=failed, failures=reasons)
    colgen = [job["id"] for job in jobs if job["check"]["kind"] == "colgen"]
    if colgen and colgen[0] in first:
        result["colgen_objective"] = json.loads(first[colgen[0]])["objective"]
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
