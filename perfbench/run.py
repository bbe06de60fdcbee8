"""graphtail benchmark: one workload, one seed, one line of JSON at the end.

Usage (from the repository root):

    python3 perfbench/run.py --workload cover-lp|mc-screen|coupling-exact|all
                             [--seed N] [--seconds S] [--trace 0|1]

Inputs are generated from the seed before anything is timed.  ``setup_s`` is
the median over several fresh interpreters of the time until
``graphtail.cli`` is imported and ready.  The workload then runs in its own
fresh process (``worker.py``): a closed loop with one client over the
workload's jobs for ``--seconds``, each job's output checked afterwards.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds a traced
pass and reports the per-layer metrics instead, and writes the spans to
``.perfbench_out/``.  The exit code is 0 only when a result line is printed;
failed output checks are counted in ``failed``, they do not stop the run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import TARGET_LAYERS, WHY, WORKLOADS, write_workload  # noqa: E402

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 160  # keeps a whole run under 180 s
PROBE = "import sys, graphtail.cli; print('ready', graphtail.cli.__file__, flush=True)"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SUBCOMMANDS = ("bounds", "covers", "simulate", "verify")
UNIT_SUFFIXES = (("_per_s", "1/s"), ("_ratio", "ratio"), ("_share", "ratio"), ("_bytes", "B"),
                 ("_objective", "squared_cost"), ("_s", "s"), ("coverage", "ratio"))


def per_layer_unit(name: str) -> str:
    return next((unit for suffix, unit in UNIT_SUFFIXES if name.endswith(suffix)), "count")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(env: dict) -> float:
    """Fresh interpreter to ``graphtail.cli`` imported and ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    code = proc.wait()
    words = line.strip().split(" ", 1)
    if code != 0 or len(words) != 2 or words[0] != "ready" or not Path(words[1]).is_relative_to(SRC):
        raise RuntimeError(f"graphtail.cli did not import from {SRC}: {line.strip()!r}")
    return elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = worker_env()
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        jobs = write_workload(name, seed, work)
        jobs_path = work / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        setup = [] if trace else [setup_seconds(env) for _ in range(SETUP_PROBES)]
        result_path = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(jobs_path), str(result_path),
               str(seconds), "1" if trace else "0"]
        if trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            cmd.append(str(out_dir / f"spans-{name}-{seed}.json.gz"))
        proc = subprocess.run(cmd, env=env, cwd=work, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {name} exited with code {proc.returncode}")
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = statistics.median(setup) if setup else None
    return result


def metrics_of(name: str, result: dict, trace: bool) -> dict[str, dict]:
    if not trace:
        return {k: {"value": result[k], "unit": unit} for k, unit in END_TO_END.items()}
    layers = dict(result["layers"])
    self_s = result["layer_self_s"]
    others = {layer for w, ls in TARGET_LAYERS.items() if w != name for layer in ls}
    total = sum(self_s.values())
    layers["trace.target_share"] = sum(self_s[layer] for layer in TARGET_LAYERS[name]) / total
    layers["trace.other_share"] = sum(self_s[layer] for layer in others) / total
    for command in SUBCOMMANDS:
        layers[f"cli.{command}_s"] = result["subcommand_s"].get(command, 0.0)
    layers["covers.colgen_objective"] = result.get("colgen_objective", 0.0)
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(layers.items())}


def report(name: str, result: dict, metrics: dict, trace: bool) -> None:
    """Human-readable lines; the last stdout line stays the JSON result."""
    print(f"# {name}: {WHY[name]}")
    lines = [(k, m["value"], m["unit"]) for k, m in metrics.items()]
    if not trace:
        lines += [(f"{command}_s", s, "s") for command, s in sorted(result["subcommand_s"].items())]
        lines += [(f"job {job_id}", s, "s") for job_id, s in result["job_wall_s"].items()]
    for label, value, unit in lines:
        print(f"{name:15s} {label:36s} {value:16.6g} {unit}")
    frac = result["failed"] / result["attempted"]
    print(f"{name:15s} {'failed_frac':36s} {frac:16.6g} ratio"
          f" ({result['failed']} of {result['attempted']} job runs)")
    for reason in result["failures"]:
        print(f"FAILED {name} {reason}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "graphtail" / "cli.py").is_file():
        print(f"error: graphtail sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        own = metrics_of(name, result, trace)
        report(name, result, own, trace)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in own.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
