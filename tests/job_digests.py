"""Print a digest of every benchmark job's outcome, to diff two versions of the program.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    PYTHONPATH=src python tests/job_digests.py [WORKLOAD ...] > digests.txt

For each named workload of ``perfbench/workloads.py`` (default: all of them,
in their order there) and seeds 1-3 it writes the
job inputs to a temporary directory, runs every job through ``cli.run``
in-process and prints one line per job: ``workload seed job exit
sha256(stdout)``.  Two versions whose outputs are byte-identical print the
same lines, so one ``diff`` of two runs checks that claim.  Pytest does not
collect this file.

To check that outputs do not depend on the BLAS kernel OpenBLAS picks for
the host, diff a run under a forced kernel against a default one:

    PYTHONPATH=src python tests/job_digests.py cover-lp > default.txt
    OPENBLAS_CORETYPE=Prescott PYTHONPATH=src python tests/job_digests.py cover-lp > prescott.txt
    diff default.txt prescott.txt

``tests/test_cli.py::TestByteIdenticalReports::test_lp_witness_does_not_depend_on_the_blas_kernel``
runs the same check on one ``covers chi-f`` job.

``tests/data/job_digests.txt`` records the lines of the cover-lp and
coupling-exact workloads, and ``tests/test_job_digests.py`` checks them on
every test run.  A change that moves one of those outputs on purpose
regenerates the file, as it would a golden file:

    PYTHONPATH=src python tests/job_digests.py cover-lp coupling-exact > tests/data/job_digests.txt
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from graphtail import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEEDS = (1, 2, 3)


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest_lines(names: list[str]):
    """``workload seed job exit sha256(stdout)`` for each job of the named workloads (default: all)."""
    workloads = load_workloads()
    for name in names or workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                for job in workloads.write_workload(name, seed, Path(tmp)):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.run(job["argv"])
                    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                    yield f"{name} {seed} {job['id']} {code} {digest}"


def main(names: list[str]) -> None:
    for line in digest_lines(names):
        print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
