"""The cover-lp and coupling-exact jobs print what ``tests/data/job_digests.txt`` records.

Each line is one benchmark job's ``workload seed job exit sha256(stdout)``,
computed by ``job_digests.py``'s own loop.  A change that moves an output on
purpose regenerates the file (see ``job_digests.py``) and says so.
"""

from pathlib import Path

from job_digests import digest_lines

RECORDED = Path(__file__).resolve().parent / "data" / "job_digests.txt"
WORKLOADS = ["cover-lp", "coupling-exact"]


def test_job_outputs_match_the_recorded_digests():
    assert list(digest_lines(WORKLOADS)) == RECORDED.read_text().splitlines()
