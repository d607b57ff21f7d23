"""CI runs each tier-1 test once: only the ``tests`` job names ``tests/`` paths.

The ``tests`` job runs the whole suite on every supported Python (and
re-runs a few modules under a tight descriptor limit, which is a different
check); the smoke jobs run examples, CLIs and journal checks, not test
modules the suite already ran.  The workflow is read as text: a job is a
two-space-indented key under ``jobs:``.
"""

import pathlib
import re

CI = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def _jobs() -> dict[str, list[str]]:
    jobs: dict[str, list[str]] = {}
    lines = CI.read_text().splitlines()
    body = lines[lines.index("jobs:") + 1:]
    job = None
    for line in body:
        header = re.fullmatch(r"  ([\w-]+):\s*", line)
        if header:
            job = header.group(1)
            jobs[job] = []
        elif job is not None:
            jobs[job].append(line)
    return jobs


def test_only_the_tests_job_names_test_paths():
    jobs = _jobs()
    assert "tests" in jobs and len(jobs) > 1
    offenders = {
        job: [line.strip() for line in lines if "tests/" in line]
        for job, lines in jobs.items()
        if job != "tests"
    }
    assert not any(offenders.values()), offenders


def test_the_tests_job_runs_the_whole_suite():
    assert any("python -m pytest -x -q" in line for line in _jobs()["tests"])
