"""Every benchmark job prints, byte for byte, the stdout recorded in
perfbench/digests.json.  The job lists are built by perfbench/workloads.py
(loaded from its file, nothing installed or changed there), their input
files written to a temporary directory, and each job run in process
through ``conclab.cli.main``.

The subset keeps the test to a few seconds: top-torus, top-random and
batch-mixed at every recorded seed 0-10, and smooth-q's whole list
(q = 11..23) at seed 0.  The topological workloads run twice: once with
the signature-data cache warm from earlier jobs, and once with it cleared
before each job, as in a fresh CLI process, so that both a hit and a miss
of the form-class cache print the recorded stdout."""

import hashlib
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conclab import seifert
from conclab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = range(11)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _jobs(workloads, workload: str):
    if workload == "smooth-q":
        return workloads.make_jobs(workload, 0)
    return [job for seed in SEEDS for job in workloads.make_jobs(workload, seed)]


def _mismatched_jobs(workload: str, tmp_path: Path, cold: bool) -> list:
    workloads = _load_workloads()
    recorded = json.loads((PERFBENCH / "digests.json").read_text())[workload]
    jobs = _jobs(workloads, workload)
    assert jobs and all(job.key in recorded for job in jobs)
    mismatched = []
    for i, job in enumerate(jobs):
        directory = tmp_path / str(i)
        directory.mkdir()
        for name, text in job.files.items():
            (directory / name).write_text(text)
        if cold:
            seifert._circle_data.cache_clear()
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(job.concrete_argv(str(directory)))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:24]
        if code != 0 or digest != recorded[job.key]:
            mismatched.append((job.argv, code))
    return mismatched


@pytest.mark.parametrize("workload", ["top-torus", "top-random", "batch-mixed", "smooth-q"])
def test_benchmark_jobs_print_their_recorded_stdout(workload, tmp_path):
    assert _mismatched_jobs(workload, tmp_path, cold=False) == []


@pytest.mark.parametrize("workload", ["top-torus", "top-random"])
def test_benchmark_jobs_print_their_recorded_stdout_from_a_cold_cache(workload, tmp_path):
    assert _mismatched_jobs(workload, tmp_path, cold=True) == []
