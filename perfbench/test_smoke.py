"""Smoke check of the benchmark harness on the smallest input of each
workload, so the harness does not rot.

    python3 -m pytest perfbench/test_smoke.py -q

It takes a few seconds and measures nothing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a per-layer count each workload's smallest job must move
LAYER_TOUCHED = {"ingest": "matroid.validate_calls", "engines": "tutte.subset_calls",
                 "certify": "prooftrace.nodes"}


def smallest_jobs(name, workdir, goldens=None):
    plan = workloads.BUILDERS[name](1, workdir, goldens or workloads.Goldens.load())
    jobs = [job for job in plan.jobs if job.name in plan.smallest]
    assert jobs
    return jobs


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_smallest_jobs_pass_their_checks(name, tmp_path):
    outcome = run.Outcome()
    for job in smallest_jobs(name, tmp_path):
        outcome.run_job(job)
    assert outcome.failures == []


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_a_wrong_golden_fails_the_job(name, tmp_path):
    wrong = workloads.Goldens({key: "0" * 64 for key in workloads.Goldens.load().digests})
    outcome = run.Outcome()
    jobs = [job for job in smallest_jobs(name, tmp_path, wrong)
            if not job.name.startswith("near-")]
    for job in jobs:
        outcome.run_job(job)
    assert len(outcome.failures) == len(jobs)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_traced_smallest_jobs_report_every_layer(name, tmp_path):
    from splitmw.matroid import Matroid
    original = Matroid.__dict__["delete"]
    jobs = smallest_jobs(name, tmp_path)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        outcome = run.Outcome()
        for job in jobs:
            outcome.run_job(job, recorder)
    finally:
        recorder.uninstall()
    assert outcome.failures == []
    assert Matroid.__dict__["delete"] is original
    metrics = tracing.layer_metrics(*recorder.take())
    assert metrics[LAYER_TOUCHED[name]] > 0
    assert all(value >= 0 for value in metrics.values())


def test_spanning_tree_count_of_petersen():
    assert inputs.spanning_trees(10, workloads.PETERSEN) == 2000


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NOMINAL_PASS_S)
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.UNITS)
    assert all(m["unit"] == tracing.UNITS[m["name"]] for m in spec["per_layer"])
    outcome = run.Outcome()
    outcome.by_job, outcome.pass_times, outcome.pass_bytes = {"job": [1.0]}, [1.0], [1]
    outcome.references = [run.REFERENCE_S]
    outcome.attempted = 1
    metrics, _ = run.end_to_end(outcome, 1.0, children_rss=False)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "engines",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
