"""Tests of the benchmark itself: job seeding, metric names, output checks.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import use_checkout_source  # noqa: E402

assert use_checkout_source()

from perfbench import checks, workloads  # noqa: E402


def _jobs(workload, seed, n=12):
    return list(itertools.islice(workloads.job_stream(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_jobs(workload):
    assert _jobs(workload, 3) == _jobs(workload, 3)
    assert _jobs(workload, 3) != _jobs(workload, 4)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, timeout=170, cwd=cwd
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_are_declared(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in declared[section]}
    every = {m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]}
    done = _run("--workload", "analytic_map", "--seed", "1", "--seconds", "0.2", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] in every:
            assert names[parts[0]] == parts[2]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "analytic_map", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def _checked(job, text):
    checker = checks.Checker(seed=1)
    checker.check_sweep(job, text)
    return checker


@pytest.fixture(scope="module")
def analytic_job():
    job = _jobs("analytic_map", 2, 1)[0]
    return job, workloads.run_job(job)


@pytest.fixture(scope="module")
def master_job():
    job = _jobs("master_direct", 2, 1)[0]
    return job, workloads.run_job(job)


def _replace_cell(text, row, column, value):
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def test_clean_output_passes(analytic_job, master_job):
    for job, text in (analytic_job, master_job):
        checker = _checked(job, text)
        assert checker.failed == 0, checker.messages
        assert checker.attempted == job.points * len(job.spec.tiers)


@pytest.mark.parametrize(
    "column, value",
    [("n_c", "-0.5"), ("g2_e", ""), ("status", "error:ValueError:boom"), ("tier", "master_full"), ("g2_c", "x")],
)
def test_corrupted_analytic_row_is_flagged(analytic_job, column, value):
    job, text = analytic_job
    checker = _checked(job, _replace_cell(text, 3, column, value))
    assert checker.failed == 1, checker.messages


@pytest.mark.parametrize("column, value", [("residual", "1e-3"), ("status", "dominant eigenvalue off unity by 1e-2")])
def test_bad_master_row_is_flagged(master_job, column, value):
    job, text = master_job
    checker = _checked(job, _replace_cell(text, 1, column, value))
    assert checker.failed == 1, checker.messages


def test_dropped_row_fails_the_job(analytic_job):
    job, text = analytic_job
    lines = text.split("\n")
    checker = _checked(job, "\n".join(lines[:5] + lines[6:]))
    assert checker.failed == checker.attempted


def test_scan_solve_problems_are_flagged():
    job = next(j for j in _jobs("master_krylov", 2, 3) if j.spec is None)
    rows, solves = workloads.run_scan(job.params.with_(g_kappa=0.0), ladder=((3, 3), (4, 4)))
    checker = checks.Checker(seed=1)
    checker.check_scan(job, (rows, solves))
    assert checker.failed == 0, checker.messages
    bad_residual = dataclasses.replace(solves[0], residual=1e-6)
    flagged = dataclasses.replace(solves[1], notes=("dominant eigenvalue off unity by 1.00e-02",))
    checker.check_scan(job, (rows, [bad_residual, flagged]))
    assert checker.failed == 2, checker.messages
