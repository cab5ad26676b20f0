"""The benchmark's own test: smoke mode runs every workload at tiny sizes
through the same checks, reports every metric, and repeats its exact counts.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics

ROOT = Path(__file__).resolve().parent.parent


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.fixture(scope="module")
def smoke_runs():
    runs = [run_bench("--smoke", "--seed", "3") for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    return [json.loads(run.stdout.strip().splitlines()[-1]) for run in runs], runs[0].stdout


def test_smoke_passes_every_check(smoke_runs):
    (first, _), report = smoke_runs
    assert first["correct"] is True
    assert first["failed"] == 0 and first["attempted"] > 0


def test_smoke_reports_every_metric_with_its_unit(smoke_runs):
    (first, _), report = smoke_runs
    for workload in metrics.ALL:
        expected = [m for m in metrics.GATED + metrics.REPORTED if workload in m.workloads]
        for m in expected + list(metrics.PER_LAYER):
            key = f"{workload}:{m.name}"
            assert key in first["metrics"], key
            assert first["metrics"][key]["unit"] == m.unit
    for m in metrics.GATED + metrics.REPORTED + metrics.PER_LAYER:
        assert f" {m.name} " in report


def test_exact_counts_repeat_between_runs(smoke_runs):
    first, second = smoke_runs[0]
    for workload in metrics.ALL:
        for name in metrics.EXACT_COUNTS:
            key = f"{workload}:{name}"
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(metrics.ALL)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.GATED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    run = run_bench("--workload", "cond_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
