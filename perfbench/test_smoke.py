"""Smoke test of the benchmark: a tiny configuration of each workload
(also ``cold_tight``, which BENCHMARK.json does not list), traced and
untraced, emits every metric named in BENCHMARK.json with its unit and
passes its own output checks.

Run from the repository root (tier-1 does not collect this file)::

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"]
                for metric in BENCH["per_layer" if trace
                                    else "end_to_end"]}
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert emitted == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_benchmark_json_lists_only_known_workloads():
    assert {workload["name"] for workload in BENCH["workloads"]} \
        <= set(WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("cold_paper", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize("variable", ["REPRO_FAULT", "REPRO_TRACE",
                                      "REPRO_POINT_TIMEOUT"])
def test_refuses_faults_tracing_and_deadlines(variable):
    done = run_bench("cold_paper", 0,
                     env=dict(os.environ, **{variable: "1"}))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
