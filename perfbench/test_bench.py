"""Tests of the benchmark itself: the smoke mode reports every metric with
no wrong answers, inputs follow the seed, and a directory without the
package makes the benchmark fail.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_reports_every_metric_and_no_errors():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    spec = _spec()
    assert result["smoke"] is True
    for workload in spec["workloads"]:
        for traced, group in ((0, "end_to_end"), (1, "per_layer")):
            run = result["runs"][f"{workload['name']}/trace{traced}"]
            assert set(run["metrics"]) == {m["name"] for m in spec[group]}
            assert run["error_rate"] == 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_follow_the_seed(name):
    first = workloads.build(name, 3, "smoke")
    again = workloads.build(name, 3, "smoke")
    other = workloads.build(name, 4, "smoke")
    assert first.texts == again.texts and first.requests == again.requests
    assert first.texts != other.texts


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "law-verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
