"""Smoke check: every workload runs a few ops, prints every declared metric,
and fails none of them.  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    return workloads, {0: bench["end_to_end"], 1: bench["per_layer"]}


WORKLOADS, METRICS = _declared()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_fails_nothing(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--max-ops", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert any(line.split()[:2] == ["fail_share", "0.000000"] for line in lines)
    for metric in METRICS[trace]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[0] == metric["name"] for line in lines[:-1])
    assert set(result["metrics"]) == {m["name"] for m in METRICS[trace]}
