"""The benchmark's own command runs and checks clean on the code as it stands.

BENCHMARK.json names the command and its workloads.  bench/test_bench.py
tests the benchmark itself, outside the default test paths; this runs the
command once per workload, briefly, so a library change that breaks the
benchmark's run or its correctness checks fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = [(workload["name"], 0) for workload in SPEC["workloads"]] + [("small", 1)]


@pytest.mark.parametrize("workload, trace", RUNS, ids=lambda value: str(value))
def test_benchmark_command_runs_correct(workload, trace):
    script = SPEC["command"][1:]  # run by this interpreter, not the one on PATH
    proc = subprocess.run(
        [sys.executable, *script, "--workload", workload, "--seed", "1", "--seconds", "0.2",
         "--quick", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
    if not trace:
        names = {metric["name"] for metric in SPEC["end_to_end"]}
        assert names <= result["metrics"].keys(), sorted(names - result["metrics"].keys())
