"""The benchmark's contract with the package: short runs of bench/run.py pass their own checks.

Each run goes through every name the benchmark calls or patches (the per-sample
forward and predict, train_epoch, evaluate_clips, run_cv, build_dataset, the
make_node and backward patches) and every output check except the smoke-cv
warm-up floor, so a change that breaks one of them fails here, not only in a
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["long-clips", "full-scale"])
def test_short_run_passes_every_check(workload):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(declared)
