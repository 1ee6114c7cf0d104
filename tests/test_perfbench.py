"""One traced round of each benchmark workload, as ``perfbench/run.py``
spawns them: a guard on the walkref API that the benchmark and its tracer
hooks call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["random-dims", "cfi-single",
                                      "cfi-pairs", "logic-game"])
def test_traced_round_runs_clean(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
         "--trace", "1", "--spawned-at", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["failed"] == 0, proc.stderr
    assert record["correct"]
    assert record["attempted"] > 0
    assert record["per_layer"]
