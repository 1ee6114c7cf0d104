"""walkref benchmark: run one workload for a time budget and report.

    python3 perfbench/run.py --workload random-dims --seed 1 --seconds 30 \\
        --trace 0

Each round of the workload runs in a fresh process (``worker.py``), one
after another, until the next round would end past ``--seconds``; at least
MIN_ROUNDS rounds run, so that every metric is a median.  Extra
set-up-only processes bring the set-up samples to SETUP_SAMPLES.  The
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics (medians over rounds)
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Round
records and span traces go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORKLOADS = ("random-dims", "cfi-single", "cfi-pairs", "logic-game")
END_TO_END = (("wall_s", "s"), ("largest_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"))
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end well inside 180 s
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class RoundError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    # every round compiles walkref the same way, whatever the caller's
    # environment and whatever earlier rounds left in __pycache__
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(args, deadline: float, extra=()) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RoundError("out of time before the round started")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), *extra]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=_child_env(), timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round exceeded {RUN_LIMIT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _medians(names_units, samples: dict) -> dict:
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in names_units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = []
    try:
        while True:
            began = time.monotonic()
            extra = []
            if args.trace:
                out = RESULTS / f"spans-{stem}-round{len(rounds)}.json"
                extra = ["--trace-out", str(out)]
            rounds.append(_spawn(args, deadline, extra))
            took = time.monotonic() - began
            if (len(rounds) >= MIN_ROUNDS
                    and time.monotonic() - start + took > args.seconds):
                break
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(args, deadline, ["--setup-only"])["setup_s"])
    except RoundError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = _medians(
            [(name, unit) for name, unit, _ in PER_LAYER],
            {name: [r["per_layer"][name] for r in rounds]
             for name, _, _ in PER_LAYER})
    else:
        samples = {name: [r[name] for r in rounds] for name, _ in END_TO_END
                   if name != "setup_s"}
        metrics = _medians(END_TO_END, {**samples, "setup_s": setups})
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    with open(RESULTS / f"run-{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "cpu_count": os.cpu_count(),
                   "blas_threads": int(BLAS_THREADS), "setups": setups,
                   "rounds": rounds, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
