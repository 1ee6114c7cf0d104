"""One round of one workload, in a fresh process.

Run by ``run.py``; prints one JSON record as its last line of output.
A fresh process per round keeps process-wide caches (the formula
hash-consing table among them) from carrying over between rounds.

``setup_s`` runs from ``--spawned-at`` (the parent's monotonic clock just
before it started this process) to the first timed call: interpreter start,
``import walkref`` and building the instances.  ``wall_s`` is the sum of the
timed operations; checks run between them, outside the timing.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_walkref():
    """Import walkref from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import walkref
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import walkref from {SRC}: {exc}")
    origin = Path(walkref.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: walkref was imported from {origin}, "
                 f"not from {SRC}")


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    _import_walkref()
    import tracer as tracing
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results, ops = {}, []
    failed, correct = 0, True
    for inst in workload.instances:
        for op in inst.ops:
            label = f"{inst.name}/{op.name}"
            span = tracer.enter(f"bench.op:{label}") if tracer else None
            t0 = time.perf_counter()
            try:
                result = op.call(results)
                error = None
            except Exception:
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.leave(span)
                tracer.active = False
            if error is None:
                results[(inst.name, op.name)] = result
                try:
                    problems = op.check(result, results)
                except Exception:
                    problems = [traceback.format_exc()]
                if problems:
                    correct = False
                    error = "; ".join(problems)
            if tracer:
                tracer.active = True
            if error is not None:
                failed += 1
                print(f"perfbench: {args.workload} {label} failed: {error}",
                      file=sys.stderr)
            ops.append([inst.name, op.name, seconds, error is None])

    record = {
        "setup_s": setup_s,
        "wall_s": sum(op[2] for op in ops),
        "largest_s": sum(op[2] for op in ops if op[0] == workload.largest),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "correct": correct,
        "ops": ops,
        "env": _environment(),
    }
    if tracer:
        tracer.active = False
        record["per_layer"] = tracer.per_layer()
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start", "end", "parent",
                                      "child_s"],
                           "spans": tracer.spans,
                           "counts": tracer.counts}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
