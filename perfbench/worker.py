"""One pass of a workload in a fresh interpreter, reported as one JSON line.

Started by ``run.py`` from the root of a rotorkick checkout, with the
BLAS/OpenMP thread count already pinned in its environment so that it is
in force before numpy loads. ``--mode setup`` stops after set-up (import
and input generation); ``--mode pass`` also runs the operations, times
them, checks them, and with ``--trace 1`` records spans.

``--spawned`` is the launcher's ``time.monotonic()`` just before it
started this process; both processes read the same system-wide clock, so
set-up time counts interpreter start-up too.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args()
    if "numpy" in sys.modules or not os.environ.get("OPENBLAS_NUM_THREADS"):
        raise SystemExit("thread count must be pinned before numpy loads")

    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy

    import tracing
    import workloads  # imports rotorkick, its CLI and optimizer

    args.out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out_dir) as tmp:
        ops = workloads.operations(args.workload, args.seed, Path(tmp),
                                   args.limit)
        record = {
            "setup_s": time.monotonic() - args.spawned,
            "env": {"nproc": os.cpu_count(),
                    "threads": os.environ["OPENBLAS_NUM_THREADS"],
                    "python": sys.version.split()[0],
                    "numpy": numpy.__version__, "scipy": scipy.__version__},
        }
        if args.mode == "pass":
            record.update(run_pass(args, ops, tracing, workloads))
    print(json.dumps(record))
    return 0


def run_pass(args, ops, tracing, workloads) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    seconds, errors = [], {}
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            op.run()
        except Exception:  # noqa: BLE001 - a failed operation is counted
            errors[op.id] = traceback.format_exc()
        seconds.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    # ru_maxrss is a high-water mark: read it before the gate allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = workloads.load_reference()
    results = []
    for op, secs in zip(ops, seconds):
        failure = errors.get(op.id)
        if failure is None:
            try:
                failure = op.check(reference)
            except Exception:  # noqa: BLE001 - unreadable output fails the op
                failure = traceback.format_exc()
        if failure is not None:
            print(f"FAILED {op.id}: {failure}", file=sys.stderr)
        entry = {"id": op.id, "seconds": secs, "failure": failure}
        if isinstance(op, workloads.OptimizeOp) and op.result is not None:
            entry["fingerprint"] = op.fingerprint()
        results.append(entry)

    out = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "ops": results}
    if tracer:
        stagnated = sum(bool(getattr(op.result, "stagnated", False))
                        for op in ops if isinstance(op, workloads.OptimizeOp))
        bytes_out = sum(getattr(op, "bytes_out", 0) for op in ops)
        out["layers"] = tracer.layer_metrics(stagnated, bytes_out)
        spans_path = args.out_dir / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans_path)
        out["spans"] = str(spans_path)
    return out


if __name__ == "__main__":
    sys.exit(main())
