"""rotorkick benchmark: time to solution through the public API.

Run from the root of a rotorkick checkout:

    python3 perfbench/run.py --workload classical-pairs --seed 1 \\
        --seconds 25 --trace 0

``--workload all`` runs every workload in turn. Workloads (see README.md
for why each exists): classical-pairs, quantum-pairs, cli-traces. Each
pass runs in a fresh worker process, because every CLI call and script
pays the package's cold module caches. Workers run one after another, so
all load comes from one process at a time, with the BLAS/OpenMP thread
count pinned to THREADS.

``--trace 0`` reports the end-to-end metrics: ``--seconds`` worth of
passes, with SETUP_PROBES set-up-only workers in groups before, between
and after them. The pass count follows from
``--seconds`` and PASS_SECONDS, not from measured time, so two commits
compared at the same ``--seconds`` do the same work. ``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics.

Each workload ends with its JSON result on one stdout line, so the last
line is the result of the last workload run. The full record, with
per-operation times, result fingerprints and the environment, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
WORKLOADS = ("classical-pairs", "quantum-pairs", "cli-traces")
SETUP_PROBES = 8
# nominal seconds per pass on a 2-core x86 machine at the seed commit
PASS_SECONDS = {"classical-pairs": 25.0, "quantum-pairs": 28.0,
                "cli-traces": 6.25}
# one BLAS thread: at most nproc, and the single-threaded baseline
THREADS = "1"
# every run must end within 180 s; workers share what is left of this
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
# printed and recorded but not in the result: on the pair workloads it is
# one optimize call's time, too noisy across runs for a regression bound
TAIL_METRIC = "op_tail_s"
PER_LAYER_UNITS = {
    "quantum.scan_calls": "count", "quantum.scan_points": "count",
    "quantum.scan_s": "s", "quantum.scan_calls_per_eval": "call/eval",
    "quantum.scan_ops_computed": "op", "quantum.eigh_builds": "count",
    "quantum.kick_operator_s": "s", "quantum.apply_kick_s": "s",
    "quantum.basis_growths": "count", "quantum.l_max_max": "level",
    "classical.legendre_builds": "count", "classical.ensemble_calls": "count",
    "classical.ensemble_hit_ratio": "ratio", "classical.ensemble_s": "s",
    "classical.two_kick_s": "s", "classical.propagate_s": "s",
    "classical.quad_passes": "count", "classical.quad_useful_ratio": "ratio",
    "classical.nodes_max": "count", "classical.quad_bytes_computed": "B",
    "optimize.calls": "count", "optimize.evals": "count",
    "optimize.eval_ms": "ms", "optimize.self_s": "s",
    "optimize.stagnated": "count", "cli.calls": "count", "cli.self_s": "s",
    "cli.bytes_out": "B", "trace.overhead_s": "s", "trace.spans": "count",
    "trace.span_cost_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, workload: str, mode: str, trace: int,
               deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS,
               OMP_NUM_THREADS=THREADS, MKL_NUM_THREADS=THREADS,
               PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--mode", mode, "--trace", str(trace),
           "--out-dir", str(OUT_DIR)]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise WorkerFailed(f"{mode} worker exceeded the run deadline") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(seconds: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (else max)."""
    xs = sorted(seconds)
    n = len(xs)
    if n < 11:
        return xs[-1], f"max of {n}"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def end_to_end(args, workload: str, deadline: float
               ) -> tuple[dict, list, dict]:
    n_passes = max(1, round(args.seconds / PASS_SECONDS[workload]))
    # set-up probes go in n_passes + 1 groups around the passes, so they
    # sample the host at different moments of the run
    groups = n_passes + 1
    probes, passes = [], []
    for i in range(groups):
        size = SETUP_PROBES // groups + (i < SETUP_PROBES % groups)
        probes += [run_worker(args, workload, "setup", 0, deadline)["setup_s"]
                   for _ in range(size)]
        if i < n_passes:
            passes.append(run_worker(args, workload, "pass", 0, deadline))
    op_seconds = [op["seconds"] for p in passes for op in p["ops"]]
    tail_s, tail_label = tail(op_seconds)
    # a pass worker sets up exactly as a probe does
    setups = probes + [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(op_seconds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {"passes": len(passes), TAIL_METRIC: tail_s,
             "op_tail_samples": tail_label, "setup_samples": setups}
    return metrics, passes, notes


def per_layer(args, workload: str, deadline: float
              ) -> tuple[dict, list, dict]:
    plain = run_worker(args, workload, "pass", 0, deadline)
    traced = run_worker(args, workload, "pass", 1, deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics, [plain, traced], {"spans": traced["spans"]}


def run_workload(args, workload: str) -> dict:
    """Measure one workload, print its summary and return its result."""
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    values, passes, notes = measure(args, workload, deadline)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(op["failure"] is not None for op in ops)
    env = passes[0]["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops={len(ops)} ops_failed={failed}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    if TAIL_METRIC in notes:
        print(f"{TAIL_METRIC} = {notes[TAIL_METRIC]:.6g} s  "
              f"({notes['op_tail_samples']})")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": values, "notes": notes, "passes": passes}
    name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--limit", type=int,
                    help="keep only the first N operations of each pass "
                         "(reduced size, for the benchmark's own tests)")
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (Path.cwd() / "src" / "rotorkick" / "__init__.py").is_file():
        print("perfbench: run from the root of a rotorkick checkout "
              "(src/rotorkick not found)", file=sys.stderr)
        return 2

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(args, workload)
        except WorkerFailed as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
