"""Regenerate reference.json, the gate's seed-commit reference.

Run from the root of a rotorkick checkout, at the commit whose results
are the reference:

    python3 perfbench/make_reference.py

It records, for every ``optimize`` operation, the fingerprint objective,
p_s, t_1, t_2 and evals, and for the fixed ``simulate`` pair grid every
GRID_STRIDE-th value of each engine's block. The seeded kick sequences
need no stored reference: they are checked against workloads.dense_observable.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> None:
    reference = {"optimize": {}, "grid": {}}
    for name in workloads.PAIR_PROBLEMS:
        for op in workloads.operations(name, 0, Path(".")):
            op.run()
            reference["optimize"][op.id] = op.fingerprint()
            print(op.id, op.fingerprint(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        grid = [op for op in workloads.operations("cli-traces", 0, Path(tmp))
                if op.sequence is None]
        for op in grid:
            op.run()
            _, values, engines = op.rows()
            stride = workloads.GRID_STRIDE
            reference["grid"][op.id] = {
                engine: [v for v, e in zip(values, engines) if e == engine][::stride]
                for engine in ("classical", "quantum")}
            print(op.id, flush=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
