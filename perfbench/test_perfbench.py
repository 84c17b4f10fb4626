"""The benchmark's own tests, at reduced size.

Run from the root of a rotorkick checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# first operations of each pass: one optimize call per pair workload; the
# pair grid plus one plain and one basis-growing sequence for cli-traces
LIMITS = {"classical-pairs": 1, "quantum-pairs": 1, "cli-traces": 12}
REPEATED_COUNTS = ("optimize.evals", "classical.legendre_builds",
                   "quantum.eigh_builds", "quantum.scan_calls", "trace.spans")


def bench(workload: str, trace: int, limit: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--limit", str(limit)],
        cwd=cwd, capture_output=True, text=True, timeout=500)


def results(proc) -> list[dict]:
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def test_metric_names_and_units():
    declared = {"end_to_end": run.END_TO_END_UNITS,
                "per_layer": run.PER_LAYER_UNITS}
    for section, units in declared.items():
        assert {m["name"]: m["unit"] for m in SPEC[section]} == units
        for name, unit in units.items():
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_one_command_runs_every_workload_through_the_gate():
    proc = bench("all", 0, limit=1)
    out = results(proc)
    assert len(out) == len(run.WORKLOADS)
    assert proc.stdout.count(f"{run.TAIL_METRIC} = ") == len(run.WORKLOADS)
    for res in out:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == \
            run.END_TO_END_UNITS
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (results(bench(workload, 1, LIMITS[workload]))[-1]
                     for _ in range(2))
    assert set(first["metrics"]) == set(run.PER_LAYER_UNITS)
    assert first["failed"] == 0
    for name in REPEATED_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    engine_counts = {"classical-pairs": "classical.legendre_builds",
                     "quantum-pairs": "quantum.scan_calls",
                     "cli-traces": "quantum.scan_calls"}
    assert first["metrics"][engine_counts[workload]]["value"] > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
    xs = [float(i) for i in range(40)]
    value, label = run.tail(xs)
    assert sum(x > value for x in xs) == 10 and label == "p75.0 of 40"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("classical-pairs", 0, limit=1, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
