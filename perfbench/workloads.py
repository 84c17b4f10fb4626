"""Workloads: seeded inputs, the operations of one pass, and the gate.

Every operation is a call into rotorkick's public API, resolved through
the module at call time so that :mod:`tracing` wrappers see it:
``rotorkick.optimize.optimize`` for the pulse-pair workloads and
``rotorkick.cli.main`` for ``cli-traces``.

The gate counts an operation as failed when:

* ``optimize``: |objective| falls more than ``OBJECTIVE_TOL`` below the
  seed-commit fingerprint in ``reference.json``, or the result misses its
  acceptance-check target (checks 3-5). The quantum-classical gap of
  check 6 is not gated: it fails honestly at p_a = 3.
* CLI calls: the exit code is not 0, or a CSV value differs from its
  reference by more than ``CLASSICAL_TOL`` / ``QUANTUM_TOL``. The fixed
  pair grid is compared with seed-commit values in ``reference.json``;
  the seeded kick sequences, which differ per seed, with an independent
  dense propagation (:func:`dense_observable`).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from rotorkick.core import Branch, Engine, PulseOrder

# the package re-exports the function `optimize` under the module's name
OPT = importlib.import_module("rotorkick.optimize")
CLI = importlib.import_module("rotorkick.cli")

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# |objective| may fall this far below the seed-commit optimum: the
# classical quadrature is converged to 1e-6, so a different node policy
# moves the optimum by about that much, not by 1e-5
OBJECTIVE_TOL = 1e-5
# absolute CSV tolerances: classical values are converged to 1e-6;
# quantum values are exact up to a 1e-10 tail population
CLASSICAL_TOL = 1e-5
QUANTUM_TOL = 1e-7

# (engine, order, p_a, branch) in the order they run
PAIR_PROBLEMS = {
    "classical-pairs": (
        ("classical", "simultaneous", 10.0, "prompt"),
        ("classical", "hcp-first", 100.0, "prompt"),
        ("classical", "laser-first", 100.0, "prompt"),
        ("classical", "laser-first", 100.0, "revival"),
    ),
    "quantum-pairs": tuple(("quantum", "laser-first", p_a, "prompt")
                           for p_a in (3.0, 5.0, 10.0)),
}

# two-pulse `simulate --engine both` grid: the README example (p_a = 10,
# p_s = -2) and its neighbours. The classical engine stays on this fixed
# grid: seeded classical sequences reach the causal quadrature's
# unbounded tail (see README.md, "Known defect").
GRID_PA = (5.0, 10.0, 20.0)
GRID_PS = (-1.0, -2.0, -4.0)
GRID_ARGS = ("--t1", "0.3", "--t-min", "0", "--t-max", "6.28",
             "--t-points", "600")
GRID_STRIDE = 5  # reference.json keeps every fifth row

SEQUENCES = 24
# every sequence's |strengths| sum to this: the total sets the basis size
# and so the cost of a call, while the seed varies the split, signs,
# kinds and timing
SEQUENCE_TOTAL = 36.0
# sample counts of sequence i, for both observables: a geometric ladder
# of 896-5376 samples, visited in a fixed order (stride 7) so that cheap
# and dear calls alternate through the pass. Call times then fill one
# continuous range instead of a narrow cluster, so op_p50_s moves
# smoothly with a host whose speed changes every few seconds, rather
# than jumping with the speed the cluster's calls happened to meet
SEQUENCE_POINTS = tuple(
    64 * round(14 * 6.0 ** ((7 * i % SEQUENCES) / (SEQUENCES - 1)))
    for i in range(SEQUENCES))
SMALL_LMAX_HINT = "16"  # default hints never grow the basis; this does


def _sequence_text(rng: random.Random) -> tuple[str, float]:
    """3-6 kicks of either kind summing to SEQUENCE_TOTAL, gaps of 0.05-1.5."""
    weights = [rng.uniform(0.2, 1.0) for _ in range(rng.randint(3, 6))]
    scale = SEQUENCE_TOTAL / sum(weights)
    lines, t = [], 0.0
    for w in weights:
        kind = rng.choice(("sym", "asym"))
        strength = rng.choice((-1.0, 1.0)) * w * scale
        lines.append(f"{kind} {strength:.4f} {t:.4f}")
        t = round(t + rng.uniform(0.05, 1.5), 4)
    return "\n".join(lines) + "\n", t


@dataclass
class OptimizeOp:
    engine: str
    order: str
    p_a: float
    branch: str
    result: object = None

    @property
    def id(self) -> str:
        return f"optimize {self.engine} {self.order} {self.branch} p_a={self.p_a:g}"

    def run(self) -> None:
        prob = OPT.OptimizationProblem(
            engine=Engine(self.engine), order=PulseOrder(self.order),
            p_a=self.p_a, branch=Branch(self.branch))
        self.result = OPT.optimize(prob)

    def fingerprint(self) -> dict:
        r = self.result
        return {"objective": r.objective, "p_s": r.p_s, "t_1": r.t_1,
                "t_2": r.t_2, "evals": r.evaluations}

    def check(self, reference: dict) -> str | None:
        r = self.result
        ref = reference["optimize"][self.id]
        if abs(r.objective) < abs(ref["objective"]) - OBJECTIVE_TOL:
            return (f"|objective| {abs(r.objective):.8f} below reference "
                    f"{abs(ref['objective']):.8f}")
        return _acceptance_miss(r)


def _acceptance_miss(r) -> str | None:
    """Acceptance checks 3-5 for the classical optima; None when met."""
    obj, order = abs(r.objective), r.order.value
    if r.engine.value != "classical":
        return None
    ratio = r.p_a / abs(r.p_s)
    if order == "simultaneous":
        ok = (abs(obj - 0.89) <= 0.01 and abs(ratio - 2.34) <= 0.1
              and abs(r.scaled_delay - 0.78) <= 0.05)
        check = 3
    elif order == "hcp-first":
        ok = (abs(obj - 0.96) <= 0.01 and abs(ratio - 1.6) <= 0.1
              and abs(r.scaled_delay - 0.36) <= 0.04)
        check = 4
    else:
        ok = obj >= 0.93 and (r.branch.value == "prompt" or r.objective < 0.0)
        check = 5
    return None if ok else f"misses acceptance check {check}"


@dataclass
class CliOp:
    id: str
    argv: list[str]
    out: Path
    sequence: str | None = None  # kick file text, for the oracle
    exit_code: int | None = None
    bytes_out: int = 0

    def run(self) -> None:
        self.exit_code = CLI.main(self.argv)

    def rows(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        lines = self.out.read_text().splitlines()
        if lines[0] != "t,value,kind,engine":
            raise ValueError(f"bad CSV header {lines[0]!r}")
        cols = [line.split(",") for line in lines[1:]]
        t = np.array([float(c[0]) for c in cols])
        v = np.array([float(c[1]) for c in cols])
        return t, v, [c[3] for c in cols]

    def check(self, reference: dict) -> str | None:
        if self.exit_code != 0:
            return f"exit code {self.exit_code}"
        self.bytes_out = self.out.stat().st_size
        t, values, engines = self.rows()
        if self.sequence is None:
            ref = reference["grid"][self.id]
            n = len(t) // 2
            expected = {"classical": np.array(ref["classical"]),
                        "quantum": np.array(ref["quantum"])}
            blocks = {"classical": slice(0, n), "quantum": slice(n, 2 * n)}
            tols = {"classical": CLASSICAL_TOL, "quantum": QUANTUM_TOL}
            for engine, rows in blocks.items():
                if set(engines[rows]) != {engine}:
                    return f"{engine} block has wrong engine labels"
                got = values[rows][::GRID_STRIDE]
                if got.shape != expected[engine].shape:
                    return f"{engine} block has {got.size} sampled rows"
                err = float(np.max(np.abs(got - expected[engine])))
                if err > tols[engine]:
                    return f"{engine} values off by {err:.2e}"
            return None
        k = 1 if "orientation" in self.argv else 2
        want = dense_observable(self.sequence, t, k)
        err = float(np.max(np.abs(values - want)))
        return None if err <= QUANTUM_TOL else f"values off by {err:.2e}"


def _grid_op(p_a: float, p_s: float, tmp: Path) -> CliOp:
    op_id = f"simulate both p_a={p_a:g} p_s={p_s:g}"
    out = tmp / f"grid-{p_a:g}-{p_s:g}.csv"
    argv = ["simulate", "--engine", "both", "--pa", f"{p_a:g}",
            "--ps", f"{p_s:g}", *GRID_ARGS, "--out", str(out)]
    return CliOp(op_id, argv, out)


def operations(workload: str, seed: int, tmp: Path,
               limit: int | None = None) -> list:
    """The operations of one pass, in run order; writes kick files to tmp."""
    if workload in PAIR_PROBLEMS:
        ops = [OptimizeOp(*p) for p in PAIR_PROBLEMS[workload]]
    elif workload == "cli-traces":
        ops = [_grid_op(pa, ps, tmp) for pa in GRID_PA for ps in GRID_PS]
        rng = random.Random(seed)
        for i in range(SEQUENCES):
            text, t_last = _sequence_text(rng)
            path = tmp / f"seq-{i}.txt"
            path.write_text(text)
            hint = ["--lmax", SMALL_LMAX_HINT] if i % 2 else []
            for observable in ("orientation", "alignment"):
                out = tmp / f"seq-{i}-{observable}.csv"
                argv = ["simulate", "--engine", "quantum", "--sequence",
                        str(path), "--observable", observable, *hint,
                        "--t-min", "0", "--t-max", f"{t_last + 2.0:.4f}",
                        "--t-points", str(SEQUENCE_POINTS[i]),
                        "--out", str(out)]
                ops.append(CliOp(f"sequence {i} {observable}", argv, out,
                                 text))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops[:limit]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


@functools.lru_cache(maxsize=8)
def _dense_basis(L: int):
    """cos-matrix band, kick eigendecompositions and energies for l <= L."""
    l = np.arange(L + 1.0)
    c = (l[:-1] + 1.0) / np.sqrt((2 * l[:-1] + 1.0) * (2 * l[:-1] + 3.0))
    cmat = np.diag(c, 1) + np.diag(c, -1)
    eig = {"asym": np.linalg.eigh(cmat), "sym": np.linalg.eigh(cmat @ cmat)}
    return c, eig, 0.5 * l * (l + 1.0)


def dense_observable(text: str, t: np.ndarray, k: int) -> np.ndarray:
    """Independent quantum route for the seeded kick sequences.

    <cos^k theta> at times t (a kick at exactly t is already applied).
    The basis has 20 more levels of margin than rotorkick's default,
    rounded up to a multiple of 64; kicks are dense eigendecompositions
    of the truncated cos matrix and of its square; observables are
    <psi|C|psi> and |C psi|^2 of the free-evolved coefficients.
    rotorkick instead grows its basis under a tail invariant and uses
    parity-blocked tridiagonal solvers.
    """
    return _dense_observables(text, t.tobytes())[k - 1]


# both observables of a sequence share its time grid, so one propagation
# serves the pair of calls that check them
@functools.lru_cache(maxsize=2)
def _dense_observables(text: str, t_bytes: bytes) -> np.ndarray:
    """<cos theta> and <cos^2 theta> (rows 0 and 1) at the times t_bytes."""
    t = np.frombuffer(t_bytes)
    kicks = sorted(((float(time), kind, float(p)) for kind, p, time in
                    (line.split() for line in text.splitlines())),
                   key=lambda kick: (kick[0], kick[1] == "asym"))
    total = sum(abs(p) for _, _, p in kicks)
    c, eig, energy = _dense_basis(64 * math.ceil((3.0 * total + 40.0) / 64))

    def observe(a: np.ndarray, dts: np.ndarray) -> np.ndarray:
        psi = a[None, :] * np.exp(-1j * np.outer(dts, energy))
        c_psi = np.zeros_like(psi)
        c_psi[:, 1:] += c * psi[:, :-1]
        c_psi[:, :-1] += c * psi[:, 1:]
        return (np.real(np.sum(np.conj(psi) * c_psi, axis=1)),
                np.sum(np.abs(c_psi) ** 2, axis=1))

    a = np.zeros(energy.size, dtype=complex)
    a[0] = 1.0
    clock = min(kicks[0][0], float(t[0]))
    out = np.empty((2, t.size))
    i = 0
    for j in range(len(kicks) + 1):
        end = kicks[j][0] if j < len(kicks) else np.inf
        stop = int(np.searchsorted(t, end, side="left"))
        if stop > i:
            out[:, i:stop] = observe(a, t[i:stop] - clock)
            i = stop
        if j < len(kicks):
            t_kick, kind, p = kicks[j]
            a = a * np.exp(-1j * energy * (t_kick - clock))
            clock = t_kick
            w, v = eig[kind]
            a = v @ (np.exp(1j * p * w) * (v.T @ a))
    return out
