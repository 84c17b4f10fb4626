"""optimize runs the ascents of all its starts side by side, in lockstep,
in one process: the results must be those of each start's ascent run
alone, bit for bit, errors included, and no process is started.

The test names are those of the fork fan-out that ran each ascent in a
worker process until the lockstep rounds replaced it; a "worker" below
is one start's ascent."""

import importlib
import multiprocessing
import os
import subprocess
import sys

import pytest

from rotorkick.core import Branch, Engine, PulseOrder
from rotorkick.errors import ConvergenceFailure
from rotorkick.optimize import (OptimizationProblem, _ascent, _lockstep,
                                _start_grid, evaluate_objective, optimize,
                                sweep)

from test_optimize import (REVIVAL20, brute_force_peaks, classical_problem,
                           start_points)

# the package re-exports the function `optimize` under the module's name
optimize_module = importlib.import_module("rotorkick.optimize")

PROBLEMS = {
    # the weak-laser seed and eight random starts: the lockstep of many
    # ascents on a laser-first problem
    "classical-revival-20": (classical_problem(p_a=20.0, branch=Branch.REVIVAL),
                             {"extra_starts": 8, "seed": 1}),
    # the four maxima of the landscape scan and eight random starts
    "quantum-laser-first-3": (OptimizationProblem(
        engine=Engine.QUANTUM, order=PulseOrder.LASER_FIRST, p_a=3.0),
        {"extra_starts": 8, "seed": 1}),
    "classical-hcp-first-extra-starts": (
        classical_problem(order=PulseOrder.HCP_FIRST, p_a=10.0),
        {"extra_starts": 4, "seed": 1}),
}


def assert_no_children():
    """optimize left no child process behind: this process has none."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def lattice_climbed(unit):
    """The deterministic starts the classical solve of ``unit`` climbs,
    by brute force: the points of its start lattice that no neighbour
    beats (:func:`brute_force_peaks`), the 4 best, best first; and the
    lattice's scores by point."""
    grid = _start_grid(unit)
    score = {s: unit.transform(evaluate_objective(unit, *s)[0])
             for row in grid for s in row}
    flat = sum(grid, [])
    return list(dict.fromkeys(flat[k] for k in brute_force_peaks(
        [[score[s] for s in row] for row in grid])[:4])), score


def alone(prob, start, h_inv=None):
    """One start's ascent run by itself, with its own memo, through
    ``_lockstep`` with one ascent, one point a round, from the BFGS start
    ``h_inv``: its end (transformed objective, p_s, t_1) and the points
    it evaluated."""
    evaluate = optimize_module._Objective(prob)
    box = optimize_module._ScaledBox(prob)

    def reply(point):
        value, _, grad = evaluate[point]
        return prob.transform(value), box.ascent(value, grad)

    def score(us):
        assert len(us) == 1
        point = box.point(us[0])
        evaluate.score([point])
        return [reply(point)]

    evaluate.score([start])
    u0 = box.scaled(start)
    [(u, f)] = _lockstep(score, [_ascent(u0, *reply(start), box.u_lo,
                                         box.u_hi, h_inv)])
    return (f, *(start if u is u0 else box.point(u))), set(evaluate)


@pytest.mark.parametrize("name", PROBLEMS)
def test_parallel_equals_serial(name, monkeypatch):
    """The lockstep solve is each climbed start's ascent run alone, merged
    with the scored starts: the same optimum bit for bit and the same
    evaluation count, the union of the starts and the points the ascents
    evaluate."""
    prob, kwargs = PROBLEMS[name]
    extra = kwargs.get("extra_starts", 0)
    unit = optimize_module._unit_problem(prob)
    # a laser-first seed comes from the weak-laser limit's solve, in the
    # memo of solves, solved here first, so the spies see the solve's own
    # batches and ascents
    lattice = start_points(unit)
    score, batches, ascents, h_invs = (optimize_module._Objective.score, [],
                                       [], [])

    def spy(evaluate, points):
        batches.append(list(points))
        return score(evaluate, points)

    def ascent(u, f, g, lo, hi, h_inv=None):
        ascents.append(u)
        h_invs.append(h_inv)
        return _ascent(u, f, g, lo, hi, h_inv)

    monkeypatch.setattr(optimize_module._Objective, "score", spy)
    monkeypatch.setattr(optimize_module, "_ascent", ascent)
    res = optimize_module._solve(unit, extra, kwargs.get("seed"))
    classical = unit.engine is Engine.CLASSICAL
    if classical:  # its start lattice is scored first, as one batch
        assert batches.pop(0) == lattice
    # then the climbed starts and the extra ones, and the probe points of
    # the first, whose Hessian starts every ascent
    box = optimize_module._ScaledBox(unit)
    probes = optimize_module._probes(unit, box, batches[0][0])
    starts = batches[0][:len(batches[0]) - len(probes)]
    assert batches[0][len(starts):] == probes
    assert all(h is h_invs[0] for h in h_invs)
    # the candidates: every start, and every point of a classical lattice
    held = list(dict.fromkeys((lattice if classical else []) + starts))
    assert len(held) >= 8
    scored = [(unit.transform(evaluate_objective(unit, *s)[0]), *s)
              for s in held]
    # one ascent from each start, in order: the peaks of the start
    # lattice a solve climbs, best first, then each extra start; of a
    # quantum scan its best peaks, of a classical lattice its best 4
    fixed = len(starts) - extra
    scaled = [box.scaled(s).tolist() for s in starts]
    climbed = [scaled.index(u.tolist()) for u in ascents]
    assert climbed == list(range(len(starts)))
    assert 1 <= fixed <= optimize_module._SCAN_PEAKS
    if classical:
        peaks, height = lattice_climbed(unit)
        assert starts[:fixed] == peaks
        # a dropped grid start has a lattice neighbour as high as it
        grid = _start_grid(unit)
        for i, row in enumerate(grid):
            for j, s in enumerate(row):
                if s not in peaks:
                    assert any(height[t] >= height[s]
                               for near in grid[max(i - 1, 0):i + 2]
                               for t in near[max(j - 1, 0):j + 2] if t != s)
    runs = [alone(unit, s, h_invs[0]) for s in starts]
    best = max([end for end, _ in runs] + scored,
               key=lambda c: (c[0], -abs(c[1])))
    assert (unit.transform(res.objective), res.p_s, res.t_1) == best
    assert res.evaluations == len(set(held).union(
        probes, *(seen for _, seen in runs)))
    if name == "classical-revival-20":
        assert optimize(prob) == REVIVAL20
    assert_no_children()


def test_sweep_parallel_equals_serial():
    """A sweep solves its problems one after another in one process; its
    rows equal, evaluations included, cold ``optimize`` calls made one
    at a time."""
    template = classical_problem(p_a=20.0, branch=Branch.REVIVAL)
    swept = sweep(template, [5.0, 20.0])
    assert [row.error for row in swept] == [None, None]
    rows = [repr(row.result) for row in swept]
    cold = []
    for p_a in (5.0, 20.0):
        optimize_module._solve.cache_clear()
        cold.append(repr(optimize(classical_problem(p_a=p_a,
                                                    branch=Branch.REVIVAL))))
    assert rows == cold
    assert "REVIVAL" in rows[1]
    assert_no_children()


def failing_away_from_the_starts(monkeypatch, prob):
    """The point kernel ``_points`` raises ConvergenceFailure at the
    first point of a batch that is not a start point the solver uses,
    those of the scale-free problem, so it raises only inside the
    ascents."""
    starts = set(start_points(optimize_module._unit_problem(prob)))
    points = optimize_module._points

    def failing(prob, batch, l_max=None):
        for p_s, t_1 in batch:
            if (p_s, t_1) not in starts:
                raise ConvergenceFailure(f"injected at p_s = {p_s!r}")
        return points(prob, batch, l_max)

    monkeypatch.setattr(optimize_module, "_points", failing)


def test_worker_failure_reaches_the_caller_as_in_a_serial_run(monkeypatch):
    """An exception raised inside an ascent reaches the caller with its
    type and message: that of the first climbed start's first step,
    which the first batch after the starts scores first, as that start
    alone raises it."""
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=10.0)
    failing_away_from_the_starts(monkeypatch, prob)
    with pytest.raises(ConvergenceFailure) as info:
        optimize(prob)
    unit = optimize_module._unit_problem(prob)
    with pytest.raises(ConvergenceFailure) as first:
        alone(unit, lattice_climbed(unit)[0][0])
    assert type(info.value) is type(first.value)
    assert str(info.value) == str(first.value)
    assert str(info.value).startswith("injected at p_s = ")
    assert info.value.__cause__ is None
    assert_no_children()


def test_sweep_annotates_a_worker_failure(monkeypatch):
    template = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=10.0)
    failing_away_from_the_starts(monkeypatch, template)
    rows = sweep(template, [10.0])
    assert rows[0].result is None
    assert rows[0].error.startswith("ConvergenceFailure: injected at p_s = ")
    assert_no_children()


def test_results_of_many_starts_merge_in_start_order():
    """Ascents of different lengths run in lockstep: each round scores
    the pending points of the live ascents as one batch, in start order,
    each ascent is sent the reply for its own point, and their results
    come back in start order; an exception raised in a batch stops the
    run."""
    class Recorder:
        def __init__(self, fail_at=None):
            self.batches, self.fail_at = [], fail_at

        def score(self, points):
            self.batches.append(points)
            if self.fail_at in points:
                raise ValueError(f"start {self.fail_at[0]}")
            return [("reply", p) for p in points]

    def ascent(i, length):
        for j in range(length):
            assert (yield i, j) == ("reply", (i, j))
        return i * i

    lengths = [3, 0, 5, 1]
    rec = Recorder()
    ends = _lockstep(rec.score, [ascent(i, n) for i, n in enumerate(lengths)])
    assert ends == [0, 1, 4, 9]
    assert rec.batches == [[(0, 0), (2, 0), (3, 0)], [(0, 1), (2, 1)],
                           [(0, 2), (2, 2)], [(2, 3)], [(2, 4)]]
    rec = Recorder(fail_at=(2, 1))
    with pytest.raises(ValueError, match="start 2"):
        _lockstep(rec.score, [ascent(i, n) for i, n in enumerate(lengths)])
    assert len(rec.batches) == 2


def test_optimize_loads_no_multiprocessing():
    """A fresh interpreter in which every way to start a process raises
    runs a classical and a quantum optimize, and loads neither
    ``multiprocessing`` nor ``concurrent.futures``."""
    code = ("import os, subprocess, sys\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('a process was started')\n"
            "for name in ('fork', 'forkpty', 'posix_spawn', 'posix_spawnp',\n"
            "             'spawnv', 'spawnve', 'system'):\n"
            "    if hasattr(os, name):\n"
            "        setattr(os, name, refuse)\n"
            "subprocess.Popen = refuse\n"
            "from rotorkick.core import Engine, PulseOrder\n"
            "from rotorkick.optimize import OptimizationProblem, optimize\n"
            "for engine, p_a in ((Engine.CLASSICAL, 10.0),\n"
            "                    (Engine.QUANTUM, 3.0)):\n"
            "    optimize(OptimizationProblem(engine, PulseOrder.LASER_FIRST,\n"
            "                                 p_a))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
            "             ('multiprocessing', 'concurrent')))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, timeout=300).stdout.decode()
    assert out.strip() == "[]"


def test_optimize_in_a_daemonic_pool_worker():
    """A daemonic process may not have children, and optimize needs
    none: inside one it returns the parent's result."""
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=10.0)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply(optimize, (prob,))
    assert repr(inside) == repr(optimize(prob))
