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
                                _start_points, evaluate_objective, optimize,
                                sweep)

from test_optimize import REVIVAL20, classical_problem

# the package re-exports the function `optimize` under the module's name
optimize_module = importlib.import_module("rotorkick.optimize")

PROBLEMS = {
    "classical-revival-20": (classical_problem(p_a=20.0, branch=Branch.REVIVAL),
                             {}),
    "quantum-laser-first-3": (OptimizationProblem(
        engine=Engine.QUANTUM, order=PulseOrder.LASER_FIRST, p_a=3.0), {}),
    "classical-hcp-first-extra-starts": (
        classical_problem(order=PulseOrder.HCP_FIRST, p_a=10.0),
        {"extra_starts": 4, "seed": 1}),
}


def assert_no_children():
    """optimize left no child process behind: this process has none."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def alone(prob, start):
    """One start's ascent run by itself, with its own memo, through
    ``_lockstep`` with one ascent, one point a round: its end
    (transformed objective, p_s, t_1) and the points it evaluated."""
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
                                         box.u_hi)])
    return (f, *(start if u is u0 else box.point(u))), set(evaluate)


@pytest.mark.parametrize("name", PROBLEMS)
def test_parallel_equals_serial(name, monkeypatch):
    """The lockstep solve is each start's ascent run alone, merged: the
    same optimum bit for bit and the same evaluation count, the union of
    the points the starts evaluate."""
    prob, kwargs = PROBLEMS[name]
    unit = optimize_module._unit_problem(prob)
    score, batches, ascents = optimize_module._Objective.score, [], []

    def spy(evaluate, points):
        batches.append(list(points))
        return score(evaluate, points)

    def ascent(u, *args):
        ascents.append(u)
        return _ascent(u, *args)

    monkeypatch.setattr(optimize_module._Objective, "score", spy)
    monkeypatch.setattr(optimize_module, "_ascent", ascent)
    res = optimize_module._solve(unit, kwargs.get("extra_starts", 0),
                                 kwargs.get("seed"))
    starts = batches[0]  # the starts are the first batch, one ascent each
    box = optimize_module._ScaledBox(unit)
    assert [u.tolist() for u in ascents] == [box.scaled(s).tolist()
                                             for s in starts]
    assert len(starts) >= 8
    runs = [alone(unit, start) for start in starts]
    scored = [(unit.transform(evaluate_objective(unit, *s)[0]), *s)
              for s in starts]
    best = max([end for end, _ in runs] + scored,
               key=lambda c: (c[0], -abs(c[1])))
    assert (unit.transform(res.objective), res.p_s, res.t_1) == best
    assert res.evaluations == len(set().union(*(seen for _, seen in runs)))
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
    """evaluate_objective raises ConvergenceFailure at every point but
    the start points the solver uses, those of the scale-free problem, so
    it raises only inside the ascents."""
    starts = set(_start_points(optimize_module._unit_problem(prob)))
    evaluate = optimize_module.evaluate_objective

    def failing(prob, p_s, t_1, gradient=False):
        if (p_s, t_1) not in starts:
            raise ConvergenceFailure(f"injected at p_s = {p_s!r}")
        return evaluate(prob, p_s, t_1, gradient)

    monkeypatch.setattr(optimize_module, "evaluate_objective", failing)


def test_worker_failure_reaches_the_caller_as_in_a_serial_run(monkeypatch):
    """An exception raised inside an ascent reaches the caller with its
    type and message: that of the first start's first step, which the
    first batch after the starts scores first, as that start alone
    raises it."""
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=10.0)
    failing_away_from_the_starts(monkeypatch, prob)
    with pytest.raises(ConvergenceFailure) as info:
        optimize(prob)
    unit = optimize_module._unit_problem(prob)
    with pytest.raises(ConvergenceFailure) as first:
        alone(unit, _start_points(unit)[0])
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
