"""optimize runs its ascents in forked worker processes: the results
must be those of a serial run, bit for bit, errors included, and no
worker may outlive the call."""

import importlib
import multiprocessing
import os
import threading

import pytest

from rotorkick.core import Branch, Engine, PulseOrder
from rotorkick.errors import ConvergenceFailure
from rotorkick.optimize import OptimizationProblem, _start_points, optimize, sweep

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


def with_workers(monkeypatch, n):
    monkeypatch.setattr(optimize_module, "_worker_count", lambda tasks: n)


@pytest.mark.parametrize("name", PROBLEMS)
def test_parallel_equals_serial(name, monkeypatch):
    """Every field identical, evaluations included, on one worker, on two
    and on the CPUs this process may use."""
    prob, kwargs = PROBLEMS[name]
    default = optimize(prob, **kwargs)
    runs = []
    for n in (1, 2):
        optimize_module._solve.cache_clear()  # a cold solve on n workers
        with_workers(monkeypatch, n)
        runs.append(optimize(prob, **kwargs))
    assert [repr(r) for r in runs] == [repr(default)] * 2
    if name == "classical-revival-20":
        assert default == REVIVAL20
    assert multiprocessing.active_children() == []


def test_sweep_parallel_equals_serial(monkeypatch):
    """A sweep's rows are the same, evaluations included, on one worker
    and on two."""
    template = classical_problem(p_a=20.0, branch=Branch.REVIVAL)
    runs = []
    for n in (1, 2):
        optimize_module._solve.cache_clear()
        with_workers(monkeypatch, n)
        runs.append([repr(row) for row in sweep(template, [5.0, 20.0])])
    assert runs[0] == runs[1]
    assert "REVIVAL" in runs[0][1] and "error=None" in runs[0][1]
    assert multiprocessing.active_children() == []


def test_worker_count_follows_the_cpus_this_process_may_use():
    cpus = len(os.sched_getaffinity(0))
    assert optimize_module._worker_count(1000) == cpus
    assert optimize_module._worker_count(1) == 1


def test_no_fork_while_another_thread_runs():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert optimize_module._worker_count(1000) == 1
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert optimize_module._worker_count(1000) == len(os.sched_getaffinity(0))


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
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=10.0)
    failing_away_from_the_starts(monkeypatch, prob)
    raised = []
    for n in (1, 2):
        with_workers(monkeypatch, n)
        with pytest.raises(ConvergenceFailure) as info:
            optimize(prob)
        raised.append(info.value)
        assert multiprocessing.active_children() == []
    serial, parallel = raised
    assert type(parallel) is type(serial)
    assert str(parallel) == str(serial)
    # the parallel failure was raised in a worker, the serial one here
    assert type(parallel.__cause__).__name__ == "_RemoteTraceback"
    assert serial.__cause__ is None


def test_sweep_annotates_a_worker_failure(monkeypatch):
    template = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=10.0)
    failing_away_from_the_starts(monkeypatch, template)
    with_workers(monkeypatch, 2)
    rows = sweep(template, [10.0])
    assert rows[0].result is None
    assert rows[0].error.startswith("ConvergenceFailure: injected at p_s = ")
    assert multiprocessing.active_children() == []


def test_optimize_in_a_daemonic_pool_worker():
    """A daemonic process may not have children: its optimize runs the
    ascents serially and returns the parent's result."""
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=10.0)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply(optimize, (prob,))
    assert repr(inside) == repr(optimize(prob))
