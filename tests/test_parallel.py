"""optimize runs its ascents in forked worker processes: the results
must be those of a serial run, bit for bit, errors included, and no
worker may outlive the call."""

import contextlib
import importlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

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


def assert_no_children():
    """Every forked worker has been reaped: this process has no child."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block takes longer."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    assert_no_children()


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
    assert_no_children()


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
        assert_no_children()
    serial, parallel = raised
    assert type(parallel) is type(serial)
    assert str(parallel) == str(serial)
    # the parallel failure was raised in a worker, the serial one here:
    # the worker's traceback text ends in the same exception
    worker_traceback = str(parallel.__cause__)
    assert worker_traceback.startswith("Traceback (most recent call last):")
    assert "in failing" in worker_traceback
    assert worker_traceback.rstrip().endswith(
        f"ConvergenceFailure: {serial}")
    assert serial.__cause__ is None


def test_sweep_annotates_a_worker_failure(monkeypatch):
    template = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=10.0)
    failing_away_from_the_starts(monkeypatch, template)
    with_workers(monkeypatch, 2)
    rows = sweep(template, [10.0])
    assert rows[0].result is None
    assert rows[0].error.startswith("ConvergenceFailure: injected at p_s = ")
    assert_no_children()


def dying_away_from_the_starts(monkeypatch, prob, die):
    """evaluate_objective calls ``die`` in a worker at every point but
    the start points, which the calling process scores itself."""
    starts = set(_start_points(optimize_module._unit_problem(prob)))
    evaluate, parent = optimize_module.evaluate_objective, os.getpid()

    def dying(prob, p_s, t_1, gradient=False):
        if (p_s, t_1) not in starts and os.getpid() != parent:
            die()
        return evaluate(prob, p_s, t_1, gradient)

    monkeypatch.setattr(optimize_module, "evaluate_objective", dying)


@pytest.mark.parametrize("die, status", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    (lambda: os._exit(7), "exit status 7"),
    (lambda: sys.exit(0), "exit status 1"),
], ids=["sigkill", "exit-7", "system-exit"])
def test_a_worker_that_dies_fails_the_call(monkeypatch, die, status):
    """A worker that ends without sending its results makes optimize
    raise, naming the exit status, instead of hanging or returning the
    other workers' results; every worker is reaped."""
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=10.0)
    dying_away_from_the_starts(monkeypatch, prob, die)
    with_workers(monkeypatch, 2)
    with deadline(120), pytest.raises(RuntimeError,
                                      match=f"without a result: {status}"):
        optimize(prob)
    assert_no_children()


def test_one_dead_worker_among_finished_ones(monkeypatch):
    """Only the worker of the last start dies; the others finish and are
    reaped, and the call still raises."""
    with_workers(monkeypatch, 3)
    last = 5

    def task(start):
        if start == last:
            os.kill(os.getpid(), signal.SIGKILL)
        return start * start

    assert optimize_module._map_starts(task, list(range(last))) == \
        [0, 1, 4, 9, 16]
    assert_no_children()
    with deadline(60), pytest.raises(RuntimeError, match="signal 9"):
        optimize_module._map_starts(task, list(range(last + 1)))
    assert_no_children()


def open_fds():
    return sorted(os.listdir(f"/proc/{os.getpid()}/fd"))


def blocked_signals():
    return signal.pthread_sigmask(signal.SIG_BLOCK, [])


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to list open descriptors")
def test_a_failed_fork_leaks_no_pipe_and_no_worker(monkeypatch):
    """When the second fork fails (as with EAGAIN), the call raises that
    error, the worker already forked is stopped and reaped, no pipe end
    stays open, and the signals blocked while forking are unblocked."""
    with_workers(monkeypatch, 3)
    fork, forks = os.fork, []

    def failing_second_fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_second_fork)
    before, mask = open_fds(), blocked_signals()
    with deadline(60), pytest.raises(BlockingIOError):
        optimize_module._map_starts(time.sleep, [60.0, 60.0, 60.0])
    assert len(forks) == 2
    assert open_fds() == before
    assert blocked_signals() == mask
    assert_no_children()


def test_an_interrupted_call_stops_its_workers(monkeypatch):
    """An exception in the waiting parent (here the alarm of a deadline)
    kills and reaps the workers instead of waiting for them."""
    with_workers(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(TimeoutError), deadline(1):
        optimize_module._map_starts(time.sleep, [60.0, 60.0])
    assert time.monotonic() - started < 30.0
    assert_no_children()


def test_results_of_many_starts_merge_in_start_order(monkeypatch):
    """Start i runs in worker i mod w; the results come back in start
    order, whatever their size, and the earliest start's exception wins."""
    with_workers(monkeypatch, 3)
    mask = blocked_signals()
    big = optimize_module._map_starts(lambda n: bytes(n), [70000, 1, 2, 3])
    assert [len(b) for b in big] == [70000, 1, 2, 3]
    assert blocked_signals() == mask

    def task(start):
        if start in (4, 6):
            raise ValueError(f"start {start}")
        return start

    with pytest.raises(ValueError, match="start 4"):
        optimize_module._map_starts(task, list(range(8)))
    assert_no_children()


def test_optimize_loads_no_multiprocessing():
    """The fan-out forks by itself: a fresh optimize on two CPUs loads
    neither ``multiprocessing`` nor ``concurrent.futures``."""
    code = ("import os, sys\n"
            "os.sched_setaffinity(0, list(os.sched_getaffinity(0))[:2])\n"
            "from rotorkick.core import Engine, PulseOrder\n"
            "from rotorkick.optimize import (OptimizationProblem, "
            "_worker_count, optimize)\n"
            "optimize(OptimizationProblem(Engine.CLASSICAL, "
            "PulseOrder.SIMULTANEOUS, 10.0))\n"
            "print(_worker_count(8), sorted(m for m in sys.modules if "
            "m.split('.')[0] in ('multiprocessing', 'concurrent')))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, timeout=300).stdout.decode()
    workers, loaded = out.split(" ", 1)
    assert loaded.strip() == "[]"
    assert int(workers) == min(2, len(os.sched_getaffinity(0)))


def test_optimize_in_a_daemonic_pool_worker():
    """A daemonic process may not have children: its optimize runs the
    ascents serially and returns the parent's result."""
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=10.0)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.apply(optimize, (prob,))
    assert repr(inside) == repr(optimize(prob))
