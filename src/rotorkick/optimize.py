"""Pulse-pair optimization of the orientation factor.

The objective |<cos theta>|(p_s, t_1, t_2) is violently multimodal in
the observation time t_2 but smooth in (p_s, t_1) near its optima, so
the search is nested: an exhaustive t_2 scan (a first scan of the whole
window - a dense grid classically, one FFT of the periodic quantum
signal - then safeguarded Newton steps from its best sample on the
analytic t-derivatives of the engine's free flight) inside a multi-start
Nelder-Mead simplex over (p_s, t_1), run in scaled coordinates
(p_s/p_a, t_1*p_a). The simplex is the package's own port of scipy's
Nelder-Mead (:func:`_nelder_mead`); the package imports numpy alone.

Branches
--------
Prompt: orientation shortly after the pulse pair. Revival: orientation
near one full revival period; classically this is the analytic
continuation of the trajectory to negative times, quantum mechanically a
window of total time within [2*pi - Delta, 2*pi]. Classical windows
scale as 1/p_a so that optima respect the exact classical scaling law;
quantum windows span the full 2*pi period, which is the natural domain
of a periodic system.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import classical, defaults, quantum
from .core import (REVIVAL_PERIOD, Branch, Engine, ObjectiveSign,
                   OptimizationResult, PulseOrder)
from .errors import NonFiniteValue, RotorkickError


@dataclass(frozen=True)
class BoundsBox:
    """Finite box constraints on (p_s, t_1, t_2)."""

    p_s: tuple[float, float]
    t_1: tuple[float, float]
    t_2: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in (("p_s", self.p_s), ("t_1", self.t_1),
                               ("t_2", self.t_2)):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise NonFiniteValue(f"bad bounds for {name}: ({lo}, {hi})")

    def contains(self, p_s: float, t_1: float) -> bool:
        """Whether (p_s, t_1) lies in the box (t_2 is searched separately)."""
        return (self.p_s[0] <= p_s <= self.p_s[1]
                and self.t_1[0] <= t_1 <= self.t_1[1])


def default_bounds(engine: Engine, order: PulseOrder, branch: Branch,
                   p_a: float) -> BoundsBox:
    """Engine- and branch-dependent default search box.

    Prompt uses an anti-aligning pre/post pulse (p_s < 0); the revival
    branch mirrors it with an aligning pulse (p_s > 0). |p_s| ranges over
    [0.02, 1.0] * p_a.
    """
    pa = abs(p_a) if p_a != 0 else 1.0
    lo_mag = defaults.PS_RATIO_MIN * pa
    hi_mag = defaults.PS_RATIO_MAX * pa
    if branch is Branch.PROMPT:
        ps = (-hi_mag, -lo_mag)
    else:
        ps = (lo_mag, hi_mag)

    if order is PulseOrder.SIMULTANEOUS:
        t1 = (0.0, 0.0)
    elif engine is Engine.CLASSICAL:
        w1 = defaults.delay_window_classical(pa)
        t1 = (-w1, 0.0) if branch is Branch.REVIVAL else (0.0, w1)
    else:
        t1 = (0.0, REVIVAL_PERIOD)

    if engine is Engine.CLASSICAL:
        w2 = defaults.prompt_window_classical(pa)
        t2 = (-w2, 0.0) if branch is Branch.REVIVAL else (0.0, w2)
    else:
        t2 = (0.0, REVIVAL_PERIOD)
    return BoundsBox(ps, t1, t2)


@dataclass(frozen=True)
class OptimizationProblem:
    """One optimization instance: engine, pulse order, branch, fixed p_a.

    p_a > 0 is the canonical case. p_a = 0 short-circuits (orientation is
    identically zero by parity); negative p_a is tolerated so the
    sign-flip symmetry of the objective can be probed directly.
    """

    engine: Engine
    order: PulseOrder
    p_a: float
    branch: Branch = Branch.PROMPT
    bounds: BoundsBox | None = None
    objective_sign: ObjectiveSign = ObjectiveSign.MAXIMIZE_ABS

    def __post_init__(self):
        if not math.isfinite(self.p_a) or abs(self.p_a) > 1e4:
            raise NonFiniteValue(f"bad p_a: {self.p_a}")
        if self.bounds is None:
            object.__setattr__(
                self, "bounds",
                default_bounds(self.engine, self.order, self.branch, self.p_a),
            )
        if self.order is PulseOrder.SIMULTANEOUS and self.bounds.t_1 != (0.0, 0.0):
            object.__setattr__(self, "bounds",
                               replace(self.bounds, t_1=(0.0, 0.0)))
        if self.engine is Engine.QUANTUM and self.branch is Branch.REVIVAL:
            # keep the delays whose revival window meets the t_2 box, if any
            (t1_lo, t1_hi), (t2_lo, t2_hi) = self.bounds.t_1, self.bounds.t_2
            t_1 = (max(t1_lo, REVIVAL_PERIOD - defaults.REVIVAL_WINDOW - t2_hi),
                   min(t1_hi, REVIVAL_PERIOD - t2_lo))
            object.__setattr__(self, "bounds", replace(self.bounds, t_1=t_1))

    def transform(self, value):
        """The score maximized: |value| or value (also elementwise)."""
        return abs(value) if self.objective_sign is ObjectiveSign.MAXIMIZE_ABS \
            else value


def _t2_window(prob: OptimizationProblem, t_1: float) -> tuple[float, float]:
    lo, hi = prob.bounds.t_2
    if prob.engine is Engine.QUANTUM and prob.branch is Branch.REVIVAL:
        # total time t_1 + t_2 confined to [2*pi - Delta, 2*pi]
        lo = max(lo, REVIVAL_PERIOD - defaults.REVIVAL_WINDOW - t_1)
        hi = min(hi, REVIVAL_PERIOD - t_1)
    return lo, hi


def evaluate_objective(
    prob: OptimizationProblem, p_s: float, t_1: float
) -> tuple[float, float]:
    """Best signed <cos theta> over the branch's t_2 window, and its t_2.

    One finder for both engines: a first scan samples the window at the
    strength-scaled step, then :func:`_polish` ascends from its best
    sample within one sample spacing each side (clipped to the window)
    on the engine's analytic t-derivatives. The classical scan is an
    even grid from edge to edge of :class:`classical.TwoKickScan`, whose
    converged rule pair the polish reads on; the quantum one is the
    window's samples of one FFT (:func:`_fft_samples`), and the polish
    reads :func:`quantum.observable_scan` at one time per iterate. A
    window holding no sample is polished from its midpoint. The returned
    t_2 lies in the window; an empty window (lo > hi) is scored at hi.
    """
    lo, hi = _t2_window(prob, t_1)
    lo = min(lo, hi)
    step = defaults.scan_step(abs(p_s) + abs(prob.p_a))
    if prob.engine is Engine.CLASSICAL:
        n = max(8, int(math.ceil((hi - lo) / step)) + 1)
        ts = np.linspace(lo, hi, n)
        scan = classical.TwoKickScan(p_s, prob.p_a, t_1, ts, prob.order)
        values, h, jet = scan.values, (hi - lo) / (n - 1), scan.jet
    else:
        psi = quantum.two_kick_state(p_s, prob.p_a, t_1, prob.order)
        ts, values, h = _fft_samples(psi, step, lo, hi)
        jet = partial(quantum.observable_scan, psi, 1, jet=True)
    if not ts.size:
        return _polish(prob, jet, lo, 0.5 * (lo + hi), hi, None)
    j = int(np.argmax(prob.transform(values)))
    t = min(max(ts[j], lo), hi)
    return _polish(prob, jet, max(lo, t - h), t, min(hi, t + h), values[j])


def _fft_samples(psi: quantum.RotorWavefunction, step: float, lo: float,
                 hi: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The quantum first scan: the times in the window [lo, hi], lo <= hi,
    of one FFT's samples, their orientation values and the spacing.

    Orientation after the last kick has period 2 pi, so one FFT of n
    points samples every t = 2 pi j / n: n is the smallest power of two
    with n >= 4(l_max + 1) and 2 pi / n <= ``step``. The window's
    samples are read mod n, so boxes beyond one period wrap; a window
    holding no sample makes no FFT.
    """
    n = 1 << (max(4 * (psi.l_max + 1),
                  math.ceil(REVIVAL_PERIOD / step)) - 1).bit_length()
    h = REVIVAL_PERIOD / n
    first, last = math.ceil(lo / h), math.floor(hi / h)
    # one period of indices holds the first best sample of any longer range
    idx = np.arange(first, min(last, first + n - 1) + 1)
    if not idx.size:
        return idx, idx, h
    return idx * h, quantum.orientation_samples(psi, n)[idx % n], h


def _polish(prob: OptimizationProblem, jet, a: float, t: float, b: float,
            value: float | None) -> tuple[float, float]:
    """Safeguarded Newton ascent of the score from the sample t in [a, b].

    ``jet(t)`` is (f, f', f'') of the signed orientation, ``value`` the
    first scan's f at t (None if there is no sample). Each iterate keeps
    the side of [a, b] that the score rises to, then steps to the Newton
    point t - f'/f'' (clipped to [a, b]) if that moves uphill by at most
    half the last step, else to the midpoint of [a, b], as rtsafe of
    Numerical Recipes does; the steps shrink at least geometrically. The
    polish ends on the iterate after a step of at most
    ``defaults.TIME_REFINE_TOL``, or when [a, b] has shrunk to t, so a
    peak cut by the window's edge ends on the edge. Returns the best
    (f, t) scored, the start included.
    """
    best, t_best, last_step, done = value, t, b - a, False
    while True:
        f, slope, curve = map(float, jet(t))
        if best is None or prob.transform(f) > prob.transform(best):
            best, t_best = f, t
        if done:
            break
        flip = prob.objective_sign is ObjectiveSign.MAXIMIZE_ABS and f < 0
        if (slope < 0) if flip else (slope > 0):  # the score rises
            a = t
        else:
            b = t
        newton = t - slope / curve if curve else math.nan
        nxt = min(max(newton, a), b)  # past [a, b]: the end it points to
        if not 0.0 < abs(nxt - t) <= 0.5 * last_step:
            nxt = 0.5 * (a + b)
        if nxt == t:
            break
        last_step, t = abs(nxt - t), nxt
        done = last_step <= defaults.TIME_REFINE_TOL
    return float(best), float(t_best)


def _start_points(prob: OptimizationProblem) -> list[tuple[float, float]]:
    """Deterministic coarse-grid simplex starts (at least 8)."""
    (ps_lo, ps_hi) = prob.bounds.p_s
    (t1_lo, t1_hi) = prob.bounds.t_1
    sign = 1.0 if ps_lo >= 0 else -1.0
    mag_lo = max(min(abs(ps_lo), abs(ps_hi)), 1e-6)
    mag_hi = max(abs(ps_lo), abs(ps_hi))
    mags = np.clip(np.geomspace(1.05 * mag_lo, 0.95 * mag_hi, 4),
                   mag_lo, mag_hi)

    def clamp_t1(t: float) -> float:
        eps = 1e-9 + 1e-6 * (t1_hi - t1_lo)
        return min(max(t, t1_lo + eps), t1_hi - eps) if t1_hi > t1_lo else t1_lo

    if prob.order is PulseOrder.SIMULTANEOUS:
        extra = abs(prob.p_a) / 2.34
        out = [(sign * m, 0.0) for m in mags]
        if mag_lo <= extra <= mag_hi:
            out.append((sign * extra, 0.0))
        return out

    delays: list = []
    scale = 0.8 if prob.order is PulseOrder.LASER_FIRST else 0.36
    for m in mags:
        base = scale / m
        if prob.branch is Branch.REVIVAL and prob.engine is Engine.CLASSICAL:
            delays += [(sign * m, clamp_t1(-base)), (sign * m, clamp_t1(-2.5 * base))]
        elif prob.branch is Branch.REVIVAL:
            delays += [(sign * m, clamp_t1(REVIVAL_PERIOD - base)),
                       (sign * m, clamp_t1(REVIVAL_PERIOD - 2.5 * base))]
        else:
            delays += [(sign * m, clamp_t1(base)), (sign * m, clamp_t1(2.5 * base))]
    if prob.engine is Engine.QUANTUM and prob.branch is Branch.PROMPT:
        # interference-assisted basins sit at delays of order one radian
        # short of the revival (laser-first) or near the half revival
        anchors = (4.3, 4.9, 5.5) if prob.order is PulseOrder.LASER_FIRST \
            else (3.1, 0.1, 5.5)
        for m in mags[1:3]:
            delays += [(sign * m, clamp_t1(t)) for t in anchors]
    return delays


def optimize(
    prob: OptimizationProblem,
    extra_starts: int = 0,
    seed: int | None = None,
) -> OptimizationResult:
    """Multi-start Nelder-Mead over (p_s, t_1) around the inner t_2 scan.

    ``extra_starts`` adds seeded uniform-random starts on top of the
    deterministic grid (the only use of randomness). Results from all
    starts are merged deterministically: best transformed objective,
    ties broken by smaller |p_s|. ``stagnated`` is set when no simplex
    ended above the best start it was given.

    The starts are scored in this process, then their simplexes run side
    by side in forked worker processes, one per CPU this process may use
    (its CPU affinity: ``taskset`` or a container's CPU set limits them),
    and serially where there is one such CPU, no ``fork`` start method,
    another thread running, or the caller is a daemonic process. The
    result is identical to a serial run, ``evaluations`` included, and
    no worker outlives the call. A negative ``extra_starts`` raises
    ValueError.
    """
    _check_extra_starts(extra_starts)
    if prob.p_a == 0.0:
        warnings.warn("p_a = 0: a symmetric kick alone never orients; "
                      "objective is identically zero", stacklevel=2)
        # every point scores zero: report 0 clipped into each interval
        (ps_lo, ps_hi), (t1_lo, t1_hi) = prob.bounds.p_s, prob.bounds.t_1
        t_1 = min(max(0.0, t1_lo), t1_hi)
        t2_lo, t2_hi = _t2_window(prob, t_1)
        return OptimizationResult(
            p_a=0.0, p_s=min(max(0.0, ps_lo), ps_hi), t_1=t_1,
            t_2=min(max(0.0, t2_lo), t2_hi), objective=0.0,
            branch=prob.branch, order=prob.order, engine=prob.engine,
            evaluations=1, stagnated=True,
        )
    return _solve(prob, extra_starts, seed)


def _solve(prob: OptimizationProblem, extra_starts: int, seed: int | None,
           warm: tuple[float, float] | None = None) -> OptimizationResult:
    """The one simplex driver of :func:`optimize` and :func:`sweep`: the
    starts are the grid of :func:`_start_points`, ``extra_starts`` seeded
    random points of the box and ``warm`` (a sweep row's scaled previous
    optimum) if it lies in the box. They are scored here, so the workers
    fork with the rule and operator caches warm."""
    evaluate = _Objective(prob)
    (ps_lo, ps_hi) = prob.bounds.p_s
    (t1_lo, t1_hi) = prob.bounds.t_1
    starts = _start_points(prob)
    if extra_starts > 0:
        rng = np.random.default_rng(seed)
        for _ in range(extra_starts):
            ps = rng.uniform(ps_lo, ps_hi)
            t1 = rng.uniform(t1_lo, t1_hi) if t1_hi > t1_lo else t1_lo
            starts.append((ps, t1))
    if warm is not None and prob.bounds.contains(*warm):
        starts.append(warm)

    scored = [(prob.transform(evaluate(*s)[0]), s[0], s[1]) for s in starts]
    runs = _map_starts(partial(_simplex_from, evaluate), starts)
    for _, added in runs:
        evaluate.update(added)
    ends = [end for end, _ in runs if end is not None]

    score, ps, t1 = max(ends + scored, key=lambda c: (c[0], -abs(c[1])))
    value, t2 = evaluate(ps, t1)
    return OptimizationResult(
        p_a=prob.p_a, p_s=ps, t_1=t1, t_2=t2, objective=value,
        branch=prob.branch, order=prob.order, engine=prob.engine,
        evaluations=len(evaluate),
        stagnated=bool(score <= max(c[0] for c in scored) + 1e-12),
    )


def _check_extra_starts(extra_starts: int) -> None:
    if extra_starts < 0:
        raise ValueError(f"extra_starts must be >= 0, got {extra_starts}")


class _Objective(dict):
    """:func:`evaluate_objective` of one problem, memoized on (p_s, t_1):
    a dict of (p_s, t_1) -> (value, t_2), so a worker's entries merge
    into the parent's with ``update``. Its length is the evaluation count.
    """

    def __init__(self, prob: OptimizationProblem):
        super().__init__()
        self.prob = prob

    def __missing__(self, key: tuple[float, float]) -> tuple[float, float]:
        self[key] = evaluate_objective(self.prob, *key)
        return self[key]

    def __call__(self, ps: float, t1: float) -> tuple[float, float]:
        return self[ps, t1]


def _worker_count(tasks: int) -> int:
    """Processes for ``tasks`` simplexes: one per CPU this process may
    use, at most one per task; 1 without the ``fork`` start method, in a
    daemonic process (such as a worker of the caller's own pool), which
    may not have children, or while another thread runs, which a forked
    child could deadlock on."""
    import multiprocessing
    import threading
    if (multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(tasks, cpus)


def _map_starts(task, starts: list) -> list:
    """``task`` of every start, in start order: over a pool of
    :func:`_worker_count` forked processes, closed before it returns, or
    with the builtin ``map`` when that count is 1. A worker's exception
    reaches the caller with its type and message."""
    workers = _worker_count(len(starts))
    if workers < 2:
        return list(map(task, starts))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # fork, not spawn: a spawned worker would import the package again
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        return list(pool.map(task, starts))


def _simplex_from(evaluate: _Objective, start: tuple[float, float]):
    """One Nelder-Mead run from ``start`` = (p_s, t_1), bounded by the
    box of ``evaluate``'s problem, on :func:`_nelder_mead`, the
    package's own port of scipy's simplex.

    The simplex moves in scaled coordinates (p_s/p_a, t_1*p_a), 1-d for
    simultaneous pulses; points outside the box score 1e3. Returns
    (transformed objective, p_s, t_1) at the end point, or None if the
    run ends outside the box, and the entries the run added to
    ``evaluate`` (in a worker, to its own copy of the memo).
    """
    prob, known = evaluate.prob, len(evaluate)
    ps0, t10 = start
    pa_mag = abs(prob.p_a)
    simultaneous = prob.order is PulseOrder.SIMULTANEOUS

    def unscale(u: np.ndarray) -> tuple[float, float]:
        return u[0] * pa_mag, 0.0 if simultaneous else u[1] / pa_mag

    def neg_objective(u: np.ndarray) -> float:
        ps, t1 = unscale(u)
        if not prob.bounds.contains(ps, t1):
            return 1e3
        return -prob.transform(evaluate(ps, t1)[0])

    u0 = np.array([ps0 / pa_mag] if simultaneous
                  else [ps0 / pa_mag, t10 * pa_mag])
    u, fun = _nelder_mead(neg_objective, u0, xatol=defaults.SIMPLEX_XATOL,
                          fatol=1e-9, maxiter=defaults.SIMPLEX_MAXITER)
    ps, t1 = unscale(u)
    end = (-fun, ps, t1) if prob.bounds.contains(ps, t1) else None
    return end, list(evaluate.items())[known:]


def _nelder_mead(f, x0: np.ndarray, xatol: float, fatol: float,
                 maxiter: int):
    """Minimize ``f`` from ``x0`` by the Nelder-Mead simplex: returns the
    best vertex and its value.

    A port of scipy.optimize's ``_minimize_neldermead`` (scipy 1.17)
    with its standard coefficients (rho = 1, chi = 2, psi = sigma = 0.5,
    folded into the constants below) and initial simplex, cut to what
    :func:`_simplex_from` uses: no bounds, callback, adaptive
    coefficients or call cap. The arithmetic, its order and the
    re-sorts are scipy's, so the run is bit-identical to
    ``minimize(f, x0, method="Nelder-Mead", options={"xatol": xatol,
    "fatol": fatol, "maxiter": maxiter})``.
    """
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim], dtype=float)
    # scipy sorts the first simplex twice; argsort need not be stable
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]  # expansion
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]  # outside contraction
                fxc = f(xc)
                keep = fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]  # inside contraction
                fxc = f(xc)
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])  # shrink
                    fsim[j] = f(sim[j])
        iterations += 1
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return sim[0], np.min(fsim)


@dataclass(frozen=True)
class SweepRow:
    p_a: float
    result: OptimizationResult | None
    error: str | None = None


def sweep(prob_template: OptimizationProblem, p_a_values,
          extra_starts: int = 0, seed: int | None = None) -> list[SweepRow]:
    """One optimize per p_a, warm-started from the previous optimum.

    A row after the first (sequential pulses) has one more start: the
    previous optimum scaled by lam = p_a / p_a(previous) to (lam p_s,
    t_1 / lam), if it lies in the box. It counts as a start for
    ``stagnated``, and its simplex's points in ``evaluations``. p_a
    values must be positive and sorted ascending, and ``extra_starts``
    not negative. Failures are captured per point so a sweep always
    returns one row per input.
    """
    _check_extra_starts(extra_starts)
    p_a_values = list(p_a_values)
    if any(p <= 0 for p in p_a_values):
        raise ValueError("sweep p_a values must be positive")
    if sorted(p_a_values) != p_a_values:
        raise ValueError("sweep p_a values must be sorted ascending")
    if (prob_template.engine is Engine.QUANTUM
            and any(p > defaults.QUANTUM_SWEEP_PA_MAX for p in p_a_values)):
        raise ValueError(
            f"quantum sweeps are limited to p_a <= {defaults.QUANTUM_SWEEP_PA_MAX}"
            " by default (override by sweeping manually)")

    rows: list[SweepRow] = []
    prev: OptimizationResult | None = None
    for pa in p_a_values:
        try:
            prob = OptimizationProblem(
                engine=prob_template.engine, order=prob_template.order,
                p_a=pa, branch=prob_template.branch,
                objective_sign=prob_template.objective_sign,
            )
            warm = None
            if prev is not None and prob.order is not PulseOrder.SIMULTANEOUS:
                lam = pa / prev.p_a  # the previous optimum, strength-scaled
                warm = prev.p_s * lam, prev.t_1 / lam
            result = _solve(prob, extra_starts, seed, warm)
            rows.append(SweepRow(pa, result))
            prev = result
        except (RotorkickError, ValueError) as exc:
            # bad input and numerical failure annotate the point and the
            # sweep goes on; anything else is a bug and propagates
            rows.append(SweepRow(pa, None, f"{type(exc).__name__}: {exc}"))
    return rows


CSV_HEADER = "p_a,p_s,t1,t2,objective,branch,order,engine,evals"

#: the one CSV float format: 12 significant digits, byte-stable across
#: runs; ``%`` formatting prints the same bytes as ``"{:.11e}".format``
CSV_FLOAT = "%.11e"
CSV_NUM = CSV_FLOAT.__mod__


def result_csv_row(r: OptimizationResult) -> str:
    return ",".join([
        *map(CSV_NUM, (r.p_a, r.p_s, r.t_1, r.t_2, r.objective)),
        r.branch.value, r.order.value, r.engine.value, str(r.evaluations),
    ])
