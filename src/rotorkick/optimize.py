"""Pulse-pair optimization of the orientation factor.

The objective |<cos theta>|(p_s, t_1, t_2) is violently multimodal in
the observation time t_2 but smooth in (p_s, t_1) near its optima, so
the search is nested: an exhaustive t_2 scan (a first scan of the whole
window - a dense grid classically, one FFT of the periodic quantum
signal - then safeguarded Newton steps from its best sample on the
analytic t-derivatives of the engine's free flight) inside a multi-start
projected quasi-Newton ascent over (p_s, t_1) in a box, run in scaled
coordinates (p_s/p_a, t_1*p_a). The best value over t_2 is an envelope,
so its gradient in (p_s, t_1) is the partial derivative at the best t_2,
which each engine reads off tangents carried through the kicks. The
ascent is the package's own (:func:`_ascent`); the package imports
numpy alone.

Branches
--------
Prompt: orientation shortly after the pulse pair. Revival: orientation
near one full revival period; classically the analytic continuation of
the trajectory to negative times, which is the prompt problem mirrored,
quantum mechanically a window of total time within [2*pi - Delta, 2*pi].
Classical problems are solved once in the scale-free variables
p_s/|p_a|, |p_a| t_1 and |p_a| t_2, so optima respect the exact
classical scaling law; quantum windows span the full 2*pi period.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial

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


def default_bounds(engine: Engine, order: PulseOrder, branch: Branch,
                   p_a: float) -> BoundsBox:
    """Engine- and branch-dependent default search box.

    Prompt uses an anti-aligning pre/post pulse (p_s < 0); the revival
    branch mirrors it with an aligning pulse (p_s > 0). |p_s| ranges over
    [0.02, 1.0] * p_a. A classical box is its scale-free prompt box
    (:func:`_unit_bounds`) at the strength |p_a|, mirrored on the revival
    branch.
    """
    pa = abs(p_a) if p_a != 0 else 1.0
    if engine is Engine.CLASSICAL:
        return _rescaled_box(_unit_bounds(order, pa), _mirror(branch) * pa)
    lo, hi = defaults.PS_RATIO_MIN * pa, defaults.PS_RATIO_MAX * pa
    t1 = (0.0, 0.0 if order is PulseOrder.SIMULTANEOUS else REVIVAL_PERIOD)
    return BoundsBox((-hi, -lo) if branch is Branch.PROMPT else (lo, hi), t1,
                     (0.0, REVIVAL_PERIOD))


def _unit_bounds(order: PulseOrder, pa: float) -> BoundsBox:
    """The default classical prompt box in the scale-free variables
    (p_s/|p_a|, |p_a| t_1, |p_a| t_2) at the strength ``pa``: constants,
    but for the caps of the windows' (``defaults.*_window_classical``)."""
    t1 = (0.0, 0.0 if order is PulseOrder.SIMULTANEOUS
          else defaults.delay_window_classical(pa))
    return BoundsBox((-defaults.PS_RATIO_MAX, -defaults.PS_RATIO_MIN), t1,
                     (0.0, defaults.prompt_window_classical(pa)))


def _mirror(branch: Branch) -> float:
    """-1 on the revival branch, classically the prompt one run back, else 1."""
    return -1.0 if branch is Branch.REVIVAL else 1.0


def _rescaled_box(box: BoundsBox, pa: float) -> BoundsBox:
    """The box of (p_s, t_1, t_2) = (pa r, T_1 / pa, T_2 / pa) for ``box``
    of (r, T_1, T_2); 1 / pa inverts it, and a negative pa mirrors it
    (+ 0.0 keeps a bound of 0 at +0)."""
    return BoundsBox(*(tuple(sorted(v + 0.0 for v in pair)) for pair in (
        [v * pa for v in box.p_s], [v / pa for v in box.t_1],
        [v / pa for v in box.t_2])))


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
    prob: OptimizationProblem, p_s: float, t_1: float, gradient: bool = False
):
    """Best signed <cos theta> over the branch's t_2 window, and its t_2;
    with ``gradient``, also its derivatives in (p_s, t_1), an array.

    One finder for both engines: a first scan samples the window, then
    :func:`_polish` ascends from its best sample within one sample
    spacing each side (clipped to the window) on the engine's analytic
    t-derivatives (:func:`_peak`). The classical scan is an even grid
    from edge to edge of :class:`classical.TwoKickScan`, at the
    strength-scaled step, whose converged rule pair the polish reads on.
    A quantum point is a batch of one of :func:`_quantum_points`. A
    window holding no sample is polished from its midpoint. The returned
    t_2 lies in the window; an empty window (lo > hi) is scored at hi.

    The gradient is the envelope's: the best value is a maximum over t_2,
    so its derivative is the partial one at the returned t_2, read off
    the tangents the engine carried through the kicks
    (:meth:`classical.TwoKickScan.gradient`,
    :func:`quantum.orientation_tangents`).
    """
    if prob.engine is Engine.QUANTUM:
        found = _quantum_points(prob, [(p_s, t_1)])[0]
        return found if gradient else found[:2]
    lo, hi = _t2_window(prob, t_1)
    lo = min(lo, hi)
    step = defaults.scan_step(abs(p_s) + abs(prob.p_a))
    n = max(8, int(math.ceil((hi - lo) / step)) + 1)
    ts = np.linspace(lo, hi, n)
    scan = classical.TwoKickScan(p_s, prob.p_a, t_1, ts, prob.order)
    value, t_2 = _peak(prob, scan.jet, lo, hi, ts, scan.values,
                       (hi - lo) / (n - 1))
    return (value, t_2, scan.gradient(t_2)) if gradient else (value, t_2)


def _quantum_points(prob: OptimizationProblem, points,
                    l_max: int | None = None) -> list:
    """(value, t_2, gradient) of :func:`evaluate_objective` at each
    (p_s, t_1) of ``points``: the quantum problem's batch kernel.

    Every point is read on one basis, that of the box's largest |p_s|
    plus |p_a|, and from one FFT length n of that strength: the smallest
    power of two with n >= 4(l_max + 1) and 2 pi / n <= ``scan_step``.
    So a point's numbers do not depend on its batch. The points take
    their kicks together (:func:`quantum.two_kick_tangents`) and their
    first scans from one FFT of K rows; orientation has period 2 pi, so
    a window's samples are read mod n. Each point is then polished
    (:func:`_peak`) and its gradient read alone, adding the slope times
    dt_2/dt_1 = -1 where t_2 sits on an edge of the revival window, which
    moves with t_1. Points whose tail a kick fills are read again on a
    grown basis.
    """
    strength = max(map(abs, prob.bounds.p_s)) + abs(prob.p_a)
    if l_max is None:
        l_max = defaults.quantum_l_max(strength)
    ps, t1 = np.array(points, dtype=float).reshape(-1, 2).T
    cols, filled = quantum.two_kick_tangents(ps, prob.p_a, t1, prob.order,
                                             l_max)
    l_max = cols.shape[-1] - 1
    n = 1 << (max(4 * (l_max + 1), math.ceil(
        REVIVAL_PERIOD / defaults.scan_step(strength))) - 1).bit_length()
    h = REVIVAL_PERIOD / n
    samples = quantum.orientation_samples(cols[:, 0], n)
    found = []
    for t_1, rows, values, full in zip(t1, cols, samples, filled):
        if full:
            found.append(None)
            continue
        psi = quantum.RotorWavefunction(rows[0])
        lo, hi = _t2_window(prob, float(t_1))
        lo = min(lo, hi)
        first = math.ceil(lo / h)
        # one period of indices holds the first best sample of any range
        idx = np.arange(first, min(math.floor(hi / h), first + n - 1) + 1)
        jet = partial(quantum.observable_scan, psi, 1, jet=True)
        value, t_2 = _peak(prob, jet, lo, hi, idx * h, values[idx % n], h)
        grad = quantum.orientation_tangents(psi, rows[1:], t_2)
        if (prob.branch is Branch.REVIVAL and t_2 in (lo, hi)
                and t_2 not in prob.bounds.t_2):
            grad[1] -= jet(t_2)[1]  # on the edge 2 pi - t_1 (- Delta)
        found.append((value, t_2, grad))
    if filled.any():
        again = iter(_quantum_points(
            prob, [p for p, full in zip(points, filled) if full],
            quantum.grown_l_max(l_max, "a kick of the pulse pair")))
        found = [next(again) if full else f for f, full in zip(found, filled)]
    return found


def _peak(prob: OptimizationProblem, jet, lo: float, hi: float,
          ts: np.ndarray, values: np.ndarray, h: float) -> tuple[float, float]:
    """The best (f, t_2) of the window [lo, hi], lo <= hi, from the first
    scan's samples ``values`` at the times ``ts``, spaced h: the
    :func:`_polish` of its best sample within one spacing each side, or
    of the midpoint if the window holds no sample."""
    if not ts.size:
        return _polish(prob, jet, lo, 0.5 * (lo + hi), hi, None)
    j = int(np.argmax(prob.transform(values)))
    t = min(max(ts[j], lo), hi)
    return _polish(prob, jet, max(lo, t - h), t, min(hi, t + h), values[j])


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
    """Deterministic coarse-grid ascent starts (at least 8)."""
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
        if prob.branch is Branch.REVIVAL:
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
    """Multi-start projected quasi-Newton ascent over (p_s, t_1) around
    the inner t_2 scan, on the envelope gradient of
    :func:`evaluate_objective`.

    ``extra_starts`` adds seeded uniform-random starts on top of the
    deterministic grid (the only use of randomness). Results from all
    starts are merged deterministically: best transformed objective,
    ties broken by smaller |p_s|. ``evaluations`` counts value and
    gradient calls. ``stagnated`` is set when no ascent ended above the
    best start it was given, ``on_boundary`` when the optimum holds a
    bound of the box that the gradient points out of.

    It solves :func:`_unit_problem` of ``prob``, memoized
    (:func:`_solve`), and maps the result back: problems that share a
    unit problem share one solve, and so all the fields above. The
    ascents run in lockstep in this process, with the result of running
    them one after another, ``evaluations`` included; no process is
    started. A negative ``extra_starts`` raises ValueError.
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
    unit = _unit_problem(prob)
    res = _solve(unit, extra_starts, seed if extra_starts else None)
    if unit is prob:
        return res
    # (p_s, t) = (lam r, T / lam), lam < 0 on the mirror; + 0.0: never -0.0
    lam = _mirror(prob.branch) * abs(prob.p_a)
    parity = math.copysign(1.0, lam * prob.p_a * unit.p_a)
    return replace(res, p_a=prob.p_a, p_s=res.p_s * lam + 0.0,
                   t_1=res.t_1 / lam + 0.0, t_2=res.t_2 / lam + 0.0,
                   objective=parity * res.objective + 0.0,
                   branch=prob.branch)


@lru_cache(maxsize=64)
def _solve(prob: OptimizationProblem, extra_starts: int,
           seed: int | None) -> OptimizationResult:
    """The one driver of :func:`optimize`, memoized in a bounded LRU
    cache keyed on all its arguments (``defaults`` are constants, and the
    seed of no extra starts is None), so a hit is the cold solve's result.

    The starts are the grid of :func:`_start_points` and
    ``extra_starts`` seeded random points of the box, scored as one
    batch; each runs one :func:`_ascent` in the scaled box, all in
    lockstep (:func:`_lockstep`), each round's points one batch of the
    memo. A point's numbers do not depend on its batch, so each ascent
    visits the points it visits alone. An ascent that never left its
    start ends on the start itself.
    """
    evaluate = _Objective(prob)
    (ps_lo, ps_hi), (t1_lo, t1_hi) = prob.bounds.p_s, prob.bounds.t_1
    starts = _start_points(prob)
    if extra_starts > 0:
        rng = np.random.default_rng(seed)
        for _ in range(extra_starts):
            ps = rng.uniform(ps_lo, ps_hi)
            t1 = rng.uniform(t1_lo, t1_hi) if t1_hi > t1_lo else t1_lo
            starts.append((ps, t1))

    evaluate.score(starts)
    scored = [(prob.transform(evaluate[s][0]), *s) for s in starts]
    box = _ScaledBox(prob)

    def reply(point):
        value, _, grad = evaluate[point]
        return prob.transform(value), box.ascent(value, grad)

    def score(us):
        points = [box.point(u) for u in us]
        evaluate.score(points)
        return [reply(p) for p in points]

    u0s = [box.scaled(s) for s in starts]
    ends = _lockstep(score, [_ascent(u0, *reply(s), box.u_lo, box.u_hi)
                             for u0, s in zip(u0s, starts)])
    ends = [(f, *(s if u is u0 else box.point(u)))
            for (u, f), u0, s in zip(ends, u0s, starts)]
    best, ps, t1 = max(ends + scored, key=lambda c: (c[0], -abs(c[1])))
    value, t2, grad = evaluate[ps, t1]
    return OptimizationResult(
        p_a=prob.p_a, p_s=ps, t_1=t1, t_2=t2, objective=value,
        branch=prob.branch, order=prob.order, engine=prob.engine,
        evaluations=len(evaluate),
        stagnated=bool(best <= max(c[0] for c in scored) + 1e-12),
        on_boundary=bool(_outward(box.scaled((ps, t1)),
                                  box.ascent(value, grad), box.u_lo,
                                  box.u_hi).any()),
    )


def _unit_problem(prob: OptimizationProblem) -> OptimizationProblem:
    """The problem :func:`optimize` solves for ``prob``. A quantum problem
    is its own. A classical one is the same prompt problem in r =
    p_s/|p_a| and T = |p_a| t at p_a = +-1, as classical kicks from rest
    are invariant under (p_s, p_a, t_1, t_2) -> (lam p_s, lam p_a, t_1/lam,
    t_2/lam), lam = -1 included: a revival problem is the prompt problem
    of the mirrored box at -p_a. Under |objective| p_a is +1, orientation
    being odd in p_a. The default box is :func:`_unit_bounds` itself, so
    every p_a whose windows' caps do not bind, and both branches, solve
    the same problem, bit for bit; another box is rescaled.
    """
    if prob.engine is not Engine.CLASSICAL:
        return prob
    pa, mirror = abs(prob.p_a), _mirror(prob.branch)
    bounds = _unit_bounds(prob.order, pa)
    if prob.bounds != _rescaled_box(bounds, mirror * pa):
        bounds = _rescaled_box(prob.bounds, mirror / pa)
    p_a = 1.0 if prob.objective_sign is ObjectiveSign.MAXIMIZE_ABS \
        else mirror * math.copysign(1.0, prob.p_a)
    return replace(prob, p_a=p_a, branch=Branch.PROMPT, bounds=bounds)


def _check_extra_starts(extra_starts: int) -> None:
    if extra_starts < 0:
        raise ValueError(f"extra_starts must be >= 0, got {extra_starts}")


class _Objective(dict):
    """:func:`evaluate_objective` of one problem with its gradient,
    memoized on (p_s, t_1): a dict of (p_s, t_1) -> (value, t_2,
    gradient), filled by :meth:`score`. Its length is the evaluation
    count, each evaluation one value and gradient.
    """

    def __init__(self, prob: OptimizationProblem):
        super().__init__()
        self.prob = prob

    def score(self, points) -> None:
        """Evaluate the points not yet held as one batch, in order: one
        call of the quantum kernel :func:`_quantum_points` for them all,
        classically one :func:`evaluate_objective` each."""
        new = [p for p in dict.fromkeys(points) if p not in self]
        if not new:
            return
        if self.prob.engine is Engine.QUANTUM:
            found = _quantum_points(self.prob, new)
        else:
            found = [evaluate_objective(self.prob, *p, gradient=True)
                     for p in new]
        self.update(zip(new, found))


def _lockstep(score, ascents: list) -> list:
    """The return values of the :func:`_ascent` generators ``ascents``,
    run in lockstep: each round sends every live one the reply for the
    point it yielded, in order, and scores all the round's points in one
    call ``score(points)``, which returns one reply per point."""
    ends, replies = [None] * len(ascents), dict.fromkeys(range(len(ascents)))
    while True:
        pending = {}
        for i, reply in replies.items():
            try:
                pending[i] = ascents[i].send(reply)
            except StopIteration as stop:
                ends[i] = stop.value
        if not pending:
            return ends
        replies = dict(zip(pending, score(list(pending.values()))))


class _ScaledBox:
    """The search box of a problem in the scaled coordinates
    u = (p_s/|p_a|, t_1 |p_a|), only the first for simultaneous pulses:
    the box [lo, hi] of (p_s, t_1) is [u_lo, u_hi] in u."""

    def __init__(self, prob: OptimizationProblem):
        pa = abs(prob.p_a)
        dims = 1 if prob.order is PulseOrder.SIMULTANEOUS else 2
        self.scale = np.array([pa, 1.0 / pa])[:dims]
        box = np.array([prob.bounds.p_s, prob.bounds.t_1])[:dims]
        self.lo, self.hi = box[:, 0], box[:, 1]
        self.u_lo, self.u_hi = self.lo / self.scale, self.hi / self.scale
        self.transform = prob.transform

    def scaled(self, point: tuple[float, float]) -> np.ndarray:
        return np.array(point[:self.scale.size]) / self.scale

    def point(self, u: np.ndarray) -> tuple[float, float]:
        """(p_s, t_1) of u in the box, a bound's u on the bound itself."""
        x = np.where(u <= self.u_lo, self.lo, np.where(
            u >= self.u_hi, self.hi,
            np.clip(u * self.scale, self.lo, self.hi))).tolist()
        return x[0], x[1] if len(x) > 1 else 0.0

    def ascent(self, value: float, grad: np.ndarray) -> np.ndarray:
        """The gradient in u of the score, |value| or value."""
        sign = 1.0 if self.transform(value) == value else -1.0
        return sign * grad[:self.scale.size] * self.scale


def _outward(u: np.ndarray, g: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> np.ndarray:
    """The coordinates of u held on a bound of [lo, hi] that the ascent
    gradient g points out of, by more than ``defaults.ASCENT_GTOL``."""
    tol = defaults.ASCENT_GTOL
    return ((u <= lo) & (g < -tol)) | ((u >= hi) & (g > tol))


def _ascent(u: np.ndarray, f: float, g: np.ndarray, lo: np.ndarray,
            hi: np.ndarray):
    """Maximize a score over the box [lo, hi] from u, where it is f with
    gradient g, by a projected quasi-Newton ascent for a few variables: a
    generator that yields each point it needs scored and is sent back
    its (value, gradient), as :func:`_lockstep` does; returns the end
    point and its score.

    BFGS on the inverse Hessian, started as the identity and scaled at
    the first update. Coordinates on a bound whose gradient points out
    (:func:`_outward`) are frozen; the step along the rest is projected
    into the box. The line search takes the quasi-Newton step, shrinks it
    to the maximum of a quadratic fit until the score rises by the Armijo
    share 1e-4 of the projected slope, and doubles it while the slope at
    the new point stays above 0.9 of the first, so each accepted step
    keeps the BFGS update positive. The run ends when the free gradient
    is within ``defaults.ASCENT_GTOL``, after ``defaults.ASCENT_MAXITER``
    steps, or when a step rises, or its projected slope promises, no more
    than 1e-13 of the score (at least 1).
    """
    h_inv = None
    for _ in range(defaults.ASCENT_MAXITER):
        free = ~_outward(u, g, lo, hi)
        pg = np.where(free, g, 0.0)
        if np.abs(pg).max() <= defaults.ASCENT_GTOL:
            break
        d = pg / np.abs(pg).max() if h_inv is None else h_inv @ pg
        d = np.where(free, d, 0.0)
        if d @ pg <= 0.0:  # not an ascent direction: restart from pg
            h_inv, d = None, pg / np.abs(pg).max()
        floor = 1e-13 * max(abs(f), 1.0)
        alpha, best = 1.0, None
        while True:
            u_new = np.clip(u + alpha * d, lo, hi)
            slope = g @ (u_new - u)
            if slope <= floor or (best and (u_new == best[0]).all()):
                break
            f_new, g_new = yield u_new
            if f_new < f + 1e-4 * slope:  # no Armijo rise
                if best:
                    break
                # the maximum of the quadratic through f, slope and f_new
                drop = slope - (f_new - f)
                alpha *= min(max(0.5 * slope / drop, 0.1), 0.5)
                continue
            best = u_new, f_new, g_new
            if g_new @ (u_new - u) <= 0.9 * slope:  # the slope has eased
                break
            alpha *= 2.0
        if best is None:
            break
        u_new, f_new, g_new = best
        s, y = u_new - u, g - g_new  # y: the gradient change of -score
        sy = s @ y
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            if h_inv is None:
                h_inv = np.eye(u.size) * (sy / (y @ y))
            rho = 1.0 / sy
            v = np.eye(u.size) - rho * np.outer(s, y)
            h_inv = v @ h_inv @ v.T + rho * np.outer(s, s)
        done = f_new - f <= floor
        u, f, g = u_new, f_new, g_new
        if done:
            break
    return u, f


@dataclass(frozen=True)
class SweepRow:
    p_a: float
    result: OptimizationResult | None
    error: str | None = None


def sweep(prob_template: OptimizationProblem, p_a_values,
          extra_starts: int = 0, seed: int | None = None) -> list[SweepRow]:
    """One :func:`optimize` per p_a: each row is that call's result, so
    classical rows that share a unit problem (every p_a whose windows'
    caps do not bind) are one memoized solve. p_a values must be positive,
    in any order, and ``extra_starts`` not negative. Failures are
    captured per point so a sweep always returns one row per input, in
    input order.
    """
    _check_extra_starts(extra_starts)
    p_a_values = list(p_a_values)
    if any(p <= 0 for p in p_a_values):
        raise ValueError("sweep p_a values must be positive")
    if (prob_template.engine is Engine.QUANTUM
            and any(p > defaults.QUANTUM_SWEEP_PA_MAX for p in p_a_values)):
        raise ValueError(
            f"quantum sweeps are limited to p_a <= {defaults.QUANTUM_SWEEP_PA_MAX}"
            " by default (override by sweeping manually)")

    rows: list[SweepRow] = []
    for pa in p_a_values:
        try:
            prob = replace(prob_template, p_a=pa, bounds=None)
            rows.append(SweepRow(pa, optimize(prob, extra_starts, seed)))
        except (RotorkickError, ValueError) as exc:
            # bad input and numerical failure annotate the point and the
            # sweep goes on; anything else is a bug and propagates
            rows.append(SweepRow(pa, None, f"{type(exc).__name__}: {exc}"))
    return rows


CSV_HEADER = "p_a,p_s,t1,t2,objective,branch,order,engine,evals"

#: the one CSV float format: 12 significant digits, byte-stable across
#: runs; ``%`` formatting prints the same bytes as ``"{:.11e}".format``,
#: and ``simulate`` renders whole columns to these bytes
#: (``cli._csv_field``)
CSV_FLOAT = "%.11e"
CSV_NUM = CSV_FLOAT.__mod__


def result_csv_row(r: OptimizationResult) -> str:
    return ",".join([
        *map(CSV_NUM, (r.p_a, r.p_s, r.t_1, r.t_2, r.objective)),
        r.branch.value, r.order.value, r.engine.value, str(r.evaluations),
    ])
