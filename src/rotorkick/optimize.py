"""Pulse-pair optimization of the orientation factor.

The objective |<cos theta>|(p_s, t_1, t_2) is violently multimodal in
the observation time t_2 but smooth in (p_s, t_1) near its optima, so
the search is nested: an exhaustive t_2 scan (a first scan of the whole
window - a dense grid classically, one FFT of the periodic quantum
signal - then safeguarded Newton steps from its best sample on the
analytic t-derivatives of the engine's free flight) inside a multi-start
projected quasi-Newton ascent over (p_s, t_1) in a box, run in scaled
coordinates (p_s/p_a, t_1*p_a). Those follow the classical scale law,
which quantum optima with a delay do not, so such a quantum problem
starts its ascents' quasi-Newton matrix from the Hessian measured at its
best start instead of the identity. The best value over t_2 is an
envelope, so its gradient in (p_s, t_1) is the partial derivative at the
best t_2, which each engine reads off tangents carried through the
kicks. The classical laser-first optimum climbs a ridge p_s t_1 ~ c to
the p_s bound nearest 0, so that problem runs one ascent, from the best
c of its weak-laser limit p_s/p_a -> 0. The ascent is the package's own
(:func:`_ascent`); the package imports numpy alone.

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
            # keep the delays whose revival window meets the t_2 box
            (t1_lo, t1_hi), (t2_lo, t2_hi) = self.bounds.t_1, self.bounds.t_2
            lo, hi = REVIVAL_PERIOD - defaults.REVIVAL_WINDOW, REVIVAL_PERIOD
            t_1 = (max(t1_lo, lo - t2_hi), min(t1_hi, hi - t2_lo))
            if t_1[0] > t_1[1]:
                raise NonFiniteValue(
                    f"no t_1 in [{t1_lo:g}, {t1_hi:g}] puts t_1 + t_2 in the "
                    f"revival window [2 pi - {defaults.REVIVAL_WINDOW:g}, "
                    f"2 pi] = [{lo:g}, {hi:g}] for t_2 in the box "
                    f"[{t2_lo:g}, {t2_hi:g}]")
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
    with ``gradient``, also its derivatives in (p_s, t_1), an array: the
    batch of one of :func:`_points`."""
    found = _points(prob, [(p_s, t_1)])[0]
    return found if gradient else found[:2]


def _points(prob: OptimizationProblem, points,
            l_max: int | None = None) -> list:
    """(value, t_2, gradient) at each (p_s, t_1) of ``points``: the t_2
    finder and envelope gradient of both engines.

    Each point's window (:func:`_t2_window`; an empty one, lo > hi, is
    scored at hi) gets the engine's first scan (:func:`_classical_scan`,
    :func:`_quantum_scans`), which samples its edges, then
    :func:`_polish` from its best sample within one sample spacing each
    side, clipped to the window. The gradient is the envelope's: the
    partial derivative at the returned t_2, read off the tangents the
    engine carried through the kicks, plus the slope times
    dt_2/dt_1 = -1 where t_2 sits on an edge of the quantum revival
    window, which moves with t_1. A point's numbers do not depend on its
    batch; quantum points whose tail a kick fills are read again on a
    basis grown from ``l_max``.
    """
    ps, t1 = np.array(points, dtype=float).reshape(-1, 2).T.tolist()
    if prob.engine is Engine.QUANTUM:
        scans, l_max = _quantum_scans(prob, ps, t1, l_max)
    else:
        scans = [partial(_classical_scan, prob, *p) for p in zip(ps, t1)]
    found = []
    for t_1, scan in zip(t1, scans):
        if scan is None:  # a kick filled the tail
            found.append(None)
            continue
        lo, hi = _t2_window(prob, t_1)
        lo = min(lo, hi)
        ts, values, h, jet, tangents = scan(lo, hi)
        j = int(np.argmax(prob.transform(values)))
        t = min(max(ts[j], lo), hi)
        value, t_2 = _polish(prob, jet, max(lo, t - h), t, min(hi, t + h),
                             values[j])
        grad = tangents(t_2)
        if t_2 in (lo, hi) and t_2 not in prob.bounds.t_2:
            grad[1] -= jet(t_2)[1]  # on the edge 2 pi - t_1 (- Delta)
        found.append((value, t_2, grad))
    if None in found:
        again = iter(_points(
            prob, [p for p, f in zip(points, found) if f is None],
            quantum.grown_l_max(l_max, "a kick of the pulse pair")))
        found = [next(again) if f is None else f for f in found]
    return found


def _classical_scan(prob: OptimizationProblem, p_s: float, t_1: float,
                    lo: float, hi: float) -> tuple:
    """A classical point's first scan of [lo, hi] for :func:`_points`:
    an even grid from edge to edge at the strength-scaled step, one
    :class:`classical.TwoKickScan`, on whose converged rule pair the
    polish and the gradient read. A point (c, 0) of a
    :class:`_WeakLaserLimit` is scanned on :class:`classical.WeakLaserScan`,
    whose symmetric kick has no strength left."""
    limit = isinstance(prob, _WeakLaserLimit)
    step = defaults.scan_step(abs(prob.p_a) if limit
                              else abs(p_s) + abs(prob.p_a))
    n = max(8, int(math.ceil((hi - lo) / step)) + 1)
    ts = np.linspace(lo, hi, n)
    scan = (classical.WeakLaserScan(p_s, prob.p_a, ts) if limit
            else classical.TwoKickScan(p_s, prob.p_a, t_1, ts, prob.order))
    return ts, scan.values, (hi - lo) / (n - 1), scan.jet, scan.gradient


def _quantum_scans(prob: OptimizationProblem, ps, t1,
                   l_max: int | None) -> tuple[list, int]:
    """The first scan of each quantum point for :func:`_points` (None
    where a kick filled its tail), and the basis they are read on.

    The basis is ``l_max``, by default that of the box's largest |p_s|
    plus |p_a|. The points take their kicks together
    (:func:`quantum.two_kick_tangents`) and their first scans from one
    FFT of K rows (:func:`quantum.orientation_samples`, of the length n
    its basis sets, as in the landscape scan); orientation has period
    2 pi, so a window's samples are read mod n. A window shorter than one
    period adds its two edges, read by one :func:`quantum.observable_scan`,
    as the classical grid samples its edges.
    """
    strength = max(map(abs, prob.bounds.p_s)) + abs(prob.p_a)
    l_max = quantum._basis(strength, l_max)
    cols, filled = quantum.two_kick_tangents(ps, prob.p_a, t1, prob.order,
                                             l_max)
    samples = quantum.orientation_samples(cols[:, 0])
    n = samples.shape[-1]
    h = REVIVAL_PERIOD / n

    def scan(rows, values, lo, hi):
        psi = quantum.RotorWavefunction(rows[0])
        idx = _window_samples(lo, hi, h, n)
        ts, values = idx * h, values[idx % n]
        if idx.size < n:  # a window shorter than one period: its edges
            ts = np.append(ts, [lo, hi])
            values = np.append(values,
                               quantum.observable_scan(psi, 1, [lo, hi]))
        return (ts, values, h,
                partial(quantum.observable_scan, psi, 1, jet=True),
                partial(quantum.orientation_tangents, psi, rows[1:]))

    return [None if full else partial(scan, rows, values)
            for rows, values, full in zip(cols, samples, filled)], l_max


def _polish(prob: OptimizationProblem, jet, a: float, t: float, b: float,
            value: float) -> tuple[float, float]:
    """Safeguarded Newton ascent of the score from the sample t in [a, b].

    ``jet(t)`` is (f, f', f'') of the signed orientation, ``value`` the
    first scan's f at t. Each iterate keeps the side of [a, b] that the
    score rises to, then steps to the Newton point t - f'/f'' (clipped to
    [a, b]) if that moves uphill by at most half the last step, else to
    the midpoint of [a, b], as rtsafe of Numerical Recipes does; the
    steps shrink at least geometrically. The polish ends on the iterate
    after a step of at most ``defaults.TIME_REFINE_TOL``, or when [a, b]
    has shrunk to t, so a peak cut by the window's edge, whose first
    scan's best sample is that edge, ends on the edge. Returns the best
    (f, t) scored, the start included.
    """
    best, t_best, last_step, done = value, t, b - a, False
    while True:
        f, slope, curve = map(float, jet(t))
        if prob.transform(f) > prob.transform(best):
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


def _start_lattice(prob: OptimizationProblem, evaluate) -> tuple:
    """(rows, scores, periodic): the deterministic start lattice of a
    problem, its rows of points in the box, their scores and whether its
    columns wrap. A quantum problem's is its landscape scan
    (:func:`_scan_starts`); a classical one's is :func:`_start_grid`,
    scored as one batch of the memo ``evaluate``."""
    if prob.engine is Engine.QUANTUM:
        return _scan_starts(prob)
    rows = _start_grid(prob)
    evaluate.score(sum(rows, []))
    return rows, np.array([[prob.transform(evaluate[s][0]) for s in row]
                           for row in rows]), False


def _start_grid(prob: OptimizationProblem) -> list[list[tuple[float, float]]]:
    """The start lattice of a classical problem, as rows: a weak-laser
    limit's c samples, one column, at most ``_LIMIT_STEP`` apart, edges
    included; a laser-first problem's seed (:func:`_weak_laser_seed`)
    where its p_s box lies below 0; else four magnitudes of
    :func:`_p_s_side`, ascending, each a row of two delays, or for
    simultaneous pulses one column of them and p_a / 2.34 where it lies
    in the box, sorted by |p_s|."""
    if isinstance(prob, _WeakLaserLimit):
        lo, hi = prob.bounds.p_s
        return [[(c, 0.0)] for c in np.linspace(lo, hi, max(
            2, math.ceil((hi - lo) / _LIMIT_STEP) + 1)).tolist()]
    if prob.order is PulseOrder.LASER_FIRST and prob.bounds.p_s[1] < 0.0:
        return [[_weak_laser_seed(prob)]]
    (t1_lo, t1_hi) = prob.bounds.t_1
    sign, mag_lo, mag_hi = _p_s_side(prob.bounds)
    mags = np.clip(np.geomspace(1.05 * mag_lo, 0.95 * mag_hi, 4),
                   mag_lo, mag_hi).tolist()

    def clamp_t1(t: float) -> float:
        eps = 1e-9 + 1e-6 * (t1_hi - t1_lo)
        return min(max(t, t1_lo + eps), t1_hi - eps) if t1_hi > t1_lo else t1_lo

    if prob.order is PulseOrder.SIMULTANEOUS:
        extra = abs(prob.p_a) / 2.34
        return [[(sign * m, 0.0)] for m in sorted(
            mags + [extra] * (mag_lo <= extra <= mag_hi))]
    scale = 0.8 if prob.order is PulseOrder.LASER_FIRST else 0.36
    return [[(sign * m, clamp_t1(f * scale / m)) for f in (1.0, 2.5)]
            for m in mags]


def _p_s_side(box: BoundsBox) -> tuple[float, float, float]:
    """(sign, lo, hi): the starts' p_s take the sign of the side of the
    box that reaches further from 0, and magnitudes in [lo, hi], from 0
    up (1e-6) where the box spans 0."""
    (ps_lo, ps_hi) = box.p_s
    sign = -1.0 if ps_lo < 0.0 and -ps_lo >= ps_hi else 1.0
    spans = ps_lo < 0.0 < ps_hi
    mag_lo = max(0.0 if spans else min(abs(ps_lo), abs(ps_hi)), 1e-6)
    return sign, mag_lo, max(abs(ps_lo), abs(ps_hi))


#: the landscape scan of a quantum problem (:func:`_scan_starts`): p_s
#: rows, the widest spacing of its t_1 columns times the box's strength
#: P and their fewest, the most peaks of any start lattice that a solve
#: climbs (:func:`_lattice_peaks`), and the most columns a row reads at
#: once (:func:`_scan_row`; it bounds the row's memory). Measured on 15
#: quantum problems (laser first, HCP first and laser-first revival,
#: p_a = 3-20) by where the winning basin ranked among the scan's peaks:
#: at 2/P it was the best peak 14 times and third once (HCP first,
#: p_a = 3); at 1/P second once (laser first, p_a = 10); at 3/P none of
#: the 5 peaks reached the optimum at laser first, p_a = 5. Classically,
#: the scored grids of HCP first and simultaneous pulses at p_a = 0.5-100
#: rise to one peak, whose ascent reaches the optimum; the other HCP-first
#: starts' ascents walked to T_1 = 43-60 on rules of 2048-4096 nodes
_SCAN_ROWS, _SCAN_STEP, _SCAN_COLUMNS, _SCAN_PEAKS, _SCAN_BLOCK = \
    8, 2.0, 16, 4, 128


def _lattice_peaks(scores: np.ndarray, periodic: bool = False) -> list[int]:
    """The flat indices of the ``_SCAN_PEAKS`` best points of the 2-D
    ``scores`` that none of their 8 neighbours beats, best first, ties to
    the earlier: the starts a solve climbs. Rows are walled; columns are
    walled, or periodic where ``periodic``."""
    (rows, cols), flat = scores.shape, scores.ravel().tolist()
    padded = np.full((rows + 2, cols + 2), -np.inf)
    padded[1:-1, 1:-1] = scores
    if periodic:
        padded[:, 0], padded[:, -1] = padded[:, -2], padded[:, 1]
    peak = np.ones(scores.shape, dtype=bool)
    for di in range(3):
        for dj in range(3):
            if (di, dj) != (1, 1):
                peak &= scores >= padded[di:di + rows, dj:dj + cols]
    return sorted(np.flatnonzero(peak).tolist(),
                  key=lambda k: -flat[k])[:_SCAN_PEAKS]


def _scan_starts(prob: OptimizationProblem) -> tuple:
    """The start lattice of a quantum problem, as :func:`_start_lattice`
    returns it: one scan of its (p_s, t_1) box.

    The scan has ``_SCAN_ROWS`` p_s rows, geometric in |p_s| over the
    magnitudes of :func:`_p_s_side`, and t_1 columns at most
    ``_SCAN_STEP`` / P apart, P the box's largest |p_s| plus |p_a|, at
    least ``_SCAN_COLUMNS`` of them (one for simultaneous pulses). A box
    of one period in t_1 is scanned as periodic: its delays 0 and 2 pi
    are one state, so its columns leave out the upper edge and wrap.
    Each row is read by :func:`_scan_row` on its own basis,
    ``quantum._basis`` of its |p_s| plus |p_a|, with FFTs of
    :func:`quantum.orientation_samples`; a column's score is its best
    transformed sample in its t_2 window (:func:`_t2_window`, read mod n
    as :func:`_quantum_scans` reads it, without the edges).
    """
    (t1_lo, t1_hi) = prob.bounds.t_1
    sign, mag_lo, mag_hi = _p_s_side(prob.bounds)
    mags = dict.fromkeys(np.clip(np.geomspace(mag_lo, mag_hi, _SCAN_ROWS),
                                 mag_lo, mag_hi).tolist())
    strength = mag_hi + abs(prob.p_a)
    span = t1_hi - t1_lo
    periodic = span == REVIVAL_PERIOD
    if prob.order is PulseOrder.SIMULTANEOUS or span == 0.0:
        t1 = np.array([t1_lo])
    else:
        cols = math.ceil(span * strength / _SCAN_STEP) + (not periodic)
        t1 = np.linspace(t1_lo, t1_hi, max(_SCAN_COLUMNS, cols),
                         endpoint=not periodic)
    windows = {}  # the columns of each t_2 window
    for j, t in enumerate(t1.tolist()):
        lo, hi = _t2_window(prob, t)
        windows.setdefault((min(lo, hi), hi), []).append(j)
    top = quantum._basis(strength)
    flight = quantum.flight_phases(top, t1)

    def flights(l_max: int) -> np.ndarray:
        return flight[:l_max + 1] if l_max <= top else \
            quantum.flight_phases(l_max, t1)

    score = np.array([_scan_row(prob, sign * m, flights, windows,
                                quantum._basis(m + abs(prob.p_a)))
                      for m in mags])
    return ([[(sign * m, t) for t in t1.tolist()] for m in mags], score,
            periodic)


def _scan_row(prob: OptimizationProblem, p_s: float, flights,
              windows: dict, l_max: int) -> np.ndarray:
    """The scores of one row of :func:`_scan_starts` at p_s, each column
    its best transformed sample in its window, ``windows`` the columns of
    each (lo, hi) and ``flights(l_max)`` the flights to the columns'
    delays, read in near-equal blocks of at most ``_SCAN_BLOCK`` columns
    (:func:`quantum.two_kick_delays`), each one kick product and one
    FFT; where a kick fills a tail, the row is read again on a grown
    basis."""
    while True:
        flight, j = flights(l_max), 0
        out = np.empty(flight.shape[1])
        for rows, filled in quantum.two_kick_delays(
                p_s, prob.p_a, flight, prob.order, _SCAN_BLOCK):
            if filled:
                break
            samples = quantum.orientation_samples(rows)
            n = samples.shape[-1]
            for (lo, hi), cols in windows.items():
                cols = [c - j for c in cols if j <= c < j + len(rows)]
                if not cols:  # a window of other blocks' columns
                    continue
                idx = _window_samples(lo, hi, REVIVAL_PERIOD / n, n)
                part = samples[cols] if len(windows) > 1 else samples
                if idx.size < n:  # a window shorter than one period
                    part = part[:, idx % n]
                out[j:][cols] = prob.transform(part).max(axis=1,
                                                         initial=-np.inf)
            j += len(rows)
        else:
            return out
        l_max = quantum.grown_l_max(l_max, "a kick of the landscape scan")


def _window_samples(lo: float, hi: float, h: float, n: int) -> np.ndarray:
    """The indices k of the samples k h in [lo, hi] of a signal of period
    n h, at most one period of them: one period holds the first best
    sample of any range."""
    first = math.ceil(lo / h)
    return np.arange(first, min(math.floor(hi / h), first + n - 1) + 1)


@dataclass(frozen=True)
class _WeakLaserLimit(OptimizationProblem):
    """The weak-laser limit of a classical laser-first problem, in the
    unit variables: p_s/p_a -> 0 at fixed c = p_s t_1
    (:class:`classical.WeakLaserScan`). Its p_a is +-1, its points are
    (c, 0) and its box that of (c, 0, tau), tau = |p_a| t_2."""


def _weak_laser_seed(prob: OptimizationProblem) -> tuple[float, float]:
    """The one start of a classical laser-first problem whose p_s box
    lies below 0: (p_s, t_1) = (ps_hi, c / ps_hi), ps_hi the box's p_s
    bound nearest 0 and c the best c = p_s t_1 of the problem's
    weak-laser limit over [ps_hi t1_hi, ps_hi t1_lo], which holds the
    seed in the box: the limit's :func:`_solve`, in the one memo of
    solves. The optimum sits on the p_s bound nearest 0, where the
    objective is nearest its limit, along the ridge p_s t_1 ~ c."""
    (_, ps_hi), (t1_lo, t1_hi) = prob.bounds.p_s, prob.bounds.t_1
    pa = abs(prob.p_a)
    limit = _WeakLaserLimit(
        Engine.CLASSICAL, PulseOrder.LASER_FIRST, math.copysign(1.0, prob.p_a),
        bounds=BoundsBox((ps_hi * t1_hi, ps_hi * t1_lo + 0.0), (0.0, 0.0),
                         tuple(pa * t for t in prob.bounds.t_2)),
        objective_sign=prob.objective_sign)
    c = _solve(limit, 0, None).p_s
    return ps_hi, min(max(c / ps_hi, t1_lo), t1_hi)


#: the widest spacing of the weak-laser limit's first samples in c: its
#: maxima lie about pi apart (0.947 at c = -0.85, 0.725 at -4.4, 0.688
#: at -7.5, ...)
_LIMIT_STEP = 0.5


def optimize(
    prob: OptimizationProblem,
    extra_starts: int = 0,
    seed: int | None = None,
) -> OptimizationResult:
    """Multi-start projected quasi-Newton ascent over (p_s, t_1) around
    the inner t_2 scan, on the envelope gradient of :func:`_points`.

    ``extra_starts`` adds seeded uniform-random starts on top of the
    deterministic ones, the peaks of the problem's start lattice
    (:func:`_start_lattice`; the only use of randomness). Results from all
    starts are merged deterministically: best transformed objective,
    ties broken by smaller |p_s|. ``evaluations`` counts value and
    gradient calls, the two probe points of a measured Hessian
    (:func:`_probes`) included. ``stagnated`` is set when no ascent
    ended above the best start it was given, ``on_boundary`` when the
    optimum holds a bound of the box that the gradient points out of.

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
    A classical laser-first solve holds its weak-laser limit's solve in
    the same cache (:func:`_weak_laser_seed`).

    The peaks of the problem's start lattice (:func:`_start_lattice`,
    :func:`_lattice_peaks`), best first, ``extra_starts`` seeded random
    points of the box and the probe points of the best peak
    (:func:`_probes`) are scored as one batch. Each start runs one
    :func:`_ascent` in the scaled box, from the BFGS matrix the probes
    measure (:func:`_measured_h_inv`; the identity without them), all in
    lockstep (:func:`_lockstep`), each round's points one batch of the
    memo; every lattice point the memo holds stays a candidate, and no
    probe point. A point's numbers do not depend on its batch, so each
    ascent visits the points it visits alone. An ascent that never left
    its start ends on the start itself.
    """
    evaluate = _Objective(prob)
    (ps_lo, ps_hi), (t1_lo, t1_hi) = prob.bounds.p_s, prob.bounds.t_1
    rows, scores, periodic = _start_lattice(prob, evaluate)
    lattice = sum(rows, [])
    climbed = list(dict.fromkeys(
        lattice[k] for k in _lattice_peaks(scores, periodic)))
    extras = []
    if extra_starts > 0:
        rng = np.random.default_rng(seed)
        for _ in range(extra_starts):
            ps = rng.uniform(ps_lo, ps_hi)
            t1 = rng.uniform(t1_lo, t1_hi) if t1_hi > t1_lo else t1_lo
            extras.append((ps, t1))
    climbed += extras
    box = _ScaledBox(prob)
    probes = _probes(prob, box, climbed[0])
    evaluate.score(climbed + probes)
    h_inv = _measured_h_inv(box, evaluate, climbed[0], probes)
    scored = [(prob.transform(evaluate[s][0]), *s)
              for s in dict.fromkeys(lattice + extras) if s in evaluate]

    def reply(point):
        value, _, grad = evaluate[point]
        return prob.transform(value), box.ascent(value, grad)

    def score(us):
        points = [box.point(u) for u in us]
        evaluate.score(points)
        return [reply(p) for p in points]

    u0s = [box.scaled(s) for s in climbed]
    ends = _lockstep(score, [_ascent(u0, *reply(s), box.u_lo, box.u_hi,
                                     h_inv)
                             for u0, s in zip(u0s, climbed)])
    ends = [(f, *(s if u is u0 else box.point(u)))
            for (u, f), u0, s in zip(ends, u0s, climbed)]
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
    """:func:`_points` of one problem, memoized on (p_s, t_1): a dict of (p_s, t_1) -> (value, t_2,
    gradient), filled by :meth:`score`. Its length is the evaluation
    count, each evaluation one value and gradient.
    """

    def __init__(self, prob: OptimizationProblem):
        super().__init__()
        self.prob = prob

    def score(self, points) -> None:
        """Evaluate the points not yet held as one batch, in order: one
        call of :func:`_points` for them all."""
        new = [p for p in dict.fromkeys(points) if p not in self]
        if new:
            self.update(zip(new, _points(self.prob, new)))


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
    u = (p_s/|p_a|, t_1 |p_a|), only the first for simultaneous pulses
    and for a :class:`_WeakLaserLimit` (c, |p_a| = 1): the box [lo, hi] of
    (p_s, t_1) is [u_lo, u_hi] in u."""

    def __init__(self, prob: OptimizationProblem):
        pa = abs(prob.p_a)
        dims = 1 if (prob.order is PulseOrder.SIMULTANEOUS
                     or isinstance(prob, _WeakLaserLimit)) else 2
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


#: the step of a probe point (:func:`_probes`), a share of the box's
#: width in its coordinate
_PROBE_STEP = 1e-3


def _probes(prob: OptimizationProblem, box: _ScaledBox,
            start: tuple[float, float]) -> list[tuple[float, float]]:
    """The probe points of the Hessian that starts a solve's ascents
    (:func:`_measured_h_inv`): where the start lattice is a quantum
    landscape scan with two free coordinates, ``start`` moved along each
    coordinate in turn by ``_PROBE_STEP`` of the box's width, towards
    the box's farther edge; else none. A classical problem is a unit
    problem, whose scale is already that of its optimum."""
    if (prob.engine is not Engine.QUANTUM or box.scale.size < 2
            or not (box.hi > box.lo).all()):
        return []
    probes = []
    for i, (x, lo, hi) in enumerate(zip(start, box.lo, box.hi)):
        step = _PROBE_STEP * (hi - lo)
        probe = list(start)
        probe[i] = float(x + step if x - lo <= hi - x else x - step)
        probes.append(tuple(probe))
    return probes


def _measured_h_inv(box: _ScaledBox, evaluate, start: tuple[float, float],
                    probes: list) -> np.ndarray | None:
    """The BFGS start of every ascent of a solve: minus the inverse of
    the score's Hessian in u at ``start``, where that Hessian, forward
    differences of the ascent gradient to the scored ``probes``
    (:func:`_probes`), symmetrized, is negative definite; else None, the
    scaled identity. The 2 x 2 test and inverse are in closed form: the
    first calls of ``numpy.linalg.eigvalsh`` and ``inv`` raise a
    process's peak memory by about 0.2 MiB, even after quantum solves."""
    if not probes:
        return None

    def ascent(point):
        value, _, grad = evaluate[point]
        return box.ascent(value, grad)

    g = ascent(start)
    (h00, h10), (h01, h11) = (
        (ascent(p) - g) * (box.scale[i] / (p[i] - start[i]))
        for i, p in enumerate(probes))
    off = 0.5 * (h01 + h10)
    det = h00 * h11 - off * off
    if not (h00 < 0.0 and det > 0.0):
        return None
    return np.array([[-h11, off], [off, -h00]]) / det


def _outward(u: np.ndarray, g: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> np.ndarray:
    """The coordinates of u held on a bound of [lo, hi] that the ascent
    gradient g points out of, by more than ``defaults.ASCENT_GTOL``."""
    tol = defaults.ASCENT_GTOL
    return ((u <= lo) & (g < -tol)) | ((u >= hi) & (g > tol))


def _ascent(u: np.ndarray, f: float, g: np.ndarray, lo: np.ndarray,
            hi: np.ndarray, h_inv: np.ndarray | None = None):
    """Maximize a score over the box [lo, hi] from u, which must lie in
    the box, where the score is f with gradient g, by a projected quasi-Newton ascent for a few variables: a
    generator that yields each point it needs scored and is sent back
    its (value, gradient), as :func:`_lockstep` does; returns the end
    point and its score.

    BFGS on the inverse Hessian of minus the score, started as
    ``h_inv`` where given (a measured one: the first step is Newton's),
    else as the identity, scaled at the first update; each update is on
    the gradient change of the coordinates free at that step.
    Coordinates on a bound whose gradient points out
    (:func:`_outward`) are frozen; the step along the rest is projected
    into the box. The line search takes the quasi-Newton step, shrinks it
    to the maximum of a quadratic fit until the score rises by the Armijo
    share 1e-4 of the projected slope, and doubles it while the slope at
    the new point stays above 0.9 of the first, so each accepted step
    keeps the BFGS update positive; a quasi-Newton step that the box
    clips to one that is not uphill restarts from the projected
    gradient. The run ends when the free gradient
    is within ``defaults.ASCENT_GTOL``, after ``defaults.ASCENT_MAXITER``
    steps, or when a step rises, or its projected slope promises, no more
    than 1e-13 of the score (at least 1).
    """
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
            if (slope <= floor and best is None and alpha == 1.0
                    and h_inv is not None and (u_new != u + d).any()):
                # the box clipped the quasi-Newton step to one that is not
                # uphill: restart from pg
                h_inv, d = None, pg / np.abs(pg).max()
                continue
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
        # y: the gradient change of -score along the coordinates free at
        # this step; a held one's change would skew the curvature
        s, y = u_new - u, np.where(free, g - g_new, 0.0)
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
    in any order, at most ``defaults.QUANTUM_SWEEP_PA_MAX`` on the quantum
    engine, and ``extra_starts`` not negative; else ValueError, before any
    solve. Failures are captured per point so a sweep always returns one
    row per input, in input order.
    """
    _check_extra_starts(extra_starts)
    p_a_values = list(p_a_values)
    if any(p <= 0 for p in p_a_values):
        raise ValueError("sweep p_a values must be positive")
    if (prob_template.engine is Engine.QUANTUM
            and any(p > defaults.QUANTUM_SWEEP_PA_MAX for p in p_a_values)):
        raise ValueError(
            f"quantum sweeps are limited to p_a <= {defaults.QUANTUM_SWEEP_PA_MAX}"
            "; run optimize for each larger p_a")

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
