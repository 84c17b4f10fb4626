import importlib
import math
from dataclasses import replace
from functools import partial
from itertools import groupby

import numpy as np
import pytest

from rotorkick import classical, defaults, quantum
from rotorkick.core import (Branch, Engine, ObjectiveSign, OptimizationResult,
                            PulseOrder)
from rotorkick.errors import NonFiniteValue
from rotorkick.optimize import (CSV_HEADER, BoundsBox, OptimizationProblem,
                                default_bounds, evaluate_objective, optimize,
                                result_csv_row, sweep)

TWO_PI = 2.0 * math.pi
# the package re-exports the function `optimize` under the module's name
optimize_module = importlib.import_module("rotorkick.optimize")


def classical_problem(order=PulseOrder.LASER_FIRST, p_a=10.0,
                      branch=Branch.PROMPT, **kw):
    return OptimizationProblem(engine=Engine.CLASSICAL, order=order,
                               p_a=p_a, branch=branch, **kw)


def start_points(prob):
    """The distinct points of the start lattice of ``prob``
    (``_start_lattice``, a classical one scored on a memo of its own),
    row by row: the points a solve takes its deterministic starts from."""
    rows, _, _ = optimize_module._start_lattice(
        prob, optimize_module._Objective(prob))
    return list(dict.fromkeys(sum(rows, [])))


def in_box(box, res):
    """Whether the (p_s, t_1) of ``res`` lies in ``box``."""
    return (box.p_s[0] <= res.p_s <= box.p_s[1]
            and box.t_1[0] <= res.t_1 <= box.t_1[1])


@pytest.fixture(scope="module")
def prompt10():
    return optimize(classical_problem())


@pytest.fixture(scope="module")
def revival10():
    return optimize(classical_problem(branch=Branch.REVIVAL))


@pytest.fixture(scope="module")
def hcp_pair():
    return (optimize(classical_problem(order=PulseOrder.HCP_FIRST, p_a=40.0)),
            optimize(classical_problem(order=PulseOrder.HCP_FIRST, p_a=80.0)))


def test_default_bounds_windows():
    b = default_bounds(Engine.CLASSICAL, PulseOrder.LASER_FIRST,
                       Branch.PROMPT, 10.0)
    assert b.p_s == (-10.0, -0.2)
    assert b.t_1 == (0.0, 6.0) and b.t_2 == (0.0, 1.0)

    b = default_bounds(Engine.CLASSICAL, PulseOrder.LASER_FIRST,
                       Branch.REVIVAL, 10.0)
    assert b.p_s == (0.2, 10.0)
    assert b.t_1 == (-6.0, 0.0) and b.t_2 == (-1.0, 0.0)

    b = default_bounds(Engine.QUANTUM, PulseOrder.LASER_FIRST,
                       Branch.PROMPT, 10.0)
    assert b.t_1 == (0.0, TWO_PI) and b.t_2 == (0.0, TWO_PI)

    b = default_bounds(Engine.CLASSICAL, PulseOrder.SIMULTANEOUS,
                       Branch.PROMPT, 10.0)
    assert b.t_1 == (0.0, 0.0)

    with pytest.raises(NonFiniteValue):
        BoundsBox((0.0, math.inf), (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(NonFiniteValue):
        BoundsBox((1.0, -1.0), (0.0, 1.0), (0.0, 1.0))


def test_problem_validation():
    with pytest.raises(NonFiniteValue):
        classical_problem(p_a=math.inf)
    with pytest.raises(NonFiniteValue):
        classical_problem(p_a=2e4)
    # simultaneous forces a degenerate delay interval even on custom boxes
    prob = classical_problem(
        order=PulseOrder.SIMULTANEOUS,
        bounds=BoundsBox((-10.0, -0.2), (0.0, 3.0), (0.0, 1.0)))
    assert prob.bounds.t_1 == (0.0, 0.0)


def test_single_kick_saturation_through_evaluate():
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=50.0)
    value, t2 = evaluate_objective(prob, 0.0, 0.0)
    assert value == pytest.approx(0.749, abs=0.01)
    assert 50.0 * t2 == pytest.approx(1.77, abs=0.05)


def test_zero_pa_short_circuits():
    """The short-circuit result is 0 clipped into each interval."""
    revival = OptimizationProblem(engine=Engine.QUANTUM,
                                  order=PulseOrder.LASER_FIRST, p_a=0.0,
                                  branch=Branch.REVIVAL)
    for prob in (classical_problem(p_a=0.0),
                 classical_problem(p_a=0.0, branch=Branch.REVIVAL,
                                   bounds=BoundsBox((0.02, 1.0), (-3.0, -1.0),
                                                    (-1.0, 0.0))),
                 revival):
        with pytest.warns(UserWarning, match="identically zero"):
            res = optimize(prob)
        assert res.objective == 0.0 and res.stagnated
        assert in_box(prob.bounds, res)
        assert prob.bounds.t_2[0] <= res.t_2 <= prob.bounds.t_2[1]
    assert (res.p_s, res.t_1) == (0.02, 0.0)  # the default revival box
    assert res.t_1 + res.t_2 == pytest.approx(TWO_PI - 0.5, abs=1e-12)
    with pytest.warns(UserWarning):
        res = optimize(classical_problem(p_a=0.0))
    assert (res.p_s, res.t_1, res.t_2) == (-0.02, 0.0, 0.0)


def test_simultaneous_optimum(simul10):
    res = simul10
    assert abs(res.objective) == pytest.approx(0.89, abs=0.01)
    assert res.t_1 == 0.0
    assert 10.0 / abs(res.p_s) == pytest.approx(2.34, abs=0.1)


@pytest.fixture(scope="module")
def simul10():
    return optimize(classical_problem(order=PulseOrder.SIMULTANEOUS))


def test_orientation_flips_with_pa_sign(simul10):
    optimize_module._solve.cache_clear()
    res = optimize(classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=-10.0))
    assert res.objective == pytest.approx(-simul10.objective, abs=1e-3)
    # by parity |objective| at -p_a is the problem at p_a, solved afresh
    assert (res.objective, res.p_s, res.evaluations) == (
        -simul10.objective, simul10.p_s, simul10.evaluations)


def test_optimizer_not_worse_than_any_start(simul10):
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS)
    best_start = max(prob.transform(evaluate_objective(prob, ps, t1)[0])
                     for ps, t1 in start_points(prob))
    assert prob.transform(simul10.objective) >= best_start - 1e-12


def test_stagnation_on_degenerate_box(simul10):
    ps = simul10.p_s
    prob = classical_problem(
        order=PulseOrder.SIMULTANEOUS,
        bounds=BoundsBox((ps, ps), (0.0, 0.0), (0.0, 1.0)))
    res = optimize(prob)
    assert res.stagnated
    assert in_box(prob.bounds, res)
    assert res.objective == pytest.approx(simul10.objective, abs=1e-4)


# (engine, order, p_a, p_s, t_1): the check 3 classical optimum and the
# check 6 quantum optimum at p_a = 3
FINDER_PAIRS = [
    (Engine.CLASSICAL, PulseOrder.SIMULTANEOUS, 10.0, -4.26825, 0.0),
    (Engine.QUANTUM, PulseOrder.LASER_FIRST, 3.0, -1.47565, 5.01497),
]


def _pair_sampler(engine, order, p_a, p_s, t_1):
    """The pair's orientation on a t_2 array, in chunks of 4000 times."""
    if engine is Engine.CLASSICAL:
        def one(ts):
            return classical.two_kick_observable(p_s, p_a, t_1, ts, order, k=1)
    else:
        psi = quantum.two_kick_state(p_s, p_a, t_1, order)

        def one(ts):
            return quantum.observable_scan(psi, 1, ts)
    return lambda ts: np.concatenate([one(ts[i:i + 4000])
                                      for i in range(0, ts.size, 4000)])


@pytest.mark.parametrize("pair", FINDER_PAIRS, ids=["classical", "quantum"])
def test_t2_finder_matches_a_dense_scan(pair):
    engine, order, p_a, p_s, t_1 = pair
    prob = OptimizationProblem(engine=engine, order=order, p_a=p_a)
    value, t2 = evaluate_objective(prob, p_s, t_1)
    coarse = defaults.scan_step(abs(p_s) + p_a)
    ts = np.linspace(t2 - 2.0 * coarse, t2 + 2.0 * coarse,
                     int(math.ceil(4.0 * coarse / 1e-7)) + 1)
    dense = prob.transform(_pair_sampler(*pair)(ts))
    j = int(np.argmax(dense))
    assert dense[j] <= prob.transform(value) + 1e-10
    assert abs(ts[j] - t2) <= defaults.TIME_REFINE_TOL


@pytest.mark.parametrize("pair", FINDER_PAIRS, ids=["classical", "quantum"])
def test_t2_finder_stays_in_a_degenerate_window(pair):
    engine, order, p_a, p_s, t_1 = pair
    prob = OptimizationProblem(engine=engine, order=order, p_a=p_a)
    _, peak = evaluate_objective(prob, p_s, t_1)
    for t in (peak - 0.01, peak + 0.01):  # one each side of the peak
        box = replace(prob.bounds, t_2=(t, t))
        value, t2 = evaluate_objective(replace(prob, bounds=box), p_s, t_1)
        assert t2 == t
        assert value == pytest.approx(
            float(_pair_sampler(*pair)(np.array([t]))[0]), abs=1e-12)


CHECK6 = FINDER_PAIRS[1]


def _fft_step(prob):
    """The quantum finder's FFT sample spacing for a problem: 2 pi / n, n
    the power of two n >= 4(l_max + 1) on the basis of the box's largest
    |p_s| plus p_a."""
    strength = max(map(abs, prob.bounds.p_s)) + abs(prob.p_a)
    l_max = defaults.quantum_l_max(strength)
    n = 1
    while n < 4 * (l_max + 1):
        n *= 2
    return TWO_PI / n


def test_quantum_t2_window_wraps_by_periodicity():
    _, order, p_a, p_s, t_1 = CHECK6
    prob = OptimizationProblem(engine=Engine.QUANTUM, order=order, p_a=p_a)
    value, t2 = evaluate_objective(prob, p_s, t_1)
    box = replace(prob.bounds, t_2=(TWO_PI, 2.0 * TWO_PI))
    shifted, t2_shifted = evaluate_objective(replace(prob, bounds=box),
                                             p_s, t_1)
    assert shifted == pytest.approx(value, abs=1e-12)
    assert abs(t2_shifted - (t2 + TWO_PI)) <= defaults.TIME_REFINE_TOL


def test_quantum_t2_window_between_fft_samples():
    _, order, p_a, p_s, t_1 = CHECK6
    prob = OptimizationProblem(engine=Engine.QUANTUM, order=order, p_a=p_a)
    _, peak = evaluate_objective(prob, p_s, t_1)
    h = _fft_step(prob)
    j = math.floor(peak / h)
    lo, hi = (j + 1.0 / 3.0) * h, (j + 2.0 / 3.0) * h
    assert math.ceil(lo / h) > math.floor(hi / h)  # no sample inside
    box = replace(prob.bounds, t_2=(lo, hi))
    value, t2 = evaluate_objective(replace(prob, bounds=box), p_s, t_1)
    assert lo <= t2 <= hi
    assert value == pytest.approx(
        float(_pair_sampler(*CHECK6)(np.array([t2]))[0]), abs=1e-12)


def test_quantum_t2_finder_scores_an_empty_window_at_its_end():
    # a delay past the revival leaves the revival window [lo, hi] with
    # lo > hi; the finder scores t_2 = hi, as the classical grid does
    prob = OptimizationProblem(engine=Engine.QUANTUM,
                               order=PulseOrder.LASER_FIRST, p_a=5.0,
                               branch=Branch.REVIVAL)
    t_1 = TWO_PI + 1.0
    value, t2 = evaluate_objective(prob, 2.0, t_1)
    assert t2 == TWO_PI - t_1
    assert value == pytest.approx(float(quantum.observable_scan(
        quantum.two_kick_state(2.0, 5.0, t_1), 1, [t2])[0]), abs=1e-12)


def test_quantum_t2_finder_makes_one_fft(monkeypatch):
    """One FFT of the batch's K rows is its only scan: after it the
    polish reads ``observable_scan`` at one time per Newton iterate of
    each point, so no rescan of several times is left."""
    _, order, p_a, p_s, t_1 = CHECK6
    prob = OptimizationProblem(engine=Engine.QUANTUM, order=order, p_a=p_a)
    calls = []

    def spy(name, size):
        real = getattr(quantum, name)

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((name, size(*args, out), kwargs, args[0]))
            return out
        monkeypatch.setattr(quantum, name, counted)

    spy("observable_scan", lambda psi, k, dts, out: np.size(dts))
    spy("orientation_samples", lambda rows, out: out.shape)
    points = [(p_s, t_1), (p_s - 0.3, t_1 + 0.2), (-2.5, 1.0)]
    optimize_module._points(prob, points)
    (first, size, _, _), *reads = calls
    assert first == "orientation_samples"
    assert size == (3, round(TWO_PI / _fft_step(prob)))
    assert all(read[:3] == ("observable_scan", 1, {"jet": True})
               for read in reads)
    # the reads of each point, one point after another
    states = [read[3] for read in reads]
    runs = [len(list(group)) for _, group in groupby(states, key=id)]
    assert len(runs) == len(set(map(id, states))) == 3
    assert all(1 <= run <= 10 for run in runs)


@pytest.mark.parametrize("pair", FINDER_PAIRS, ids=["classical", "quantum"])
def test_t2_finder_returns_the_edge_that_cuts_a_peak(pair):
    """A box ending on the rising flank of the peak, or starting on its
    falling flank: the best t_2 is that edge of the box itself, scored as
    the sampler scores it."""
    engine, order, p_a, p_s, t_1 = pair
    prob = OptimizationProblem(engine=engine, order=order, p_a=p_a)
    _, peak = evaluate_objective(prob, p_s, t_1)
    for lo, hi, edge in ((peak - 0.006, peak - 0.002, peak - 0.002),
                         (peak + 0.002, peak + 0.006, peak + 0.002)):
        box = replace(prob.bounds, t_2=(lo, hi))
        value, t2 = evaluate_objective(replace(prob, bounds=box), p_s, t_1)
        assert t2 == edge
        assert value == pytest.approx(
            float(_pair_sampler(*pair)(np.array([t2]))[0]), abs=1e-12)


def test_quantum_plus_sign_finds_the_signed_maximum():
    """The check 6 pair dips to -0.864; maximizing the signed value finds
    the positive peak instead, at least as high as a 2^16-point scan sees
    it and resolved as a dense scan around it resolves it."""
    _, order, p_a, p_s, t_1 = CHECK6
    prob = OptimizationProblem(engine=Engine.QUANTUM, order=order, p_a=p_a,
                               objective_sign=ObjectiveSign.MAXIMIZE_PLUS)
    value, t2 = evaluate_objective(prob, p_s, t_1)
    fine = _pair_sampler(*CHECK6)(TWO_PI * np.arange(1 << 16) / (1 << 16))
    assert 0.0 < fine.max() <= value
    ts = np.linspace(t2 - 1e-4, t2 + 1e-4, 2001)
    dense = _pair_sampler(*CHECK6)(ts)
    j = int(np.argmax(dense))
    assert dense[j] <= value + 1e-12
    assert abs(ts[j] - t2) <= defaults.TIME_REFINE_TOL


def test_polished_value_never_falls_below_the_first_scan(monkeypatch):
    """At random (p_s, t_1) of both engines' boxes, the polish returns a
    score at least that of the first scan's best sample."""
    starts = []
    polish = optimize_module._polish

    def spy(prob, jet, a, t, b, value):
        found = polish(prob, jet, a, t, b, value)
        starts.append((prob.transform(value), prob.transform(found[0])))
        return found

    monkeypatch.setattr(optimize_module, "_polish", spy)
    rng = np.random.default_rng(17)

    def draws(prob):
        return [(rng.uniform(*prob.bounds.p_s), rng.uniform(*prob.bounds.t_1))
                for _ in range(10)]

    for prob in (classical_problem(),
                 classical_problem(order=PulseOrder.HCP_FIRST)):
        for point in draws(prob):
            evaluate_objective(prob, *point)
    quantum3 = OptimizationProblem(engine=Engine.QUANTUM,
                                   order=PulseOrder.LASER_FIRST, p_a=3.0)
    optimize_module._points(quantum3, draws(quantum3))  # one batch
    assert len(starts) == 30
    assert all(found >= first for first, found in starts)
    assert sum(found > first for first, found in starts) >= 20


# (p_a, points per order and branch) of the dense-window check
DENSE_DRAWS = [(3.0, 40), (10.0, 12), (30.0, 4), (100.0, 1)]


def test_t2_finder_meets_the_dense_window_maximum():
    """At random (p_s, t_1) of the default quantum boxes, every order on
    both branches, the finder's score reaches the window's maximum on a
    dense grid, the samples of a 2^16-point grid of the period in the
    window and its two edges, within 1e-12. While the FFT sampled no
    edge, 30 of 200 laser-first and 15 of 200 HCP-first revival points at
    p_a = 3 stopped about 1e-6 inside an edge that cut a peak, up to
    8.1e-7 short, and one laser-first revival point at p_a = 30 ended on
    an inner peak 1.1e-3 below the window's upper edge.

    Two laser-first revival points at p_a = 3 have their best t_2 on an
    edge of the window [2 pi - Delta - t_1, 2 pi - t_1]: t_2 is that
    edge, and the gradient carries the edge's slope term, as central
    differences in t_1 see it. Before, the polish stopped about 1e-6
    inside, and the t_1 derivative lacked the term (0.357 against
    -0.469 at t_1 = 2.94)."""
    n = 1 << 16
    grid = TWO_PI * np.arange(n) / n
    rng = np.random.default_rng(39)
    for p_a, k in DENSE_DRAWS:
        for order in PulseOrder:
            for branch in Branch:
                prob = OptimizationProblem(engine=Engine.QUANTUM,
                                           order=order, p_a=p_a,
                                           branch=branch)
                l_max = quantum._basis(max(map(abs, prob.bounds.p_s)) + p_a)
                points = [(rng.uniform(*prob.bounds.p_s),
                           rng.uniform(*prob.bounds.t_1)) for _ in range(k)]
                found = optimize_module._points(prob, points)
                for (p_s, t_1), (value, _, _) in zip(points, found):
                    lo, hi = optimize_module._t2_window(prob, t_1)
                    lo = min(lo, hi)
                    psi = quantum.two_kick_state(p_s, p_a, t_1, order,
                                                 l_max)
                    dense = np.append(quantum.observable_scan(
                        psi, 1, grid[(lo <= grid) & (grid <= hi)]),
                        quantum.observable_scan(psi, 1, [lo, hi]))
                    assert abs(value) >= np.abs(dense).max() - 1e-12, \
                        (p_a, order, branch, p_s, t_1)
    prob = OptimizationProblem(engine=Engine.QUANTUM,
                               order=PulseOrder.LASER_FIRST, p_a=3.0,
                               branch=Branch.REVIVAL)
    for p_s, t_1, edge in ((2.4, 2.94, 0), (0.8, 2.8, 1)):
        value, t_2, grad = evaluate_objective(prob, p_s, t_1, gradient=True)
        assert t_2 == optimize_module._t2_window(prob, t_1)[edge]
        h = 1e-6
        central = (evaluate_objective(prob, p_s, t_1 + h)[0]
                   - evaluate_objective(prob, p_s, t_1 - h)[0]) / (2 * h)
        assert grad[1] == pytest.approx(central, rel=1e-6, abs=1e-7)


C, Q = Engine.CLASSICAL, Engine.QUANTUM
LF, HF = PulseOrder.LASER_FIRST, PulseOrder.HCP_FIRST
SIM = PulseOrder.SIMULTANEOUS
P, R = Branch.PROMPT, Branch.REVIVAL
# (engine, order, branch, p_a, p_s, t_1, t_2 box or None, where the best
# t_2 sits: "inside" the window or on its "lower"/"upper" edge)
GRADIENT_POINTS = [
    (C, LF, P, 10.0, -2.0, 0.3, None, "inside"),
    (C, LF, R, 10.0, 2.0, -0.3, None, "inside"),
    (C, HF, P, 10.0, -6.0, 0.05, None, "inside"),
    (C, HF, R, 10.0, 6.0, -0.05, None, "inside"),
    (C, SIM, P, 10.0, -4.0, 0.0, None, "inside"),
    (C, SIM, R, 10.0, 4.0, 0.0, None, "inside"),
    # a peak cut by the classical window's fixed upper edge
    (C, HF, P, 10.0, -6.0, 0.05, (0.0, 0.18), "upper"),
    (Q, LF, P, 5.0, -1.2, 3.3, None, "inside"),
    (Q, LF, R, 5.0, 2.0, 5.9, None, "inside"),
    (Q, HF, P, 5.0, -3.0, 3.0, None, "inside"),
    (Q, HF, R, 5.0, 3.0, 6.0, None, "lower"),  # the fixed edge t_2 = 0
    (Q, SIM, P, 5.0, -2.0, 0.0, None, "inside"),
    (Q, SIM, R, 5.0, 2.0, 0.0, None, "inside"),
    # the revival window's edges 2 pi - Delta - t_1 and 2 pi - t_1, which
    # move with t_1
    (Q, LF, R, 5.0, 2.0, 5.3, None, "lower"),
    (Q, LF, R, 5.0, 2.0, 6.1, None, "upper"),
]


@pytest.mark.parametrize(
    "point", GRADIENT_POINTS,
    ids=[f"{e.value}-{o.value}-{b.value}-{edge}"
         for e, o, b, *_, edge in GRADIENT_POINTS])
def test_envelope_gradient_matches_central_differences(point):
    engine, order, branch, p_a, p_s, t_1, t2_box, edge = point
    prob = OptimizationProblem(engine=engine, order=order, p_a=p_a,
                               branch=branch)
    if t2_box is not None:
        prob = replace(prob, bounds=replace(prob.bounds, t_2=t2_box))
    value, t_2, grad = evaluate_objective(prob, p_s, t_1, gradient=True)
    assert (value, t_2) == evaluate_objective(prob, p_s, t_1)
    lo, hi = optimize_module._t2_window(prob, t_1)
    assert {"inside": lo < t_2 < hi, "lower": t_2 == lo,
            "upper": t_2 == hi}[edge]

    def value_at(ps, t1):
        return evaluate_objective(prob, ps, t1)[0]

    h = 1e-6
    central = [(value_at(p_s + h, t_1) - value_at(p_s - h, t_1)) / (2 * h),
               (value_at(p_s, t_1 + h) - value_at(p_s, t_1 - h)) / (2 * h)]
    assert grad == pytest.approx(central, rel=1e-6, abs=1e-7)
    if order is PulseOrder.SIMULTANEOUS:
        assert grad[1] == 0.0


@pytest.fixture(scope="module")
def laser100():
    return optimize(classical_problem(p_a=100.0))


@pytest.fixture(scope="module")
def hcp100():
    return optimize(classical_problem(order=PulseOrder.HCP_FIRST, p_a=100.0))


def test_ascent_stops_on_the_laser_first_optimum(laser100):
    """The objective climbs slowly along a ridge to the p_s bound: a
    stopping rule as loose as L-BFGS-B's defaults ends near 0.946434."""
    assert laser100.objective >= 0.9464773


def test_on_boundary_flags_an_optimum_held_by_the_box(laser100, hcp100):
    """The laser-first optimum sits on |p_s| = PS_RATIO_MIN p_a with the
    gradient pointing out of the box; the HCP-first one is interior."""
    assert laser100.p_s == -defaults.PS_RATIO_MIN * 100.0
    assert laser100.on_boundary
    assert not hcp100.on_boundary
    ratio, delay = hcp100.p_s / 100.0, hcp100.t_1 * 100.0
    assert -1.0 < ratio < -defaults.PS_RATIO_MIN and 0.0 < delay < 60.0


def test_seeded_laser_first_solves_take_at_most_100_evaluations(prompt10,
                                                                laser100):
    """A classical laser-first problem whose p_s box lies below 0 runs
    one ascent, from the seed its weak-laser limit gives, instead of the
    eight of a start grid (407 evaluations at p_a = 10 and 100)."""
    for res in (prompt10, laser100):
        assert res.evaluations <= 100


@pytest.mark.parametrize("p_a", [10.0, 100.0])
def test_seeded_laser_first_optimum_is_stationary_along_its_ridge(p_a):
    """The seeded laser-first optimum holds p_s/p_a on its bound, where
    the envelope gradient in the free p_a t_1 is within ``ASCENT_GTOL``,
    and takes at most 10 evaluations (4 measured). While the ascent's
    BFGS update read the held p_s's gradient change, it zig-zagged in t_1
    for 78 evaluations and stopped on its rise floor with a free gradient
    of 1.5e-8."""
    prob = classical_problem(p_a=p_a)
    assert optimize(prob).evaluations <= 10
    unit = optimize_module._unit_problem(prob)
    res = optimize_module._solve(unit, 0, None)
    box = optimize_module._ScaledBox(unit)
    value, _, grad = evaluate_objective(unit, res.p_s, res.t_1, gradient=True)
    g = box.ascent(value, grad)
    held = optimize_module._outward(box.scaled((res.p_s, res.t_1)), g,
                                    box.u_lo, box.u_hi)
    assert held.tolist() == [True, False]
    assert abs(g[1]) <= defaults.ASCENT_GTOL


# the classical problems that start from a grid: every p_a whose windows'
# caps bind (0.5, 1, 3) and two that share the uncapped unit problem
GRIDDED = [(order, p_a)
           for order in (PulseOrder.HCP_FIRST, PulseOrder.SIMULTANEOUS)
           for p_a in (0.5, 1.0, 3.0, 10.0, 100.0)]


@pytest.mark.parametrize("order, p_a", GRIDDED, ids=[
    f"{o.value}-{p:g}" for o, p in GRIDDED])
def test_extra_starts_find_nothing_above_the_best_grid_starts(order, p_a):
    """A solve climbs only its 4 best-scored grid starts; 32 seeded random
    starts besides them, under two seeds, end within 1e-9 of it (at most
    1.4e-14 above it over the 30 classical problems of every order and
    branch at these p_a, measured)."""
    prob = classical_problem(order=order, p_a=p_a)
    default = abs(optimize(prob).objective)
    for seed in (1, 2):
        extra = abs(optimize(prob, extra_starts=32, seed=seed).objective)
        assert abs(extra - default) <= 1e-9


@pytest.mark.parametrize("order", list(PulseOrder))
def test_classical_solves_climb_at_most_4_deterministic_starts(monkeypatch,
                                                               order):
    """Every default classical problem, on both branches, runs at most 4
    ascents (8 before, from the HCP-first grid), and no more than it has
    deterministic starts."""
    ascents, ascent = [], optimize_module._ascent

    def counted(*args):
        ascents.append(args[0])
        return ascent(*args)

    for p_a in (0.5, 1.0, 3.0, 10.0, 100.0):
        for branch in Branch:
            unit = optimize_module._unit_problem(
                classical_problem(order=order, p_a=p_a, branch=branch))
            # solved first, the weak-laser limit's ascents go uncounted
            optimize_module._solve.cache_clear()
            starts = start_points(unit)
            ascents.clear()
            with monkeypatch.context() as patch:
                patch.setattr(optimize_module, "_ascent", counted)
                optimize_module._solve(unit, 0, None)
            assert 1 <= len(ascents) <= min(4, len(starts))


# (p_a values, p_s box or None for the default): classical laser-first
# problems whose p_s box lies below 0
SEEDED = [((1.0,), None), ((3.0,), None), ((10.0, 100.0), None),
          ((10.0,), (-8.0, -1.0)), ((10.0,), (-5.0, -0.5)),
          ((10.0,), (-10.0, -3.0)), ((100.0,), (-100.0, -10.0))]


@pytest.mark.parametrize(
    "pas, p_s", SEEDED,
    ids=["-".join(f"{p:g}" for p in pas)
         + (f"-ps{p_s[0]:g}to{p_s[1]:g}" if p_s else "")
         for pas, p_s in SEEDED])
def test_extra_starts_find_nothing_above_the_weak_laser_seed(pas, p_s):
    """The seed, (p_s, t_1) on the p_s bound nearest 0 and on the limit's
    ridge p_s t_1 = c, is the one deterministic start and lies in the
    box; 32 random starts besides it end within 1e-9 of its optimum."""
    for p_a in pas:
        box = default_bounds(Engine.CLASSICAL, PulseOrder.LASER_FIRST,
                             Branch.PROMPT, p_a)
        prob = classical_problem(p_a=p_a, bounds=replace(box, p_s=p_s)
                                 if p_s else None)
        unit = optimize_module._unit_problem(prob)
        [(r, t_1)] = start_points(unit)
        assert r == unit.bounds.p_s[1]
        assert unit.bounds.t_1[0] <= t_1 <= unit.bounds.t_1[1]
        seeded = abs(optimize(prob).objective)
        assert abs(optimize(prob, 32, 5).objective) <= seeded + 1e-9


def test_optimizer_scaling_law(hcp_pair):
    lo, hi = hcp_pair
    assert hi.p_s / lo.p_s == pytest.approx(2.0, rel=1e-3)
    assert hi.t_1 / lo.t_1 == pytest.approx(0.5, rel=1e-3)
    assert hi.t_2 / lo.t_2 == pytest.approx(0.5, rel=1e-3)
    assert hi.objective == pytest.approx(lo.objective, abs=1e-5)


def test_laser_first_optimum_is_scale_free_to_1e9(prompt10, laser100):
    """Classical kicks from rest are invariant under (p_s, p_a, t_1, t_2)
    -> (lam p_s, lam p_a, t_1 / lam, t_2 / lam): the laser-first optimum
    at p_a = 100 is the one at p_a = 10, scaled."""
    res100 = laser100
    scaled = [(r.p_s / r.p_a, r.p_a * r.t_1, r.p_a * r.t_2, r.objective)
              for r in (prompt10, res100)]
    assert scaled[1] == pytest.approx(scaled[0], rel=0.0, abs=1e-9)


def scale_free(res):
    """(p_s/p_a, p_a t_1, p_a t_2) of a classical result."""
    return res.p_s / res.p_a, res.p_a * res.t_1, res.p_a * res.t_2


def test_classical_optimum_is_scale_exact(prompt10):
    """A classical problem is solved once in the scale-free variables:
    where the windows' caps do not bind, the laser-first prompt optima at
    p_a = 10, 12.5, 16 and 100 (three mantissa families) are one optimum,
    objective and evaluations included; only the rescale rounds."""
    def cold(p_a):
        optimize_module._solve.cache_clear()
        return optimize(classical_problem(p_a=p_a))

    results = [prompt10, cold(12.5), cold(16.0), cold(100.0)]
    for res in results[1:]:
        assert (res.objective, res.evaluations, res.on_boundary) == (
            prompt10.objective, prompt10.evaluations, prompt10.on_boundary)
        assert scale_free(res) == pytest.approx(scale_free(prompt10),
                                                rel=1e-15, abs=0.0)


def test_classical_sweep_rows_agree_in_scaled_units():
    """The README sweep's four rows share one scale-free problem: each
    row is that one solve rescaled, so they agree in the scale-free
    variables to the rescale's rounding, evaluations included."""
    rows = sweep(classical_problem(order=PulseOrder.HCP_FIRST),
                 [10.0, 20.0, 50.0, 100.0])
    first = rows[0].result
    for row in rows[1:]:
        assert row.result.objective == first.objective
        assert scale_free(row.result) == pytest.approx(scale_free(first),
                                                       rel=1e-15, abs=0.0)
        assert not row.result.stagnated
        assert row.result.evaluations == first.evaluations


def mirrored(box):
    """The box of (-p_s, -t_1, -t_2) of ``box``."""
    return BoundsBox(*((-hi, -lo) for lo, hi in (box.p_s, box.t_1, box.t_2)))


@pytest.mark.parametrize("order", list(PulseOrder))
def test_classical_revival_objective_is_the_mirrored_prompt_objective(order):
    """Negating (p_s, p_a, t_1, t_2) leaves every classical trajectory
    unchanged, so the revival problem at (p_s, t_1) scores as its prompt
    twin (p_a -> -p_a, the box mirrored) at (-p_s, -t_1), with t_2
    negated: the engine alone, no optimizer and no memo."""
    rng = np.random.default_rng(18)
    for p_a in (3.0, 10.0, 100.0):
        revival = classical_problem(order, p_a, Branch.REVIVAL)
        twin = classical_problem(order, -p_a, bounds=mirrored(revival.bounds))
        for _ in range(4):
            p_s = rng.uniform(*revival.bounds.p_s)
            t_1 = rng.uniform(*revival.bounds.t_1)
            value, t_2 = evaluate_objective(revival, p_s, t_1)
            twin_value, twin_t2 = evaluate_objective(twin, -p_s, -t_1)
            assert twin_value == pytest.approx(value, rel=0.0, abs=1e-14)
            assert twin_t2 == pytest.approx(-t_2, rel=0.0, abs=1e-14)


def assert_mirrored(res, twin, parity):
    """``res`` is ``twin`` with p_s, t_1 and t_2 negated, bit for bit, its
    objective times ``parity``, and the same solve's counts and flags."""
    assert (res.p_s, res.t_1, res.t_2, res.objective) == (
        -twin.p_s, -twin.t_1, -twin.t_2, parity * twin.objective)
    assert (res.evaluations, res.stagnated, res.on_boundary) == (
        twin.evaluations, twin.stagnated, twin.on_boundary)
    # no field is -0.0 (the simultaneous t_1, say)
    assert all(math.copysign(1.0, v) > 0.0 for v in
               (res.p_s, res.t_1, res.t_2, res.objective) if v == 0.0)


@pytest.mark.parametrize("order", list(PulseOrder))
def test_classical_revival_optimum_is_the_mirrored_prompt_optimum(order):
    """Through the API, each result a cold solve: the default revival
    optimum is the prompt one mirrored, its objective negated by parity;
    with the signed objective or a box of one's own, the twin is the
    prompt problem at -p_a of the mirrored box, with the same objective."""
    def cold(prob):
        optimize_module._solve.cache_clear()
        return optimize(prob)

    for p_a in (3.0, 10.0, 100.0):
        revival = cold(classical_problem(order, p_a, Branch.REVIVAL))
        assert revival.branch is Branch.REVIVAL
        assert_mirrored(revival, cold(classical_problem(order, p_a)), -1.0)
    box = BoundsBox((0.5, 4.0), (-0.5, 0.0), (-0.3, 0.0))
    for sign in ObjectiveSign:
        revival = cold(classical_problem(order, 10.0, Branch.REVIVAL,
                                         bounds=box, objective_sign=sign))
        twin = cold(classical_problem(order, -10.0, bounds=mirrored(box),
                                      objective_sign=sign))
        assert_mirrored(revival, twin, 1.0)
        assert revival.p_a == 10.0 and twin.p_a == -10.0


def test_both_branches_share_one_unit_problem():
    for order in PulseOrder:
        for p_a in (3.0, 100.0):
            prompt = optimize_module._unit_problem(classical_problem(order, p_a))
            revival = optimize_module._unit_problem(
                classical_problem(order, p_a, Branch.REVIVAL))
            assert revival == prompt
            assert (prompt.p_a, prompt.branch) == (1.0, Branch.PROMPT)


def test_a_second_identical_optimize_evaluates_nothing(monkeypatch):
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS)
    first = optimize(prob)
    calls = []

    def spy(prob, points, l_max=None):
        calls.append(points)
        raise AssertionError("evaluated")

    monkeypatch.setattr(optimize_module, "_points", spy)
    assert optimize(prob) == first
    assert calls == []


def test_a_sweep_of_one_unit_problem_makes_one_solve(monkeypatch):
    """The README HCP-first sweep: every p_a shares the unit problem, so
    the starts are built once, and each row is its ``optimize`` row."""
    lattice = optimize_module._start_lattice
    calls = []

    def spy(prob, evaluate):
        calls.append(prob)
        return lattice(prob, evaluate)

    monkeypatch.setattr(optimize_module, "_start_lattice", spy)
    pas = [10.0, 20.0, 50.0, 100.0]
    rows = sweep(classical_problem(order=PulseOrder.HCP_FIRST), pas)
    assert len(calls) == 1
    optimize_module._solve.cache_clear()
    for p_a, row in zip(pas, rows):
        alone = optimize(classical_problem(order=PulseOrder.HCP_FIRST, p_a=p_a))
        assert result_csv_row(row.result) == result_csv_row(alone)


def test_a_cold_laser_first_solve_builds_each_start_grid_once(monkeypatch):
    """A cold classical laser-first solve builds the start grid of its
    unit problem and of its weak-laser limit once each, and the limit is
    a solve in the one memo of solves: a miss there, and gone when that
    memo is cleared."""
    start_grid, calls = optimize_module._start_grid, []

    def spy(prob):
        calls.append(prob)
        return start_grid(prob)

    monkeypatch.setattr(optimize_module, "_start_grid", spy)
    unit = optimize_module._unit_problem(classical_problem(p_a=100.0))
    optimize(classical_problem(p_a=100.0))
    assert len(calls) == 2 and calls[0] == unit
    limit = calls[1]
    assert isinstance(limit, optimize_module._WeakLaserLimit)
    info = optimize_module._solve.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    optimize_module._solve.cache_clear()
    optimize_module._weak_laser_seed(unit)
    assert optimize_module._solve.cache_info().misses == 1
    assert calls[2:] == [limit]


def test_the_solve_memo_is_bounded():
    maxsize = optimize_module._solve.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1024


def test_a_memo_hit_equals_a_cold_solve():
    """Results do not depend on call history: a revival problem served by
    the memo after its prompt twin at another strength equals its cold
    solve field by field, and ``extra_starts`` and ``seed`` are part of
    the key."""
    hcp = partial(classical_problem, PulseOrder.HCP_FIRST)
    optimize(hcp(10.0))
    hit = optimize(hcp(20.0, Branch.REVIVAL))
    info = optimize_module._solve.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    optimize_module._solve.cache_clear()
    assert repr(optimize(hcp(20.0, Branch.REVIVAL))) == repr(hit)

    seeded = [optimize(hcp(10.0), 2, seed) for seed in (1, 2, 1)]
    info = optimize_module._solve.cache_info()
    assert (info.hits, info.misses) == (1, 3)
    assert seeded[2] == seeded[0]
    # without extra starts the seed is read by nothing: one solve
    assert optimize(hcp(10.0), seed=7) == optimize(hcp(10.0))
    assert optimize_module._solve.cache_info().misses == 3


def test_hcp_first_optimum_shape(hcp_pair):
    lo, _ = hcp_pair
    assert abs(lo.objective) == pytest.approx(0.957, abs=0.005)
    assert 40.0 / abs(lo.p_s) == pytest.approx(1.6, abs=0.1)
    assert lo.scaled_delay == pytest.approx(0.36, abs=0.04)


def test_revival_branch_mirrors_prompt(prompt10, revival10):
    assert revival10.objective < 0 < prompt10.objective
    assert revival10.objective == pytest.approx(-prompt10.objective, abs=1e-4)
    assert revival10.p_s == pytest.approx(-prompt10.p_s, rel=1e-3)
    assert revival10.t_1 == pytest.approx(-prompt10.t_1, rel=1e-3)
    assert revival10.t_2 == pytest.approx(-prompt10.t_2, rel=1e-3)
    assert revival10.branch is Branch.REVIVAL


def test_laser_first_plateau_is_scale_free(prompt10):
    res20 = optimize(classical_problem(p_a=20.0))
    assert res20.objective == pytest.approx(prompt10.objective, abs=1e-3)


def test_quantum_revival_window_respected():
    prob = OptimizationProblem(engine=Engine.QUANTUM,
                               order=PulseOrder.LASER_FIRST, p_a=10.0,
                               branch=Branch.REVIVAL)
    res = optimize(prob)
    assert TWO_PI - 0.5 - 1e-6 <= res.t_1 + res.t_2 <= TWO_PI + 1e-6
    assert res.p_s > 0  # aligning pulse before the revival
    assert abs(res.objective) > 0.5


def test_quantum_revival_narrows_the_delay_box():
    """Only delays whose revival window meets the t_2 box are searched."""
    box = BoundsBox((0.1, 5.0), (0.0, TWO_PI), (0.0, 1.0))
    prob = OptimizationProblem(engine=Engine.QUANTUM,
                               order=PulseOrder.LASER_FIRST, p_a=5.0,
                               branch=Branch.REVIVAL, bounds=box)
    assert prob.bounds.t_1 == (TWO_PI - 0.5 - 1.0, TWO_PI)
    results = [(t1, evaluate_objective(prob, 2.0, t1)[1])
               for t1 in np.linspace(*prob.bounds.t_1, 5)]
    res = optimize(prob)
    assert in_box(prob.bounds, res)
    for t1, t2 in results + [(res.t_1, res.t_2)]:
        assert TWO_PI - 0.5 - 1e-12 <= t1 + t2 <= TWO_PI + 1e-12
        assert 0.0 <= t2 <= 1.0
    # no delay of a (0, 1) box reaches the revival through a (0, 1) t_2 box
    with pytest.raises(NonFiniteValue, match="t_1"):
        replace(prob, bounds=replace(box, t_1=(0.0, 1.0)))


@pytest.mark.parametrize("sign", list(ObjectiveSign))
def test_objective_sign_picks_signed_or_magnitude_maximum(sign):
    """At p_a = -10 the orientation dips to -0.94 and peaks at +0.71:
    "plus" returns the peak, "abs" the dip."""
    prob = classical_problem(p_a=-10.0, objective_sign=sign)
    value, t2 = evaluate_objective(prob, -2.0, 0.3)
    ts = np.linspace(*prob.bounds.t_2, 100001)
    dense = _pair_sampler(Engine.CLASSICAL, PulseOrder.LASER_FIRST, -10.0,
                          -2.0, 0.3)(ts)
    j = int(np.argmax(prob.transform(dense)))
    assert dense[j] == (dense.max() if sign is ObjectiveSign.MAXIMIZE_PLUS
                        else dense.min())
    assert (value > 0) == (sign is ObjectiveSign.MAXIMIZE_PLUS)
    assert prob.transform(dense[j]) <= prob.transform(value) \
        <= prob.transform(dense[j]) + 1e-8
    assert abs(t2 - ts[j]) <= 1e-5


# p_s boxes that span 0, as (lo, hi) / p_a: reaching further below 0
# than above it, and further above it than below
SPANNING = [(-0.8, 0.1), (-0.1, 0.8)]
# optimize calls that once never returned: (engine, order, branch,
# p_a, p_s box / p_a), and the classical prompt problems of every order
SPANNING_SOLVES = [
    (Engine.QUANTUM, PulseOrder.HCP_FIRST, Branch.PROMPT, 5.0, (-0.2, 0.8)),
    (Engine.CLASSICAL, PulseOrder.LASER_FIRST, Branch.REVIVAL, 10.0,
     (-0.8, 0.1)),
] + [(Engine.CLASSICAL, order, Branch.PROMPT, 10.0, ratios)
     for order in PulseOrder for ratios in SPANNING]


def spanning_problem(engine, order, branch, p_a, ratios):
    box = default_bounds(engine, order, branch, p_a)
    return OptimizationProblem(
        engine=engine, order=order, p_a=p_a, branch=branch,
        bounds=replace(box, p_s=tuple(r * p_a for r in ratios)))


@pytest.mark.parametrize("engine", list(Engine))
def test_starts_of_a_box_spanning_zero_lie_in_the_box(engine, monkeypatch):
    """A classical grid has at least 4 starts; a quantum scan's starts are
    exactly its best peaks, at most 4."""
    for order in PulseOrder:
        for branch in Branch:
            for ratios in SPANNING:
                prob = spanning_problem(engine, order, branch, 10.0, ratios)
                for p in (prob, optimize_module._unit_problem(prob)):
                    (lo, hi), (t1_lo, t1_hi) = p.bounds.p_s, p.bounds.t_1
                    if engine is Engine.QUANTUM:
                        starts, expected = scan_starts_and_peaks(monkeypatch,
                                                                 p)
                        assert starts == expected
                    else:
                        starts = start_points(p)
                        assert len(starts) >= 4
                    assert all(lo <= ps <= hi and t1_lo <= t1 <= t1_hi
                               for ps, t1 in starts), (p.bounds, starts)


@pytest.mark.parametrize(
    "engine, order, branch, p_a, ratios", SPANNING_SOLVES,
    ids=[f"{e.value}-{o.value}-{b.value}-from{r[0]:g}to{r[1]:g}"
         for e, o, b, _, r in SPANNING_SOLVES])
def test_optimize_returns_in_a_box_spanning_zero(monkeypatch, engine, order,
                                                 branch, p_a, ratios):
    """An ascent started outside its box never ended its line search; a
    spy that counts the scoring rounds fails the test instead of letting
    it hang."""
    score, rounds = optimize_module._Objective.score, []

    def counted(evaluate, points):
        rounds.append(len(points))
        if len(rounds) > 1000:
            raise AssertionError("more than 1000 scoring rounds")
        return score(evaluate, points)

    monkeypatch.setattr(optimize_module._Objective, "score", counted)
    prob = spanning_problem(engine, order, branch, p_a, ratios)
    res = optimize(prob)
    assert in_box(prob.bounds, res)
    assert res.evaluations <= 1000


def test_sweep_rows_and_warm_start():
    template = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=5.0)
    rows = sweep(template, [5.0, 10.0])
    assert [r.p_a for r in rows] == [5.0, 10.0]
    for row in rows:
        assert row.error is None
        assert abs(row.result.objective) == pytest.approx(0.89, abs=0.01)

    assert sweep(template, []) == []
    # each row is its own optimize call, so any order gives the same rows
    assert sweep(template, [10.0, 5.0]) == rows[::-1]
    with pytest.raises(ValueError):
        sweep(template, [-1.0, 5.0])


@pytest.mark.parametrize("p_a", [10.0, 0.0])
def test_negative_extra_starts_are_refused_before_any_evaluation(
        monkeypatch, p_a):
    def never(prob, points, l_max=None):
        raise AssertionError("evaluated")

    monkeypatch.setattr(optimize_module, "_points", never)
    prob = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=p_a)
    with pytest.raises(ValueError, match="extra_starts"):
        optimize(prob, extra_starts=-3, seed=1)
    # a sweep refuses it as a whole, not as annotated rows
    with pytest.raises(ValueError, match="extra_starts"):
        sweep(classical_problem(order=PulseOrder.SIMULTANEOUS),
              [5.0, 10.0], extra_starts=-1)


def test_sweep_annotates_failed_points():
    template = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=5.0)
    rows = sweep(template, [5.0, 2e4])
    assert rows[0].error is None
    assert rows[1].result is None and "NonFiniteValue" in rows[1].error


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(prob, points, l_max=None):
        return 1.0 / 0.0

    monkeypatch.setattr(optimize_module, "_points", broken)
    template = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=5.0)
    with pytest.raises(ZeroDivisionError):
        sweep(template, [5.0, 10.0])


# the classical laser-first revival optimum at p_a = 20, to full precision
REVIVAL20 = OptimizationResult(
    p_a=20.0, p_s=0.4, t_1=-2.0486407092907344,
    t_2=-0.08047795326215713, objective=-0.9464773094314268,
    branch=Branch.REVIVAL, order=PulseOrder.LASER_FIRST,
    engine=Engine.CLASSICAL, evaluations=4, on_boundary=True)


def test_quantum_sweep_strength_guard(monkeypatch):
    """A quantum sweep takes p_a up to ``defaults.QUANTUM_SWEEP_PA_MAX``
    and refuses a list holding a larger one as a whole, before any
    solve, naming the way round it; a classical sweep has no cap."""
    solved = []

    def stub(prob, extra_starts=0, seed=None):
        solved.append(prob.p_a)

    template = OptimizationProblem(engine=Engine.QUANTUM,
                                   order=PulseOrder.LASER_FIRST, p_a=5.0)
    with pytest.raises(ValueError, match="quantum sweeps"):
        sweep(template, [150.0])
    monkeypatch.setattr(optimize_module, "optimize", stub)
    cap = defaults.QUANTUM_SWEEP_PA_MAX
    with pytest.raises(ValueError, match=(
            rf"quantum sweeps are limited to p_a <= {cap}; "
            r"run optimize for each larger p_a$")):
        sweep(template, [3.0, math.nextafter(cap, math.inf)])
    assert solved == []
    assert [row.p_a for row in sweep(template, [3.0, cap])] == [3.0, cap]
    sweep(replace(template, engine=Engine.CLASSICAL), [150.0])
    assert solved == [3.0, cap, 150.0]


def test_csv_row_format(simul10):
    row = result_csv_row(simul10)
    fields = row.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == f"{simul10.p_a:.11e}"
    assert fields[5:8] == ["prompt", "simultaneous", "classical"]
    assert fields[8] == str(simul10.evaluations)


def test_rule_cache_stays_on_the_ladder():
    """Objective evaluations across the classical check 3-5 boxes build
    only power-of-two rules, so the shared rule cache stays small."""
    problems = [classical_problem(PulseOrder.SIMULTANEOUS, 10.0),
                classical_problem(PulseOrder.HCP_FIRST, 100.0),
                classical_problem(PulseOrder.LASER_FIRST, 100.0),
                classical_problem(PulseOrder.LASER_FIRST, 100.0,
                                  Branch.REVIVAL)]
    rng = np.random.default_rng(11)
    classical.make_ensemble.cache_clear()
    for prob in problems:
        for _ in range(10):
            p_s = rng.uniform(*prob.bounds.p_s)
            t_1 = rng.uniform(*prob.bounds.t_1)
            evaluate_objective(prob, p_s, t_1)
    assert classical.make_ensemble.cache_info().currsize <= 15


# (order, branch, special points and the window edge each scores t_2 on):
# each quantum problem's batch also holds random points of its box.
# Laser-first revival points at t_1 = 5.3 and 6.1 score t_2 on the
# window's moving edges (the edge-slope term of the gradient), and
# t_1 = 2 pi + 1 leaves an empty window, which holds no FFT sample
EMPTY = (2.0, TWO_PI + 1.0)
SPECIAL = {
    (PulseOrder.LASER_FIRST, Branch.REVIVAL):
        [((2.0, 5.3), "lower"), ((2.0, 6.1), "upper"), (EMPTY, "upper")],
    (PulseOrder.HCP_FIRST, Branch.REVIVAL):
        [((3.0, 6.0), None), (EMPTY, "upper")],
}
BATCHES = [(engine, order, branch,
            SPECIAL.get((order, branch), []) if engine is Engine.QUANTUM
            else [])
           for engine in (Engine.QUANTUM, Engine.CLASSICAL)
           for order in PulseOrder for branch in Branch]


def assert_rows_equal_batches_of_one(prob, points):
    batch = optimize_module._points(prob, points)
    assert len(batch) == len(points)
    for point, (value, t_2, grad) in zip(points, batch):
        (alone,) = optimize_module._points(prob, [point])
        assert (value, t_2) == alone[:2]
        assert np.array_equal(grad, alone[2])
        public = evaluate_objective(prob, *point, gradient=True)
        assert (value, t_2) == public[:2]
        assert np.array_equal(grad, public[2])
    return batch


@pytest.mark.parametrize(
    "engine, order, branch, special", BATCHES,
    ids=[("" if e is Engine.QUANTUM else "classical-")
         + f"{o.value}-{b.value}" for e, o, b, _ in BATCHES])
def test_batch_rows_equal_batches_of_one(engine, order, branch, special):
    """A point's value, t_2 and gradient do not depend on the batch it is
    scored in, bit for bit: each row of a batch equals the batch of that
    point alone, and ``evaluate_objective``, on either engine."""
    prob = OptimizationProblem(engine=engine, order=order, p_a=5.0,
                               branch=branch)
    rng = np.random.default_rng(21)
    points = [(rng.uniform(*prob.bounds.p_s), rng.uniform(*prob.bounds.t_1))
              for _ in range(6)] + [point for point, _ in special]
    batch = assert_rows_equal_batches_of_one(prob, points)
    for (point, edge), (_, t_2, _) in zip(special, batch[6:]):
        lo, hi = optimize_module._t2_window(prob, point[1])
        if edge is not None:
            assert t_2 == {"lower": lo, "upper": hi}[edge]
            assert t_2 not in prob.bounds.t_2  # a moving edge of the window


def test_batch_rows_with_no_fft_sample_in_the_window():
    """A t_2 box between two FFT samples: every point of the batch is
    polished from the better of the window's edges, as alone."""
    _, order, p_a, p_s, t_1 = CHECK6
    prob = OptimizationProblem(engine=Engine.QUANTUM, order=order, p_a=p_a)
    _, peak = evaluate_objective(prob, p_s, t_1)
    h = _fft_step(prob)
    j = math.floor(peak / h)
    box = replace(prob.bounds, t_2=((j + 1.0 / 3.0) * h, (j + 2.0 / 3.0) * h))
    prob = replace(prob, bounds=box)
    points = [(p_s, t_1), (p_s + 0.01, t_1), (-2.0, 4.9), (-1.0, 5.1)]
    for _, t_2, _ in assert_rows_equal_batches_of_one(prob, points):
        assert box.t_2[0] <= t_2 <= box.t_2[1]


def test_a_tail_overflow_in_a_batch_leaves_the_other_points_alone(
        monkeypatch):
    """On a basis too small for its strongest point, that point is read
    again on the grown basis, and the other points of its batch keep the
    numbers they have alone."""
    box = BoundsBox((-20.0, -0.04), (0.0, TWO_PI), (0.0, TWO_PI))
    prob = OptimizationProblem(engine=Engine.QUANTUM,
                               order=PulseOrder.LASER_FIRST, p_a=2.0,
                               bounds=box)
    points = [(-0.1, 1.0), (-20.0, 1.0), (-0.5, 2.0)]
    default = [evaluate_objective(prob, *p, gradient=True) for p in points]
    tangents, bases = quantum.two_kick_tangents, []

    def spy(p_s, p_a, t_1, order, l_max):
        cols, filled = tangents(p_s, p_a, t_1, order, l_max)
        bases.append((l_max, filled.tolist()))
        return cols, filled

    monkeypatch.setattr(defaults, "quantum_l_max", lambda strength: 24)
    monkeypatch.setattr(quantum, "two_kick_tangents", spy)
    batch = assert_rows_equal_batches_of_one(prob, points)
    # the strong point alone grows through 49 to 99 = 2 (2 24 + 1) + 1
    assert bases[:3] == [(24, [False, True, False]), (49, [True]),
                         (99, [False])]
    for (value, t_2, grad), ref in zip(batch, default):
        assert value == pytest.approx(ref[0], abs=1e-10)
        assert t_2 == pytest.approx(ref[1], abs=defaults.TIME_REFINE_TOL)
        assert grad == pytest.approx(ref[2], abs=1e-7)


# (engine, order, branch, p_a): a laser-first or HCP-first box holds the
# simultaneous pair on its edge t_1 = 0, in the same t_2 window
DELAYED = [(engine, order, branch, p_a) for engine in Engine
           for order in (PulseOrder.LASER_FIRST, PulseOrder.HCP_FIRST)
           for branch in Branch for p_a in (3.0, 10.0)]


@pytest.mark.parametrize(
    "engine, order, branch, p_a", DELAYED,
    ids=[f"{e.value}-{o.value}-{b.value}-{p:g}" for e, o, b, p in DELAYED])
def test_an_optimum_with_a_delay_is_not_below_the_simultaneous_one(
        engine, order, branch, p_a):
    delayed = optimize(OptimizationProblem(engine, order, p_a, branch))
    simultaneous = optimize(OptimizationProblem(
        engine, PulseOrder.SIMULTANEOUS, p_a, branch))
    assert abs(delayed.objective) >= abs(simultaneous.objective) - 1e-9


# every default problem of each engine, as given and as solved
DEFAULT_PROBLEMS = [
    OptimizationProblem(engine, order, p_a, branch)
    for engine in Engine for order in PulseOrder for branch in Branch
    for p_a in (0.5, 1.0, 3.0, 5.0, 10.0)
    + ((100.0,) if engine is Engine.CLASSICAL else ())]


@pytest.mark.parametrize(
    "prob", DEFAULT_PROBLEMS,
    ids=[f"{p.engine.value}-{p.order.value}-{p.branch.value}-{p.p_a:g}"
         for p in DEFAULT_PROBLEMS])
def test_starts_are_distinct(prob, monkeypatch):
    """A solve climbs distinct starts: a start lattice may repeat a point
    (a classical grid whose delays the box clamps together), and the
    solve climbs it once."""
    ascents, ascent = [], optimize_module._ascent

    def counted(*args):
        ascents.append(tuple(args[0].tolist()))
        return ascent(*args)

    monkeypatch.setattr(optimize_module, "_ascent", counted)
    for p in (prob, optimize_module._unit_problem(prob)):
        ascents.clear()
        optimize_module._solve(p, 0, None)
        assert len(set(ascents)) == len(ascents), (p, ascents)


def quantum_problem(order=PulseOrder.LASER_FIRST, p_a=10.0,
                    branch=Branch.PROMPT, **kw):
    return OptimizationProblem(engine=Engine.QUANTUM, order=order, p_a=p_a,
                               branch=branch, **kw)


# quantum problems whose t_1 box is one period, and custom boxes: p_s
# boxes that span 0 and one that does not reach the default magnitudes,
# and t_1 boxes short of a period
SCANNED = [quantum_problem(order, p_a, branch)
           for order in PulseOrder for branch in Branch
           for p_a in (0.5, 3.0, 10.0)] + [
    quantum_problem(PulseOrder.HCP_FIRST, 5.0,
                    bounds=BoundsBox((-1.0, 4.0), (0.0, TWO_PI), (0.0, TWO_PI))),
    quantum_problem(bounds=BoundsBox((-8.0, 1.0), (0.5, 3.0), (0.0, TWO_PI))),
    quantum_problem(bounds=BoundsBox((-3.0, -2.5), (4.0, 5.0), (0.0, 1.0))),
    quantum_problem(branch=Branch.REVIVAL,
                    bounds=BoundsBox((-4.0, -1.0), (0.0, 1.0), (0.0, TWO_PI))),
]


@pytest.mark.parametrize("prob", SCANNED, ids=[
    f"{p.order.value}-{p.branch.value}-{p.p_a:g}-ps{p.bounds.p_s[0]:g}"
    f"to{p.bounds.p_s[1]:g}-t1to{p.bounds.t_1[1]:.3g}" for p in SCANNED])
def test_scan_starts_lie_in_the_box_one_per_delay(prob, monkeypatch):
    """The landscape scan's starts are exactly its min(4, #peaks) best
    peaks, best first: each lies in the box, and on a t_1 box of one
    period no two are one delay mod 2 pi, which is one state."""
    (lo, hi), (t1_lo, t1_hi) = prob.bounds.p_s, prob.bounds.t_1
    starts, expected = scan_starts_and_peaks(monkeypatch, prob)
    assert starts == expected
    assert 1 <= len(starts) <= optimize_module._SCAN_PEAKS
    assert all(lo <= ps <= hi and t1_lo <= t1 <= t1_hi
               for ps, t1 in starts), (prob.bounds, starts)
    if t1_hi - t1_lo == TWO_PI:
        delays = {(ps, t1 % TWO_PI) for ps, t1 in starts}
        assert len(delays) == len(starts), starts


def brute_force_peaks(scores, periodic=False) -> list[int]:
    """The flat indices of the points of the 2-D ``scores`` that none of
    their 8 neighbours beats, each checked against every neighbour in
    turn (rows walled, columns walled or wrapped), best first, ties to
    the earlier."""
    rows, cols = len(scores), len(scores[0])
    peaks = []
    for i in range(rows):
        for j in range(cols):
            around = [(i + di, (j + dj) % cols if periodic else j + dj)
                      for di in (-1, 0, 1) for dj in (-1, 0, 1)
                      if (di, dj) != (0, 0)]
            if all(scores[i][j] >= scores[a][b] for a, b in around
                   if 0 <= a < rows and 0 <= b < cols):
                peaks.append(i * cols + j)
    return sorted(peaks, key=lambda k: -scores[k // cols][k % cols])


class _StartsScored(Exception):
    """Raised by a spy on the memo's first batch to end a solve there."""


def scan_starts_and_peaks(monkeypatch, prob):
    """The starts a solve of the quantum problem ``prob`` scores as its
    first batch and the points its landscape scan should give: the
    min(4, #peaks) best peaks of the scan's scores
    (:func:`brute_force_peaks`), best first, read off the rows' p_s and
    the columns' delays the scan used."""
    rows, scored, seen = [], [], {}
    scan_row, phases = optimize_module._scan_row, quantum.flight_phases

    def row(prob, p_s, *args):
        rows.append(p_s)
        out = scan_row(prob, p_s, *args)
        scored.append(out.tolist())
        return out

    def flights(l_max, t):
        seen.setdefault("t1", t.tolist())
        return phases(l_max, t)

    def peaks(scores, periodic=False):
        seen.update(scores=scores.tolist(), periodic=periodic)
        return lattice_peaks(scores, periodic)

    def first_batch(evaluate, points):
        seen["starts"] = list(points)
        raise _StartsScored

    lattice_peaks = optimize_module._lattice_peaks
    with monkeypatch.context() as patch:
        patch.setattr(optimize_module, "_scan_row", row)
        patch.setattr(quantum, "flight_phases", flights)
        patch.setattr(optimize_module, "_lattice_peaks", peaks)
        patch.setattr(optimize_module._Objective, "score", first_batch)
        with pytest.raises(_StartsScored):
            optimize_module._solve(prob, 0, None)
    t1 = seen["t1"]
    assert seen["scores"] == scored
    best = brute_force_peaks(seen["scores"], seen["periodic"])
    return seen["starts"], [(rows[k // len(t1)], t1[k % len(t1)])
                            for k in best[:optimize_module._SCAN_PEAKS]]


# (scores, periodic) of the peak rule's cases: 1-D walled, 2-D walled,
# 2-D periodic in the columns, ties and a plateau
_rng = np.random.default_rng(7)
PEAK_CASES = [
    ([[0.1], [0.5], [0.3], [0.7], [0.2], [0.9], [0.4], [0.6], [0.0], [0.8],
      [0.3]], False),
    ([[0.3, 0.1, 0.4, 0.2, 0.8, 0.0, 0.5]], False),
    (_rng.random((6, 5)).tolist(), False),
    (_rng.random((5, 7)).tolist(), True),
    # the column-0 point 0.8 is beaten only across the wrap
    ([[0.8, 0.1, 0.2, 0.9], [0.0, 0.1, 0.3, 0.1]], True),
    ([[1.0, 1.0], [0.0, 0.5]], False),
    (_rng.integers(0, 3, (4, 6)).astype(float).tolist(), True),
    ([[2.0] * 3] * 3, False),
    ([[2.0] * 4] * 3, True),
]


@pytest.mark.parametrize("scores, periodic", PEAK_CASES, ids=[
    "1d-column", "1d-row", "2d-walled", "2d-periodic", "2d-wrap-beaten",
    "ties", "ties-periodic", "plateau", "plateau-periodic"])
def test_lattice_peaks_are_the_best_points_no_neighbour_beats(scores,
                                                              periodic):
    """The peak rule of every start lattice against a brute-force check
    of each point's 8 neighbours: the ``_SCAN_PEAKS`` best peaks, best
    first, ties to the earlier."""
    found = optimize_module._lattice_peaks(np.array(scores), periodic)
    assert found == brute_force_peaks(scores, periodic)[
        :optimize_module._SCAN_PEAKS]
    if scores == PEAK_CASES[4][0]:
        assert 0 not in found
        assert 0 in optimize_module._lattice_peaks(np.array(scores), False)


def test_the_scan_reads_a_filled_row_on_a_grown_basis(monkeypatch):
    """A scan row whose tail a kick fills is read again on the grown
    basis: its scores are those of a basis large enough from the start."""
    prob = quantum_problem(p_a=2.0, bounds=BoundsBox(
        (-20.0, -0.04), (0.0, TWO_PI), (0.0, TWO_PI)))
    t1 = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    flights = partial(quantum.flight_phases, t=t1)
    windows = {(0.0, TWO_PI): list(range(16))}
    wide = optimize_module._scan_row(prob, -20.0, flights, windows, 120)
    delays, bases = quantum.two_kick_delays, []

    def spy(p_s, p_a, flight, *args):
        bases.append(flight.shape[0] - 1)
        return delays(p_s, p_a, flight, *args)

    monkeypatch.setattr(quantum, "two_kick_delays", spy)
    grown = optimize_module._scan_row(prob, -20.0, flights, windows, 24)
    assert bases == [24, 49, 99]
    assert grown == pytest.approx(wide, abs=1e-9)


# (order, branch, p_a) of the quantum optima held against 32 extra starts
ROBUST = [(PulseOrder.LASER_FIRST, Branch.PROMPT, p_a) for p_a in (3.0, 5.0, 10.0)] \
    + [(PulseOrder.HCP_FIRST, Branch.PROMPT, p_a) for p_a in (5.0, 10.0)] \
    + [(PulseOrder.LASER_FIRST, Branch.REVIVAL, p_a) for p_a in (5.0, 10.0)] \
    + [(PulseOrder.SIMULTANEOUS, Branch.PROMPT, 10.0)]


@pytest.mark.parametrize("order, branch, p_a", ROBUST, ids=[
    f"{o.value}-{b.value}-{p:g}" for o, b, p in ROBUST])
def test_extra_starts_find_nothing_above_the_scan(order, branch, p_a):
    """32 seeded random starts beside the scan's move the quantum optimum
    by at most 1e-6."""
    prob = quantum_problem(order, p_a, branch)
    default = optimize(prob).objective
    extra = optimize(prob, extra_starts=32, seed=1).objective
    assert abs(abs(extra) - abs(default)) <= 1e-6


# (order, branch, p_a) of the quantum problems whose scans have fewer
# peaks than ``_SCAN_PEAKS``, so that their solves climb fewer starts
FEW_PEAKS = [(PulseOrder.SIMULTANEOUS, branch, p_a)
             for branch in Branch for p_a in (3.0, 10.0)] + [
    (order, Branch.REVIVAL, 1.0)
    for order in (PulseOrder.LASER_FIRST, PulseOrder.HCP_FIRST)]


@pytest.mark.parametrize("order, branch, p_a", FEW_PEAKS, ids=[
    f"{o.value}-{b.value}-{p:g}" for o, b, p in FEW_PEAKS])
def test_extra_starts_find_nothing_above_the_scan_peaks(order, branch, p_a):
    """A quantum solve climbs only its scan's peaks, with no top-up: 32
    seeded random starts besides them, under two seeds, find nothing
    above the default optimum by more than 1e-9."""
    prob = quantum_problem(order, p_a, branch)
    default = abs(optimize(prob).objective)
    for seed in (1, 2):
        assert abs(optimize(prob, extra_starts=32, seed=seed).objective) \
            <= default + 1e-9


# (branch, p_s, p_a, l_max) of scan rows: the default prompt and revival
# boxes at p_a = 10 (one t_2 window, and one per delay), and a row whose
# tail a kick fills, read again on grown bases
BLOCKED = [(Branch.PROMPT, -7.0, 10.0, 40), (Branch.REVIVAL, 7.0, 10.0, 40),
           (Branch.PROMPT, -20.0, 2.0, 24)]


@pytest.mark.parametrize("branch, p_s, p_a, l_max", BLOCKED,
                         ids=["prompt", "revival", "grown"])
def test_a_scan_row_read_in_blocks_equals_one_block(monkeypatch, branch, p_s,
                                                    p_a, l_max):
    """A scan row read 5 delay columns at a time, each block one kick
    product and one FFT, scores every column bit for bit as the row read
    in one block: the kick product rounds each column as a batch of one
    does, and each row of samples is its own FFT."""
    prob = quantum_problem(p_a=p_a, branch=branch)
    t1 = np.linspace(0.0, TWO_PI, 63, endpoint=False)
    windows = {}
    for j, t in enumerate(t1.tolist()):
        lo, hi = optimize_module._t2_window(prob, t)
        windows.setdefault((min(lo, hi), hi), []).append(j)
    assert (len(windows) > 1) == (branch is Branch.REVIVAL)
    flights = partial(quantum.flight_phases, t=t1)
    whole = optimize_module._scan_row(prob, p_s, flights, windows, l_max)
    samples, widths = quantum.orientation_samples, []

    def spy(rows):
        widths.append(len(rows))
        return samples(rows)

    monkeypatch.setattr(quantum, "orientation_samples", spy)
    monkeypatch.setattr(optimize_module, "_SCAN_BLOCK", 5)
    blocked = optimize_module._scan_row(prob, p_s, flights, windows, l_max)
    assert widths == [5] * 11 + [4] * 2
    assert blocked.tobytes() == whole.tobytes()
