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
                                _start_points, default_bounds,
                                evaluate_objective, optimize, result_csv_row,
                                sweep)

TWO_PI = 2.0 * math.pi
# the package re-exports the function `optimize` under the module's name
optimize_module = importlib.import_module("rotorkick.optimize")


def classical_problem(order=PulseOrder.LASER_FIRST, p_a=10.0,
                      branch=Branch.PROMPT, **kw):
    return OptimizationProblem(engine=Engine.CLASSICAL, order=order,
                               p_a=p_a, branch=branch, **kw)


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
                     for ps, t1 in _start_points(prob))
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
    """The quantum finder's FFT sample spacing for a problem: its basis
    and its scan step are those of the box's largest |p_s| plus p_a."""
    strength = max(map(abs, prob.bounds.p_s)) + abs(prob.p_a)
    l_max = defaults.quantum_l_max(strength)
    step = defaults.scan_step(strength)
    n = 1
    while n < 4 * (l_max + 1) or TWO_PI / n > step:
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
            calls.append((name, size(*args), kwargs, args[0]))
            return real(*args, **kwargs)
        monkeypatch.setattr(quantum, name, counted)

    spy("observable_scan", lambda psi, k, dts: np.size(dts))
    spy("orientation_samples", lambda rows, n: (len(rows), n))
    points = [(p_s, t_1), (p_s - 0.3, t_1 + 0.2), (-2.5, 1.0)]
    optimize_module._quantum_points(prob, points)
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
    the positive peak instead, at least as high as a 2^16-point FFT sees
    it and resolved as a dense scan around it resolves it."""
    _, order, p_a, p_s, t_1 = CHECK6
    prob = OptimizationProblem(engine=Engine.QUANTUM, order=order, p_a=p_a,
                               objective_sign=ObjectiveSign.MAXIMIZE_PLUS)
    value, t2 = evaluate_objective(prob, p_s, t_1)
    fine = quantum.orientation_samples(quantum.two_kick_state(p_s, p_a, t_1),
                                       1 << 16)
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
    optimize_module._quantum_points(quantum3, draws(quantum3))  # one batch
    assert len(starts) == 30
    assert all(found >= first for first, found in starts)
    assert sum(found > first for first, found in starts) >= 20


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

    def spy(prob, p_s, t_1, gradient=False):
        calls.append((p_s, t_1))
        raise AssertionError("evaluated")

    monkeypatch.setattr(optimize_module, "evaluate_objective", spy)
    assert optimize(prob) == first
    assert calls == []


def test_a_sweep_of_one_unit_problem_makes_one_solve(monkeypatch):
    """The README HCP-first sweep: every p_a shares the unit problem, so
    the starts are built once, and each row is its ``optimize`` row."""
    start_points = optimize_module._start_points
    calls = []

    def spy(prob):
        calls.append(prob)
        return start_points(prob)

    monkeypatch.setattr(optimize_module, "_start_points", spy)
    pas = [10.0, 20.0, 50.0, 100.0]
    rows = sweep(classical_problem(order=PulseOrder.HCP_FIRST), pas)
    assert len(calls) == 1
    optimize_module._solve.cache_clear()
    for p_a, row in zip(pas, rows):
        alone = optimize(classical_problem(order=PulseOrder.HCP_FIRST, p_a=p_a))
        assert result_csv_row(row.result) == result_csv_row(alone)


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
    def never(prob, p_s, t_1, gradient=False):
        raise AssertionError("evaluated")

    monkeypatch.setattr(optimize_module, "evaluate_objective", never)
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
    def broken(prob, p_s, t_1, gradient=False):
        return 1.0 / 0.0

    monkeypatch.setattr(optimize_module, "evaluate_objective", broken)
    template = classical_problem(order=PulseOrder.SIMULTANEOUS, p_a=5.0)
    with pytest.raises(ZeroDivisionError):
        sweep(template, [5.0, 10.0])


# the classical laser-first revival optimum at p_a = 20, to full precision
REVIVAL20 = OptimizationResult(
    p_a=20.0, p_s=0.4, t_1=-2.048640682755179,
    t_2=-0.08047795323880094, objective=-0.9464773094314269,
    branch=Branch.REVIVAL, order=PulseOrder.LASER_FIRST,
    engine=Engine.CLASSICAL, evaluations=407, on_boundary=True)


def test_quantum_sweep_strength_guard():
    template = OptimizationProblem(engine=Engine.QUANTUM,
                                   order=PulseOrder.LASER_FIRST, p_a=5.0)
    with pytest.raises(ValueError, match="quantum sweeps"):
        sweep(template, [40.0])


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
BATCHES = [(order, branch, SPECIAL.get((order, branch), []))
           for order in PulseOrder for branch in Branch]


def assert_rows_equal_batches_of_one(prob, points):
    batch = optimize_module._quantum_points(prob, points)
    assert len(batch) == len(points)
    for point, (value, t_2, grad) in zip(points, batch):
        (alone,) = optimize_module._quantum_points(prob, [point])
        assert (value, t_2) == alone[:2]
        assert np.array_equal(grad, alone[2])
        public = evaluate_objective(prob, *point, gradient=True)
        assert (value, t_2) == public[:2]
        assert np.array_equal(grad, public[2])
    return batch


@pytest.mark.parametrize("order, branch, special", BATCHES,
                         ids=[f"{o.value}-{b.value}" for o, b, _ in BATCHES])
def test_batch_rows_equal_batches_of_one(order, branch, special):
    """A point's value, t_2 and gradient do not depend on the batch it is
    scored in, bit for bit: each row of a batch equals the batch of that
    point alone, and ``evaluate_objective``."""
    prob = OptimizationProblem(engine=Engine.QUANTUM, order=order, p_a=5.0,
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
    polished from the window's midpoint, as alone."""
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
