import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from oracles import mc_classical_observable
from rotorkick import classical, defaults
from rotorkick.classical import (TwoKickScan, _after_kicks,
                                 _free_flight_average, classical_observable,
                                 make_ensemble, propagate_classical,
                                 roots_legendre, two_kick_observable,
                                 two_kick_theta)
from rotorkick.core import (Branch, Engine, Kick, KickKind, PulseOrder,
                            pulse_pair, two_pulse_sequence, validate_sequence)
from rotorkick.errors import (ConvergenceFailure, InvalidNodeCount,
                              NonFiniteValue)
from rotorkick.optimize import OptimizationProblem, optimize
from rotorkick.quantum import run_sequence


def closed_form_reference(theta0, ps, pa, t1, t2, order):
    """Scalar re-derivation of the two-kick trajectory, written
    independently of the vectorized engine code."""
    th0 = float(theta0)
    if order is PulseOrder.LASER_FIRST:
        th1 = th0 - ps * t1 * math.sin(2.0 * th0)
        om = -ps * math.sin(2.0 * th0) - pa * math.sin(th1)
        return th1 + t2 * om
    if order is PulseOrder.HCP_FIRST:
        th1 = th0 - pa * t1 * math.sin(th0)
        om = -pa * math.sin(th0) - ps * math.sin(2.0 * th1)
        return th1 + t2 * om
    om = -ps * math.sin(2.0 * th0) - pa * math.sin(th0)
    return th0 + t2 * om


def test_make_ensemble_basics():
    ens = make_ensemble(64)
    assert ens.weights.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.all((ens.theta0 >= 0) & (ens.theta0 <= math.pi))
    with pytest.raises(InvalidNodeCount):
        make_ensemble(1)


def test_two_node_rule():
    # 2-point Gauss-Legendre nodes sit at u = +-1/sqrt(3)
    ens = make_ensemble(2)
    u = np.sort(np.cos(ens.theta0))
    assert u == pytest.approx([-1.0 / math.sqrt(3), 1.0 / math.sqrt(3)])
    assert ens.weights == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("order", list(PulseOrder))
def test_two_kick_theta_matches_scalar_reference(order):
    rng = np.random.default_rng(31)
    for _ in range(200):
        th0 = rng.uniform(0.0, math.pi)
        ps, pa = rng.uniform(-30, 30), rng.uniform(-30, 30)
        t1, t2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        got = two_kick_theta(th0, ps, pa, t1, t2, order)
        ref = closed_form_reference(th0, ps, pa, t1, t2, order)
        assert float(got) == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_two_kick_theta_broadcasts():
    th0 = np.linspace(0.1, 3.0, 7)
    t2 = np.linspace(0.0, 1.0, 5)
    out = two_kick_theta(th0[None, :], -3.0, 8.0, 0.2, t2[:, None],
                         PulseOrder.LASER_FIRST)
    assert out.shape == (5, 7)
    assert out[2, 3] == pytest.approx(float(
        two_kick_theta(th0[3], -3.0, 8.0, 0.2, t2[2], PulseOrder.LASER_FIRST)))


def test_causal_propagation_matches_closed_form():
    ps, pa, t1 = -4.0, 9.0, 0.3
    ens = make_ensemble(128)
    for order in (PulseOrder.LASER_FIRST, PulseOrder.HCP_FIRST,
                  PulseOrder.SIMULTANEOUS):
        seq = two_pulse_sequence(ps, pa, t1, order)
        t_end = (0.0 if order is PulseOrder.SIMULTANEOUS else t1) + 0.45
        theta = propagate_classical(seq, ens, [t_end])
        assert theta.shape == (1, len(ens))
        t2 = 0.45
        ref = two_kick_theta(ens.theta0, ps, pa,
                             0.0 if order is PulseOrder.SIMULTANEOUS else t1,
                             t2, order)
        assert np.max(np.abs(theta[0] - ref)) < 1e-12


def test_propagation_is_at_rest_before_first_kick():
    seq = two_pulse_sequence(-4.0, 9.0, 0.3, PulseOrder.LASER_FIRST)
    ens = make_ensemble(32)
    theta = propagate_classical(seq, ens, [-2.0, -1.0, -0.5])
    for row in theta:
        assert np.array_equal(row, ens.theta0)
    # omega, read as theta(t + 1) - theta(t), is zero
    assert np.all(theta[1] - theta[0] == 0.0)


def test_between_kicks_only_first_kick_acts():
    ps, pa, t1 = -4.0, 9.0, 0.6
    seq = two_pulse_sequence(ps, pa, t1, PulseOrder.LASER_FIRST)
    ens = make_ensemble(32)
    t_mid = 0.25
    theta = propagate_classical(seq, ens, [t_mid])
    ref = ens.theta0 - ps * t_mid * np.sin(2.0 * ens.theta0)
    assert np.max(np.abs(theta[0] - ref)) < 1e-13


def test_simultaneous_kicks_share_the_incoming_angle():
    ens = make_ensemble(16)
    seq = validate_sequence([Kick(KickKind.SYMMETRIC, -3.0, 0.0),
                             Kick(KickKind.ASYMMETRIC, 7.0, 0.0)])
    theta = propagate_classical(seq, ens, [0.0, 1.0])
    assert np.array_equal(theta[0], ens.theta0)  # the kick moves no angle
    om = -(-3.0) * np.sin(2 * ens.theta0) - 7.0 * np.sin(ens.theta0)
    assert np.max(np.abs((theta[1] - theta[0]) - om)) < 1e-13


def test_observable_against_monte_carlo():
    rng = np.random.default_rng(99)
    seq = two_pulse_sequence(-10.0, 10.0, 0.25, PulseOrder.LASER_FIRST)
    t = 0.4
    exact = classical_observable(seq, 1, [t]).values[0]
    mean, stderr = mc_classical_observable(seq, 1, t, 1_000_000, rng)
    assert abs(mean - exact) < 3.0 * stderr

    single = validate_sequence([Kick(KickKind.SYMMETRIC, -10.0, 0.0)])
    exact2 = classical_observable(single, 2, [0.08]).values[0]
    mean2, stderr2 = mc_classical_observable(single, 2, 0.08, 1_000_000, rng)
    assert abs(mean2 - exact2) < 3.0 * stderr2


def test_quadrature_refinement_converges_and_caps(monkeypatch):
    seq = two_pulse_sequence(-10.0, 40.0, 0.1, PulseOrder.LASER_FIRST)
    ts = np.linspace(0.05, 1.0, 40)
    a = classical_observable(seq, 1, ts)
    monkeypatch.setattr(defaults, "ensemble_nodes", lambda kicks: 8192)
    b = classical_observable(seq, 1, ts)
    assert np.max(np.abs(a.values - b.values)) < 5e-6

    monkeypatch.setattr(defaults, "ensemble_nodes", lambda kicks: 8)
    monkeypatch.setattr(defaults, "NODE_CAP", 64)
    with pytest.raises(ConvergenceFailure):
        classical_observable(seq, 1, ts)


def test_rule_beyond_the_cap_fails_before_any_pass(monkeypatch):
    built = []
    monkeypatch.setattr(classical, "make_ensemble", built.append)
    needed = str(2 * defaults.NODE_CAP)
    with pytest.raises(ConvergenceFailure, match=needed):
        two_kick_observable(-2.0, 10.0, 0.1, [1e6])
    seq = two_pulse_sequence(-2.0, 30.0, 0.0, PulseOrder.LASER_FIRST)
    with pytest.raises(ConvergenceFailure, match=needed):
        classical_observable(seq, 1, [0.0, 1e307])  # 8 P t overflows
    assert built == []


def test_jet_doubles_a_disagreeing_rule_pair_up_to_the_cap(monkeypatch):
    """A scan of t_2 = 0 converges on small rules; at t_2 = 6 those
    disagree, so the jet doubles the rule until a pair agrees and reads
    the value a scan there converges to. With the cap at the scan's own
    rule it raises instead, building no rule beyond it."""
    rules, build = [], classical.make_ensemble
    monkeypatch.setattr(classical, "make_ensemble",
                        lambda n: rules.append(n) or build(n))
    scan = TwoKickScan(-2.0, 10.0, 0.3, [0.0])
    converged = max(rules)
    f = scan.jet(6.0)[0]
    assert max(rules) > converged
    assert f == pytest.approx(two_kick_observable(-2.0, 10.0, 0.3, [6.0])[0],
                              abs=defaults.QUADRATURE_TOL)
    monkeypatch.setattr(defaults, "NODE_CAP", converged)
    rules.clear()
    with pytest.raises(ConvergenceFailure):
        TwoKickScan(-2.0, 10.0, 0.3, [0.0]).jet(6.0)
    assert max(rules) == converged


def test_gradient_doubles_a_disagreeing_rule_pair_up_to_the_cap(monkeypatch):
    """The gradient's rule-pair check, as the jet's: at t_2 = 6 the rules
    a scan of t_2 = 0 converged on disagree in the scale-free components,
    so the gradient doubles the rule until a pair agrees and reads the
    gradient a scan there converges to. With the cap at the scan's own
    rule it raises instead, building no rule beyond it."""
    rules, build = [], classical.make_ensemble
    monkeypatch.setattr(classical, "make_ensemble",
                        lambda n: rules.append(n) or build(n))
    scan = TwoKickScan(-2.0, 10.0, 0.3, [0.0])
    converged = max(rules)
    grad = scan.gradient(6.0)
    assert max(rules) > converged
    there = TwoKickScan(-2.0, 10.0, 0.3, [6.0])
    scale = np.array([10.0, 0.1])  # d/d(p_s/p_a, p_a t_1)
    assert grad * scale == pytest.approx(there.gradient(6.0) * scale,
                                         abs=defaults.QUADRATURE_TOL)
    monkeypatch.setattr(defaults, "NODE_CAP", converged)
    rules.clear()
    with pytest.raises(ConvergenceFailure):
        TwoKickScan(-2.0, 10.0, 0.3, [0.0]).gradient(6.0)
    assert max(rules) == converged


def test_ensemble_nodes_ladder():
    for p, span in [(0.0, 5.0), (10.0, 0.0), (1.0, 7.9), (12.0, 0.5)]:
        assert defaults.ensemble_nodes([(p, span)]) == 64
    assert defaults.ensemble_nodes([(1e6, 1e3)]) == defaults.NODE_CAP
    assert defaults.ensemble_nodes([(1.0, math.inf)]) == defaults.NODE_CAP
    # kicks with no flight left, or no strength, add nothing
    assert defaults.ensemble_nodes(
        [(1e6, -1.0), (0.0, math.inf), (1.0, 7.9)]) == 64
    assert defaults.ensemble_nodes([]) == 64
    rng = np.random.default_rng(5)
    for p, span in zip(rng.uniform(0, 200, 200), rng.uniform(0, 7, 200)):
        n = defaults.ensemble_nodes([(p, span)])
        assert defaults.ensemble_nodes([(-p / 4, span), (p / 2, 1.5 * span)]) == n
        assert n >= 64 and n & (n - 1) == 0
        target = 8.0 * p * span
        if target > 64.0:  # the nearest power of two in ratio
            assert n / 2 ** 0.5 <= target <= n * 2 ** 0.5


def test_empty_time_grids():
    seq = two_pulse_sequence(-2.0, 10.0, 0.3, PulseOrder.LASER_FIRST)
    assert classical_observable(seq, 1, []).values.shape == (0,)
    assert two_kick_observable(-2.0, 10.0, 0.3, []).shape == (0,)
    assert run_sequence(seq, []).values.shape == (0,)


def test_unsorted_time_grids_are_rejected():
    seq = two_pulse_sequence(-2.0, 10.0, 0.3, PulseOrder.LASER_FIRST)
    with pytest.raises(ValueError, match="ascending"):
        propagate_classical(seq, make_ensemble(16), [0.5, 0.1])
    with pytest.raises(ValueError, match="ascending"):
        classical_observable(seq, 1, [0.5, 0.1])


def test_bad_grids_and_k_are_refused_before_any_quadrature(monkeypatch):
    """Repeated times (the README pair on a doubled grid) and a k other
    than 1 or 2 fail before a single rule is built."""
    seq = two_pulse_sequence(-2.0, 10.0, 0.3, PulseOrder.LASER_FIRST)
    built = []
    monkeypatch.setattr(classical, "make_ensemble", built.append)
    with pytest.raises(ValueError, match="strictly ascending"):
        classical_observable(seq, 1, np.linspace(0.0, 60.0, 3).repeat(2))
    with pytest.raises(ValueError, match="k must be 1"):
        classical_observable(seq, 3, [0.1, 0.2])
    with pytest.raises(ValueError, match="k must be 1"):
        two_kick_observable(-2.0, 10.0, 0.3, [0.1], k=3)
    assert built == []


def test_cached_rule_is_read_only():
    ens = make_ensemble(64)
    with pytest.raises(ValueError):
        ens.theta0[:] = 0.0
    with pytest.raises(ValueError):
        ens.weights[:] = 0.0
    u, w = roots_legendre(64)
    again = make_ensemble(64)
    assert np.array_equal(again.theta0, np.arccos(u))
    assert np.array_equal(again.weights, w / 2.0)


def mpmath_legendre_pair(n, x, mp):
    """P_n(x) and P_{n-1}(x) in mpmath: its hypergeometric P_n where x is
    next to 1 and that series is short, else the three-term recurrence,
    in the working precision of ``mp``."""
    if x > 0.99:
        return tuple(mp.legendre(m, x) for m in (n, n - 1))
    p_prev, p = mp.mpf(1), x
    for l in range(1, n):
        p_prev, p = p, ((2 * l + 1) * x * p - l * p_prev) / (l + 1)
    return p, p_prev


def mpmath_rule_point(n, u):
    """The Gauss-Legendre node of P_n next to u and its weight, to 40
    digits: one Newton step from u, the weight 2 / ((1 - x^2) P_n'(x)^2)
    with P_n' carried over the step to first order by Legendre's
    equation."""
    mp = mpmath.mp.clone()
    mp.dps = 40
    x = mp.mpf(u)
    p, q = mpmath_legendre_pair(n, x, mp)
    dp = n * (q - x * p) / (1 - x * x)
    root = x - p / dp
    dp += (root - x) * (2 * x * dp - n * (n + 1) * p) / (1 - x * x)
    return root, 2 / ((1 - root * root) * dp * dp)


@pytest.mark.parametrize("n", [*range(2, 151), 1024, 2048, 4096, 8192,
                               2**15])
def test_roots_legendre_matches_the_oracle_rule(n):
    """Against 40-digit mpmath at the nodes k = 1..8 from u = 1 (the
    seam between the recurrence and the interior expansion lies between
    k = 6 and 7), the node n/4 and the middle one; the mirror test below
    covers the other half. Every n up to 150 is checked, where the edge
    nodes reach far from u = 1. Measured: nodes within 2.1e-16 and
    weights within 2.1e-14 relative for every n here."""
    u, w = roots_legendre(n)
    assert u.shape == w.shape == (n,)
    assert np.all(np.diff(u) > 0.0)
    half = (n + 1) // 2
    for k in sorted({*range(1, min(8, half) + 1), max(1, n // 4), half}):
        root, weight = mpmath_rule_point(n, u[n - k])
        assert abs(float(root - u[n - k])) <= 2.3e-16, k
        assert abs(float(w[n - k] / weight - 1)) <= 1e-13, k


def test_roots_legendre_peak_memory_is_a_few_arrays():
    """A rule build holds few temporaries: an 8192-node build peaks at
    0.38 MiB (the rule itself is 0.125 MiB), where a Newton pass of
    out-of-place updates peaked at 0.66 MiB."""
    roots_legendre(64)  # warm any lazily allocated state
    tracemalloc.start()
    try:
        u, w = roots_legendre(8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.nbytes + w.nbytes == 2**17
    assert peak <= 0.45 * 2**20


@pytest.mark.parametrize("n", [2, 3, 4, 7, 64, 65, 255, 256, 1025])
def test_roots_legendre_is_mirror_symmetric_and_sums_to_two(n):
    u, w = roots_legendre(n)
    assert np.array_equal(u, -u[::-1])
    assert np.array_equal(w, w[::-1])
    if n % 2:
        assert u[n // 2] == 0.0 and not np.signbit(u[n // 2])
    assert abs(w.sum() - 2.0) <= 1e-14


def test_orientation_is_exactly_zero_before_the_first_asymmetric_kick():
    """Symmetric kicks keep the ensemble symmetric under theta -> pi -
    theta: orientation is exactly +0 until the first asymmetric kick, as
    in the quantum engine, and alignment is untouched."""
    t = np.linspace(-1.0, 4.0, 101)
    sym = validate_sequence([Kick(KickKind.SYMMETRIC, -3.0, 0.0),
                             Kick(KickKind.SYMMETRIC, 2.0, 1.0),
                             Kick(KickKind.ASYMMETRIC, 0.0, 1.5)])
    values = classical_observable(sym, 1, t).values
    assert np.array_equal(values, np.zeros_like(t))
    assert not np.signbit(values).any()
    assert classical_observable(sym, 2, t).values.min() > 0.0

    # the README pair: laser first, p_s = -2 at 0 and p_a = 10 at 0.3
    t = np.linspace(0.0, 6.28, 600)
    pair = two_pulse_sequence(-2.0, 10.0, 0.3, PulseOrder.LASER_FIRST)
    classical_values = classical_observable(pair, 1, t).values
    quantum_values = run_sequence(pair, t, k=1).values
    before = t < 0.3
    assert before.sum() == 29
    assert np.array_equal(classical_values[before], np.zeros(29))
    assert np.array_equal(quantum_values[before], np.zeros(29))
    assert np.all(np.abs(classical_values[~before][1:]) > 1e-6)


def test_two_kick_observable_vectorized_consistency():
    t2 = np.array([0.05, 0.21, 0.4])
    batch = two_kick_observable(-5.0, 10.0, 0.3, t2, PulseOrder.HCP_FIRST)
    singles = [two_kick_observable(-5.0, 10.0, 0.3, float(x),
                                   PulseOrder.HCP_FIRST)[0] for x in t2]
    assert batch == pytest.approx(singles, abs=2e-6)


@pytest.mark.parametrize("order", list(PulseOrder))
def test_free_flight_average_matches_direct_quadrature(order):
    """At one fixed rule, the matrix-product sampler agrees with the
    direct sum of cos^k over the (t_2 x nodes) angle array, on even grids
    of every size class and on an uneven array."""
    ens = make_ensemble(512)
    rng = np.random.default_rng(17)
    grids = [np.linspace(-0.7, 1.3, n) for n in (1, 2, 3, 33, 4001)]
    grids.append(np.array([0.05, 0.21, 0.4]))
    for t2 in grids:
        for k in (1, 2):
            p_s, p_a = rng.uniform(-20, 20, 2)
            t_1, sign = rng.uniform(-1.5, 1.5), rng.choice([-1.0, 1.0])
            theta = two_kick_theta(ens.theta0[None, :], p_s, p_a, t_1,
                                   sign * t2[:, None], order)
            direct = np.cos(theta) ** k @ ens.weights
            got = _free_flight_average(
                *_after_kicks(ens.theta0, *pulse_pair(p_s, p_a, order), t_1),
                ens.weights, sign * t2, k)
            assert got.shape == t2.shape
            assert np.max(np.abs(got - direct)) < 1e-12


def test_non_finite_input_raises_before_quadrature():
    bad = [(math.nan, 2.0, 0.1, [0.1]), (-2.0, 10.0, 0.1, [0.1, math.nan]),
           (-2.0, 10.0, math.inf, [0.1]), (-2.0, 10.0, 0.1, [math.inf]),
           (-2.0, -math.inf, 0.1, [0.1])]
    for p_s, p_a, t_1, t_2 in bad:
        with pytest.raises(NonFiniteValue):
            two_kick_observable(p_s, p_a, t_1, t_2)
    seq = two_pulse_sequence(-2.0, 10.0, 0.3, PulseOrder.LASER_FIRST)
    for t_eval in ([math.nan], [0.1, math.inf]):
        with pytest.raises(NonFiniteValue):
            classical_observable(seq, 1, t_eval)


def test_two_kick_observable_alignment_range():
    vals = two_kick_observable(-6.0, 0.0, 0.1, np.linspace(0, 1, 50),
                               PulseOrder.LASER_FIRST, k=2)
    assert np.all(vals >= -1e-9) and np.all(vals <= 1.0 + 1e-9)
    with pytest.raises(ValueError):
        two_kick_observable(-6.0, 0.0, 0.1, [0.5], k=3)


@pytest.mark.parametrize("order, p_a, p_s, t_1, t_2", [
    # optima of acceptance checks 3, 4 and 5 (revival branch)
    (PulseOrder.SIMULTANEOUS, 10.0, -4.26825, 0.0, 0.182790457185),
    (PulseOrder.HCP_FIRST, 10.0, -6.28409673214, 0.0578140868848,
     0.194705312240),
    (PulseOrder.LASER_FIRST, 20.0, 0.400000000043, -2.04863696418,
     -0.0804779193416),
], ids=["simultaneous", "hcp-first", "laser-first-revival"])
def test_pair_optima_converged_in_node_count(order, p_a, p_s, t_1, t_2,
                                            monkeypatch):
    """Around each classical optimum, the objective from the default node
    count agrees with the one from twice that count."""
    t2 = t_2 * np.linspace(0.5, 1.5, 21)
    base = two_kick_observable(p_s, p_a, t_1, t2, order)
    default = defaults.ensemble_nodes
    monkeypatch.setattr(defaults, "ensemble_nodes",
                        lambda kicks: 2 * default(kicks))
    doubled = two_kick_observable(p_s, p_a, t_1, t2, order)
    assert np.max(np.abs(doubled - base)) < defaults.QUADRATURE_TOL
    assert np.max(np.abs(base)) > 0.88


def direct_average(p_s, p_a, t_1, t_2, order, n_nodes):
    """<cos theta> of the closed-form pair on one rule of ``n_nodes``
    nodes, a block of 64 times at a time: no refinement, no phase sum."""
    ens = make_ensemble(n_nodes)
    out = np.empty(t_2.size)
    for j in range(0, t_2.size, 64):
        theta = two_kick_theta(ens.theta0[:, None], p_s, p_a, t_1,
                               t_2[None, j:j + 64], order)
        out[j:j + 64] = ens.weights @ np.cos(theta)
    return out


@pytest.mark.parametrize("p_a", [3.0, 10.0, 100.0])
@pytest.mark.parametrize("order", [PulseOrder.SIMULTANEOUS,
                                   PulseOrder.HCP_FIRST,
                                   PulseOrder.LASER_FIRST],
                         ids=lambda o: o.value)
def test_kick_phase_rule_converges_on_the_whole_window(order, p_a):
    """At the classical optimum of each branch and at the corners of its
    box (both |p_s| bounds, |r| = 1 among them, times t_1 at both edges
    of the delay window, negative on the revival branch), the scan's
    values over the whole t_2 window of the optimizer's first scan agree
    with a direct rule four times finer than the finest it reached."""
    for branch in Branch:
        prob = OptimizationProblem(Engine.CLASSICAL, order, p_a, branch)
        best = optimize(prob)
        box = prob.bounds
        points = {(best.p_s, best.t_1)} | {(p_s, t_1) for p_s in box.p_s
                                          for t_1 in box.t_1}
        lo, hi = box.t_2
        for p_s, t_1 in sorted(points):
            step = defaults.scan_step(abs(p_s) + p_a)
            ts = np.linspace(lo, hi, max(8, math.ceil((hi - lo) / step) + 1))
            scan = TwoKickScan(p_s, p_a, t_1, ts, order)
            finer = 4 * max(scan._kicked)
            direct = direct_average(p_s, p_a, t_1, ts, order, finer)
            assert np.max(np.abs(scan.values - direct)) \
                < defaults.QUADRATURE_TOL, (branch, p_s, t_1, finer)


class _Flights(Exception):
    """The (strength, flight time) pairs a rule was asked for."""


def test_kick_phase_never_starts_above_the_strength_span_rung(monkeypatch):
    """The kick phase is at most P times the whole time span, so no rule
    starts above the rung of the strength-span rule 8 P span, for the
    pair (signed times) and for causal sequences."""
    rung = defaults.ensemble_nodes

    def flights_of(build, *args):
        with pytest.raises(_Flights) as info:
            build(*args)
        return info.value.args[0]

    def refuse(kicks):
        raise _Flights(kicks)

    monkeypatch.setattr(defaults, "ensemble_nodes", refuse)
    rng = np.random.default_rng(20)
    orders = list(PulseOrder)
    for _ in range(300):
        p_s, p_a = rng.uniform(-100.0, 100.0, 2)
        t_1 = rng.uniform(-3.0, 3.0)
        t_2 = rng.uniform(-3.0, 3.0, rng.integers(0, 6))
        order = orders[rng.integers(len(orders))]
        flights = flights_of(TwoKickScan, p_s, p_a, t_1, t_2, order)
        span = abs(t_1) + (np.max(np.abs(t_2)) if t_2.size else 0.0)
        assert rung(flights) <= rung([(abs(p_s) + abs(p_a), span)])

        kinds = rng.choice(list(KickKind), rng.integers(1, 6))
        seq = validate_sequence([
            Kick(kind, rng.uniform(-40.0, 40.0), rng.uniform(0.0, 3.0))
            for kind in kinds])
        t_eval = np.sort(rng.uniform(-1.0, 5.0, rng.integers(0, 6)))
        flights = flights_of(classical_observable, seq, 1, t_eval)
        times = [*t_eval, *(kk.time for kk in seq.kicks)]
        span = max(times) - min(times)
        assert rung(flights) <= rung([(seq.total_strength(), span)])


_S, _A = KickKind.SYMMETRIC, KickKind.ASYMMETRIC
# causal sequences that the kick phase starts below the strength-span
# rung: a strong kick late, a weak one early. (kicks, times, observables)
LATE_STRONG_KICKS = {
    # the benchmark's seeded sequence, up to 0.25 after its last kick;
    # all kicks symmetric, so <cos theta> is exactly 0 and only k = 2 says
    # anything
    "seeded-three-symmetric": (
        [Kick(_S, -1.86, 0.0), Kick(_S, -14.64, 3.38), Kick(_S, -11.86, 4.95)],
        np.linspace(0.0, 5.2, 200), (2,)),
    "weak-asymmetric-then-strong-symmetric": (
        [Kick(_A, 0.5, 0.0), Kick(_S, 20.0, 2.0)],
        np.linspace(0.0, 2.5, 200), (1, 2)),
    "weak-then-strong-asymmetric": (
        [Kick(_A, -1.0, 0.0), Kick(_A, 8.0, 3.0)],
        np.linspace(0.0, 4.0, 200), (1, 2)),
    "opposed-asymmetric": (
        [Kick(_A, 2.0, 0.0), Kick(_A, -30.0, 1.5)],
        np.linspace(0.0, 2.0, 200), (1, 2)),
    "five-kicks": (
        [Kick(_A, 1.0, 0.0), Kick(_S, -2.0, 0.7), Kick(_A, 0.5, 1.9),
         Kick(_S, 12.0, 3.1), Kick(_A, -6.0, 3.3)],
        np.linspace(0.0, 3.8, 300), (1, 2)),
}


@pytest.mark.parametrize("name", LATE_STRONG_KICKS)
def test_kick_phase_rule_converges_for_late_strong_kicks(monkeypatch, name):
    """Where a sequence starts on a lower rung than the strength-span
    rule gave it, classical_observable agrees at every time with a rule
    four times finer than the finest it reached, within
    ``QUADRATURE_TOL``: the doubling check, not the start, settles the
    rule, and the kick phase leaving out the shear of one kick by the
    next does not let two coarse rules agree by aliasing."""
    kicks, ts, observables = LATE_STRONG_KICKS[name]
    seq = validate_sequence(kicks)
    strength_span = defaults.ensemble_nodes(
        [(seq.total_strength(), ts[-1] - min(ts[0], kicks[0].time))])
    make, rules = classical.make_ensemble, []

    def recording(n_nodes):
        rules.append(n_nodes)
        return make(n_nodes)

    monkeypatch.setattr(classical, "make_ensemble", recording)
    for k in observables:
        rules.clear()
        got = classical_observable(seq, k, ts).values
        assert rules[0] < strength_span
        finest = max(rules)
        with monkeypatch.context() as fixed:
            fixed.setattr(defaults, "ensemble_nodes",
                          lambda kicks: 4 * finest)
            finer = classical_observable(seq, k, ts).values
        assert np.max(np.abs(got - finer)) < defaults.QUADRATURE_TOL, k
        assert np.max(np.abs(got)) > 0.4
