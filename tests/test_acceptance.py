"""Acceptance gate: one printed PASS/FAIL line per numbered check.

Run with ``pytest -s tests/test_acceptance.py`` to watch the lines as
they complete. Every check asserts after printing, so a FAIL line is
always followed by a test failure. The optimizer runs are cached and
shared between checks.
"""
import importlib
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from oracles import (brute_force_prompt, brute_force_weak_laser_limit,
                     cos2_phase_coefficients, cos_phase_coefficients,
                     expm_kick, grid_propagate)
from rotorkick import (KCL, Branch, Engine, HalfCyclePulse, Kick, KickKind,
                       OptimizationProblem, PulseOrder, apply_kick,
                       classical_observable, expectation, free_propagate,
                       ground_state, kick_strength, optimize, run_sequence,
                       time_from_dimensionless, time_to_dimensionless,
                       two_kick_observable, two_kick_theta, validate_sequence)
from rotorkick import defaults
from rotorkick.optimize import BoundsBox, default_bounds
from rotorkick.quantum import RotorWavefunction

# the package re-exports the function `optimize` under the module's name
optimize_module = importlib.import_module("rotorkick.optimize")


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} {detail}")


@lru_cache(maxsize=None)
def _opt(engine, order, p_a, branch=Branch.PROMPT):
    return optimize(OptimizationProblem(engine=engine, order=order,
                                        p_a=p_a, branch=branch))


def test_01_anti_alignment_dip():
    ts = np.linspace(1e-4, 0.3, 3000)
    seq = validate_sequence([Kick(KickKind.SYMMETRIC, -10.0, 0.0)])
    q = run_sequence(seq, ts, k=2)
    qi = int(np.argmin(q.values))
    qv, qt = float(q.values[qi]), float(ts[qi])
    c = classical_observable(seq, 2, ts)
    cv = float(np.min(c.values))
    ok = (abs(qv - 0.077) <= 0.003 and abs(qt - 0.080) <= 0.010
          and abs(cv - qv) <= 0.02)
    _report(1, ok, f"quantum min={qv:.4f} at t={qt:.4f}, classical min={cv:.4f}")
    assert ok


def test_02_single_hcp_ceiling():
    best = {}
    for p_a in (50.0, 100.0):
        grid = np.linspace(1e-4, 10.0 / p_a, 4001)
        vals = two_kick_observable(0.0, p_a, 0.0, grid,
                                   PulseOrder.HCP_FIRST, k=1)
        best[p_a] = float(np.max(vals))
    ok = (all(abs(v - 0.75) <= 0.01 for v in best.values())
          and abs(best[50.0] - best[100.0]) <= 0.01)
    _report(2, ok, f"max orientation {best[50.0]:.4f} (P=50), "
                   f"{best[100.0]:.4f} (P=100)")
    assert ok


def test_03_simultaneous_pair():
    res = _opt(Engine.CLASSICAL, PulseOrder.SIMULTANEOUS, 10.0)
    ratio = res.p_a / abs(res.p_s)
    ok = (abs(abs(res.objective) - 0.89) <= 0.01
          and abs(ratio - 2.34) <= 0.1
          and abs(res.scaled_delay - 0.78) <= 0.05)
    _report(3, ok, f"objective={res.objective:.4f}, ratio={ratio:.3f}, "
                   f"|p_s|t2={res.scaled_delay:.4f}")
    assert ok


def test_04_hcp_first_pair():
    res = _opt(Engine.CLASSICAL, PulseOrder.HCP_FIRST, 100.0)
    ratio = res.p_a / abs(res.p_s)
    ok = (abs(abs(res.objective) - 0.96) <= 0.01
          and abs(ratio - 1.6) <= 0.1
          and abs(res.scaled_delay - 0.36) <= 0.04)
    _report(4, ok, f"objective={res.objective:.4f}, ratio={ratio:.3f}, "
                   f"|p_s|t1={res.scaled_delay:.4f}")
    assert ok


def test_05_laser_first_both_branches():
    prompt = _opt(Engine.CLASSICAL, PulseOrder.LASER_FIRST, 100.0)
    revival = _opt(Engine.CLASSICAL, PulseOrder.LASER_FIRST, 100.0,
                   Branch.REVIVAL)
    ok = (abs(prompt.objective) >= 0.93 and abs(revival.objective) >= 0.93
          and revival.objective < 0.0)
    _report(5, ok, f"prompt objective={prompt.objective:.4f}, "
                   f"revival objective={revival.objective:.4f}")
    assert ok


def test_06_quantum_classical_agreement():
    # Below p_a ~ 5 only a handful of rotational levels take part and the
    # quantum optimum genuinely undershoots the classical plateau (0.864
    # against 0.946 at p_a = 3), so there the quantum optimizer is held
    # to an exhaustive search instead of to the classical engine.
    classical, quantum, delta, oracle = {}, {}, {}, {}
    for p_a in (3.0, 5.0, 10.0):
        classical[p_a] = abs(_opt(Engine.CLASSICAL, PulseOrder.LASER_FIRST,
                                  p_a).objective)
        quantum[p_a] = abs(_opt(Engine.QUANTUM, PulseOrder.LASER_FIRST,
                                p_a).objective)
        delta[p_a] = abs(classical[p_a] - quantum[p_a])
    for p_a in (3.0, 5.0):
        # two basis sizes: the optimum must not be a truncation effect
        oracle[p_a] = tuple(brute_force_prompt(p_a, l_max)[0]
                            for l_max in (48, 64))

    broken = []
    for p_a in (5.0, 10.0):
        if delta[p_a] > 0.03:
            broken.append(f"P={p_a:g}: |classical - quantum| = "
                          f"{delta[p_a]:.4f} > 0.03")
    for p_a, (small, large) in oracle.items():
        if abs(small - large) > 1e-10:
            broken.append(f"P={p_a:g}: brute force changes with the basis, "
                          f"{small:.12f} (l_max 48) vs {large:.12f} (l_max 64)")
        if abs(quantum[p_a] - small) > 1e-4:
            broken.append(f"P={p_a:g}: quantum optimize {quantum[p_a]:.6f} "
                          f"misses the brute-force optimum {small:.6f} by "
                          f"more than 1e-4")
    if not delta[3.0] > delta[5.0] > delta[10.0]:
        broken.append("the quantum-classical gap does not close with "
                      "growing p_a")
    # delta kicks from rest in a box that scales with p_a: the classical
    # optimum does not depend on p_a (0.9458, 0.9463, 0.9465)
    if abs(classical[3.0] - classical[10.0]) > 3e-3:
        broken.append(f"P=3: classical optimum {classical[3.0]:.4f} is not "
                      f"within 3e-3 of the P=10 one {classical[10.0]:.4f}")
    if not classical[3.0] > quantum[3.0]:
        broken.append("P=3: the quantum optimum is not below the classical "
                      "one")

    detail = ", ".join(
        f"P={p:g}: classical={classical[p]:.4f} quantum={quantum[p]:.4f} "
        f"delta={delta[p]:.4f}"
        + (f" oracle={oracle[p][0]:.4f}" if p in oracle else "")
        for p in delta)
    _report(6, not broken, detail)
    assert not broken, "; ".join(broken)


def test_07_independent_propagation_routes():
    rng = np.random.default_rng(7)
    worst_state = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.5,
                                                             n - 1))])
        kinds = rng.integers(0, 2, n)
        kicks = [Kick(KickKind.SYMMETRIC if kk == 0 else KickKind.ASYMMETRIC,
                      float(rng.uniform(-20.0, 20.0)), float(t))
                 for kk, t in zip(kinds, times)]
        # same-time same-kind collisions are impossible: times are distinct
        seq = validate_sequence(kicks)
        l_max = defaults.quantum_l_max(seq.total_strength())
        ref = grid_propagate(seq, l_max, n_grid=8192)
        psi = ground_state(l_max)
        clock = 0.0
        for kick in seq.kicks:
            psi = free_propagate(psi, kick.time - clock)
            clock = kick.time
            psi = apply_kick(psi, kick)
        m = min(psi.coeffs.size, ref.size)
        worst_state = max(worst_state,
                          float(np.max(np.abs(psi.coeffs[:m] - ref[:m]))))

    worst_coeff = worst_kick = 0.0
    for p in rng.uniform(-5.0, 5.0, 8):
        for kind, series in ((KickKind.SYMMETRIC, cos2_phase_coefficients),
                             (KickKind.ASYMMETRIC, cos_phase_coefficients)):
            coeffs = series(float(p), 16)
            # the expm reference needs basis margin: truncating the matrix
            # at exactly l = 16 perturbs its own edge entries at the 1e-6
            # level, so it and the package's kick run on l_max = 32
            worst_coeff = max(worst_coeff, float(np.max(np.abs(
                coeffs - expm_kick(kind, float(p), 32)[:17]))))
            kicked = apply_kick(ground_state(32), Kick(kind, float(p), 0.0))
            worst_kick = max(worst_kick, float(np.max(np.abs(
                coeffs - kicked.coeffs[:17]))))
    ok = worst_state < 1e-8 and worst_coeff < 1e-8 and worst_kick < 1e-8
    _report(7, ok, f"grid-vs-basis max dev={worst_state:.2e}, "
                   f"series-vs-expm max dev={worst_coeff:.2e}, "
                   f"series-vs-kick max dev={worst_kick:.2e}")
    assert ok


def test_08_structural_invariants():
    rng = np.random.default_rng(8)
    theta0 = np.linspace(0.03, math.pi - 0.03, 41)

    worst_norm = worst_revival = 0.0
    worst_reversal = worst_odd = worst_scaling = 0.0
    worst_parity_c = 0.0
    parity_q_exact = True
    for _ in range(12):
        c = rng.normal(size=13) + 1j * rng.normal(size=13)
        psi = RotorWavefunction(c / np.linalg.norm(c))
        kind = KickKind.SYMMETRIC if rng.integers(2) else KickKind.ASYMMETRIC
        kicked = apply_kick(psi, Kick(kind, float(rng.uniform(-20, 20)), 0.0))
        worst_norm = max(worst_norm,
                         abs(np.linalg.norm(kicked.coeffs) - 1.0))
        back = free_propagate(psi, 2.0 * math.pi)
        worst_revival = max(worst_revival,
                            float(np.max(np.abs(back.coeffs - psi.coeffs))))

        p_s, p_a = rng.uniform(-15, 15), rng.uniform(0.5, 15)
        t_1, t_2, lam = rng.uniform(0.01, 2), rng.uniform(0.01, 2), \
            rng.uniform(0.3, 3)
        order = list(PulseOrder)[int(rng.integers(3))]
        rev = two_kick_theta(theta0, p_s, p_a, -t_1, -t_2, order)
        flipped = two_kick_theta(theta0, -p_s, -p_a, t_1, t_2, order)
        worst_reversal = max(worst_reversal,
                             float(np.max(np.abs(rev - flipped))))
        up = two_kick_observable(p_s, p_a, t_1, [t_2], order, k=1)[0]
        down = two_kick_observable(p_s, -p_a, t_1, [t_2], order, k=1)[0]
        worst_odd = max(worst_odd, abs(up + down))
        scaled = two_kick_observable(lam * p_s, lam * p_a, t_1 / lam,
                                     [t_2 / lam], order, k=1)[0]
        worst_scaling = max(worst_scaling, abs(up - scaled))

        sym_only = apply_kick(ground_state(8),
                              Kick(KickKind.SYMMETRIC,
                                   float(rng.uniform(-15, 15)), 0.0))
        sym_only = free_propagate(sym_only, float(rng.uniform(0, 2)))
        parity_q_exact &= expectation(sym_only, 1) == 0.0
        worst_parity_c = max(worst_parity_c, abs(
            two_kick_observable(float(rng.uniform(-15, 15)), 0.0, 0.3,
                                [float(rng.uniform(0.1, 2))], k=1)[0]))

    ok = (worst_norm < 1e-10 and worst_revival < 1e-10
          and worst_reversal < 1e-9 and worst_odd < 1e-9
          and worst_scaling < 1e-9 and parity_q_exact
          and worst_parity_c < 1e-12)
    _report(8, ok, f"norm={worst_norm:.1e}, revival={worst_revival:.1e}, "
                   f"reversal={worst_reversal:.1e}, odd={worst_odd:.1e}, "
                   f"scaling={worst_scaling:.1e}, parity exact={parity_q_exact}")
    assert ok


def test_09_lab_units():
    p_a = kick_strength(HalfCyclePulse(100.0, 2.0), KCL)
    worst_rt = 0.0
    for t in (0.37, 12.0, 128.0, 640.0):
        back = time_from_dimensionless(time_to_dimensionless(t, KCL), KCL)
        worst_rt = max(worst_rt, abs(back - t) / t)
    ok = 8.0 <= p_a <= 12.0 and worst_rt < 1e-12
    _report(9, ok, f"KCl P_a={p_a:.3f}, time round-trip rel err={worst_rt:.1e}")
    assert ok


def test_10_weak_laser_limit():
    """The paper's "about 0.95" for classical laser first is a supremum.
    The weak-laser limit (p_s/p_a -> 0 at fixed c = p_s t_1, in the unit
    variables) matches an independent brute-force (c, tau) search within
    1e-6, the default unit problem's seed sits on it, and the optima at
    p_a = 10 and 100 lie below it and rise toward it as the box's
    smallest |p_s|/p_a falls from 0.02 to 0.01 and 0.005, in boxes whose
    delays reach p_a t_1 = 240, past the ridge p_s t_1 = c (at 0.005,
    p_a t_1 = 170)."""
    oracle, oracle_c, _ = brute_force_weak_laser_limit((-1.2, 0.0))
    limit = optimize_module._WeakLaserLimit(
        Engine.CLASSICAL, PulseOrder.LASER_FIRST, 1.0,
        bounds=BoundsBox((-1.2, 0.0), (0.0, 0.0), (0.0, 10.0)))
    value, c = optimize_module._weak_laser_limit(limit)
    unit = optimize_module._unit_problem(
        OptimizationProblem(Engine.CLASSICAL, PulseOrder.LASER_FIRST, 100.0))
    p_s, t_1 = optimize_module._weak_laser_seed(unit)
    broken = []
    if abs(abs(value) - oracle) > 1e-6 or abs(c - oracle_c) > 1e-4:
        broken.append(f"limit {abs(value):.9f} at c = {c:.6f}, brute force "
                      f"{oracle:.9f} at c = {oracle_c:.6f}")
    if p_s != -defaults.PS_RATIO_MIN or abs(p_s * t_1 - c) > 1e-12:
        broken.append(f"seed (r, T_1) = ({p_s}, {t_1}) is not on c = {c}")
    rises = {}
    for p_a in (10.0, 100.0):
        box = default_bounds(Engine.CLASSICAL, PulseOrder.LASER_FIRST,
                             Branch.PROMPT, p_a)
        rises[p_a] = [abs(optimize(OptimizationProblem(
            Engine.CLASSICAL, PulseOrder.LASER_FIRST, p_a,
            bounds=replace(box, p_s=(-p_a, -r_min * p_a),
                           t_1=(0.0, 240.0 / p_a)))).objective)
            for r_min in (0.02, 0.01, 0.005)]
        if not rises[p_a][0] < rises[p_a][1] < rises[p_a][2] < oracle:
            broken.append(f"P={p_a:g}: optima {rises[p_a]} do not rise "
                          f"toward the limit {oracle:.6f}")
    _report(10, not broken,
            f"limit={abs(value):.7f} at c={c:.5f} (brute force "
            f"{oracle:.7f}), r_min 0.02/0.01/0.005: "
            + " ".join(f"{v:.6f}" for v in rises[100.0]))
    assert not broken, "; ".join(broken)


def test_11_quantum_hcp_first_oracle():
    """Quantum HCP-first prompt at p_a = 10, whose optimum sits near the
    half revival (t_1 about pi - 0.054), matches the brute-force oracle
    within 1e-4 at two basis sizes, which agree within 1e-10, as check 6
    holds laser first at p_a = 3 and 5."""
    quantum = abs(_opt(Engine.QUANTUM, PulseOrder.HCP_FIRST, 10.0).objective)
    small, large = (brute_force_prompt(10.0, l_max, PulseOrder.HCP_FIRST)[0]
                    for l_max in (80, 96))
    broken = []
    if abs(small - large) > 1e-10:
        broken.append(f"brute force changes with the basis, {small:.12f} "
                      f"(l_max 80) vs {large:.12f} (l_max 96)")
    if abs(quantum - small) > 1e-4:
        broken.append(f"quantum optimize {quantum:.6f} misses the "
                      f"brute-force optimum {small:.6f} by more than 1e-4")
    _report(11, not broken, f"P=10 HCP first: quantum={quantum:.10f} "
            f"oracle={small:.10f} (l_max 80), {large:.10f} (l_max 96)")
    assert not broken, "; ".join(broken)
