"""Invariant checks with randomized inputs (hypothesis)."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotorkick import classical, defaults
from rotorkick.classical import (_after_kicks, classical_observable,
                                 make_ensemble, propagate_classical,
                                 two_kick_observable)
from rotorkick.core import (Kick, KickKind, PulseOrder, PulseSequence,
                            format_sequence, parse_sequence, pulse_pair,
                            validate_sequence)
from rotorkick.quantum import (RotorWavefunction, apply_kick,
                               free_propagate, ground_state,
                               observable_scan, orientation_samples,
                               run_sequence, two_kick_state)

SETTINGS = settings(deadline=None, max_examples=40)

strengths = st.floats(min_value=-20.0, max_value=20.0,
                      allow_nan=False, allow_infinity=False)
kinds = st.sampled_from([KickKind.SYMMETRIC, KickKind.ASYMMETRIC])
orders = st.sampled_from(list(PulseOrder))
times = st.floats(min_value=0.0, max_value=2.0 * math.pi,
                  allow_nan=False, allow_infinity=False)


@st.composite
def sequences(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    ts = draw(st.lists(times, min_size=n, max_size=n, unique=True))
    return validate_sequence(
        Kick(draw(kinds), draw(strengths), t) for t in ts)


@given(sequences())
@SETTINGS
def test_text_round_trip(seq):
    assert parse_sequence(format_sequence(seq)) == seq


@given(sequences())
@SETTINGS
def test_validate_idempotent(seq):
    again = validate_sequence(seq)
    assert again == seq
    assert list(again.kicks) == sorted(again.kicks, key=lambda k: k.time)


@st.composite
def random_states(draw, l_max=12):
    re = draw(st.lists(st.floats(-1, 1, allow_nan=False),
                       min_size=l_max + 1, max_size=l_max + 1))
    im = draw(st.lists(st.floats(-1, 1, allow_nan=False),
                       min_size=l_max + 1, max_size=l_max + 1))
    c = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    norm = np.linalg.norm(c)
    if norm < 1e-3:
        c[0] += 1.0
        norm = np.linalg.norm(c)
    return RotorWavefunction(c / norm)


@given(random_states(), kinds, strengths)
@SETTINGS
def test_kick_preserves_norm(psi, kind, strength):
    out = apply_kick(psi, Kick(kind, strength, 0.0))
    assert abs(np.linalg.norm(out.coeffs) - 1.0) < 1e-10


@given(random_states(), st.floats(0.0, 2.0 * math.pi, allow_nan=False))
@SETTINGS
def test_free_evolution_revives(psi, dt):
    there = free_propagate(psi, dt)
    back = free_propagate(there, 2.0 * math.pi - dt)
    assert np.max(np.abs(back.coeffs - psi.coeffs)) < 1e-10


@st.composite
def sampled_states(draw):
    """A random normalized state with l_max in 4..200."""
    l_max = draw(st.integers(4, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=l_max + 1) + 1j * rng.normal(size=l_max + 1)
    return RotorWavefunction(c / np.linalg.norm(c))


@given(sampled_states())
@SETTINGS
def test_orientation_samples_match_the_scan(psi):
    fft = orientation_samples(psi)
    n = fft.size
    scan = observable_scan(psi, 1, 2.0 * math.pi * np.arange(n) / n)
    assert np.max(np.abs(fft - scan)) < 1e-13


@given(strengths, strengths, st.floats(0.01, 3.0), st.floats(0.01, 3.0),
       orders)
@SETTINGS
def test_trajectory_time_reversal(p_s, p_a, t_1, t_2, order):
    # running time backward equals flipping both kick signs
    theta0 = np.linspace(0.05, math.pi - 0.05, 31)
    theta1, omega = _after_kicks(theta0, *pulse_pair(p_s, p_a, order),
                                 -t_1)[:2]
    rev = theta1 - t_2 * omega
    theta1, omega = _after_kicks(theta0, *pulse_pair(-p_s, -p_a, order),
                                 t_1)[:2]
    flipped = theta1 + t_2 * omega
    assert np.max(np.abs(rev - flipped)) < 1e-9


@given(strengths, strengths, times, times, orders)
@SETTINGS
def test_quantum_time_mirror_flips_orientation(p_s, p_a, t_1, t_2, order):
    # the revival branch rests on this: free flight is 2 pi periodic, so
    # running the pair back from 2 pi with the laser sign flipped mirrors
    # the orientation
    if order is PulseOrder.SIMULTANEOUS:
        t_1 = 0.0
    fwd = observable_scan(two_kick_state(p_s, p_a, t_1, order), 1, t_2)
    back = observable_scan(
        two_kick_state(-p_s, p_a, 2.0 * math.pi - t_1, order), 1,
        2.0 * math.pi - t_2)
    assert abs(back[0] + fwd[0]) < 1e-12


@given(strengths, strengths, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       orders)
@SETTINGS
def test_classical_time_mirror_flips_orientation(p_s, p_a, t_1, t_2, order):
    # the classical revival branch: negative times with the laser sign
    # flipped mirror the orientation
    fwd = two_kick_observable(p_s, p_a, t_1, [t_2], order)
    back = two_kick_observable(-p_s, p_a, -t_1, [-t_2], order)
    assert abs(back[0] + fwd[0]) < 1e-12


@given(strengths, st.floats(0.5, 15.0), st.floats(0.01, 1.0),
       st.floats(0.01, 1.0), orders)
@SETTINGS
def test_orientation_odd_in_hcp_sign(p_s, p_a, t_1, t_2, order):
    up = two_kick_observable(p_s, p_a, t_1, [t_2], order, k=1)
    down = two_kick_observable(p_s, -p_a, t_1, [t_2], order, k=1)
    assert abs(up[0] + down[0]) < 1e-9


@given(strengths, st.floats(0.5, 15.0), st.floats(0.01, 1.0),
       st.floats(0.01, 1.0), st.floats(0.25, 4.0), orders)
@SETTINGS
def test_kick_time_scaling_law(p_s, p_a, t_1, t_2, lam, orders_):
    base = two_kick_observable(p_s, p_a, t_1, [t_2], orders_, k=1)
    scaled = two_kick_observable(lam * p_s, lam * p_a, t_1 / lam,
                                 [t_2 / lam], orders_, k=1)
    assert abs(base[0] - scaled[0]) < 1e-9


@given(st.floats(-15.0, 15.0, allow_nan=False), st.floats(0.0, 2.0))
@SETTINGS
def test_symmetric_kick_never_orients(p_s, dt):
    # quantum: parity blocks keep <cos> at exactly zero
    psi = apply_kick(ground_state(8), Kick(KickKind.SYMMETRIC, p_s, 0.0))
    psi = free_propagate(psi, dt)
    assert observable_scan(psi, 1, 0.0)[0] == 0.0
    # classical: the ensemble average vanishes to quadrature accuracy
    val = two_kick_observable(p_s, 0.0, 0.3, [dt + 1e-3], k=1)
    assert abs(val[0]) < 1e-12


@st.composite
def kicked_grids(draw):
    """A sequence (simultaneous pairs allowed) and an ascending grid that
    holds every kick time, times before the first kick and times after
    the last one."""
    slots = draw(st.lists(st.floats(0.0, 3.0, allow_nan=False),
                          min_size=1, max_size=4, unique=True))
    kicks = []
    for t in slots:
        for kind in draw(st.sampled_from([(KickKind.SYMMETRIC,),
                                          (KickKind.ASYMMETRIC,),
                                          tuple(KickKind)])):
            kicks.append(Kick(kind, draw(st.floats(-6.0, 6.0)), t))
    extra = draw(st.lists(st.floats(-1.0, 4.0, allow_nan=False),
                          min_size=1, max_size=12))
    return validate_sequence(kicks), np.unique(np.array(slots + extra))


def _point_theta(seq, theta0, t):
    """Angles at one time from an explicit walk, one kick group at a time."""
    theta, omega = theta0, np.zeros_like(theta0)
    clock = min(seq.kicks[0].time, t)
    for t_kick, group in seq.time_groups():
        if t_kick > t:
            break
        theta = theta + omega * (t_kick - clock)
        omega = omega + sum(
            -k.strength * (np.sin(2.0 * theta) if k.kind is KickKind.SYMMETRIC
                           else np.sin(theta)) for k in group)
        clock = t_kick
    return theta + omega * (t - clock)


def _point_psi(seq, t):
    """State at one time from an explicit walk, symmetric kick first."""
    psi = ground_state(defaults.quantum_l_max(seq.total_strength()))
    clock = min(seq.kicks[0].time, t)
    for t_kick, group in seq.time_groups():
        if t_kick > t:
            break
        psi = free_propagate(psi, t_kick - clock)
        for k in sorted(group, key=lambda k: k.kind is KickKind.ASYMMETRIC):
            psi = apply_kick(psi, k)
        clock = t_kick
    return psi, t - clock


@given(kicked_grids())
@SETTINGS
def test_segment_walk_matches_point_by_point(case):
    seq, ts = case
    ens = make_ensemble(24)
    batched = propagate_classical(seq, ens, ts)
    ref = np.stack([_point_theta(seq, ens.theta0, t) for t in ts])
    assert np.array_equal(batched, ref)
    # the classical sampler: at one fixed rule, each non-empty stretch
    # between kicks is one _free_flight_average call
    cuts = [np.searchsorted(ts, t, side="left") for t, _ in seq.time_groups()]
    segments = [n for n in np.diff([0, *cuts, ts.size]) if n]
    calls, sampler = [], classical._free_flight_average

    def counted(theta, omega, weights, dts, k):
        calls.append(dts.size)
        return sampler(theta, omega, weights, dts, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical, "_free_flight_average", counted)
        mp.setattr(classical, "_refine", lambda average, n: average(ens))
        for k in (1, 2):
            calls.clear()
            values = classical_observable(seq, k, ts).values
            assert calls == segments
            assert np.max(np.abs(values - np.cos(ref) ** k @ ens.weights)) \
                < 1e-12
    for k in (1, 2):
        values = run_sequence(seq, ts, k=k).values
        point = [observable_scan(psi, k, [dt])[0]
                 for psi, dt in (_point_psi(seq, t) for t in ts)]
        assert np.max(np.abs(values - point)) < 1e-14
