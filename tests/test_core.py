import math

import numpy as np
import pytest

from rotorkick.core import (Kick, KickKind, ObservableKind, ObservableSeries,
                            OptimizationResult, PulseOrder, PulseSequence,
                            format_sequence, observable_kind, parse_sequence,
                            phase_jet, phase_sum, time_grid,
                            two_pulse_sequence,
                            validate_sequence, walk_sequence)
from rotorkick.core import Branch, Engine
from rotorkick.errors import NonFiniteValue, TooManyKicksAtSameTime


def test_validate_sorts_by_time():
    seq = validate_sequence([
        Kick(KickKind.ASYMMETRIC, 1.0, 2.0),
        Kick(KickKind.SYMMETRIC, -3.0, 0.5),
    ])
    assert [k.time for k in seq.kicks] == [0.5, 2.0]
    # idempotent
    assert validate_sequence(seq) == seq


def test_validate_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        validate_sequence([Kick(KickKind.SYMMETRIC, math.nan, 0.0)])
    with pytest.raises(NonFiniteValue):
        validate_sequence([Kick(KickKind.ASYMMETRIC, 1.0, math.inf)])
    with pytest.raises(NonFiniteValue):
        validate_sequence([Kick(KickKind.ASYMMETRIC, 2e4, 0.0)])


def test_validate_rejects_same_kind_same_time():
    kicks = [Kick(KickKind.SYMMETRIC, 1.0, 0.3),
             Kick(KickKind.SYMMETRIC, 2.0, 0.3)]
    with pytest.raises(TooManyKicksAtSameTime):
        validate_sequence(kicks)
    # one of each kind at the same instant is the simultaneous hybrid
    hybrid = validate_sequence([Kick(KickKind.SYMMETRIC, 1.0, 0.3),
                                Kick(KickKind.ASYMMETRIC, 2.0, 0.3)])
    assert len(hybrid.time_groups()) == 1


def test_time_groups():
    seq = validate_sequence([
        Kick(KickKind.SYMMETRIC, 1.0, 0.0),
        Kick(KickKind.ASYMMETRIC, 2.0, 0.0),
        Kick(KickKind.ASYMMETRIC, 3.0, 1.5),
    ])
    groups = seq.time_groups()
    assert [t for t, _ in groups] == [0.0, 1.5]
    assert len(groups[0][1]) == 2 and len(groups[1][1]) == 1


def test_two_pulse_sequence_orders():
    s = two_pulse_sequence(-2.0, 5.0, 0.7, PulseOrder.LASER_FIRST)
    assert s.kicks[0].kind is KickKind.SYMMETRIC and s.kicks[0].time == 0.0
    assert s.kicks[1].kind is KickKind.ASYMMETRIC and s.kicks[1].time == 0.7

    s = two_pulse_sequence(-2.0, 5.0, 0.7, PulseOrder.HCP_FIRST)
    assert s.kicks[0].kind is KickKind.ASYMMETRIC and s.kicks[1].time == 0.7

    s = two_pulse_sequence(-2.0, 5.0, 0.0, PulseOrder.SIMULTANEOUS)
    assert {k.time for k in s.kicks} == {0.0}

    with pytest.raises(ValueError):
        two_pulse_sequence(-2.0, 5.0, -0.1, PulseOrder.LASER_FIRST)


def test_total_strength():
    s = two_pulse_sequence(-2.0, 5.0, 0.7, PulseOrder.LASER_FIRST)
    assert s.total_strength() == pytest.approx(7.0)


def test_sequence_text_round_trip():
    seq = validate_sequence([
        Kick(KickKind.SYMMETRIC, -0.1 + 0.7, 0.0),  # non-representable float
        Kick(KickKind.ASYMMETRIC, 12.345678901234567, 1e-3),
    ])
    again = parse_sequence(format_sequence(seq))
    assert again == seq  # bit-exact via repr round-trip


def test_parse_sequence_comments_and_errors():
    text = """
    # leading comment
    sym -3.5 0.0   # trailing comment
    asym 10 0.25
    """
    seq = parse_sequence(text)
    assert len(seq.kicks) == 2
    assert seq.kicks[1].strength == 10.0

    with pytest.raises(ValueError, match="line 1"):
        parse_sequence("wiggle 1.0 0.0")
    with pytest.raises(ValueError, match="malformed"):
        parse_sequence("sym abc 0.0")
    with pytest.raises(ValueError, match="expected"):
        parse_sequence("sym 1.0")
    assert parse_sequence("# nothing\n").kicks == ()


def test_walk_sequence_observes_once_per_segment():
    """A spy engine: the state is the tuple of kick-group times applied."""
    seq = validate_sequence([
        Kick(KickKind.SYMMETRIC, 1.0, 1.0),
        Kick(KickKind.ASYMMETRIC, 1.0, 1.2),
        Kick(KickKind.SYMMETRIC, 1.0, 1.3),   # 1.2 - 1.3 holds no time
        Kick(KickKind.SYMMETRIC, 1.0, 2.0),
        Kick(KickKind.ASYMMETRIC, 1.0, 2.0),
        Kick(KickKind.ASYMMETRIC, 1.0, 5.0),  # after the last time
    ])
    t_eval = np.array([0.0, 0.5, 1.0, 1.1, 2.0, 3.0])
    flights, kicked, observed = [], [], []

    def fly(state, dt):
        flights.append(dt)
        return state

    def kick(state, kicks):
        kicked.append(len(kicks))
        return state + (kicks[0].time,)

    def observe(state, dts):
        observed.append((state, dts.copy()))
        return np.column_stack([np.full(dts.size, len(state)), dts])

    out = walk_sequence(seq, t_eval, (), fly, kick, observe)

    assert [s for s, _ in observed] == [(), (1.0,), (1.0, 1.2, 1.3, 2.0)]
    for (_, dts), ref in zip(observed, (t_eval[:2] - 0.0,
                                        t_eval[2:4] - 1.0,
                                        t_eval[4:] - 2.0)):
        assert np.array_equal(dts, ref)
    assert kicked == [1, 1, 1, 2]  # the kick at 5.0 is never applied
    assert flights == pytest.approx([1.0, 0.2, 0.1, 0.7], abs=1e-15)
    # joined along the first axis; t = 1.0 and t = 2.0 see their kicks
    assert out.shape == (6, 2)
    assert list(out[:, 0]) == [0, 0, 1, 1, 4, 4]
    # times before the first kick see the state at rest, from their own
    # clock start
    observed.clear()
    walk_sequence(seq, np.array([-1.0, 0.5]), (), fly, kick, observe)
    assert len(observed) == 1 and observed[0][0] == ()
    assert kicked == [1, 1, 1, 2]
    assert np.array_equal(observed[0][1], [0.0, 1.5])


def test_phase_sum_matches_the_direct_sum():
    """The shared free-flight sampler against Re sum_i w_i e^{i(phi_i +
    nu_i t)} summed term by term, with complex weights and signed
    non-integer rates, on even grids of every size class, an uneven array
    and an empty one."""
    rng = np.random.default_rng(23)
    m = 300
    weights = (rng.normal(size=m) + 1j * rng.normal(size=m)) / m
    phases = rng.uniform(-math.pi, math.pi, m)
    rates = rng.uniform(-40.0, 40.0, m)
    grids = [np.linspace(-0.7, 1.3, n) for n in (1, 2, 3, 33, 4001)]
    grids += [np.array([0.05, 0.21, 0.4, 1.7]), np.array([])]
    for t in grids:
        direct = np.real(np.exp(1j * (phases + np.outer(t, rates))) @ weights)
        got = phase_sum(weights, phases, rates, t)
        assert got.shape == t.shape
        assert np.max(np.abs(got - direct), initial=0.0) < 1e-12


def test_phase_jet_matches_the_direct_sums():
    """(f, f', f'') against the term-by-term sums with weights w, i nu w
    and -nu^2 w, for real and for complex weights, at single times and
    on an array of them; f is also the sampler's value there."""
    rng = np.random.default_rng(29)
    m = 300
    phases = rng.uniform(-math.pi, math.pi, m)
    rates = rng.uniform(-40.0, 40.0, m)
    scale = 1e-12 * np.array([1.0, 40.0, 1600.0])
    times = np.array([-0.7, 0.0, 0.31, 12.5])
    for weights in (rng.uniform(0.0, 2.0 / m, m),
                    (rng.normal(size=m) + 1j * rng.normal(size=m)) / m):
        direct = []
        for t in times:
            terms = weights * np.exp(1j * (phases + t * rates))
            direct.append([np.sum(terms).real, np.sum(1j * rates * terms).real,
                           np.sum(-rates**2 * terms).real])
            got = phase_jet(weights, phases, rates, t)
            assert got.shape == (3,)
            assert np.allclose(got, direct[-1], rtol=0.0, atol=scale)
            assert got[0] == pytest.approx(
                phase_sum(weights, phases, rates, np.array([t]))[0],
                abs=1e-12)
        got = phase_jet(weights, phases, rates, times)
        assert got.shape == (3, times.size)
        assert np.allclose(got, np.transpose(direct), rtol=0.0,
                           atol=scale[:, None])


def test_time_grid_and_observable_kind_refuse_bad_input():
    assert time_grid(0.5).shape == (1,)
    assert time_grid([]).shape == (0,)
    for bad in ([0.0, 0.0], [0.2, 0.1], np.linspace(0.0, 60.0, 3).repeat(2)):
        with pytest.raises(ValueError, match="strictly ascending"):
            time_grid(bad)
    with pytest.raises(NonFiniteValue):
        time_grid([0.0, math.inf])
    assert observable_kind(1) is ObservableKind.ORIENTATION
    assert observable_kind(2) is ObservableKind.ALIGNMENT
    for k in (0, 3):
        with pytest.raises(ValueError, match="k must be 1"):
            observable_kind(k)


def test_observable_series_validation():
    t = np.array([0.0, 0.1, 0.2])
    ObservableSeries(t, np.array([0.0, 0.5, -0.5]), ObservableKind.ORIENTATION)
    with pytest.raises(ValueError):
        ObservableSeries(np.array([0.0, 0.0, 0.2]), np.zeros(3),
                         ObservableKind.ORIENTATION)
    with pytest.raises(ValueError):
        ObservableSeries(t, np.array([0.0, 1.5, 0.0]),
                         ObservableKind.ORIENTATION)
    with pytest.raises(ValueError):  # alignment lives in [0, 1]
        ObservableSeries(t, np.array([0.2, -0.4, 0.2]),
                         ObservableKind.ALIGNMENT)


def test_observable_series_extrema():
    t = np.linspace(0.0, 1.0, 5)
    v = np.array([0.0, 0.3, -0.2, 0.6, 0.1])
    s = ObservableSeries(t, v, ObservableKind.ORIENTATION)
    tmax, vmax = s.max()
    tmin, vmin = s.min()
    assert (vmax, tmax) == (0.6, 0.75)
    assert (vmin, tmin) == (-0.2, 0.5)


def test_optimization_result_checks():
    r = OptimizationResult(p_a=10.0, p_s=-2.0, t_1=0.4, t_2=0.1,
                           objective=0.9, branch=Branch.PROMPT,
                           order=PulseOrder.LASER_FIRST,
                           engine=Engine.CLASSICAL, evaluations=3)
    assert r.scaled_delay == pytest.approx(0.8)
    with pytest.raises(ValueError):
        OptimizationResult(p_a=10.0, p_s=-2.0, t_1=0.4, t_2=0.1,
                           objective=1.2, branch=Branch.PROMPT,
                           order=PulseOrder.LASER_FIRST,
                           engine=Engine.CLASSICAL, evaluations=3)
