import math

import numpy as np
import pytest

from oracles import (grid_expectation, grid_propagate, operator_matrix,
                     quadrature_operator_matrix, reconstructed)
from rotorkick import defaults, quantum
from rotorkick.core import (Kick, KickKind, PulseOrder, two_pulse_sequence,
                            validate_sequence)
from rotorkick.errors import BasisOverflow, NonFiniteValue
from rotorkick.quantum import (RotorWavefunction, apply_kick, cos2_bands,
                               cos_offdiag, free_propagate, ground_state,
                               kick_operator, observable_scan,
                               orientation_samples, run_sequence,
                               two_kick_state)


def normalized(coeffs) -> RotorWavefunction:
    c = np.asarray(coeffs, dtype=complex)
    return RotorWavefunction(c / np.sqrt(np.sum(np.abs(c) ** 2)))


def test_cos_matrix_elements():
    # c_l = (l+1) / sqrt((2l+1)(2l+3))
    c = cos_offdiag(6)
    l = np.arange(6, dtype=float)
    assert c == pytest.approx((l + 1) / np.sqrt((2 * l + 1) * (2 * l + 3)),
                              rel=1e-14)


def test_cos_matrix_elements_are_one_read_only_array_per_size():
    """Each basis size's elements are built once and shared, read-only,
    bit for bit the formula's."""
    c = cos_offdiag(40)
    assert cos_offdiag(40) is c
    assert not c.flags.writeable
    with pytest.raises(ValueError):
        c[0] = 0.0
    l = np.arange(40, dtype=float)
    assert c.tobytes() == ((l + 1.0) / np.sqrt(
        (2.0 * l + 1.0) * (2.0 * l + 3.0))).tobytes()


def test_cos2_is_square_of_truncated_cos():
    l_max = 9
    c = cos_offdiag(l_max)
    m = np.diag(c, 1) + np.diag(c, -1)
    sq = m @ m
    diag, off2 = cos2_bands(l_max)
    assert diag == pytest.approx(np.diag(sq), rel=1e-14)
    assert off2 == pytest.approx(np.diag(sq, 2), rel=1e-14)


def test_ground_state_and_norm_check():
    psi = ground_state(8)
    assert psi.coeffs[0] == 1.0 and psi.l_max == 8
    with pytest.raises(ValueError):
        RotorWavefunction(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        ground_state(2)


@pytest.mark.parametrize("kind,strength", [
    (KickKind.SYMMETRIC, -7.3), (KickKind.ASYMMETRIC, 11.0),
])
def test_kick_operator_unitary_and_reconstructs(kind, strength):
    # at 199 the two parity blocks of cos^2 are equal in size, at 200 not
    for l_max in (30, 199, 200):
        op = kick_operator(kind, l_max)
        u = np.column_stack([
            op.apply(np.eye(l_max + 1, dtype=complex)[:, i], strength)
            for i in range(l_max + 1)
        ])
        assert np.max(np.abs(u.conj().T @ u - np.eye(l_max + 1))) < 1e-12
        assert np.max(np.abs(reconstructed(op) - operator_matrix(op))) < 1e-12


@pytest.mark.parametrize("kind", list(KickKind))
def test_kick_of_a_real_vector_is_that_of_its_complex_cast(kind):
    """A real state kicks to the complex state its complex cast kicks
    to, bit for bit, and a state is kicked as one column of a batch."""
    op = kick_operator(kind, 24)
    real = np.eye(25)[:, 3]
    got = op.apply(real, 2.5)
    assert got.dtype == complex and got.shape == (25,)
    assert np.array_equal(got, op.apply(real.astype(complex), 2.5))
    assert np.array_equal(got, op.apply(real[:, None, None], [2.5])[:, 0, 0])


def test_kick_operator_cache_is_bounded():
    """Every l_max the optimizer visits is a new key; the cache of parity
    bases keeps at most its bound, and a rebuilt basis equals the
    evicted one."""
    bound = quantum.parity_basis.cache_info().maxsize
    first = kick_operator(KickKind.ASYMMETRIC, 4).basis
    for l_max in range(5, 5 + bound):
        for kind in KickKind:
            kick_operator(kind, l_max)
            assert quantum.parity_basis.cache_info().currsize <= bound
    rebuilt = kick_operator(KickKind.ASYMMETRIC, 4).basis
    assert rebuilt is not first
    for name in ("mu", "even", "even_t", "odd", "odd_t"):
        assert np.array_equal(getattr(rebuilt, name), getattr(first, name))


@pytest.mark.parametrize("l_max", [620, 2047])
def test_kicks_match_the_dense_exponential_on_large_bases(l_max):
    """Both kicks equal V e^{i s w} V^T of the dense ``numpy.linalg.eigh``
    of the band formulas' matrix within 1e-12, and are unitary within
    1e-12: in full at 620; at 2047 on 48 random columns, with E and O
    orthonormal, which makes the product unitary whole."""
    rng = np.random.default_rng(l_max)
    n = l_max + 1
    if l_max < 1000:
        probes = np.eye(n)
    else:
        probes = rng.normal(size=(n, 48)) + 1j * rng.normal(size=(n, 48))
        probes = np.linalg.qr(probes)[0]
        basis = quantum.parity_basis(l_max)
        for vecs in (basis.even, basis.odd):
            gram = vecs.T @ vecs
            assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-12
    for kind, strength in ((KickKind.SYMMETRIC, -7.3),
                           (KickKind.ASYMMETRIC, 11.0)):
        op = kick_operator(kind, l_max)
        w, v = np.linalg.eigh(operator_matrix(op))
        want = v @ (np.exp(1j * strength * w)[:, None] * (v.T @ probes))
        got = op.apply(probes, strength)
        assert np.max(np.abs(got - want)) < 1e-12
        gram = got.conj().T @ got
        assert np.max(np.abs(gram - np.eye(probes.shape[1]))) < 1e-12


def test_a_cold_basis_size_takes_two_eigensolves(monkeypatch):
    """Both kick kinds at an l_max not yet built read one parity basis:
    two tridiagonal solves, the even and the odd block of cos^2."""
    calls = []
    solve = quantum.eigh_tridiagonal
    monkeypatch.setattr(quantum, "eigh_tridiagonal",
                        lambda d, e: calls.append(d.size) or solve(d, e))
    quantum.parity_basis.cache_clear()
    for kind in KickKind:
        kick_operator(kind, 41).apply(ground_state(41).coeffs, 2.0)
    assert calls == [21, 21]


@pytest.mark.parametrize("l_max", [200, 620])
@pytest.mark.parametrize("kind", list(KickKind))
def test_a_lone_column_rounds_as_a_batch_column(kind, l_max):
    """A state kicked alone equals, bit for bit, its column kicked in a
    batch of 2 to 17 columns, on parity blocks of 100-311 rows."""
    op = kick_operator(kind, l_max)
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(l_max + 1, 17)) \
        + 1j * rng.normal(size=(l_max + 1, 17))
    kicked = op.apply(batch, 4.5)
    for k in range(2, 18):
        assert np.array_equal(op.apply(batch[:, :k], 4.5), kicked[:, :k])
    for col in range(17):
        assert np.array_equal(op.apply(batch[:, col], 4.5), kicked[:, col])


def test_symmetric_kick_preserves_parity_exactly():
    l_max = 20
    rng = np.random.default_rng(5)
    even = np.zeros(l_max + 1, dtype=complex)
    even[::2] = rng.normal(size=11) + 1j * rng.normal(size=11)
    psi = normalized(even)
    kicked = apply_kick(psi, Kick(KickKind.SYMMETRIC, -4.0, 0.0))
    assert np.all(kicked.coeffs[1::2] == 0.0)  # structurally zero


def test_apply_kick_grows_basis_to_meet_tail_bound():
    psi = ground_state(4)
    kicked = apply_kick(psi, Kick(KickKind.ASYMMETRIC, 10.0, 0.0))
    assert kicked.l_max > 4
    tail = np.sum(np.abs(kicked.coeffs[-10:]) ** 2)
    assert tail < defaults.TAIL_TOL
    assert np.sum(np.abs(kicked.coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_a_kick_group_is_its_kicks_in_turn():
    """Unless a kick fills the tail, a group is its kicks one after
    another, symmetric first, bit for bit; no kicks leave the state as it
    is."""
    psi = two_kick_state(-3.0, 6.0, 0.4)
    sym = Kick(KickKind.SYMMETRIC, -0.5, 0.0)
    asym = Kick(KickKind.ASYMMETRIC, 0.8, 0.0)
    group = apply_kick(psi, asym, sym)
    assert group.l_max == psi.l_max
    assert group.coeffs.tobytes() \
        == apply_kick(apply_kick(psi, sym), asym).coeffs.tobytes()
    assert apply_kick(psi).coeffs.tobytes() == psi.coeffs.tobytes()


def test_a_group_whose_second_kick_fills_the_tail_is_redone_whole():
    """The symmetric kick fits l_max 16, the asymmetric one after it does
    not: the whole group is applied again to the state from before it,
    zero-padded, so the result is the group's on that basis bit for bit,
    and a basis large from the start agrees to round-off."""
    sym = Kick(KickKind.SYMMETRIC, 0.3, 0.0)
    asym = Kick(KickKind.ASYMMETRIC, 5.0, 0.0)
    small = ground_state(16)
    assert apply_kick(small, sym).l_max == 16
    grown = apply_kick(small, sym, asym)
    assert grown.l_max == 33
    assert grown.coeffs.tobytes() \
        == apply_kick(ground_state(33), sym, asym).coeffs.tobytes()
    assert np.linalg.norm(grown.coeffs) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(np.abs(grown.coeffs[-10:]) ** 2) < defaults.TAIL_TOL
    large = apply_kick(ground_state(128), sym, asym).coeffs
    assert np.abs(large[:34] - grown.coeffs).max() < 1e-12
    assert np.abs(large[34:]).max() < 1e-12


def test_basis_overflow_raises(monkeypatch):
    psi = ground_state(8)
    with monkeypatch.context() as m, pytest.raises(BasisOverflow):
        m.setattr(defaults, "L_MAX_CAP", 16)
        apply_kick(psi, Kick(KickKind.ASYMMETRIC, 30.0, 0.0))
    with pytest.raises(BasisOverflow):
        two_kick_state(0.0, 5000.0, 0.0)  # default hint exceeds the cap


def test_known_expectations():
    y1 = np.zeros(7, dtype=complex)
    y1[1] = 1.0
    assert observable_scan(RotorWavefunction(y1), 2, 0.0)[0] == pytest.approx(3.0 / 5.0)
    assert observable_scan(RotorWavefunction(y1), 1, 0.0)[0] == 0.0

    mix = np.zeros(7, dtype=complex)
    mix[0] = mix[1] = 1.0 / math.sqrt(2.0)
    psi = RotorWavefunction(mix)
    ts = np.linspace(0.0, 7.0, 23)
    got = observable_scan(psi, 1, ts)
    assert got == pytest.approx(np.cos(ts) / math.sqrt(3.0), abs=1e-12)


def test_observable_scan_matches_pointwise_evolution():
    psi = two_kick_state(-3.0, 6.0, 0.4)
    ts = np.linspace(0.0, 2.0, 17)
    for k in (1, 2):
        scanned = observable_scan(psi, k, ts)
        stepped = [observable_scan(free_propagate(psi, t), k, 0.0)[0] for t in ts]
        assert scanned == pytest.approx(stepped, abs=1e-12)


def _outer_product_scan(psi, k, dts):
    """<cos^k theta> from the (time x beat) array of complex exponentials,
    the band sums written out without the shared sampler."""
    a = psi.coeffs
    if k == 1:
        phases = np.exp(-1j * np.outer(dts, np.arange(1, psi.l_max + 1)))
        beats = np.conj(a[:-1]) * a[1:] * cos_offdiag(psi.l_max)
        return 2.0 * np.real(phases @ beats)
    diag, off2 = cos2_bands(psi.l_max)
    base = float(np.real(np.conj(a) @ (diag * a)))
    phases = np.exp(-1j * np.outer(dts, 2.0 * np.arange(psi.l_max - 1) + 3.0))
    return base + 2.0 * np.real(phases @ (np.conj(a[:-2]) * a[2:] * off2))


def test_observable_scan_matches_the_outer_product_formula():
    """In the shape of a seeded CLI trace (total strength 36, so l_max =
    128, and 5376 samples after the last kick) the scan agrees with the
    band sums written out as one array of exponentials."""
    psi = two_kick_state(-14.0, 22.0, 0.7)
    assert psi.l_max == 128
    dts = np.linspace(0.3, 9.3, 5376)
    for k in (1, 2):
        got = observable_scan(psi, k, dts)
        assert np.max(np.abs(got - _outer_product_scan(psi, k, dts))) < 1e-12


def test_bad_k_and_grids_are_refused_before_any_kick(monkeypatch):
    """Every sample after the last kick: k = 3 still fails before the
    first kick is applied, as do repeated and NaN times."""
    seq = two_pulse_sequence(-2.0, 10.0, 0.3, PulseOrder.LASER_FIRST)
    kicked = []
    monkeypatch.setattr(quantum, "apply_kick",
                        lambda psi, kick: kicked.append(kick))
    with pytest.raises(ValueError, match="k must be 1"):
        run_sequence(seq, [1.0, 2.0], k=3)
    with pytest.raises(ValueError, match="strictly ascending"):
        run_sequence(seq, [1.0, 1.0])
    with pytest.raises(NonFiniteValue):
        run_sequence(seq, [1.0, math.nan])
    with pytest.raises(ValueError, match="k must be 1"):
        observable_scan(ground_state(8), 3, [0.0])
    assert kicked == []


def test_orientation_that_vanishes_by_parity_is_positive_zero():
    """Before the HCP kick every orientation beat is exactly zero: the
    samples are +0.0, so the CSV prints 0.00000000000e+00, never -0."""
    seq = two_pulse_sequence(-2.0, 10.0, 0.3, PulseOrder.LASER_FIRST)
    ts = np.linspace(0.0, 6.28, 600)
    before = run_sequence(seq, ts, k=1).values[ts < 0.3]
    assert before.size and np.array_equal(before, np.zeros(before.size))
    assert not np.signbit(before).any()


def test_non_finite_strengths_are_refused_before_any_operator_build():
    """NaN never passes the tail test, so unrefused it would grow the
    basis to the cap through cached eigendecompositions."""
    built = quantum.parity_basis.cache_info().misses
    for bad in (math.nan, math.inf, -math.inf):
        for kind in KickKind:
            with pytest.raises(NonFiniteValue):
                apply_kick(ground_state(8), Kick(kind, bad, 0.0))
            with pytest.raises(NonFiniteValue):  # second kick of a group
                apply_kick(ground_state(11),
                           Kick(KickKind.SYMMETRIC, -1.0, 0.0),
                           Kick(kind, bad, 0.0))
        for args in ((bad, 5.0, 0.3), (-2.0, bad, 0.3), (-2.0, 5.0, bad)):
            for order in PulseOrder:
                with pytest.raises(NonFiniteValue):
                    two_kick_state(*args, order)
    assert quantum.parity_basis.cache_info().misses == built


def test_observable_scan_jet_matches_the_scan():
    """The polish's rows (f, f', f'') against the scan's values and their
    central differences, for both observables."""
    psi = two_kick_state(-2.0, 5.0, 4.9)
    h = 1e-4
    times = np.array([0.0, 1.3, 5.95, 8.0])
    for k in (1, 2):
        rows = observable_scan(psi, k, times, jet=True)
        assert rows.shape == (3, times.size)
        for (f, slope, curve), t in zip(rows.T, times):
            left, mid, right = observable_scan(psi, k, [t - h, t, t + h])
            assert f == pytest.approx(mid, abs=1e-13)
            assert slope == pytest.approx((right - left) / (2 * h), abs=1e-6)
            assert curve == pytest.approx((right - 2 * mid + left) / h**2,
                                          abs=1e-5)


@pytest.mark.parametrize("l_max", [4, 63, 64, 200])
def test_orientation_samples_take_their_length_from_the_basis(l_max):
    """n is the power of two n >= 4(l_max + 1), which holds every beat
    rate up to l_max below n/2, and the samples are the scan's there."""
    rng = np.random.default_rng(l_max)
    psi = normalized(rng.normal(size=l_max + 1)
                     + 1j * rng.normal(size=l_max + 1))
    samples = orientation_samples(psi)
    n = samples.shape[-1]
    assert n & (n - 1) == 0 and n // 2 < 4 * (l_max + 1) <= n
    ts = 2.0 * math.pi * np.arange(n) / n
    assert samples == pytest.approx(observable_scan(psi, 1, ts), abs=1e-13)


def test_band_formulas_match_the_quadrature_oracle():
    """The analytic bands equal the oracle's quadrature-built matrices to
    round-off; cos^2 is the truncated square, exact for l <= l_max - 1."""
    l_max = 64
    cos = operator_matrix(kick_operator(KickKind.ASYMMETRIC, l_max))
    assert np.max(np.abs(quadrature_operator_matrix(1, l_max) - cos)) < 1e-13
    cos2 = operator_matrix(kick_operator(KickKind.SYMMETRIC, l_max))
    diff = quadrature_operator_matrix(2, l_max) - cos2
    assert np.max(np.abs(diff[:l_max, :l_max])) < 1e-13


def test_free_propagation_revives():
    psi = two_kick_state(-2.0, 4.0, 0.3)
    back = free_propagate(psi, 2.0 * math.pi)
    assert np.max(np.abs(back.coeffs - psi.coeffs)) < 1e-10


def test_pipeline_matches_grid_oracle():
    seq = validate_sequence([
        Kick(KickKind.SYMMETRIC, -8.3, 0.0),
        Kick(KickKind.ASYMMETRIC, 12.1, 0.37),
        Kick(KickKind.SYMMETRIC, 4.4, 1.02),
    ])
    l_max = 120
    ref = grid_propagate(seq, l_max)
    psi = ground_state(l_max)
    clock = 0.0
    for kick in seq.kicks:
        psi = free_propagate(psi, kick.time - clock)
        clock = kick.time
        psi = apply_kick(psi, kick)
    n = min(psi.coeffs.size, ref.size)
    assert np.max(np.abs(psi.coeffs[:n] - ref[:n])) < 1e-8
    assert grid_expectation(ref, 1) == pytest.approx(observable_scan(psi, 1, 0.0)[0],
                                                     abs=1e-8)


@pytest.mark.parametrize("order", list(PulseOrder))
def test_run_sequence_against_scan(order, monkeypatch):
    """Each stretch between kicks is one call of the optimizer's sampler,
    so the trace after the last kick is the optimizer's scan bit for bit."""
    seq = two_pulse_sequence(-5.0, 7.0, 0.5, order)
    t_last = seq.kicks[-1].time
    ts = np.linspace(0.1, 3.0, 40)
    before, after = ts < t_last, ts >= t_last
    first = apply_kick(ground_state(defaults.quantum_l_max(12.0)),
                       seq.kicks[0])
    second = two_kick_state(-5.0, 7.0, 0.5, order)
    calls = []

    def counted(psi, k, dts):
        calls.append(len(dts))
        return scan(psi, k, dts)

    scan = observable_scan
    monkeypatch.setattr(quantum, "observable_scan", counted)
    for k in (1, 2):
        calls.clear()
        series = run_sequence(seq, ts, k=k)
        assert calls == [n for n in (before.sum(), after.sum()) if n]
        assert np.array_equal(series.values[before],
                              scan(first, k, ts[before]))
        assert np.array_equal(series.values[after],
                              scan(second, k, ts[after] - t_last))
    with pytest.raises(ValueError):
        run_sequence(seq, [0.2, 0.2], k=1)


def test_simultaneous_kicks_are_symmetric_first():
    seq = validate_sequence([Kick(KickKind.ASYMMETRIC, 6.0, 0.0),
                             Kick(KickKind.SYMMETRIC, -2.5, 0.0)])
    ts = np.array([0.3])
    series = run_sequence(seq, ts, k=1)
    psi = two_kick_state(-2.5, 6.0, 0.0, PulseOrder.SIMULTANEOUS)
    assert series.values[0] == pytest.approx(
        float(observable_scan(psi, 1, 0.3)[0]), abs=1e-12)


def test_sampling_at_kick_time_sees_the_kick():
    seq = validate_sequence([Kick(KickKind.ASYMMETRIC, 3.0, 0.0)])
    series = run_sequence(seq, [0.0, 0.1], k=2)
    psi = apply_kick(ground_state(30), seq.kicks[0])
    assert series.values[0] == pytest.approx(observable_scan(psi, 2, 0.0)[0], abs=1e-12)


def test_check6_optimum_converged_in_basis_size():
    """At acceptance check 6's p_a = 3 optimum the whole t_2 trace is
    unchanged when the basis is twice the default size."""
    p_s, p_a, t_1, t_2 = -1.4757, 3.0, 5.0150, 5.7209
    l_max = defaults.quantum_l_max(abs(p_s) + p_a)
    dts = np.append(np.linspace(0.0, 2.0 * np.pi, 513), t_2)
    base = observable_scan(two_kick_state(p_s, p_a, t_1), 1, dts)
    doubled = observable_scan(
        two_kick_state(p_s, p_a, t_1, l_max=2 * l_max), 1, dts)
    assert np.max(np.abs(doubled - base)) < 1e-10
    assert base[-1] == pytest.approx(-0.86405, abs=1e-4)


@pytest.mark.parametrize("order", list(PulseOrder))
def test_two_kick_delays_are_the_pair_states_at_each_delay(order):
    """One first kick, one flight array and one second kick of all the
    delays give the state after the pair at each delay, as the state
    column of the optimizer's kernel does; taken in blocks of at most 4
    delays, or one delay at a time, the same states bit for bit."""
    t_1 = np.array([0.0, 0.3, 2.9, 5.5, 6.1])
    flight = quantum.flight_phases(60, t_1)
    [(rows, filled)] = quantum.two_kick_delays(-3.0, 6.0, flight, order, 5)
    assert rows.shape == (5, 61) and not filled
    blocks = list(quantum.two_kick_delays(-3.0, 6.0, flight, order, 4))
    assert [(len(part), full) for part, full in blocks] == [(3, False),
                                                           (2, False)]
    assert np.concatenate([part for part, _ in blocks]).tobytes() \
        == rows.tobytes()
    singles = list(quantum.two_kick_delays(-3.0, 6.0, flight, order, 1))
    assert np.concatenate([part for part, _ in singles]).tobytes() \
        == rows.tobytes()
    tangents, _ = quantum.two_kick_tangents(np.full(5, -3.0), 6.0, t_1,
                                            order, 60)
    for row, t, cols in zip(rows, t_1, tangents):
        state = quantum.two_kick_state(-3.0, 6.0, t, order, 60).coeffs
        assert np.abs(row - state).max() < 1e-13
        assert np.abs(row - cols[0]).max() < 1e-13
