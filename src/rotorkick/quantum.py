"""Quantum rotor propagation in the spherical-harmonic basis.

States live on Y_l^0, l = 0..l_max (linearly polarized impulsive fields
conserve m, and the initial state is the isotropic ground state, so only
m = 0 ever appears). Free evolution multiplies a_l by
exp(-i l(l+1) dt / 2); the revival period is exactly 2*pi because all
l(l+1)/2 phase rates are integers, as are the rates of the beats that
:func:`core.phase_sum`, the free-flight sampler of both engines, sums.

Kicks are pure phase factors in the angle representation,
exp(i P cos theta) or exp(i P cos^2 theta), realized here as matrix
exponentials through the eigen-decomposition of the banded cos / cos^2
operators. The cos^2 operator is defined as the square of the truncated
cos matrix, which keeps the two exactly consistent within the basis; the
symmetric kick therefore block-diagonalizes over even/odd l and parity
conservation is structural, not numerical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import defaults
from .core import (Kick, KickKind, ObservableSeries, PulseOrder,
                   PulseSequence, observable_kind, phase_jet, phase_sum,
                   pulse_pair, time_grid, validate_sequence, walk_sequence)
from .errors import BasisOverflow, NonFiniteValue


def cos_offdiag(l_max: int) -> np.ndarray:
    """<l|cos theta|l+1> = (l+1)/sqrt((2l+1)(2l+3)), l = 0..l_max-1."""
    l = np.arange(l_max, dtype=float)
    return (l + 1.0) / np.sqrt((2.0 * l + 1.0) * (2.0 * l + 3.0))


def cos2_bands(l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and second off-diagonal of cos^2 theta on l = 0..l_max.

    Computed as the square of the truncated cos matrix: the diagonal is
    c_{l-1}^2 + c_l^2 and the l,l+2 band is c_l * c_{l+1}, with c_l = 0
    outside the basis. Exact for l <= l_max - 1.
    """
    c = cos_offdiag(l_max)
    c_lo = np.concatenate(([0.0], c))        # c_{l-1}
    c_hi = np.concatenate((c, [0.0]))        # c_l
    diag = c_lo**2 + c_hi**2
    off2 = c_hi[: l_max - 1] * c_hi[1: l_max]
    return diag, off2


@dataclass(frozen=True)
class RotorWavefunction:
    """Unit-norm coefficient vector over Y_l^0."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coeffs must be a nonempty 1-d complex vector")
        n = np.linalg.norm(coeffs)
        if abs(n - 1.0) > 1e-8:
            raise ValueError(f"state norm {n} is not 1")

    @property
    def l_max(self) -> int:
        return self.coeffs.size - 1

    @cached_property
    def orientation_beats(self) -> np.ndarray:
        """:func:`orientation_beats` of the state, built once, as the t_2
        finder reads it at each Newton iterate."""
        return orientation_beats(self.coeffs)


def orientation_beats(coeffs: np.ndarray) -> np.ndarray:
    """q_l = conj(a_l) a_{l+1} <l|cos theta|l+1>, beating at rate l + 1,
    of each row of coefficients a."""
    beats = np.conj(coeffs[..., :-1])
    beats *= coeffs[..., 1:]
    beats *= cos_offdiag(coeffs.shape[-1] - 1)
    return beats


@dataclass(frozen=True)
class KickOperator:
    """Banded cos/cos^2 operator with its eigen-decomposition.

    For the asymmetric (cos) kind this is one tridiagonal problem; for
    the symmetric (cos^2) kind, two independent tridiagonal problems on
    the even- and odd-l sub-lattices.
    """

    kind: KickKind
    l_max: int
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]  # (idx, vals, vecs)

    def apply(self, coeffs: np.ndarray, strengths) -> np.ndarray:
        """exp(i s_k M) @ coeffs[:, k] for every point k of ``coeffs``,
        one state (l_max + 1,) or the columns (l_max + 1, K, ...) of K
        points, s_k one strength each (or one for all): one complex
        eigenbasis product for all K points, which rounds each column as
        any other batch of two or more columns does; a lone column is a
        matrix-vector product, which rounds differently. A state is one
        column; real input is taken as complex."""
        cols = np.asarray(coeffs, dtype=complex)
        out = np.empty_like(cols)
        for idx, vals, vecs in self.blocks:
            phase = np.exp(1j * np.multiply.outer(vals, strengths))
            part = vecs.T @ cols[idx].reshape(idx.size, -1)
            # the columns of point k, however many, take the phase of s_k
            part = part.reshape(idx.size, phase.size // idx.size, -1)
            part *= phase.reshape(part.shape[:2] + (1,))
            out[idx] = (vecs @ part.reshape(idx.size, -1)).reshape(
                (idx.size,) + cols.shape[1:])
        return out


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of the symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

    Solved densely by ``numpy.linalg.eigh``; perfbench counts the kick
    eigensolves under this name."""
    return np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


@lru_cache(maxsize=64)
def kick_operator(kind: KickKind, l_max: int) -> KickOperator:
    """Cached eigen-decomposed kick operator for a basis size.

    Each tridiagonal block (the cos matrix, or one parity block of cos^2)
    is solved densely by :func:`eigh_tridiagonal`, ``numpy.linalg.eigh``:
    O(n^3) against O(n^2) for a tridiagonal solver, but under 3 ms a
    block up to l_max 128 (the optimizer's bases stay below 200). Only
    from about l_max 1000 on does an operator pair (cos and cos^2) cost
    more than importing scipy's tridiagonal solver would.

    The cache keeps the 64 operators used last. The optimizer reads
    every point of a problem on one basis, and its landscape scan each
    of eight p_s rows on the row's own, so a quantum pair problem builds
    two operators (cos and cos^2) for each distinct basis: the
    laser-first ones of the benchmark at p_a = 3, 5 and 10 build 10, 10
    and 14, on l_max 30-38, 36-50 and 51-80 (38 shared). An operator of
    l_max 4096 holds 134 MB.
    """
    if kind is KickKind.ASYMMETRIC:
        c = cos_offdiag(l_max)
        vals, vecs = eigh_tridiagonal(np.zeros(l_max + 1), c)
        blocks = ((np.arange(l_max + 1), vals, vecs),)
    else:
        diag, off2 = cos2_bands(l_max)
        parts = []
        for parity in (0, 1):
            idx = np.arange(parity, l_max + 1, 2)
            vals, vecs = eigh_tridiagonal(diag[idx], off2[idx[:-1]])
            parts.append((idx, vals, vecs))
        blocks = tuple(parts)
    return KickOperator(kind, l_max, blocks)


def _basis(strength: float, l_max: int | None = None) -> int:
    """The basis of kicks of total ``strength``: the hint ``l_max``, else
    ``defaults.quantum_l_max``; at least 4, and ``BasisOverflow`` past
    ``defaults.L_MAX_CAP``."""
    if l_max is None:
        l_max = defaults.quantum_l_max(strength)
    if l_max > defaults.L_MAX_CAP:
        raise BasisOverflow(
            f"requested l_max = {l_max} exceeds the cap {defaults.L_MAX_CAP}"
        )
    return max(l_max, 4)


def ground_state(l_max: int) -> RotorWavefunction:
    """Isotropic ground state Y_0^0 on a basis of size l_max + 1."""
    if l_max < 4:
        raise ValueError("l_max must be at least 4")
    coeffs = np.zeros(l_max + 1, dtype=complex)
    coeffs[0] = 1.0
    return RotorWavefunction(coeffs)


def _tail_population(coeffs: np.ndarray):
    """Population above l_max - ``defaults.TAIL_MARGIN`` of a state, or of
    each column of an (l_max + 1, K) array, summed alike."""
    size = coeffs.shape[0]
    margin = min(defaults.TAIL_MARGIN, size - 1)
    tail = np.abs(np.ascontiguousarray(coeffs[size - margin:].T)) ** 2
    return tail.sum(axis=-1)


def apply_kick(psi: RotorWavefunction, kick: Kick) -> RotorWavefunction:
    """Apply one impulsive kick, enlarging the basis if the tail fills.

    The post-kick population above l_max - 10 must stay below 1e-10;
    otherwise the pre-kick state is zero-padded to twice the basis size
    and the kick is recomputed, up to ``defaults.L_MAX_CAP``. A NaN or
    infinite strength raises ``NonFiniteValue`` before any operator is
    built.
    """
    if not math.isfinite(kick.strength):
        # a NaN state never passes the tail test: refuse it before the
        # basis grows to the cap through cached eigendecompositions
        raise NonFiniteValue(f"non-finite kick strength: {kick}")
    coeffs = psi.coeffs
    while True:
        l_max = coeffs.size - 1
        new = kick_operator(kick.kind, l_max).apply(coeffs, kick.strength)
        if _tail_population(new) < defaults.TAIL_TOL:
            return RotorWavefunction(new)
        coeffs = np.zeros(grown_l_max(l_max, f"kick {kick}") + 1,
                          dtype=complex)
        coeffs[: psi.l_max + 1] = psi.coeffs


def grown_l_max(l_max: int, what: str) -> int:
    """The basis after l_max once a kick (``what``) fills its tail:
    2 l_max + 1 up to ``defaults.L_MAX_CAP``, past it ``BasisOverflow``."""
    cap = defaults.L_MAX_CAP
    if l_max >= cap:
        raise BasisOverflow(f"{what} needs l_max beyond the cap {cap}")
    return min(cap, 2 * l_max + 1)


def free_propagate(psi: RotorWavefunction, dt: float) -> RotorWavefunction:
    """Free rotor evolution: a_l *= exp(-i l(l+1) dt / 2)."""
    l = np.arange(psi.coeffs.size, dtype=float)
    return RotorWavefunction(psi.coeffs * np.exp(-0.5j * l * (l + 1.0) * dt))


def _kick_group(psi: RotorWavefunction, kicks) -> RotorWavefunction:
    """Apply kicks that share one time. They commute exactly in the angle
    representation (both are phase factors); they are applied
    symmetric-first for a deterministic truncated-basis result."""
    for kk in sorted(kicks, key=lambda kk: kk.kind is KickKind.ASYMMETRIC):
        psi = apply_kick(psi, kk)
    return psi


def _tangent_group(cols: np.ndarray, kicks, filled: np.ndarray) -> np.ndarray:
    """:func:`_kick_group` of the columns (state, d/dp_s, d/dt_1) of each
    point of :func:`two_kick_tangents`, ``cols`` (l_max + 1, K, 3), or of
    the states alone, (l_max + 1, K): each kick one
    :meth:`KickOperator.apply` for all K points, marking in ``filled`` the
    points whose tail a kick fills. A symmetric kick, whose strength is
    p_s, adds d/dp_s exp(i p_s M) a = i M a' of the kicked state a' to the
    second column, M the banded cos^2 matrix."""
    l_max = cols.shape[0] - 1
    for kk in sorted(kicks, key=lambda kk: kk.kind is KickKind.ASYMMETRIC):
        cols = kick_operator(kk.kind, l_max).apply(cols, kk.strength)
        a = cols if cols.ndim == 2 else cols[:, :, 0]
        filled |= ~(_tail_population(a) < defaults.TAIL_TOL)
        if kk.kind is KickKind.SYMMETRIC and cols.ndim == 3:
            diag, off2 = cos2_bands(l_max)
            m_a = diag[:, None] * a
            m_a[:-2] += off2[:, None] * a[2:]
            m_a[2:] += off2[:, None] * a[:-2]
            cols[:, :, 1] += 1j * m_a
    return cols


def expectation(psi: RotorWavefunction, k: int) -> float:
    """<cos^k theta> of the state, k = 1 or 2."""
    return float(observable_scan(psi, k, 0.0)[0])


def observable_scan(psi: RotorWavefunction, k: int, dts,
                    jet: bool = False) -> np.ndarray:
    """<cos^k theta> after freely evolving ``psi`` by each time in ``dts``;
    with ``jet``, the rows (f, f', f'') of that value and its first two
    t-derivatives (:func:`core.phase_jet`; a scalar time gives the one
    column, flattened), as the t_2 finder's Newton polish reads them.

    The one home of the band formulas, each band one :func:`core.phase_sum`:
    orientation couples l, l+1 coherences at phase rates l+1, alignment
    l, l+2 at rates 2l+3 (:func:`expectation` is the dt = 0 sample,
    :func:`orientation_samples` the FFT of the k = 1 band).
    """
    observable_kind(k)
    dts = np.asarray(dts, dtype=float)
    if k == 1:
        weights, mean = 2.0 * psi.orientation_beats, 0.0
        rates = -np.arange(1.0, psi.l_max + 1)
    else:
        a, (diag, off2) = psi.coeffs, cos2_bands(psi.l_max)
        weights = 2.0 * np.conj(a[:-2]) * a[2:] * off2
        rates = -2.0 * np.arange(psi.l_max - 1) - 3.0
        mean = np.real(np.conj(a) @ (diag * a))
    if jet:
        out = phase_jet(weights, 0.0, rates, dts)
        out[0] += mean
        return out
    return mean + phase_sum(weights, 0.0, rates, np.atleast_1d(dts))


def orientation_samples(psi, n: int) -> np.ndarray:
    """<cos theta> after freely evolving ``psi`` by dt = 2 pi j / n,
    j = 0..n-1, from one FFT; ``psi`` is a state, or an array of K rows
    of coefficients, which gives K rows of samples.

    Orientation is 2 Re sum_{m=1..l_max} q_{m-1} exp(-i m dt), a real
    trigonometric polynomial of period 2 pi, so one real-output transform
    (``np.fft.hfft``) of the beats q samples it exactly on the uniform
    grid once n > l_max: a rate m above n/2 is the rate n - m of the
    conjugate beat, and the rate n/2 counts twice. The transform is taken
    as ``hfft`` takes it, an unscaled ``irfft`` of the conjugate
    spectrum, which is filled in directly.
    """
    coeffs = getattr(psi, "coeffs", psi)
    beats, l_max = orientation_beats(coeffs), coeffs.shape[-1] - 1
    if n <= l_max:
        raise ValueError(f"n = {n} must exceed l_max = {l_max}: "
                         "beat frequencies would alias")
    half = n // 2
    low = min(l_max, half)
    spectrum = np.zeros(beats.shape[:-1] + (half + 1,), dtype=complex)
    spectrum[..., 1:low + 1] = np.conj(beats[..., :low])
    spectrum[..., n - l_max:n - low] += beats[..., low:][..., ::-1]
    if n % 2 == 0:
        spectrum[..., half] *= 2.0
    return np.fft.irfft(spectrum, n, norm="forward")


def run_sequence(
    seq: PulseSequence,
    t_eval,
    k: int = 2,
    l_max_hint: int | None = None,
) -> ObservableSeries:
    """Propagate the ground state through a kick sequence, recording
    <cos^k theta> at each requested time; the times between two kicks are
    one :func:`observable_scan` call, each kick group one
    :func:`_kick_group`.
    """
    kind = observable_kind(k)
    seq = validate_sequence(seq)
    t_eval = time_grid(t_eval)
    psi = ground_state(_basis(seq.total_strength(), l_max_hint))
    values = walk_sequence(seq, t_eval, psi, free_propagate, _kick_group,
                           lambda psi, dts: observable_scan(psi, k, dts))
    return ObservableSeries(t_eval, values, kind)


def two_kick_state(
    p_s: float,
    p_a: float,
    t_1: float,
    order: PulseOrder = PulseOrder.LASER_FIRST,
    l_max: int | None = None,
) -> RotorWavefunction:
    """State just after the second kick of the canonical pulse pair.

    :func:`orientation_samples` and :func:`observable_scan` then sample
    the observation time t_2. A NaN or infinite strength or delay raises
    ``NonFiniteValue`` before the basis is sized.
    """
    if not np.isfinite([p_s, p_a, t_1]).all():
        raise NonFiniteValue("non-finite value in (p_s, p_a, t_1)")
    psi = ground_state(_basis(abs(p_s) + abs(p_a), l_max))
    first, second = pulse_pair(p_s, p_a, order)
    return _kick_group(free_propagate(_kick_group(psi, first), t_1), second)


def two_kick_tangents(p_s, p_a: float, t_1, order: PulseOrder,
                      l_max: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`two_kick_state` at each point (p_s[k], t_1[k]) of the
    arrays ``p_s`` and ``t_1`` on the basis ``l_max``, and the
    derivatives of its coefficients in p_s and t_1: the optimizer's
    workhorse. Returns the rows (state, d/dp_s, d/dt_1) of each point,
    (K, 3, l_max + 1), and whether a kick filled each point's tail, so
    that its rows are to be read on a larger basis.

    Each kick is one :meth:`KickOperator.apply` for all K points, the
    tangents two more columns of it (:func:`_tangent_group`); the flight adds
    d/dt_1 = -i l(l+1)/2 times the flown state. A point's rows are those
    of a batch of one, and :func:`two_kick_state`'s up to round-off.
    """
    p_s, t_1 = np.atleast_1d(p_s), np.atleast_1d(t_1)
    if not (np.isfinite(p_s).all() and np.isfinite(t_1).all()
            and math.isfinite(p_a)):
        raise NonFiniteValue("non-finite value in (p_s, p_a, t_1)")
    size = _basis(np.abs(p_s).max(initial=0.0) + abs(p_a), l_max) + 1
    cols = np.zeros((size, p_s.size, 3), dtype=complex)
    cols[0, :, 0] = 1.0
    filled = np.zeros(p_s.size, dtype=bool)
    first, second = pulse_pair(p_s, p_a, order)
    cols = _tangent_group(cols, first, filled)
    energy = 0.5 * np.arange(size) * np.arange(1.0, size + 1)
    cols *= np.exp(-1j * np.multiply.outer(energy, t_1))[:, :, None]
    cols[:, :, 2] -= 1j * energy[:, None] * cols[:, :, 0]
    cols = _tangent_group(cols, second, filled)
    return np.ascontiguousarray(cols.transpose(1, 2, 0)), filled


def two_kick_delays(p_s: float, p_a: float, flight: np.ndarray,
                    order: PulseOrder, block: int):
    """:func:`two_kick_state` at one p_s and K delays, in near-equal
    blocks of at most ``block`` delays: yields each block's states as
    rows (k, l_max + 1) and whether a kick filled a tail. ``flight`` is
    the flight to every delay (:func:`flight_phases`), whose l_max + 1
    rows set the basis. The first pulse kicks the ground state once; each
    block's second pulse is one :meth:`KickOperator.apply`, in the kick
    order of :func:`_tangent_group`, and rounds as one block does unless
    it holds one delay of many (a matrix-vector product), which
    near-equal blocks never do."""
    kicked = np.zeros(1, dtype=bool)
    state = np.zeros((flight.shape[0], 1), dtype=complex)
    state[0] = 1.0
    first, second = pulse_pair(p_s, p_a, order)
    # the first pulse kicks one state, whose tail every delay inherits
    state = _tangent_group(state, first, kicked)
    blocks = max(1, -(-flight.shape[1] // block))
    for part in np.array_split(flight, blocks, axis=1):
        filled = np.zeros(part.shape[1], dtype=bool)
        cols = _tangent_group(state * part, second, filled)
        yield cols.T, bool(kicked[0] or filled.any())


def flight_phases(l_max: int, t: np.ndarray) -> np.ndarray:
    """exp(-i l(l+1) t / 2) of each free flight t of ``t`` on the basis
    l_max, (l_max + 1, K); a smaller basis's are its first rows."""
    energy = 0.5 * np.arange(l_max + 1) * np.arange(1.0, l_max + 2)
    return np.exp(-1j * np.multiply.outer(energy, t))


def orientation_tangents(psi: RotorWavefunction, dpsi: np.ndarray,
                         t: float) -> np.ndarray:
    """d<cos theta>/dx after freely evolving ``psi`` by ``t``, for each
    row dpsi = d coeffs / dx: 2 Re sum_l (conj(da_l) a_{l+1} + conj(a_l)
    da_{l+1}) <l|cos theta|l+1> exp(-i (l+1) t), the derivative of the
    orientation band of :func:`observable_scan` at fixed t."""
    a = psi.coeffs
    beats = (np.conj(dpsi[:, :-1]) * a[1:] + np.conj(a[:-1]) * dpsi[:, 1:]) \
        * cos_offdiag(psi.l_max)
    return 2.0 * (beats @ np.exp(-1j * t * np.arange(1.0, psi.l_max + 1))).real
