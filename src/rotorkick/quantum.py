"""Quantum rotor propagation in the spherical-harmonic basis.

States live on Y_l^0, l = 0..l_max (linearly polarized impulsive fields
conserve m, and the initial state is the isotropic ground state, so only
m = 0 ever appears). Free evolution multiplies a_l by
exp(-i l(l+1) dt / 2); the revival period is exactly 2*pi because all
l(l+1)/2 phase rates are integers, as are the rates of the beats that
:func:`core.phase_sum`, the free-flight sampler of both engines, sums.

Kicks are pure phase factors in the angle representation,
exp(i P cos theta) or exp(i P cos^2 theta), realized here as matrix
exponentials of the banded cos / cos^2 operators in one eigenbasis per
basis size (:class:`ParityBasis`). The cos^2 operator is defined as the
square of the truncated cos matrix, which keeps the two exactly
consistent within the basis: it block-diagonalizes over even/odd l, so
parity conservation of the symmetric kick is structural, not numerical,
and the eigenvectors of its two parity blocks, paired through the cos
matrix, diagonalize the asymmetric kick too. Both kicks are real matrix
products on the float view of the complex coefficients. Every kick
group goes through one column kicker, :func:`_kick_columns`, on a lone
state and on the optimizer's batches alike; :func:`apply_kick` adds the
state path's one grow-and-retry rule. The landscape scan's rows and the
optimizer's points take their pulse pair from one kernel,
:func:`two_kick_columns`.
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


@lru_cache(maxsize=64)
def cos_offdiag(l_max: int) -> np.ndarray:
    """<l|cos theta|l+1> = (l+1)/sqrt((2l+1)(2l+3)), l = 0..l_max-1.

    Cached for the 64 basis sizes used last, as every orientation read
    and every optimizer tangent calls it; the array is shared and
    read-only."""
    l = np.arange(l_max, dtype=float)
    c = (l + 1.0) / np.sqrt((2.0 * l + 1.0) * (2.0 * l + 3.0))
    c.setflags(write=False)
    return c


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
class ParityBasis:
    """The eigenbasis of both kicks on the basis l = 0..l_max.

    The cos matrix C couples even l to odd l only, so C^2 (the cos^2
    operator) splits into an even block and an odd block, and the two
    share their nonzero eigenvalues mu_k: the squared singular values
    sigma_k^2 of C's even-odd block (Golub and Kahan, SIAM J. Numer.
    Anal. B 2, 205 (1965)). ``even`` holds the even block's eigenvectors
    E and ``odd`` the odd block's O, both ascending in mu, with each O_k
    signed so that C E_k = sigma_k O_k. For even l_max the even block has
    one more row, and E's first column is its null vector. C's
    eigenvectors are then (E_k +- O_k)/sqrt(2) at +-sigma_k, plus that
    null vector at 0, so the cos^2 eigenbasis serves the cos kick too.

    Each matrix is held twice, as E and as E^T, both F-ordered: the
    kick multiplies it from the left, and with an F-ordered left factor
    OpenBLAS (0.3.31, x86-64) rounds a column as it does in any batch of
    columns, on blocks of up to 384 rows (l_max < 768). Past that, its
    small-matrix path rounds a batch of 1-3 columns differently. With a
    C-ordered left factor it rounded batches of some column counts
    differently at every size tried (20-200 rows).
    """

    l_max: int
    mu: np.ndarray     # (n_odd,) ascending
    even: np.ndarray   # E, (n_even, n_even)
    even_t: np.ndarray
    odd: np.ndarray    # O, (n_odd, n_odd)
    odd_t: np.ndarray


@dataclass(frozen=True)
class KickOperator:
    """exp(i s cos theta) (asymmetric kind) or exp(i s cos^2 theta)
    (symmetric kind) on the basis l = 0..l_max, applied through the one
    :class:`ParityBasis` of that basis."""

    kind: KickKind
    basis: ParityBasis

    @property
    def l_max(self) -> int:
        return self.basis.l_max

    def apply(self, coeffs: np.ndarray, strengths) -> np.ndarray:
        """exp(i s_k M) @ coeffs[:, k] for every point k of ``coeffs``,
        one state (l_max + 1,) or the columns (l_max + 1, K, ...) of K
        points, s_k one strength each (or one for all).

        Each parity part of the columns goes into the eigenbasis, x =
        E^T a_even and y = O^T a_odd. The symmetric kick multiplies both
        by e^{i s mu} (the even null vector by 1). The asymmetric kick
        rotates each pair, x' = cos(s sigma) x + i sin(s sigma) y and y' =
        cos(s sigma) y + i sin(s sigma) x, and passes the null vector
        through. a_even' = E x' and a_odd' = O y'. Every product is one
        real matrix product on the float view of a parity's rows, read
        and written in place, for all K points at once; so a column, a
        lone state included, rounds as in any other batch (see
        :class:`ParityBasis` for the bound). Real input is taken as
        complex."""
        cols = np.ascontiguousarray(coeffs, dtype=complex)
        basis, s = self.basis, np.ravel(strengths)
        flat = cols.reshape(cols.shape[0], -1).view(float)
        # the columns of point k, however many, take the phase of s_k
        x, y = ((vecs_t @ flat[parity::2]).view(complex)
                .reshape(len(vecs_t), s.size, -1)
                for parity, vecs_t in enumerate((basis.even_t, basis.odd_t)))
        null = len(x) - len(y)
        if self.kind is KickKind.SYMMETRIC:
            phase = np.exp(1j * np.multiply.outer(basis.mu, s))[:, :, None]
            x[null:] *= phase
            y *= phase
        else:
            sigma = np.sqrt(basis.mu)
            rot = np.exp(1j * np.multiply.outer(sigma, s))[:, :, None]
            cos, isin = rot.real, 1j * rot.imag
            x_k = x[null:]
            x[null:], y = cos * x_k + isin * y, cos * y + isin * x_k
        out = np.empty_like(flat)
        for parity, vecs, z in ((0, basis.even, x), (1, basis.odd, y)):
            np.matmul(vecs, z.reshape(len(z), -1).view(float),
                      out=out[parity::2])
        return out.view(complex).reshape(cols.shape)


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of the symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

    Solved densely by ``numpy.linalg.eigh``; perfbench counts the kick
    eigensolves under this name."""
    return np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


@lru_cache(maxsize=32)
def parity_basis(l_max: int) -> ParityBasis:
    """Cached :class:`ParityBasis` of a basis size: two
    :func:`eigh_tridiagonal` solves, the even and the odd block of cos^2.

    Each block is solved densely by ``numpy.linalg.eigh``, O(n^3)
    against O(n^2) for a tridiagonal solver: a basis takes 1.1 ms at
    l_max 128, 32 ms at 620 and 0.67 s at 2047 (2-core x86-64 host, one
    BLAS thread). The odd vectors are signed by C E_k, an O(n^2) product
    on C's even-odd band (:func:`cos_offdiag`).

    The cache keeps the 32 bases used last, each read by both kick
    kinds. The optimizer reads every point of a problem on one basis,
    and its landscape scan each of eight p_s rows on the row's own: the
    laser-first problems of the benchmark at p_a = 3, 5 and 10 build 5,
    5 and 7 bases, on l_max 30-38, 36-50 and 51-80. A basis of l_max
    4096 holds 134 MB.
    """
    diag, off2 = cos2_bands(l_max)
    blocks = []
    for parity in (0, 1):
        idx = np.arange(parity, l_max + 1, 2)
        blocks.append(eigh_tridiagonal(diag[idx], off2[idx[:-1]]))
    (_, even), (mu, odd) = blocks
    # C E_k on the odd rows, 2j+1: <2j+1|cos|2j> E[j] + <2j+1|cos|2j+2>
    # E[j+1], the second term for 2j+2 <= l_max only
    c, e = cos_offdiag(l_max), even[:, len(even) - len(odd):]
    c_even = c[0::2, None] * e[:len(odd)]
    c_even[:l_max // 2] += c[1::2, None] * e[1:l_max // 2 + 1]
    odd = odd * np.sign(np.sum(odd * c_even, axis=0))
    return ParityBasis(l_max, mu, np.asfortranarray(even),
                       np.asfortranarray(even.T), np.asfortranarray(odd),
                       np.asfortranarray(odd.T))


def kick_operator(kind: KickKind, l_max: int) -> KickOperator:
    """The kick operator of ``kind`` on the basis l_max, reading the
    cached :func:`parity_basis` that both kinds share."""
    return KickOperator(kind, parity_basis(l_max))


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


def apply_kick(psi: RotorWavefunction, *kicks: Kick) -> RotorWavefunction:
    """Apply the impulsive kicks of one time (any number, one
    :func:`_kick_columns`), enlarging the basis if a kick fills the tail.

    After each kick the population above l_max - 10 must stay below 1e-10;
    otherwise the state from before the group is zero-padded to
    :func:`grown_l_max` and the whole group is applied again, up to
    ``defaults.L_MAX_CAP``. A NaN or infinite strength in the group
    raises ``NonFiniteValue`` before any operator is built.
    """
    for kick in kicks:
        if not math.isfinite(kick.strength):
            # a NaN state never passes the tail test: refuse it before the
            # basis grows to the cap through cached eigendecompositions
            raise NonFiniteValue(f"non-finite kick strength: {kick}")
    coeffs = psi.coeffs
    while True:
        new, filled = _kick_columns(coeffs, kicks)
        if not filled:
            return RotorWavefunction(new)
        size = grown_l_max(coeffs.size - 1, f"kicks {kicks}") + 1
        coeffs = np.zeros(size, dtype=complex)
        coeffs[: psi.l_max + 1] = psi.coeffs


def grown_l_max(l_max: int, what: str) -> int:
    """The basis after l_max once a kick (``what``) fills its tail:
    2 l_max + 1 up to ``defaults.L_MAX_CAP``, past it ``BasisOverflow``."""
    cap = defaults.L_MAX_CAP
    if l_max >= cap:
        raise BasisOverflow(f"{what} needs l_max beyond the cap {cap}")
    return min(cap, 2 * l_max + 1)


def free_propagate(psi: RotorWavefunction, dt: float) -> RotorWavefunction:
    """Free rotor evolution by dt, its :func:`flight_phases`."""
    return RotorWavefunction(psi.coeffs * flight_phases(psi.l_max, dt))


def _kick_columns(cols: np.ndarray, kicks):
    """Kicks that share one time, applied symmetric-first (they commute
    exactly in the angle representation; the order fixes the
    truncated-basis result), each one :meth:`KickOperator.apply` of
    ``cols``: one state (l_max + 1,), K states (l_max + 1, K), or the
    columns (state, d/dp_s, d/dt_1) of K points (l_max + 1, K, 3). A
    symmetric kick, whose strength is p_s, adds d/dp_s exp(i p_s M) a =
    i M a' of the kicked state a' to the second column, M the banded
    cos^2 matrix. Returns ``cols`` kicked and whether a kick filled the
    tail of the state, or of each point: left a population of at least
    ``defaults.TAIL_TOL`` above l_max - ``defaults.TAIL_MARGIN``."""
    l_max, filled = cols.shape[0] - 1, np.False_
    tail = l_max + 1 - min(defaults.TAIL_MARGIN, l_max)
    if len(kicks) > 1:
        kicks = sorted(kicks, key=lambda kk: kk.kind is KickKind.ASYMMETRIC)
    for kk in kicks:
        cols = kick_operator(kk.kind, l_max).apply(cols, kk.strength)
        a = cols if cols.ndim < 3 else cols[:, :, 0]
        pop = np.abs(np.ascontiguousarray(a[tail:].T)) ** 2
        filled = filled | ~(pop.sum(axis=-1) < defaults.TAIL_TOL)
        if cols.ndim == 3 and kk.kind is KickKind.SYMMETRIC:
            diag, off2 = cos2_bands(l_max)
            m_a = diag[:, None] * a
            m_a[:-2] += off2[:, None] * a[2:]
            m_a[2:] += off2[:, None] * a[:-2]
            cols[:, :, 1] += 1j * m_a
    return cols, filled


def observable_scan(psi: RotorWavefunction, k: int, dts,
                    jet: bool = False) -> np.ndarray:
    """<cos^k theta> after freely evolving ``psi`` by each time in ``dts``;
    with ``jet``, the rows (f, f', f'') of that value and its first two
    t-derivatives (:func:`core.phase_jet`; a scalar time gives the one
    column, flattened), as the t_2 finder's Newton polish reads them.

    The one home of the band formulas, each band one :func:`core.phase_sum`:
    orientation couples l, l+1 coherences at phase rates l+1, alignment
    l, l+2 at rates 2l+3 (a ``dts`` of 0.0 reads the state's own
    <cos^k theta>; :func:`orientation_samples` is the FFT of the k = 1
    band).
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


def orientation_samples(psi) -> np.ndarray:
    """<cos theta> after freely evolving ``psi`` by dt = 2 pi j / n,
    j = 0..n-1, from one FFT; ``psi`` is a state, or an array of K rows
    of coefficients, which gives K rows of samples. n, the last axis of
    the result, is the power of two n >= 4(l_max + 1).

    Orientation is 2 Re sum_{m=1..l_max} q_{m-1} exp(-i m dt), a real
    trigonometric polynomial of period 2 pi, so one real-output transform
    (``np.fft.hfft``) of the beats q samples it exactly on the uniform
    grid, whose n/2 > l_max holds every rate unaliased. The transform is
    taken as ``hfft`` takes it, an unscaled ``irfft`` of the conjugate
    spectrum, which is filled in directly.
    """
    coeffs = getattr(psi, "coeffs", psi)
    beats, l_max = orientation_beats(coeffs), coeffs.shape[-1] - 1
    n = 1 << (4 * (l_max + 1) - 1).bit_length()
    spectrum = np.zeros(beats.shape[:-1] + (n // 2 + 1,), dtype=complex)
    spectrum[..., 1:l_max + 1] = np.conj(beats)
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
    :func:`apply_kick`.
    """
    kind = observable_kind(k)
    seq = validate_sequence(seq)
    t_eval = time_grid(t_eval)
    psi = ground_state(_basis(seq.total_strength(), l_max_hint))
    values = walk_sequence(seq, t_eval, psi, free_propagate,
                           lambda psi, kicks: apply_kick(psi, *kicks),
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
    return apply_kick(free_propagate(apply_kick(psi, *first), t_1), *second)


def two_kick_columns(cols: np.ndarray, p_s, p_a: float, flight: np.ndarray,
                     order: PulseOrder, block: int):
    """:func:`two_kick_state` of the ground columns ``cols`` at each delay
    of ``flight`` (:func:`flight_phases`; its rows set the basis): the
    first pulse kicks ``cols`` once, then each near-equal block of at
    most ``block`` delays flies and takes the second pulse, one
    :func:`_kick_columns`. Yields each block's rows and whether a kick
    filled each delay's tail. As in :func:`_kick_columns`, ``cols`` is
    one column (l_max + 1, 1), one p_s at every delay, whose rows are
    states (k, l_max + 1), or K points (l_max + 1, K, 3), p_s[k] at delay
    k, whose C-ordered rows (k, 3, l_max + 1) are (state, d/dp_s,
    d/dt_1). A delay rounds as in a block of one (within the bound of
    :class:`ParityBasis`). NaN or infinite input raises ``NonFiniteValue``."""
    # a flight's row l = 0 is 1 at a finite delay, NaN at any other
    if not np.isfinite(np.hstack((p_s, p_a, flight[0]))).all():
        raise NonFiniteValue("non-finite value in (p_s, p_a, t_1)")
    first, second = pulse_pair(p_s, p_a, order)
    cols, kicked = _kick_columns(cols, first)
    delays, end = flight.shape[1], 0
    kicked, blocks = np.zeros(delays, bool) | kicked, -(-delays // block)
    for k in range(blocks, 0, -1):  # near-equal blocks, the longer first
        part = slice(end, end := end + (delays + k - 1) // blocks)
        if cols.ndim == 3:  # each point flies to its own delay
            energy = 0.5 * np.arange(len(cols)) * np.arange(1.0, len(cols) + 1)
            flown = cols[:, part] * flight[:, part, None]
            flown[:, :, 2] -= 1j * energy[:, None] * flown[:, :, 0]  # d/dt_1
            second = pulse_pair(p_s[part], p_a, order)[1]
        else:
            flown = cols * flight[:, part]
        flown, filled = _kick_columns(flown, second)
        rows = flown.T if cols.ndim < 3 else flown.transpose(1, 2, 0).copy()
        yield rows, kicked[part] | filled


def flight_phases(l_max: int, t: np.ndarray) -> np.ndarray:
    """exp(-i l(l+1) t / 2) of each free flight t of ``t`` (K, or one) on
    the basis l_max, (l_max + 1, K); a smaller basis's are its first rows."""
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
