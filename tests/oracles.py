"""Independent reference implementations used only by the tests.

Every oracle here deliberately takes a different computational route
than the package:

- grid_propagate represents the wavefunction pointwise on a dense
  Gauss-Legendre grid in u = cos(theta) and applies kicks as literal
  phase multiplications, instead of eigendecomposing banded operators.
- quadrature_operator_matrix builds cos/cos^2 matrix elements by
  numerical quadrature instead of the analytic band formulas, and
  expm_kick exponentiates them with scipy.linalg.expm.
- cos_phase_coefficients, cos2_phase_coefficients and
  hybrid_coefficients expand a kicked state in closed form: scipy's
  spherical Bessel functions (Rayleigh), mpmath's confluent
  hypergeometric 1F1, and a double sum over zero-projection
  Clebsch-Gordan coefficients (cg000_squared), instead of
  exponentiating any operator.
- mc_classical_observable replaces Gauss-Legendre ensemble averaging
  with plain Monte Carlo over random initial angles.
- brute_force_prompt searches the quantum prompt optimum of a
  laser-first or HCP-first pair exhaustively: dense eigh-diagonalized
  quadrature operators, a full (p_s, t_1) grid and an FFT over t_2,
  instead of the banded kicks, the landscape scan, the t_2 scan and the
  multi-start ascent of the package.
- brute_force_weak_laser_limit searches the classical laser-first
  pair's weak-laser limit on a full (c, tau) grid with a cosine per
  node, polished by Nelder-Mead, instead of the package's first scan,
  Newton polish and ascent in c.

operator_matrix and reconstructed are diagnostics, not oracles: the
dense matrix of a kick operator's band formulas, and the same matrix
assembled back from its eigen-decomposition.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy.linalg import eigh, expm
from scipy.optimize import minimize, minimize_scalar
from scipy.special import roots_legendre, spherical_jn

from rotorkick import defaults
from rotorkick.core import (KickKind, PulseOrder, PulseSequence,
                            validate_sequence)
from rotorkick.quantum import KickOperator, cos2_bands, cos_offdiag

TWO_PI = 2.0 * np.pi
SQRT_4PI = math.sqrt(4.0 * math.pi)


def _legendre(n: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(u) and P_n'(u) by the upward three-term recurrence."""
    p_prev, p = np.ones_like(u), u.copy()
    for l in range(1, n):
        p_prev, p = p, ((2 * l + 1) * u * p - l * p_prev) / (l + 1)
    return p, n * (u * p - p_prev) / (u * u - 1.0)


@lru_cache(maxsize=8)
def _grid(n_grid: int):
    """Gauss-Legendre nodes and weights on [-1, 1]: the nodes to round-off,
    the weights next to u = +-1 not.

    roots_legendre eigensolves the banded Jacobi matrix (Golub-Welsch;
    leggauss eigensolves a dense companion matrix and needs minutes at
    the node counts used here), but its nodes and weights are off by
    enough to put the Gram matrix of the basis up to 4e-11 from the
    identity at 2048 nodes. Two Newton steps on P_n(u) = 0 and the
    weights 2 / ((1 - u^2) P_n'(u)^2) bring that to about 2e-14. Those
    weights carry the 1 - u^2 of a rounded u: against 40-digit mpmath
    they are off by up to 3.4e-13 relative at n = 128, 2.2e-12 at 1024
    and 7.0e-11 at 2048 next to u = +-1, where the weights, and so their
    share of any average here, are smallest.
    """
    u, _ = roots_legendre(n_grid)
    for _ in range(2):
        p, dp = _legendre(n_grid, u)
        u = u - p / dp
    _, dp = _legendre(n_grid, u)
    return u, 2.0 / ((1.0 - u * u) * dp * dp)


def _basis_matrix(l_max: int, u: np.ndarray) -> np.ndarray:
    """Y_l^0(u) for l = 0..l_max, rows l, columns grid points.

    Upward three-term recurrence; eval_legendre with an array of degrees
    falls back to a per-element hypergeometric evaluation and is far too
    slow at the sizes used here.
    """
    p = np.empty((l_max + 1, u.size))
    p[0] = 1.0
    if l_max >= 1:
        p[1] = u
    for l in range(1, l_max):
        p[l + 1] = ((2 * l + 1) * u * p[l] - l * p[l - 1]) / (l + 1)
    ls = np.arange(l_max + 1)
    norm = np.sqrt((2 * ls + 1) / (4.0 * np.pi))
    return norm[:, None] * p


def grid_propagate(seq: PulseSequence, l_max: int,
                   n_grid: int = 4096) -> np.ndarray:
    """Final coefficients after the sequence, kicks applied pointwise.

    Free flight between kick groups uses the exact diagonal phases (the
    only possible route); the kicks and the projections are where this
    differs from the banded-operator path.
    """
    seq = validate_sequence(seq)
    u, w = _grid(n_grid)
    basis = _basis_matrix(l_max, u)
    ls = np.arange(l_max + 1, dtype=float)
    coeffs = np.zeros(l_max + 1, dtype=complex)
    coeffs[0] = 1.0
    clock = min((k.time for k in seq.kicks), default=0.0)
    for t_kick, kicks in seq.time_groups():
        coeffs = coeffs * np.exp(-0.5j * ls * (ls + 1.0) * (t_kick - clock))
        clock = t_kick
        psi_u = coeffs @ basis
        for kick in kicks:
            if kick.kind is KickKind.SYMMETRIC:
                psi_u = psi_u * np.exp(1j * kick.strength * u * u)
            else:
                psi_u = psi_u * np.exp(1j * kick.strength * u)
        coeffs = TWO_PI * (basis * w[None, :]) @ psi_u
    return coeffs


def grid_expectation(coeffs: np.ndarray, k: int,
                     n_grid: int = 4096) -> float:
    """<cos^k theta> evaluated as a plain grid integral of |psi(u)|^2."""
    u, w = _grid(n_grid)
    basis = _basis_matrix(coeffs.size - 1, u)
    psi_u = coeffs @ basis
    return float(TWO_PI * np.sum(w * u**k * np.abs(psi_u) ** 2))


def quadrature_operator_matrix(k: int, l_max: int,
                               n_grid: int = 2048) -> np.ndarray:
    """Dense matrix of cos^k theta in the Y_l^0 basis, by quadrature."""
    u, w = _grid(n_grid)
    basis = _basis_matrix(l_max, u)
    return TWO_PI * (basis * (w * u**k)[None, :]) @ basis.T


def expm_kick(kind: KickKind, strength: float, l_max: int) -> np.ndarray:
    """Ground state kicked via scipy matrix exponential of the
    quadrature-built operator."""
    k = 1 if kind is KickKind.ASYMMETRIC else 2
    mat = quadrature_operator_matrix(k, l_max)
    e0 = np.zeros(l_max + 1, dtype=complex)
    e0[0] = 1.0
    return expm(1j * strength * mat) @ e0


def operator_matrix(op: KickOperator) -> np.ndarray:
    """Dense cos (asymmetric) or cos^2 (symmetric) matrix of ``op``'s
    kind and basis, from the package's band formulas."""
    if op.kind is KickKind.ASYMMETRIC:
        c = cos_offdiag(op.l_max)
        return np.diag(c, 1) + np.diag(c, -1)
    diag, off2 = cos2_bands(op.l_max)
    return np.diag(diag) + np.diag(off2, 2) + np.diag(off2, -2)


def reconstructed(op: KickOperator) -> np.ndarray:
    """The matrix assembled back from ``op.basis``: E diag(mu) E^T and
    O diag(mu) O^T on the even and odd rows (symmetric kind), or
    E diag(sigma) O^T between them and its transpose (asymmetric kind),
    the even null vector at 0; equals :func:`operator_matrix` of ``op``."""
    basis, n = op.basis, op.l_max + 1
    even, odd = np.arange(0, n, 2), np.arange(1, n, 2)
    e = basis.even[:, even.size - odd.size:]
    m = np.zeros((n, n))
    if op.kind is KickKind.SYMMETRIC:
        m[np.ix_(even, even)] = (e * basis.mu) @ e.T
        m[np.ix_(odd, odd)] = (basis.odd * basis.mu) @ basis.odd.T
    else:
        m[np.ix_(even, odd)] = (e * np.sqrt(basis.mu)) @ basis.odd.T
        m[np.ix_(odd, even)] = m[np.ix_(even, odd)].T
    return m


def cg000_squared(j1: int, j2: int, j3: int) -> float:
    """Squared Clebsch-Gordan coefficient C(j1, j2, j3 | 0, 0, 0)^2.

    Closed form for zero projections: vanishes unless the triangle rule
    holds and J = j1+j2+j3 is even. Factorials in log space.
    """
    if j1 < 0 or j2 < 0 or j3 < 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    J = j1 + j2 + j3
    if J % 2 == 1:
        return 0.0
    g = J // 2
    log3j = 0.5 * (
        math.lgamma(J - 2 * j1 + 1)
        + math.lgamma(J - 2 * j2 + 1)
        + math.lgamma(J - 2 * j3 + 1)
        - math.lgamma(J + 2)
    ) + (
        math.lgamma(g + 1)
        - math.lgamma(g - j1 + 1)
        - math.lgamma(g - j2 + 1)
        - math.lgamma(g - j3 + 1)
    )
    # C^2 = (2*j3 + 1) * (3j symbol)^2
    return (2 * j3 + 1) * math.exp(2.0 * log3j)


def cos2_phase_coefficients(p_s: float, l_max: int) -> np.ndarray:
    """Expansion of exp(i*p_s*cos^2 theta) Y_0^0 over Y_l^0, l = 0..l_max.

    Only even l are populated. The closed form per even l = 2J is
    sqrt(pi(4J+1)) (i p_s)^J Gamma(J+1/2)/Gamma(2J+3/2)
    * 1F1(J+1/2; 2J+3/2; i p_s), divided by sqrt(4 pi) to give unit-norm
    amplitudes. 1F1 is mpmath's: scipy's, at an imaginary argument, is
    off by 7.8e-5 relative at J = 20 and p_s = -20, and by orders of
    magnitude from J = 30 on.
    """
    out = np.zeros(l_max + 1, dtype=complex)
    for J in range(l_max // 2 + 1):
        pref = math.sqrt(math.pi * (4 * J + 1)) * math.exp(
            math.lgamma(J + 0.5) - math.lgamma(2 * J + 1.5)
        )
        f = complex(mpmath.hyp1f1(J + 0.5, 2 * J + 1.5, 1j * p_s))
        out[2 * J] = pref * (1j * p_s) ** J * f / SQRT_4PI
    return out


def cos_phase_coefficients(p_a: float, l_max: int) -> np.ndarray:
    """Expansion of exp(i*p_a*cos theta) Y_0^0 over Y_l^0 (Rayleigh form):
    a_l = i^l sqrt(2l+1) j_l(p_a)."""
    l = np.arange(l_max + 1)
    return (1j**l) * np.sqrt(2 * l + 1) * spherical_jn(l, p_a)


def hybrid_coefficients(p_s: float, p_a: float, t_1: float,
                        l_max: int) -> np.ndarray:
    """State after sym kick, free flight t_1, then asym kick, by series.

    Returns unit-norm amplitudes d_l over Y_l^0. The double sum runs over
    the symmetric-expansion order l' and the Rayleigh (Bessel) order j,
    coupled through squared zero-projection Clebsch-Gordan coefficients:

        d_l ~ sum_{l', j} i^j sqrt(2j+1) j_j(p_a) c
              * exp(-i l'(2l'+1) t_1)
              * sqrt((2j+1)(4l'+1)/(2l+1)) C(j, 2l', l | 0,0,0)^2

    where c = c_{l'} is the symmetric-kick coefficient of order l'.
    """
    # symmetric-kick amplitudes, generous order so the tail is negligible
    lp_max = int(1.5 * abs(p_s)) + 25
    a_sym = cos2_phase_coefficients(p_s, 2 * lp_max)
    c_even = a_sym[::2] * SQRT_4PI  # c_J in the analytic normalization
    assert abs(c_even[-1]) <= 1e-10, "symmetric-kick series tail too large"
    j_max = l_max + 2 * lp_max
    bessel = spherical_jn(np.arange(j_max + 1), p_a)
    assert abs(bessel[-1]) <= 1e-10 or j_max <= abs(p_a) + 30, \
        "Rayleigh series tail too large"

    d = np.zeros(l_max + 1, dtype=complex)
    for lp in range(lp_max + 1):
        c_coeff = c_even[lp] * np.exp(-1j * lp * (2 * lp + 1) * t_1)
        if abs(c_coeff) < 1e-16:
            continue
        for l in range(l_max + 1):
            j_lo, j_hi = abs(l - 2 * lp), l + 2 * lp
            acc = 0.0j
            for j in range(j_lo, min(j_hi, j_max) + 1):
                if (j + 2 * lp + l) % 2:
                    continue
                cg2 = cg000_squared(j, 2 * lp, l)
                if cg2 == 0.0:
                    continue
                amp = (1j**j) * math.sqrt(2 * j + 1) * bessel[j] * c_coeff
                acc += amp * math.sqrt(
                    (2 * j + 1) * (4 * lp + 1) / (2 * l + 1)
                ) * cg2
            d[l] += acc
    return d / SQRT_4PI


def mc_classical_observable(seq: PulseSequence, k: int, t: float,
                            n_samples: int, rng: np.random.Generator
                            ) -> tuple[float, float]:
    """Monte Carlo <cos^k theta(t)> and its standard error.

    Random u0 = cos(theta0) uniform on [-1, 1]; kicks applied in time
    order with the same instantaneous velocity increments the engine
    uses, but via an explicit per-sample loop over kick groups.
    """
    seq = validate_sequence(seq)
    u0 = rng.uniform(-1.0, 1.0, n_samples)
    theta = np.arccos(u0)
    omega = np.zeros(n_samples)
    clock = min((kk.time for kk in seq.kicks), default=0.0)
    clock = min(clock, t)
    for t_kick, kicks in seq.time_groups():
        if t_kick > t:
            break
        theta = theta + omega * (t_kick - clock)
        clock = t_kick
        for kick in kicks:
            if kick.kind is KickKind.SYMMETRIC:
                omega = omega - kick.strength * np.sin(2.0 * theta)
            else:
                omega = omega - kick.strength * np.sin(theta)
    theta = theta + omega * (t - clock)
    samples = np.cos(theta) ** k
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(n_samples))


def brute_force_prompt(p_a: float, l_max: int,
                       order: PulseOrder = PulseOrder.LASER_FIRST
                       ) -> tuple[float, float, float, float]:
    """Best |<cos theta>| of the quantum prompt pulse pair of ``order``,
    laser first or HCP first.

    The search box is the optimizer's: p_s in
    [-PS_RATIO_MAX * p_a, -PS_RATIO_MIN * p_a] (an anti-aligning laser
    kick), and t_1, t_2 over one revival period. Both delays enter only
    through the integer phase rates l(l+1)/2, so [0, 2 pi) covers every
    delay. Kicks are exp(i P M) with M the quadrature-built cos / cos^2
    matrix, diagonalized densely by eigh. After the second kick every
    nonzero entry (l, l') of cos theta beats at the integer frequency
    E_l' - E_l, so one 1024-point FFT of those beats samples the whole
    t_2 period.

    All 40 x 256 (p_s, t_1) grid points are scanned. The 4 best local
    maxima of the grid are then polished with Nelder-Mead over
    (p_s, t_1); each evaluation there refines t_2 by bounded Brent
    around the two highest sampled lobes. Returns (value, p_s, t_1, t_2).
    """
    if order not in (PulseOrder.LASER_FIRST, PulseOrder.HCP_FIRST):
        raise ValueError(f"no delay to search for {order}")
    n_ps, n_t1, n_t2, n_polish = 40, 256, 1024, 4
    ps_lo = -defaults.PS_RATIO_MAX * p_a
    ps_hi = -defaults.PS_RATIO_MIN * p_a
    sym_vals, sym_vecs = eigh(quadrature_operator_matrix(2, l_max))
    cos_mat = quadrature_operator_matrix(1, l_max)
    cos_vals, cos_vecs = eigh(cos_mat)
    hcp = (cos_vecs * np.exp(1j * p_a * cos_vals)) @ cos_vecs.T
    ls = np.arange(l_max + 1.0)
    energy = 0.5 * ls * (ls + 1.0)

    # quadrature leaves round-off of about 1e-14 off the band; cos theta
    # itself couples only neighbouring l, and keeping even that noise
    # would alias every beat frequency up to E_l_max into the t_2 FFT
    rows, cols = np.nonzero(np.abs(cos_mat) > 1e-9)
    beat = np.rint(energy[cols] - energy[rows]).astype(int)
    by_beat = np.argsort(beat, kind="stable")
    rows, cols, beat = rows[by_beat], cols[by_beat], beat[by_beat]
    elems = cos_mat[rows, cols]
    freqs, first = np.unique(beat, return_index=True)
    if np.max(np.abs(freqs)) >= n_t2 // 2:
        raise ValueError("l_max too large for the t_2 FFT: it would alias")
    dt2 = TWO_PI / n_t2

    def final_states(p_s: np.ndarray, t_1: np.ndarray) -> np.ndarray:
        """(len(p_s), len(t_1), l_max + 1) coefficients after both kicks,
        in the pulse order."""
        if order is PulseOrder.HCP_FIRST:
            flown = (hcp[:, 0] * np.exp(-1j * t_1[:, None] * energy)) @ sym_vecs
            return (flown * np.exp(1j * p_s[:, None, None] * sym_vals)) \
                @ sym_vecs.T
        kicked = (np.exp(1j * p_s[:, None] * sym_vals) * sym_vecs[0]) @ sym_vecs.T
        flown = kicked[:, None, :] * np.exp(-1j * t_1[:, None] * energy)
        return flown @ hcp.T

    def beat_amplitudes(final: np.ndarray) -> np.ndarray:
        """Fourier coefficients of <cos theta>(t_2) at frequencies freqs."""
        beats = np.conj(final[..., rows]) * elems * final[..., cols]
        return np.add.reduceat(beats, first, axis=-1)

    def sampled(amps: np.ndarray) -> np.ndarray:
        """|<cos theta>| on the FFT grid t_2 = 2 pi j / n_t2."""
        spectrum = np.zeros(amps.shape[:-1] + (n_t2,), dtype=complex)
        spectrum[..., freqs % n_t2] = amps
        return np.abs(np.fft.fft(spectrum, axis=-1).real)

    def best_t2(amps: np.ndarray) -> tuple[float, float]:
        values = sampled(amps)
        def neg(t):
            return -abs(float(np.real(amps @ np.exp(-1j * freqs * t))))
        lobes = np.flatnonzero((values >= np.roll(values, 1))
                               & (values >= np.roll(values, -1)))
        best = (-1.0, 0.0)
        for j in lobes[np.argsort(values[lobes])[-2:]]:
            res = minimize_scalar(neg, bounds=(dt2 * (j - 1), dt2 * (j + 1)),
                                  method="bounded", options={"xatol": 1e-12})
            best = max(best, (float(-res.fun), float(res.x) % TWO_PI))
        return best

    ps_grid = np.linspace(ps_lo, ps_hi, n_ps)
    t1_grid = TWO_PI * np.arange(n_t1) / n_t1
    score = np.empty((n_ps, n_t1))
    for i, p_s in enumerate(ps_grid):
        amps = beat_amplitudes(final_states(np.array([p_s]), t1_grid)[0])
        score[i] = sampled(amps).max(axis=-1)

    # local maxima of the grid: periodic in t_1, walled in p_s
    padded = np.pad(score, ((1, 1), (0, 0)), constant_values=-np.inf)
    peak = np.ones_like(score, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                neighbour = np.roll(padded, dj, axis=1)[1 + di: 1 + di + n_ps]
                peak &= score >= neighbour
    seeds = sorted(zip(score[peak], *np.nonzero(peak)), reverse=True)[:n_polish]

    def at(p_s: float, t_1: float) -> tuple[float, float]:
        """Best |<cos theta>| over t_2 for one pulse pair, and its t_2."""
        final = final_states(np.array([p_s]), np.array([t_1]))[0, 0]
        return best_t2(beat_amplitudes(final))

    dps = (ps_hi - ps_lo) / (n_ps - 1)
    best = (-1.0, 0.0, 0.0, 0.0)
    for _, i, j in seeds:
        x0 = np.array([ps_grid[i], t1_grid[j]])
        simplex = [x0, x0 + [dps if i < n_ps - 1 else -dps, 0.0],
                   x0 + [0.0, TWO_PI / n_t1]]
        res = minimize(lambda x: -at(*x)[0], x0, method="Nelder-Mead",
                       bounds=[(ps_lo, ps_hi), (None, None)],
                       options={"initial_simplex": simplex, "xatol": 1e-7,
                                "fatol": 1e-12, "maxiter": 4000})
        p_s, t_1 = float(res.x[0]), float(res.x[1]) % TWO_PI
        value, t_2 = at(p_s, t_1)
        best = max(best, (value, p_s, t_1, t_2))
    return best


def brute_force_weak_laser_limit(c_box=(-1.2, 0.0), tau_box=(0.0, 10.0),
                                 n_nodes: int = 256
                                 ) -> tuple[float, float, float]:
    """Best |<cos theta>| of the classical laser-first pulse pair in its
    weak-laser limit, over c in ``c_box`` and tau in ``tau_box``.

    In the unit variables (p_a = 1, tau = p_a t_2) let p_s/p_a -> 0 at
    fixed c = p_s t_1: the laser kick then only displaces each rotor
    during the delay, theta1 = theta0 - c sin(2 theta0), and the HCP
    kick sets it turning at omega = -sin(theta1), so theta(tau) =
    theta1 + tau omega. The ensemble average is an n-node Gauss-Legendre
    rule in cos(theta0), one cosine per (c, tau, node). Every point of a
    grid 0.02 apart in c and 0.01 in tau is scored; the 3 best local
    maxima of the grid's best-over-tau curve are polished by
    Nelder-Mead over (c, tau), clipped to the box. Returns
    (value, c, tau).
    """
    u, w = _grid(n_nodes)
    theta0, w = np.arccos(u), 0.5 * w

    def average(c: float, tau) -> np.ndarray:
        theta1 = theta0 - c * np.sin(2.0 * theta0)
        return np.cos(theta1 - np.multiply.outer(tau, np.sin(theta1))) @ w

    cs = np.linspace(*c_box, int(np.ceil(np.ptp(c_box) / 0.02)) + 1)
    taus = np.linspace(*tau_box, int(np.ceil(np.ptp(tau_box) / 0.01)) + 1)
    curves = np.abs([average(c, taus) for c in cs])
    best = curves.max(axis=1)
    peaks = [i for i in range(cs.size)
             if best[i] >= best[max(i - 1, 0):i + 2].max()]
    bounds = [c_box, tau_box]

    def neg(x) -> float:
        c, tau = np.clip(x, *np.array(bounds).T)
        return -abs(float(average(c, tau)))

    found = (-1.0, 0.0, 0.0)
    for i in sorted(peaks, key=lambda i: best[i])[-3:]:
        x0 = np.array([cs[i], taus[np.argmax(curves[i])]])
        res = minimize(neg, x0, method="Nelder-Mead", bounds=bounds,
                       options={"xatol": 1e-10, "fatol": 1e-15,
                                "maxiter": 4000})
        c, tau = np.clip(res.x, *np.array(bounds).T)
        found = max(found, (-neg(res.x), float(c), float(tau)))
    return found
