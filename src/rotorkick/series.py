"""Analytic coefficient formulas for impulsively kicked rotor states.

These series duplicate, by independent closed-form routes, what the
matrix-exponential kick operators in :mod:`rotorkick.quantum` compute.
They are kept as cross-checks and for small-strength analysis; the
eigen-decomposition route is the production path because it is uniformly
accurate in the kick strength.

Everything here is m = 0: states are expanded over Y_l^0 and all angular
integrals reduce to zero-projection Clebsch-Gordan coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SeriesTruncationFailure

SQRT_4PI = math.sqrt(4.0 * math.pi)

_MAX_TERMS = 10_000


def spherical_jn_all(n_max: int, x: float) -> np.ndarray:
    """Spherical Bessel functions j_0..j_n_max at real x.

    Uses Miller's downward recurrence, normalized against whichever of
    j_0 = sin(x)/x or j_1 = sin(x)/x^2 - cos(x)/x is better conditioned.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if x == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    n_start = n_max + int(1.5 * abs(x)) + 40
    f_up = 0.0  # f_{n+1}
    f = 1e-30   # f_n, seeded at n_start
    raw = np.zeros(n_max + 1)
    for n in range(n_start, 0, -1):
        f_down = (2 * n + 1) / x * f - f_up
        f_up, f = f, f_down  # f now holds f_{n-1}
        if n - 1 <= n_max:
            raw[n - 1] = f
        if abs(f) > 1e250:  # rescale to dodge overflow; filled entries follow
            f *= 1e-250
            f_up *= 1e-250
            raw[max(0, n - 1):] *= 1e-250
    j0 = math.sin(x) / x
    if n_max == 0:
        return np.array([j0])
    j1 = math.sin(x) / x**2 - math.cos(x) / x
    scale = j0 / raw[0] if abs(raw[0]) >= abs(raw[1]) else j1 / raw[1]
    return raw * scale


def hyp1f1(a: float, b: float, z: complex) -> complex:
    """Confluent hypergeometric 1F1(a; b; z) by direct power series.

    Terminates when the term magnitude drops below 1e-16 of the partial
    sum; adequate for the moderate |z| used by the coefficient formulas.
    """
    term = 1.0 + 0.0j
    total = term
    for k in range(_MAX_TERMS):
        term = term * (a + k) / ((b + k) * (k + 1)) * z
        total += term
        if abs(term) < 1e-16 * abs(total):
            return total
    raise SeriesTruncationFailure(
        f"1F1({a}, {b}, {z}) did not converge in {_MAX_TERMS} terms"
    )


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
    amplitudes.
    """
    out = np.zeros(l_max + 1, dtype=complex)
    for J in range(l_max // 2 + 1):
        pref = math.sqrt(math.pi * (4 * J + 1)) * math.exp(
            math.lgamma(J + 0.5) - math.lgamma(2 * J + 1.5)
        )
        c_j = pref * (1j * p_s) ** J * hyp1f1(J + 0.5, 2 * J + 1.5, 1j * p_s)
        out[2 * J] = c_j / SQRT_4PI
    return out


def cos_phase_coefficients(p_a: float, l_max: int) -> np.ndarray:
    """Expansion of exp(i*p_a*cos theta) Y_0^0 over Y_l^0 (Rayleigh form):
    a_l = i^l sqrt(2l+1) j_l(p_a)."""
    j = spherical_jn_all(l_max, p_a)
    l = np.arange(l_max + 1)
    return (1j**l) * np.sqrt(2 * l + 1) * j


def hybrid_coefficients(
    p_s: float,
    p_a: float,
    t_1: float,
    l_max: int,
) -> np.ndarray:
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
    if abs(c_even[-1]) > 1e-10:
        raise SeriesTruncationFailure("symmetric-kick series tail too large")
    j_max = l_max + 2 * lp_max
    bessel = spherical_jn_all(j_max, p_a)
    if abs(bessel[-1]) > 1e-10 and j_max > abs(p_a) + 30:
        raise SeriesTruncationFailure("Rayleigh series tail too large")

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
