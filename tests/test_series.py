"""Analytic expansion coefficients against independent references:
scipy for Bessel functions, mpmath for the confluent hypergeometric
series, sympy for Clebsch-Gordan coefficients, and matrix exponentials
of quadrature-built operators for the kick expansions."""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
sympy_cg = pytest.importorskip("sympy.physics.quantum.cg")

from scipy.special import spherical_jn

from oracles import expm_kick
from rotorkick.core import KickKind, PulseOrder
from rotorkick.errors import SeriesTruncationFailure
from rotorkick.quantum import two_kick_state
from rotorkick.series import (cg000_squared, cos2_phase_coefficients,
                              cos_phase_coefficients, hybrid_coefficients,
                              hyp1f1, spherical_jn_all)


@pytest.mark.parametrize("x", [0.0, 1e-3, 0.5, 2.0, 5.0, 12.7, 20.0, 40.0])
def test_spherical_bessel_against_scipy(x):
    n_max = 60
    got = spherical_jn_all(n_max, x)
    ref = spherical_jn(np.arange(n_max + 1), x)
    assert np.allclose(got, ref, rtol=1e-11, atol=1e-14)


def test_spherical_bessel_negative_argument():
    # j_l(-x) = (-1)^l j_l(x)
    got = spherical_jn_all(10, -3.7)
    ref = spherical_jn(np.arange(11), 3.7) * (-1.0) ** np.arange(11)
    assert np.allclose(got, ref, rtol=1e-11, atol=1e-15)


def test_hyp1f1_against_mpmath():
    # direct power series: rounding grows with the largest term, so the
    # tolerance widens with |z| (the peak term is ~ |z|^k/k! at k ~ |z|)
    for J in (0, 1, 2, 5, 10, 20):
        for ps in (-20.0, -5.0, -1.0, 0.3, 5.0, 10.0):
            a, b = J + 0.5, 2 * J + 1.5
            got = hyp1f1(a, b, 1j * ps)
            ref = complex(mpmath.hyp1f1(a, b, 1j * ps))
            tol = 1e-12 if abs(ps) <= 5 else 3e-9
            assert got == pytest.approx(ref, rel=tol, abs=tol / 10)


def test_hyp1f1_term_cap():
    with pytest.raises(SeriesTruncationFailure):
        hyp1f1(0.5, 1.5, 1e5j)


def test_cg000_squared_against_sympy():
    for j1 in range(0, 7):
        for j2 in range(0, 13, 2):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                got = cg000_squared(j1, j2, j3)
                ref = float(sympy_cg.CG(j1, 0, j2, 0, j3, 0).doit()) ** 2
                assert got == pytest.approx(ref, abs=1e-12), (j1, j2, j3)


def test_cg000_selection_rules():
    assert cg000_squared(1, 1, 1) == 0.0          # odd total J
    assert cg000_squared(1, 1, 5) == 0.0          # triangle violated
    assert cg000_squared(0, 0, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("p", [-5.0, -2.0, 0.0, 0.7, 3.0, 5.0])
def test_cos2_phase_coefficients_vs_matrix_exponential(p):
    l_max = 80
    got = cos2_phase_coefficients(p, l_max)
    ref = expm_kick(KickKind.SYMMETRIC, p, l_max)
    assert np.sum(np.abs(got) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(got - ref)) < 1e-8
    assert np.all(got[1::2] == 0.0)  # a symmetric kick populates even l only


@pytest.mark.parametrize("p", [-5.0, -1.3, 0.0, 2.0, 5.0])
def test_cos_phase_coefficients_vs_matrix_exponential(p):
    l_max = 80
    got = cos_phase_coefficients(p, l_max)
    ref = expm_kick(KickKind.ASYMMETRIC, p, l_max)
    assert np.sum(np.abs(got) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(got - ref)) < 1e-8


def test_hybrid_coefficients_match_propagation():
    """Double-sum expansion for kick-delay-kick against the operator
    pipeline."""
    ps, pa, t1 = -3.0, 3.0, 0.25
    l_max = 40
    psi = two_kick_state(ps, pa, t1, PulseOrder.LASER_FIRST, l_max=l_max)
    ref = psi.coeffs

    got = hybrid_coefficients(ps, pa, t1, l_max)
    assert np.max(np.abs(got - ref[: l_max + 1])) < 1e-6
    assert np.sum(np.abs(got) ** 2) == pytest.approx(1.0, abs=1e-8)
