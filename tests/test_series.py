"""The analytic expansion oracles of tests/oracles.py against
independent references: sympy for Clebsch-Gordan coefficients, matrix
exponentials of quadrature-built operators for the kick expansions, and
the package's pair propagation for the hybrid double sum; and the
package's single kick against the kick expansions."""

import numpy as np
import pytest

pytest.importorskip("mpmath")  # the cos^2 oracle's 1F1
sympy_cg = pytest.importorskip("sympy.physics.quantum.cg")

from oracles import (cg000_squared, cos2_phase_coefficients,
                     cos_phase_coefficients, expm_kick, hybrid_coefficients)
from rotorkick.core import Kick, KickKind, PulseOrder
from rotorkick.quantum import apply_kick, ground_state, two_kick_state


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


@pytest.mark.parametrize("kind", [KickKind.SYMMETRIC, KickKind.ASYMMETRIC])
@pytest.mark.parametrize("p", [-20.0, -8.0, -1.3, 0.4, 3.0, 12.0])
def test_package_kick_matches_series(kind, p):
    """The package's eigendecomposed kick on the ground state against the
    closed-form series, up to strong kicks that the expm comparisons and
    acceptance check 7 (|p| <= 5) do not reach."""
    l_max = 80
    series = (cos2_phase_coefficients if kind is KickKind.SYMMETRIC
              else cos_phase_coefficients)
    ref = series(p, l_max)
    got = apply_kick(ground_state(l_max), Kick(kind, p, 0.0)).coeffs
    assert got.shape == ref.shape  # no basis growth at l_max = 80
    assert np.max(np.abs(got - ref)) < 1e-12


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
