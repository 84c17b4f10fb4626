"""The optimizer's projected quasi-Newton ascent against scipy's L-BFGS-B.

``optimize._ascent``, driven alone by ``optimize._lockstep``, maximizes
a smooth score with its gradient over a box, as scipy's bounded
quasi-Newton method minimizes the negated score: from the same start
both must end on the same point, interior or on a bound, with the
ascent scoring at least as high. scipy.optimize is
imported here only, as in ``oracles.py``.
"""
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from rotorkick import defaults
from rotorkick.optimize import _ascent, _lockstep, _outward


def boxed_peak(u):
    """A smooth peak at (-0.3, 2), the shape of an orientation optimum in
    the scaled (p_s/p_a, t_1 p_a) box."""
    value = math.exp(-((u[0] + 0.3) ** 2) - 0.1 * (u[1] - 2.0) ** 2)
    return value, value * np.array([-2.0 * (u[0] + 0.3), -0.2 * (u[1] - 2.0)])


def rosenbrock_valley(u):
    """The negated Rosenbrock function: a curved ridge up to (1, 1)."""
    value = -(100.0 * (u[1] - u[0] ** 2) ** 2 + (1.0 - u[0]) ** 2)
    return value, np.array([400.0 * u[0] * (u[1] - u[0] ** 2)
                            + 2.0 * (1.0 - u[0]),
                            -200.0 * (u[1] - u[0] ** 2)])


def sine_1d(u):
    return math.sin(u[0]), np.array([math.cos(u[0])])


# (name, score, start, lo, hi)
CASES = [
    ("interior peak", boxed_peak, [-0.9, 4.5], [-1.0, 0.5], [-0.05, 5.0]),
    ("rosenbrock valley", rosenbrock_valley, [-1.2, 1.0], [-2.0, -2.0],
     [2.0, 2.0]),
    ("peak beyond a bound", boxed_peak, [-0.9, 4.5], [-1.0, 0.5],
     [-0.5, 5.0]),
    ("1-d", sine_1d, [0.3], [0.0], [3.0]),
]


def run(score, start, lo, hi, h_inv=None):
    calls = []

    def counted(us):
        assert len(us) == 1  # one ascent: one point a round
        calls.append(us[0].copy())
        return [score(us[0])]

    u0 = np.array(start, dtype=float)
    [(u, f)] = _lockstep(counted, [_ascent(u0, *score(u0),
                                           np.array(lo, dtype=float),
                                           np.array(hi, dtype=float),
                                           h_inv)])
    return u, f, len(calls) + 1


@pytest.mark.parametrize("name, score, start, lo, hi", CASES,
                         ids=[c[0] for c in CASES])
def test_matches_lbfgsb(name, score, start, lo, hi):
    u, f, calls = run(score, start, lo, hi)
    ref = minimize(lambda v: tuple(-part for part in score(v)),
                   np.array(start), jac=True, method="L-BFGS-B",
                   bounds=list(zip(lo, hi)),
                   options={"ftol": 1e-13, "gtol": 1e-9})
    assert ref.success
    assert u == pytest.approx(ref.x, abs=1e-6)
    assert f >= -ref.fun - 1e-12
    assert f == score(u)[0]
    assert all(lo[i] <= u[i] <= hi[i] for i in range(len(u)))
    assert calls <= 2 * ref.nfev + 5
    held = _outward(u, score(u)[1], np.array(lo), np.array(hi))
    if name == "peak beyond a bound":
        # the ascent ends on the bound itself, with the gradient out of it
        assert u[0] == ref.x[0] == -0.5
        assert held.tolist() == [True, False]
    else:
        assert not held.any()


def tilted_bowl(u):
    """A tilted quadratic bowl whose top, (-0.3, 0), lies beyond the bound
    u_0 = 0 of the unit box: from (0.7, 0.5) a quasi-Newton step runs
    into that bound, and the box clips it to a step that is not
    uphill."""
    d = np.asarray(u) - [-0.3, 0.0]
    hess = np.array([[2.0, -3.0], [-3.0, 5.0]])
    return float(-d @ hess @ d), -2.0 * hess @ d


def test_a_clipped_quasi_newton_step_restarts_from_the_gradient():
    """The clipped step restarts from the projected gradient, so the
    ascent ends stationary on the bound, where L-BFGS-B ends; without
    the restart it stopped at (0.13, 0.21), its free gradient 0.48."""
    lo, hi = np.zeros(2), np.ones(2)
    u, f, calls = run(tilted_bowl, [0.7, 0.5], lo, hi)
    g = tilted_bowl(u)[1]
    assert _outward(u, g, lo, hi).tolist() == [True, False]
    assert abs(g[1]) <= defaults.ASCENT_GTOL
    ref = minimize(lambda v: tuple(-part for part in tilted_bowl(v)),
                   np.array([0.7, 0.5]), jac=True, method="L-BFGS-B",
                   bounds=list(zip(lo, hi)),
                   options={"ftol": 1e-13, "gtol": 1e-9})
    assert u == pytest.approx(ref.x, abs=1e-6)
    assert u[0] == 0.0 and f >= -ref.fun - 1e-12


def held_ridge(u):
    """A quadratic whose top, (-0.01, 0.7), lies past the bound u_0 = 0,
    its u_0 gradient 30 times as sensitive to u_1 as its u_1 gradient:
    the shape of the classical laser-first ridge, where p_s/p_a is held
    on its bound while p_a t_1 climbs. On the bound the score peaks at
    u_1 = 0.4, and the gradient points out of it all over the unit box."""
    d = np.asarray(u) - [-0.01, 0.7]
    hess = np.array([[1e4, 30.0], [30.0, 1.0]])
    return float(-d @ hess @ d), -2.0 * hess @ d


@pytest.mark.parametrize("start, most", [([0.0, 0.9], 3), ([0.5, 0.9], 16)],
                         ids=["on the bound", "inside"])
def test_a_held_coordinate_leaves_the_curvature_alone(start, most):
    """The BFGS update reads the gradient change of the free u_1 alone,
    so a step along the bound lands on the peak. With the held u_0's
    change in it, the update halved the curvature estimate: each step
    overshot twofold and the ascent zig-zagged, from the bound across
    u_1 = 0 to 0.8 for all its 200 steps (free gradient 0.64), and from
    inside until its rise floor (free gradient 4.3e-8) in 20 points."""
    lo, hi = np.zeros(2), np.ones(2)
    u, f, calls = run(held_ridge, start, lo, hi)
    g = held_ridge(u)[1]
    assert _outward(u, g, lo, hi).tolist() == [True, False]
    assert abs(g[1]) <= defaults.ASCENT_GTOL
    assert u[0] == 0.0 and u[1] == pytest.approx(0.4, abs=1e-9)
    assert calls <= most


def test_iteration_cap_ends_the_ascent(monkeypatch):
    """Each step makes at least one call, so ``ASCENT_MAXITER`` steps
    end the run below the ridge's top."""
    _, top, _ = run(rosenbrock_valley, [-1.2, 1.0], [-2.0, -2.0], [2.0, 2.0])
    monkeypatch.setattr(defaults, "ASCENT_MAXITER", 3)
    u, f, calls = run(rosenbrock_valley, [-1.2, 1.0], [-2.0, -2.0],
                      [2.0, 2.0])
    assert 3 < calls <= 40
    assert f < top - 1e-3
    assert f > rosenbrock_valley(np.array([-1.2, 1.0]))[0]


def steep_valley(u):
    """A quadratic valley whose top, (0.5, 0.7), lies inside the unit
    box, its curvatures 1e4 apart, as at the quantum laser-first optima
    in the scaled box."""
    d = np.asarray(u) - [0.5, 0.7]
    hess = np.array([[1e4, 30.0], [30.0, 1.0]])
    return float(-d @ hess @ d), -2.0 * hess @ d


def test_a_measured_inverse_hessian_steps_onto_the_top():
    """Started from minus the inverse of the score's Hessian, the ascent's
    first step is the Newton step, which lands on a quadratic's top; from
    the identity the ascent needs more points to end there."""
    lo, hi = np.zeros(2), np.ones(2)
    h_inv = np.linalg.inv(2.0 * np.array([[1e4, 30.0], [30.0, 1.0]]))
    seeded = run(steep_valley, [0.3, 0.2], lo, hi, h_inv)
    identity = run(steep_valley, [0.3, 0.2], lo, hi)
    for u, f, _ in (seeded, identity):
        assert u == pytest.approx([0.5, 0.7], abs=1e-6)
    assert seeded[0] == pytest.approx([0.5, 0.7], abs=1e-12)
    assert seeded[2] == 2 < identity[2]
