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


def run(score, start, lo, hi):
    calls = []

    def counted(us):
        assert len(us) == 1  # one ascent: one point a round
        calls.append(us[0].copy())
        return [score(us[0])]

    u0 = np.array(start, dtype=float)
    [(u, f)] = _lockstep(counted, [_ascent(u0, *score(u0),
                                           np.array(lo, dtype=float),
                                           np.array(hi, dtype=float))])
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
