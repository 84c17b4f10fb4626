"""The optimizer's Nelder-Mead port against scipy's Nelder-Mead.

``optimize._nelder_mead`` ports scipy's ``_minimize_neldermead`` with
the options ``optimize._simplex_from`` passes, so on every test function
it must take the same steps: the same points in the same order, the
same end point and value to the bit, and the same number of calls.
scipy.optimize is imported here only, as in ``oracles.py``.
"""
import inspect
import math
import sys

import numpy as np
import pytest
from scipy.optimize import minimize

from rotorkick.optimize import _nelder_mead


def rosenbrock(x):
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def boxed_peak(x):
    """The shape ``_simplex_from`` minimizes: a negated smooth peak in
    the box [-1, -0.05] x [0.5, 5], and 1e3 outside it."""
    if not (-1.0 <= x[0] <= -0.05 and 0.5 <= x[1] <= 5.0):
        return 1e3
    return -math.exp(-((x[0] + 0.3) ** 2) - 0.1 * (x[1] - 2.0) ** 2)


def staircase(x):
    """Flat steps: contractions tie with the worst vertex, so the simplex
    shrinks, and its re-sorts meet ties."""
    return math.floor(4.0 * x[0]) ** 2 + math.floor(4.0 * x[1]) ** 2


def wavy_1d(x):
    return (x[0] - 3.0) ** 2 + 0.5 * math.sin(5.0 * x[0])


# (name, f, x0, xatol, fatol, maxiter)
CASES = [
    ("rosenbrock", rosenbrock, [-1.2, 1.0], 1e-8, 1e-9, 400),
    ("boxed peak near the edge", boxed_peak, [-0.06, 4.9], 1e-7, 1e-9, 400),
    ("staircase", staircase, [1.9, -1.3], 1e-8, 1e-9, 400),
    ("1-d from zero", wavy_1d, [0.0], 1e-8, 1e-9, 400),
    ("maxiter stop", rosenbrock, [-1.2, 1.0], 1e-8, 1e-9, 25),
]


def _recorded(f):
    points = []

    def g(x):
        points.append(tuple(float(v) for v in x))
        return f(x)

    return g, points


@pytest.mark.parametrize("name, f, x0, xatol, fatol, maxiter", CASES,
                         ids=[c[0] for c in CASES])
def test_matches_scipy_bit_for_bit(name, f, x0, xatol, fatol, maxiter):
    mine, my_points = _recorded(f)
    theirs, their_points = _recorded(f)
    x, fun = _nelder_mead(mine, np.array(x0), xatol=xatol, fatol=fatol,
                          maxiter=maxiter)
    ref = minimize(theirs, np.array(x0), method="Nelder-Mead",
                   options={"xatol": xatol, "fatol": fatol,
                            "maxiter": maxiter})
    assert my_points == their_points
    assert x.tobytes() == ref.x.tobytes()
    assert repr(fun) == repr(ref.fun)
    assert len(my_points) == ref.nfev
    if name == "maxiter stop":
        assert ref.nit == maxiter and not ref.success
    if f is boxed_peak:  # the simplex steps onto the 1e3 plateau
        assert any(boxed_peak(p) == 1e3 for p in my_points)


def test_cases_exercise_every_step():
    """Between them the cases reflect, expand, contract outside and
    inside, and shrink (the lines marked so in ``_nelder_mead``)."""
    lines, first = inspect.getsourcelines(_nelder_mead)
    steps = ("expansion", "outside contraction", "inside contraction",
             "shrink")
    marks = {step: first + i for step in steps
             for i, line in enumerate(lines) if line.rstrip().endswith(
                 f"# {step}")}
    assert set(marks) == set(steps)
    code, hit = _nelder_mead.__code__, set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            hit.add(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for _, f, x0, xatol, fatol, maxiter in CASES:
            _nelder_mead(f, np.array(x0), xatol=xatol, fatol=fatol,
                         maxiter=maxiter)
    finally:
        sys.settrace(previous)
    assert {step for step, line in marks.items() if line in hit} == set(steps)
