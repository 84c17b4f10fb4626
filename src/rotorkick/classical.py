"""Classical T=0 ensemble propagation under impulsive kicks.

The ensemble starts at rest, isotropically distributed in the initial
angle theta0 with measure (1/2) sin(theta0) dtheta0. Kicks change the
angular velocity instantaneously:

* symmetric kick of strength p_s:   omega -= p_s * sin(2*theta)
* asymmetric kick of strength p_a:  omega -= p_a * sin(theta)

Between kicks the angle advances linearly, tracked on the real line
(cos is periodic, so no wrapping is needed).

Two entry points coexist deliberately. :func:`propagate_classical` is
causal: kicks act in time order and the ensemble is at rest before the
earliest kick. :func:`two_kick_theta` is the closed-form two-pulse
trajectory with *signed* flight times, i.e. the analytic continuation
used by the revival-branch optimizer, where a negative delay or
observation time runs the free flight backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from . import defaults
from .core import (KickKind, ObservableKind, ObservableSeries, PulseOrder,
                   PulseSequence, validate_sequence, walk_sequence)
from .errors import ConvergenceFailure, InvalidNodeCount


@dataclass(frozen=True)
class ClassicalEnsemble:
    """Quadrature representation of the isotropic T=0 ensemble."""

    theta0: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("ensemble weights must sum to 1")
        if self.theta0.min() < 0.0 or self.theta0.max() > np.pi:
            raise ValueError("theta0 nodes must lie in [0, pi]")

    def __len__(self) -> int:
        return self.theta0.size


@lru_cache(maxsize=None)
def make_ensemble(n_nodes: int) -> ClassicalEnsemble:
    """Gauss-Legendre ensemble in u = cos(theta0) on [-1, 1], cached.

    Uniform-in-u quadrature realizes the (1/2) sin(theta0) dtheta0
    measure exactly; weights are halved to normalize. The package asks
    only for the power-of-two rules of ``defaults.ensemble_nodes``, so the
    cache holds at most 15. Its arrays are shared and read-only.
    """
    if n_nodes < 2:
        raise InvalidNodeCount(f"need at least 2 nodes, got {n_nodes}")
    # roots_legendre runs Golub-Welsch (an eigensolve of the banded Jacobi
    # matrix), the costly step that the cache saves
    u, w = roots_legendre(n_nodes)
    rule = (np.arccos(u), w / 2.0)
    for arr in rule:
        arr.setflags(write=False)
    return ClassicalEnsemble(*rule)


def _kick_increment(kind: KickKind, strength: float, theta: np.ndarray) -> np.ndarray:
    if kind is KickKind.SYMMETRIC:
        return -strength * np.sin(2.0 * theta)
    return -strength * np.sin(theta)


def propagate_classical(
    seq: PulseSequence, ens: ClassicalEnsemble, t_eval
) -> np.ndarray:
    """Causal propagation: unwrapped angles, shape (len(t_eval), len(ens)).

    The ensemble is at rest before the earliest kick, a kick at exactly t
    has acted by t, and simultaneous kicks both act on the same pre-kick
    angle. Each stretch of ``t_eval`` between two kicks is one broadcast
    ``theta + omega * dts``. ``t_eval`` must be sorted ascending (repeats
    allowed) and may extend before the first kick or between kicks.
    """
    seq = validate_sequence(seq)
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    if t_eval.size > 1 and np.any(np.diff(t_eval) < 0):
        raise ValueError("t_eval must be sorted ascending")

    def fly(state, dt):
        theta, omega = state
        return theta + omega * dt, omega

    def kick(state, kicks):
        theta, omega = state  # simultaneous kicks share the pre-kick angle
        return theta, omega + sum(_kick_increment(k.kind, k.strength, theta)
                                  for k in kicks)

    def observe(state, dts):
        theta, omega = state
        return theta + omega * dts[:, None]

    rest = (ens.theta0.copy(), np.zeros_like(ens.theta0))
    return walk_sequence(seq, t_eval, rest, fly, kick, observe)


def two_kick_theta(theta0, p_s: float, p_a: float, t_1, t_2,
                   order: PulseOrder = PulseOrder.LASER_FIRST):
    """Closed-form two-pulse trajectory with signed flight times.

    Arguments broadcast as numpy arrays; the usual call shapes
    ``theta0[:, None]`` against a ``t_2`` grid. For non-negative times
    this coincides with the causal propagation; negative ``t_1``/``t_2``
    give the analytic continuation of the same formula (kicks applied in
    scheme order, free flight run backward).
    """
    theta0 = np.asarray(theta0, dtype=float)
    if order is PulseOrder.LASER_FIRST:
        th1 = theta0 - p_s * t_1 * np.sin(2.0 * theta0)
        omega = -p_s * np.sin(2.0 * theta0) - p_a * np.sin(th1)
    elif order is PulseOrder.HCP_FIRST:
        th1 = theta0 - p_a * t_1 * np.sin(theta0)
        omega = -p_a * np.sin(theta0) - p_s * np.sin(2.0 * th1)
    else:
        th1 = theta0
        omega = -p_s * np.sin(2.0 * theta0) - p_a * np.sin(theta0)
    return th1 + t_2 * omega


def classical_observable(seq: PulseSequence, k: int, t_eval) -> ObservableSeries:
    """Ensemble-averaged <cos^k theta> on a time grid, k = 1 or 2.

    The node count starts from the strength-time rule and is doubled
    until successive quadratures agree within ``QUADRATURE_TOL`` at every
    time.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 (orientation) or 2 (alignment)")
    seq = validate_sequence(seq)
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    times = list(t_eval) + [kk.time for kk in seq.kicks]
    span = (max(times) - min(times)) if times else 0.0
    vals = _refine(lambda ens: propagate_classical(seq, ens, t_eval), k,
                   defaults.ensemble_nodes(seq.total_strength(), span))
    kind = ObservableKind.ORIENTATION if k == 1 else ObservableKind.ALIGNMENT
    return ObservableSeries(t_eval, vals, kind)


def _refine(values_fn, k: int, n_nodes: int) -> np.ndarray:
    """<cos^k> over the angles ``values_fn`` gives for an ensemble, the
    rule doubled from ``n_nodes`` until two successive rules agree within
    ``defaults.QUADRATURE_TOL`` at every sample (an empty grid agrees at
    once), or ``defaults.NODE_CAP`` is reached."""
    tol, cap = defaults.QUADRATURE_TOL, defaults.NODE_CAP
    n, prev = n_nodes, None
    while True:
        ens = make_ensemble(n)
        theta = values_fn(ens)  # (..., nodes)
        cos_th = np.cos(theta)
        vals = (cos_th if k == 1 else cos_th**2) @ ens.weights
        if prev is not None and np.all(np.abs(vals - prev) < tol):
            return vals
        if 2 * n > cap:
            raise ConvergenceFailure(
                f"quadrature not converged below {tol} at node cap {cap}"
            )
        prev = vals
        n *= 2


def two_kick_observable(
    p_s: float,
    p_a: float,
    t_1: float,
    t_2,
    order: PulseOrder = PulseOrder.LASER_FIRST,
    k: int = 1,
) -> np.ndarray:
    """<cos^k theta> of the closed-form two-pulse trajectory on a t_2 grid.

    Signed times are allowed (analytic continuation). This is the
    optimizer's inner evaluation; it is vectorized over ``t_2``.
    """
    t_2 = np.atleast_1d(np.asarray(t_2, dtype=float))
    span = abs(t_1) + float(np.max(np.abs(t_2))) if t_2.size else abs(t_1)

    def values_fn(ens: ClassicalEnsemble) -> np.ndarray:
        return two_kick_theta(ens.theta0[None, :], p_s, p_a, t_1,
                              t_2[:, None], order)

    return _refine(values_fn, k,
                   defaults.ensemble_nodes(abs(p_s) + abs(p_a), span))
