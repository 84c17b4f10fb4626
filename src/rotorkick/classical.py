"""Classical T=0 ensemble propagation under impulsive kicks.

The ensemble starts at rest, isotropically distributed in the initial
angle theta0 with measure (1/2) sin(theta0) dtheta0. Kicks change the
angular velocity instantaneously:

* symmetric kick of strength p_s:   omega -= p_s * sin(2*theta)
* asymmetric kick of strength p_a:  omega -= p_a * sin(theta)

Between kicks the angle advances linearly, tracked on the real line
(cos is periodic, so no wrapping is needed).

One walker, one sampler: the causal :func:`classical_observable` (kicks
act in time order, the ensemble rests before the earliest kick) and the
closed-form pair of :class:`TwoKickScan` (:func:`_after_kicks`), in the
order of :func:`core.pulse_pair`, step the ensemble with the same fly
and kick functions. Between kicks theta = theta1 + t * omega per node, so
:func:`_free_flight_average` reads each stretch off
:func:`core.phase_sum`, the free-flight sampler of both engines, and no
average forms the (time x nodes) angle array; :meth:`TwoKickScan.jet`
reads one time's t-derivatives off :func:`core.phase_jet` for the
optimizer's t_2 finder. The closed form allows
*signed* flight times, the analytic continuation of the revival-branch
optimizer, where a negative delay or observation time runs the free
flight backward. :func:`propagate_classical`, the same walker returning
the angles, is the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import defaults
from .core import (KickKind, ObservableSeries, PulseOrder, PulseSequence,
                   observable_kind, phase_jet, phase_sum, pulse_pair,
                   time_grid, validate_sequence, walk_sequence)
from .errors import ConvergenceFailure, InvalidNodeCount, NonFiniteValue


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


#: the nodes next to each end that :func:`roots_legendre` solves on the
#: three-term recurrence, started from these zeros of J_0
_EDGE_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013,
                  11.79153443901428, 14.93091770848779, 18.07106396791092)
#: terms of the interior expansion of P_n; at the first interior node the
#: next term is below 1e-16 of the first
_STIELTJES_TERMS = 20
#: a Newton step within this phase, (n + 1/2) times the step, is the last
_NEWTON_TOL = math.sqrt(np.finfo(float).eps)


def roots_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], n >= 2, in
    O(n) time and memory (Hale & Townsend, SIAM J. Sci. Comput. 35, A652,
    2013).

    Each node u = cos(theta) of the non-negative half is a Newton solve
    in theta (:func:`_newton`). The six next to u = 1 solve P_n = 0 on
    the three-term recurrence (:func:`_edge_legendre`); the rest on the
    Stieltjes expansion of P_n(cos theta) (:func:`_interior_legendre`).
    The weights are 2 / (dP_n/dtheta)^2. The rule is mirrored, so
    u_j = -u_{n-1-j} and w_j = w_{n-1-j} exactly, and the middle node of
    an odd n is exactly 0.
    """
    half = (n + 1) // 2  # nodes in [0, 1): theta in (0, pi/2]
    rho = n + 0.5
    edge = []
    for j in _EDGE_J0_ZEROS[:half]:
        psi = j / rho  # with Olver's first correction
        theta = psi + (psi / math.tan(psi) - 1.0) / (8.0 * psi * rho * rho)
        delta, dp = _newton(n, partial(_edge_legendre, n, theta), 0.0)
        # cos(theta + delta) with theta + delta unrounded
        edge.append((math.cos(theta) * math.cos(delta)
                     - math.sin(theta) * math.sin(delta), 2.0 / dp**2))
    k = partial(np.arange, len(edge) + 1, half + 1)  # not held by Newton
    theta = np.pi * (4 * k() - 1) / (4 * n + 2)  # (n + 1/2) theta = pi (k - 1/4)
    delta, dp = _newton(n, partial(_interior_legendre, n, theta),
                        (n - 1) / (8.0 * n**3) / np.tan(theta))  # Tricomi
    # P_n(cos theta) = C_n (expansion), C_n = (4/pi) prod_j j / (j + 1/2)
    c_n = 4.0 / np.pi * math.exp(
        np.log1p(-1.0 / (2.0 * np.arange(1, n + 1) + 1.0)).sum())
    u = np.concatenate(([x for x, _ in edge],
                        np.sin(np.pi * (n + 1 - 2 * k()) / (2 * n + 1) - delta)))
    w = np.concatenate(([v for _, v in edge], 2.0 / (c_n * dp)**2))
    if n % 2:
        u[-1] = 0.0  # P_n(0) = 0 exactly for odd n
    mirrored = half - n % 2  # nodes with a negative mirror
    return (np.concatenate((-u[:mirrored], u[::-1])),
            np.concatenate((w[:mirrored], w[::-1])))


def _newton(n: int, legendre, delta):
    """Newton steps on P_n(cos(theta + delta)) = 0 in delta, where
    ``legendre(delta)`` is (P, dP/dtheta) at theta + delta, up to P's
    constant factor, and theta is the node's start.

    Ends after a step within sqrt(eps) / (n + 1/2), a phase step of
    sqrt(eps): the error left in theta, and in dP/dtheta, is then of the
    step's square, below round-off. Returns delta and dP/dtheta there:
    the last evaluation's, carried over the last step to first order by
    Legendre's equation P'' = -cot(theta) P' - n (n + 1) P.
    """
    for _ in range(10):
        p = dp = cot = step = None  # the last pass's arrays go first
        p, dp, cot = legendre(delta)
        step = p / dp
        delta -= step
        if np.all(np.abs(step) <= _NEWTON_TOL / (n + 0.5)):
            break
    return delta, dp + step * (cot * dp + n * (n + 1) * p)


def _edge_legendre(n: int, theta: float,
                   delta: float) -> tuple[float, float, float]:
    """(P_n, dP_n/dtheta, cot) at cos(t), t = theta + delta unrounded, for
    a node next to u = 1: the three-term recurrence rewritten for
    D_l = P_l - P_{l-1} in y = 1 - u = 2 sin^2(t/2), which holds the
    digits P_l ~ 1 would lose, and dP_n/dtheta = n (D_n - y P_n) / sin t."""
    t = theta + delta
    if theta > 0.5:  # only for n < 64: there the recurrence in u rounds less
        u = math.cos(theta) * math.cos(delta) - math.sin(theta) * math.sin(delta)
        p_prev, p = 1.0, u
        for l in range(1, n):
            p_prev, p = p, ((2 * l + 1) * u * p - l * p_prev) / (l + 1)
        return p, n * (u * p - p_prev) / math.sin(t), 1.0 / math.tan(t)
    half_sin = (math.sin(0.5 * theta) * math.cos(0.5 * delta)
                + math.cos(0.5 * theta) * math.sin(0.5 * delta))
    y = 2.0 * half_sin**2
    p, d = 1.0 - y, -y
    for l in range(1, n):
        d -= (d + (2 * l + 1) * y * p) / (l + 1)
        p += d
    return p, n * (d - y * p) / math.sin(t), 1.0 / math.tan(t)


def _interior_legendre(n: int, theta: np.ndarray, delta: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_n / C_n, dP_n/dtheta / C_n, cot t) at cos(t), t = theta + delta,
    for the interior nodes k: the Stieltjes expansion
    P_n(cos t) / C_n = sum_m h_m cos(a_m) / (2 sin t)^(m + 1/2), with
    a_m = (n + m + 1/2) t - (m + 1/2) pi/2 and h_m = prod_{j<=m}
    (j - 1/2)^2 / (j (n + j + 1/2)), up to the sign (-1)^k.

    ``theta`` holds pi (k - 1/4) / (n + 1/2), so a_0 is the whole quarter
    turns (2k - 1) pi/2 and the small rest (n + 1/2) delta, which large n
    does not round away; each a_{m+1} = a_m + t - pi/2 is a rotation.
    """
    t = theta + delta
    s, c = np.sin(t), np.cos(t)
    cot = np.divide(c, s, out=t)  # in place, as every update below: the
    sin_a = -np.cos(cos_a := (n + 0.5) * delta)  # loop holds ten arrays
    np.sin(cos_a, out=cos_a)
    amp = 1.0 / np.sqrt(2.0 * s)  # h_m / (2 sin t)^(m + 1/2)
    p, dp, x, y = (np.zeros_like(t) for _ in range(4))
    for m in range(_STIELTJES_TERMS):
        p += np.multiply(amp, cos_a, out=x)
        # dp -= amp ((n + m + 1/2) sin a + (m + 1/2) cot cos a)
        np.multiply(np.multiply(m + 0.5, cot, out=x), cos_a, out=x)
        dp -= np.multiply(amp, np.add(np.multiply(n + m + 0.5, sin_a, out=y),
                                      x, out=y), out=y)
        # (cos a, sin a) <- (cos a s + sin a c, sin a s - cos a c)
        np.add(np.multiply(cos_a, s, out=x), np.multiply(sin_a, c, out=y), out=x)
        np.subtract(np.multiply(sin_a, s, out=y),
                    np.multiply(cos_a, c, out=cos_a), out=y)
        cos_a, sin_a, x, y = x, y, cos_a, sin_a
        amp *= 0.5 * ((m + 0.5)**2 / ((m + 1) * (n + m + 1.5)))  # exact 1/2
        amp /= s
    return p, dp, cot


@lru_cache(maxsize=None)
def make_ensemble(n_nodes: int) -> ClassicalEnsemble:
    """Gauss-Legendre ensemble in u = cos(theta0) on [-1, 1], cached.

    Uniform-in-u quadrature realizes the (1/2) sin(theta0) dtheta0
    measure exactly; weights are halved to normalize. The rule is the
    package's own :func:`roots_legendre`, an O(n) Newton solve and the
    costly step that the cache saves. The package asks only for the
    power-of-two rules of ``defaults.ensemble_nodes``, so the cache holds
    at most 15. Its arrays are shared and read-only.
    """
    if n_nodes < 2:
        raise InvalidNodeCount(f"need at least 2 nodes, got {n_nodes}")
    u, w = roots_legendre(n_nodes)
    rule = (np.arccos(u), w / 2.0)
    for arr in rule:
        arr.setflags(write=False)
    return ClassicalEnsemble(*rule)


def _kick_increment(kind: KickKind, strength: float, theta: np.ndarray) -> np.ndarray:
    if kind is KickKind.SYMMETRIC:
        return -strength * np.sin(2.0 * theta)
    return -strength * np.sin(theta)


def _fly(state, dt):
    theta, omega = state
    return theta + omega * dt, omega


def _kick(state, kicks):
    theta, omega = state  # simultaneous kicks share the pre-kick angle
    increments = [_kick_increment(k.kind, k.strength, theta) for k in kicks]
    # summed from the first increment: starting from 0 costs an array add
    return theta, omega + sum(increments[1:], *increments[:1])


def propagate_classical(
    seq: PulseSequence, ens: ClassicalEnsemble, t_eval
) -> np.ndarray:
    """Causal propagation: unwrapped angles, shape (len(t_eval), len(ens)).

    The ensemble is at rest before the earliest kick, a kick at exactly t
    has acted by t, and simultaneous kicks both act on the same pre-kick
    angle. Each stretch of ``t_eval`` between two kicks is one broadcast
    ``theta + omega * dts``. ``t_eval`` must be strictly ascending and may
    extend before the first kick or between kicks.
    """
    seq = validate_sequence(seq)
    t_eval = time_grid(t_eval)
    rest = (ens.theta0, np.zeros(ens.theta0.shape))
    return walk_sequence(seq, t_eval, rest, _fly, _kick,
                         lambda state, dts: _fly(state, dts[:, None])[0])


def _after_kicks(theta0, first, second, t_1):
    """(theta1, omega) just after the pulses ``first`` and ``second`` of
    :func:`core.pulse_pair`, t_1 apart, and their derivatives (dtheta1,
    domega), each two rows: d/dp_s (the symmetric kick's strength) and
    d/dt_1, carried through the same kicks and flight. Then theta(t_2) =
    theta1 + t_2 * omega, for signed times too.
    """
    rest = (theta0, np.zeros(theta0.shape))
    kicked = _kick(rest, first)
    flown = _fly(kicked, t_1)
    after = _kick(flown, second)
    d_theta = np.zeros((2,) + theta0.shape)
    d_omega = _kick_tangent(theta0, first, d_theta, d_theta)
    d_theta = d_theta + t_1 * d_omega
    d_theta[1] += kicked[1]  # d(theta + t_1 omega)/dt_1
    d_omega = _kick_tangent(flown[0], second, d_theta, d_omega)
    return (*after, d_theta, d_omega)


def _kick_tangent(theta, kicks, d_theta, d_omega):
    """d omega after ``kicks`` at the pre-kick angle ``theta``, from the
    pre-kick tangents: each increment -s sin(m theta) adds -s m cos(m
    theta) d theta, and the symmetric one -sin(2 theta) to d/dp_s."""
    for kk in kicks:
        m = 2.0 if kk.kind is KickKind.SYMMETRIC else 1.0
        d_omega = d_omega - kk.strength * m * np.cos(m * theta) * d_theta
        if kk.kind is KickKind.SYMMETRIC:
            d_omega[0] -= np.sin(2.0 * theta)
    return d_omega


def classical_observable(seq: PulseSequence, k: int, t_eval) -> ObservableSeries:
    """Ensemble-averaged <cos^k theta> on a time grid, k = 1 or 2.

    The node count starts from the kick-phase rule and is doubled
    until successive quadratures agree within ``QUADRATURE_TOL`` at every
    time. Each pass walks the sequence once, the times between two kicks
    one :func:`_free_flight_average` call. Symmetric kicks keep the
    ensemble symmetric under theta -> pi - theta, so <cos theta> is
    exactly 0 at the times before the first asymmetric kick of nonzero
    strength (a kick at exactly t has acted by t).
    """
    kind = observable_kind(k)
    seq = validate_sequence(seq)
    t_eval = time_grid(t_eval)
    t_last = float(t_eval[-1]) if t_eval.size else -math.inf
    flights = [(kk.strength, t_last - kk.time) for kk in seq.kicks]

    def average(ens: ClassicalEnsemble) -> np.ndarray:
        rest = (ens.theta0, np.zeros(ens.theta0.shape))
        return walk_sequence(seq, t_eval, rest, _fly, _kick,
                             lambda state, dts: _free_flight_average(
                                 *state, ens.weights, dts, k))

    vals = _refine(average, defaults.ensemble_nodes(flights))
    if k == 1:
        vals[t_eval < min([kk.time for kk in seq.kicks if kk.strength
                           and kk.kind is KickKind.ASYMMETRIC],
                          default=math.inf)] = 0.0
    return ObservableSeries(t_eval, vals, kind)


def _refine(average, n_nodes: int, change=np.subtract) -> np.ndarray:
    """The ensemble average ``average`` gives for a rule, the rule doubled
    from ``n_nodes`` until ``change(new, old)`` of two successive rules is
    within ``defaults.QUADRATURE_TOL`` in every entry (an empty grid
    agrees at once). A rule past ``defaults.NODE_CAP`` fails instead, so
    a start whose doubled rule is already beyond the cap fails before any
    rule is built."""
    tol, cap = defaults.QUADRATURE_TOL, defaults.NODE_CAP
    n, prev = n_nodes, None
    while 2 * n <= cap:
        if prev is None:
            prev = average(make_ensemble(n))
        n *= 2
        vals = average(make_ensemble(n))
        if (np.abs(change(vals, prev)) < tol).all():
            return vals
        prev = vals
    raise ConvergenceFailure(f"quadrature below {tol} needs a rule of "
                             f"{2 * n} nodes, beyond the node cap {cap}")


def _free_flight_average(theta1: np.ndarray, omega: np.ndarray,
                         weights: np.ndarray, t_2: np.ndarray,
                         k: int) -> np.ndarray:
    """sum_i w_i cos^k(theta1_i + t omega_i) at every t of ``t_2``, k = 1
    and (cos^2 x = (1 + cos 2x) / 2) k = 2 read off :func:`core.phase_sum`
    at phases k theta1_i and rates k omega_i."""
    s = phase_sum(weights, k * theta1, k * omega, t_2)
    return s if k == 1 else 0.5 * (weights.sum() + s)


class TwoKickScan:
    """<cos^k theta> of the closed-form pulse pair on a t_2 grid
    (:attr:`values`), then its t-derivatives (:meth:`jet`) and its
    derivatives in (p_s, t_1) (:meth:`gradient`) at single times.

    Signed times are allowed (analytic continuation). The grid is one
    :func:`_refine`, each rule's average one :func:`_free_flight_average`
    call over the whole grid. The kicked (theta1, omega) of every rule
    reached, and their tangents, are kept with the scan, so :meth:`jet`
    and :meth:`gradient` read the converged rule pair without kicking
    again.
    """

    def __init__(self, p_s: float, p_a: float, t_1: float, t_2,
                 order: PulseOrder = PulseOrder.LASER_FIRST, k: int = 1):
        first, second = pulse_pair(p_s, p_a, order)
        strengths = [sum(abs(kk.strength) for kk in pulse)
                     for pulse in (first, second)]
        pa = abs(p_a) or 1.0
        # the first pulse flies |t_1| + max|t_2|, the second max|t_2|;
        # d/d(p_s, t_1) -> d/d(p_s/p_a, p_a t_1), the scale-free variables
        self._scan((p_s, p_a, t_1), t_2, k,
                   partial(_after_kicks, first=first, second=second, t_1=t_1),
                   lambda reach: [(strengths[0], abs(t_1) + reach),
                                  (strengths[1], reach)],
                   [pa, 1.0 / pa])

    def _scan(self, params, t_2, k: int, after, flights, scale) -> None:
        """Check ``params`` and ``t_2``, keep the pair state ``after(theta0)``
        (theta1, omega, dtheta1, domega) and the gradient's ``scale``, and
        scan from the rule of ``flights(max|t_2|)``."""
        observable_kind(k)
        t_2 = np.atleast_1d(np.asarray(t_2, dtype=float))
        if not (np.isfinite(params).all() and np.isfinite(t_2).all()):
            raise NonFiniteValue("non-finite value in (p_s, p_a, t_1, t_2)")
        self._after, self._k, self._scale = after, k, np.array(scale)
        self._kicked: dict[int, tuple[np.ndarray, ...]] = {}
        reach = float(np.max(np.abs(t_2))) if t_2.size else 0.0
        self.values = _refine(
            lambda ens: _free_flight_average(*self._state(ens)[:3], t_2, k),
            defaults.ensemble_nodes(flights(reach)))

    def _state(self, ens: ClassicalEnsemble) -> tuple[np.ndarray, ...]:
        """(theta1, omega, weights, dtheta1, domega) of the rule ``ens``
        after the pair."""
        if len(ens) not in self._kicked:
            theta1, omega, d_theta, d_omega = self._after(ens.theta0)
            self._kicked[len(ens)] = (theta1, omega, ens.weights, d_theta,
                                      d_omega)
        return self._kicked[len(ens)]

    def jet(self, t: float) -> np.ndarray:
        """(f, f', f'') of the average at the one time ``t``, from
        :func:`core.phase_jet`: the :func:`_refine` of the value f from
        half the finest rule the scan reached, so the finest rule's f
        must agree with the next coarser one's within
        ``defaults.QUADRATURE_TOL``, else the rule doubles, up to
        ``defaults.NODE_CAP``.
        """
        return _refine(partial(self._jet, t), max(self._kicked) // 2,
                       lambda new, old: new[0] - old[0])

    def gradient(self, t: float) -> np.ndarray:
        """d/d(p_s, t_1) of the average at the one time ``t``: -sum_i w_i
        d cos^k(theta_i), dtheta_i = dtheta1_i + t domega_i, settled as
        :meth:`jet`'s value on each component in the scale-free variables
        (p_s/p_a, p_a t_1)."""
        return _refine(partial(self._gradient, t), max(self._kicked) // 2,
                       lambda new, old: (new - old) * self._scale)

    def _jet(self, t: float, ens: ClassicalEnsemble) -> np.ndarray:
        theta1, omega, weights = self._state(ens)[:3]
        k = self._k  # as in _free_flight_average
        s = phase_jet(weights, k * theta1, k * omega, t)
        return s if k == 1 else 0.5 * (s + [weights.sum(), 0.0, 0.0])

    def _gradient(self, t: float, ens: ClassicalEnsemble) -> np.ndarray:
        theta1, omega, weights, d_theta, d_omega = self._state(ens)
        k = self._k  # d cos^2 x = -sin(2x) dx
        slopes = weights * np.sin(k * (theta1 + t * omega))
        return -(d_theta + t * d_omega) @ slopes


class WeakLaserScan(TwoKickScan):
    """The :class:`TwoKickScan` of the laser-first pair in its weak-laser
    limit: p_s -> 0 at fixed c = p_s t_1, the same in the scale-free
    variables (r T_1). The symmetric kick then displaces each rotor, by
    -c sin(2 theta0), instead of setting it turning, and the asymmetric
    kick p_a acts from there:

        theta1 = theta0 - c sin(2 theta0),  omega = -p_a sin(theta1),

    so theta(t_2) = theta1 + t_2 omega. :meth:`gradient` is d/dc, one
    entry. The rule starts from the phase |c| + |p_a| max|t_2|, the
    pair's own as r -> 0.
    """

    def __init__(self, c: float, p_a: float, t_2, k: int = 1):
        self._scan((c, p_a), t_2, k, partial(_weak_laser, c=c, p_a=p_a),
                   lambda reach: [(abs(c), 1.0), (abs(p_a), reach)], [1.0])


def _weak_laser(theta0: np.ndarray, c: float, p_a: float):
    """(theta1, omega, dtheta1/dc, domega/dc) of :class:`WeakLaserScan`,
    the tangents one row each."""
    d_theta = -np.sin(2.0 * theta0)
    theta1 = theta0 + c * d_theta
    return (theta1, -p_a * np.sin(theta1), d_theta[None],
            (-p_a * np.cos(theta1) * d_theta)[None])


def two_kick_observable(
    p_s: float,
    p_a: float,
    t_1: float,
    t_2,
    order: PulseOrder = PulseOrder.LASER_FIRST,
    k: int = 1,
) -> np.ndarray:
    """<cos^k theta> of the closed-form two-pulse trajectory on a t_2 grid:
    the values of a :class:`TwoKickScan`.

    Signed times are allowed (analytic continuation).
    """
    return TwoKickScan(p_s, p_a, t_1, t_2, order, k).values
