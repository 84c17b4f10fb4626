"""Single table of numeric defaults used across the engines and optimizer.

Only the basis-size hint (``l_max_hint`` of ``quantum.run_sequence``,
``l_max`` of ``quantum.two_kick_state``, CLI ``--lmax``) and the
optimizer box (``BoundsBox``, the CLI's bound options) can be
overridden. Everything else is fixed here, and the engines read it at
call time: the caps ``QUADRATURE_TOL``, ``NODE_CAP`` and ``L_MAX_CAP``,
the power-of-two node ladder of :func:`ensemble_nodes`, ``TAIL_TOL``,
``TAIL_MARGIN``, ``TIME_REFINE_TOL``, ``REVIVAL_WINDOW``, ``ASCENT_*``,
``QUANTUM_SWEEP_PA_MAX``, the ``PS_RATIO_*`` defaults and ``scan_step``.
The rules are functions of the kick strengths so that classical results
respect the exact scaling invariance
(p_s, p_a, t_1, t_2) -> (lam*p_s, lam*p_a, t_1/lam, t_2/lam).
"""

from __future__ import annotations

import math

#: convergence target for ensemble-quadrature refinement (uniform over t)
QUADRATURE_TOL = 1.0e-6

#: hard cap on ensemble node count during refinement doubling
NODE_CAP = 2**20

#: hard cap on the spherical-harmonic basis size
L_MAX_CAP = 4096

#: post-kick population allowed above l_max - TAIL_MARGIN
TAIL_TOL = 1.0e-10
TAIL_MARGIN = 10

#: the t_2 extremum finder's Newton polish ends on the iterate after a
#: step of at most this
TIME_REFINE_TOL = 1.0e-6

#: half-width of the quantum revival search window (dimensionless time)
REVIVAL_WINDOW = 0.5

#: the optimizer's projected quasi-Newton ascent stops once its free
#: gradient in scaled coordinates is within this; a bound whose gradient
#: points out by more is binding (``OptimizationResult.on_boundary``)
ASCENT_GTOL = 1.0e-9
#: and after at most this many steps
ASCENT_MAXITER = 200

#: quantum sweeps are capped at this p_a by default (basis size / cost)
QUANTUM_SWEEP_PA_MAX = 30.0

#: default lower/upper bound on |p_s| as a fraction of p_a
PS_RATIO_MIN = 0.02
PS_RATIO_MAX = 1.0


def ensemble_nodes(total_strength: float, time_span: float) -> int:
    """Starting quadrature node count: a rung of the power-of-two ladder.

    The integrand cos^k(theta(t; theta0)) oscillates in theta0 with
    frequency proportional to P*t, so the count is the power of two
    nearest (in ratio) to 8*P*t, at least 64 and at most ``NODE_CAP``.
    Refinement doubles it from there up to ``NODE_CAP``, so every rule
    the classical engine builds has 2^6 ... 2^20 nodes: at most 15
    distinct rules.
    """
    target = 8.0 * float(total_strength) * float(time_span)  # may be inf
    return 2 ** round(math.log2(min(max(64.0, target), NODE_CAP)))


def quantum_l_max(total_strength: float) -> int:
    """Default basis size: impulsive kicks populate l up to a few times
    the total kick strength."""
    return math.ceil(3.0 * total_strength) + 20


def scan_step(total_strength: float) -> float:
    """Largest first-scan step of the optimizer's t_2 finder: 0.05 / P,
    P the total kick strength (at least 1), as the fastest beats of both
    engines scale with P.

    The classical grid uses this step; the quantum FFT uses the smallest
    power-of-two length whose sample spacing 2 pi / n is within it.
    """
    return 0.05 / max(total_strength, 1.0)


def prompt_window_classical(p_a: float) -> float:
    """t_2 search window after the last kick, classical engines, in the
    scale-free time |p_a| t_2: min(pi |p_a|, 10).

    Classical ensembles disperse, so the extremum sits within a few
    1/p_a of the kick: the window is a constant of the scale-free
    problem, capped at half the revival period pi in t_2.
    """
    return min(math.pi * abs(p_a), 10.0)


def delay_window_classical(p_a: float) -> float:
    """t_1 search window (delay between pulses), classical engines, in the
    scale-free time |p_a| t_1: min(2 pi |p_a|, 60), a constant capped at
    the revival period 2 pi in t_1."""
    return min(2.0 * math.pi * abs(p_a), 60.0)
