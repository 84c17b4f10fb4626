"""Single table of numeric defaults used across the engines and optimizer.

Only the basis-size hint (``l_max_hint`` of ``quantum.run_sequence``,
``l_max`` of ``quantum.two_kick_state``, CLI ``--lmax``) and the
optimizer box (``BoundsBox``, the CLI's bound options) can be
overridden. Everything else is fixed here, and the engines read it at
call time: the caps ``QUADRATURE_TOL``, ``NODE_CAP`` and ``L_MAX_CAP``,
the power-of-two node ladder of :func:`ensemble_nodes`, ``TAIL_TOL``,
``TAIL_MARGIN``, ``TIME_REFINE_TOL``, ``REVIVAL_WINDOW``, ``ASCENT_*``,
``QUANTUM_SWEEP_PA_MAX``, the ``PS_RATIO_*`` defaults and ``scan_step``,
the classical t_2 grid's step (the quantum FFT takes its length from
the basis). The rules are functions of the kick strengths so that
classical results respect the exact scaling invariance
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
QUANTUM_SWEEP_PA_MAX = 100.0

#: default lower/upper bound on |p_s| as a fraction of p_a
PS_RATIO_MIN = 0.02
PS_RATIO_MAX = 1.0


def ensemble_nodes(kicks) -> int:
    """Starting quadrature node count for ``kicks``, (strength, flight
    time) pairs: a rung of the power-of-two ladder.

    A kick of strength p turns the angle of the rotor that starts at
    theta0 by about p tau sin(m theta0) after a flight of tau, so the
    integrand cos^k(theta(t; theta0)) oscillates in theta0 about as often
    as the kick phase Phi = sum |p| tau, each kick's strength times its
    flight to the last sampled time (kicks with no flight left add
    nothing). The count is the power of two nearest (in ratio) to 8 Phi,
    at least 64 and at most ``NODE_CAP``; as Phi <= P * span for the
    total strength P over the whole time span, it is never above the
    rung of 8 P span. Refinement doubles it from there up to
    ``NODE_CAP``, so every rule the classical engine builds has
    2^6 ... 2^20 nodes: at most 15 distinct rules.
    """
    phase = sum(abs(p) * tau for p, tau in kicks if p and tau > 0.0)
    target = 8.0 * float(phase)  # may be inf
    return 2 ** round(math.log2(min(max(64.0, target), NODE_CAP)))


def quantum_l_max(total_strength: float) -> int:
    """Default basis size: impulsive kicks populate l up to a few times
    the total kick strength."""
    return math.ceil(3.0 * total_strength) + 20


def scan_step(total_strength: float) -> float:
    """Largest step of the classical t_2 finder's first scan, an even
    grid from edge to edge of the window: 0.05 / P, P the total kick
    strength (at least 1), as the fastest classical beats scale with P.

    The quantum first scan is an FFT whose length the basis sets
    (``quantum.orientation_samples``), so it does not read this step.
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
