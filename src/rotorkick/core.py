"""Data model, kick walker and free-flight sampler shared by both engines.

Units and sign conventions
--------------------------
Time is dimensionless, measured in units of I/hbar where I is the moment
of inertia; the full rotational revival period is 2*pi in these units.
Kick strengths are dimensionless angular impulses:

* an asymmetric kick of strength ``p_a > 0`` adds the angular-velocity
  increment ``-p_a*sin(theta)`` and therefore pushes the dipole toward
  ``theta = 0``;
* a symmetric kick of strength ``p_s`` adds ``-p_s*sin(2*theta)``;
  positive ``p_s`` aligns (localizes near the poles), negative ``p_s``
  anti-aligns (localizes near the equatorial plane).

Conversion from laboratory quantities lives exclusively in
:mod:`rotorkick.labunits`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .errors import NonFiniteValue, TooManyKicksAtSameTime

REVIVAL_PERIOD = 2.0 * math.pi
STRENGTH_BOUND = 1.0e4


class KickKind(str, Enum):
    SYMMETRIC = "sym"
    ASYMMETRIC = "asym"


class Engine(str, Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


class PulseOrder(str, Enum):
    LASER_FIRST = "laser-first"
    HCP_FIRST = "hcp-first"
    SIMULTANEOUS = "simultaneous"


class Branch(str, Enum):
    PROMPT = "prompt"
    REVIVAL = "revival"


class ObjectiveSign(str, Enum):
    """Whether the optimizer maximizes the signed value or its magnitude."""

    MAXIMIZE_PLUS = "plus"
    MAXIMIZE_ABS = "abs"


class ObservableKind(str, Enum):
    ORIENTATION = "orientation"
    ALIGNMENT = "alignment"


@dataclass(frozen=True)
class Kick:
    """One impulsive kick: kind, dimensionless strength, dimensionless time.

    Negative times are legal; the classical engine uses them for the
    analytic continuation into the pre-pulse (revival) domain.
    """

    kind: KickKind
    strength: float
    time: float


@dataclass(frozen=True)
class PulseSequence:
    """Ordered list of kicks, sorted by time.

    Kicks sharing one time are allowed (a hybrid pulse), but at most one
    of each kind per time group.
    """

    kicks: tuple[Kick, ...]

    def __len__(self) -> int:
        return len(self.kicks)

    def __iter__(self):
        return iter(self.kicks)

    def total_strength(self) -> float:
        return sum(abs(k.strength) for k in self.kicks)

    def time_groups(self) -> list[tuple[float, tuple[Kick, ...]]]:
        """Kicks grouped by identical time, in time order."""
        return [(t, tuple(g)) for t, g in groupby(self.kicks, key=lambda k: k.time)]


def validate_sequence(seq: PulseSequence | Iterable[Kick]) -> PulseSequence:
    """Sort kicks by time and enforce the sequence invariants.

    Returns a new :class:`PulseSequence`. Idempotent.

    Raises
    ------
    NonFiniteValue
        if any strength or time is non-finite, or |strength| > 1e4.
    TooManyKicksAtSameTime
        if two kicks of the same kind share one time.
    """
    kicks = tuple(seq.kicks if isinstance(seq, PulseSequence) else seq)
    for k in kicks:
        if not (math.isfinite(k.strength) and math.isfinite(k.time)):
            raise NonFiniteValue(f"non-finite kick parameter: {k}")
        if abs(k.strength) > STRENGTH_BOUND:
            raise NonFiniteValue(
                f"|strength| = {abs(k.strength)} exceeds sanity bound {STRENGTH_BOUND}"
            )
    ordered = tuple(sorted(kicks, key=lambda k: k.time))
    for t, group in groupby(ordered, key=lambda k: k.time):
        kinds = [k.kind for k in group]
        if len(kinds) != len(set(kinds)):
            raise TooManyKicksAtSameTime(
                f"multiple kicks of one kind at t = {t}; merge their strengths first"
            )
    return PulseSequence(ordered)


def observable_kind(k: int) -> ObservableKind:
    """The kind of <cos^k theta>, refusing any k but 1 and 2."""
    if k not in (1, 2):
        raise ValueError("k must be 1 (orientation) or 2 (alignment)")
    return ObservableKind.ORIENTATION if k == 1 else ObservableKind.ALIGNMENT


def time_grid(t_eval) -> np.ndarray:
    """``t_eval`` as a finite, strictly ascending 1-d float array, or raise."""
    t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
    if not np.isfinite(t_eval).all():
        raise NonFiniteValue("non-finite value in t_eval")
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("t_eval must be strictly ascending")
    return t_eval


def _powers(z: np.ndarray, m: int, first=1.0) -> np.ndarray:
    """Rows first * z**j for j = 0 .. m-1, by repeated multiplication."""
    out = np.empty((m, z.size), dtype=complex)
    out[:1] = first
    for j in range(1, m):  # a row at a time: np.cumprod is slower on complex
        np.multiply(out[j - 1], z, out=out[j])
    return out


def phase_sum(weights: np.ndarray, phases, rates: np.ndarray,
              t: np.ndarray, even: bool | None = None) -> np.ndarray:
    """Re sum_i w_i exp(i(phases_i + rates_i t)) at every t of ``t``, the
    free-flight sampler of both engines (classical nodes, quantum beats).

    On an even grid t_j = t_0 + (qB + r) h, B = ceil(sqrt(n)), it is the
    matrix product A @ C, A[q, i] = w_i exp(i(phases_i + (t_0 + qBh)
    rates_i)) and C[i, r] = exp(irh rates_i), both powers built by
    repeated multiplication: three exponentials per term, not n. Any other
    array takes B = 1. ``even`` is :func:`is_even_grid` of ``t``, tested
    here if None; a caller sampling one ``t`` on many rules settles it once.
    """
    n = t.size
    t_0 = t[0] if n else 0.0
    h = (t[-1] - t_0) / (n - 1) if n > 1 else 0.0
    if is_even_grid(t) if even is None else even:
        b = math.isqrt(n - 1) + 1 if n else 1
        anchor = weights * np.exp(1j * (phases + t_0 * rates))
        a = _powers(np.exp(1j * b * h * rates), -(-n // b), anchor)
        c = _powers(np.exp(1j * h * rates), b)
    else:
        a = weights * np.exp(1j * (phases + t[:, None] * rates))
        c = np.ones((1, rates.size))
    # + 0.0 turns -0.0 into 0.0: a band that vanishes by parity prints as 0
    return (a @ c.T).real.ravel()[:n] + 0.0


def is_even_grid(t: np.ndarray) -> bool:
    """Whether ``t`` is off the even grid from its first entry to its last
    by at most 1e-12 of its largest |t| (:func:`phase_sum`)."""
    h = (t[-1] - t[0]) / (t.size - 1) if t.size > 1 else 0.0
    grid = (t[0] if t.size else 0.0) + h * np.arange(t.size)
    return bool((np.abs(t - grid) <= 1e-12 * np.abs(t).max(initial=0.0)).all())


def phase_jet(weights: np.ndarray, phases, rates: np.ndarray,
              t) -> np.ndarray:
    """Rows (f, f', f'') at every time of ``t`` (a scalar gives one
    column, flattened) of f = :func:`phase_sum`: the same sum with
    weights w, i nu w and -nu^2 w, read at each time directly."""
    z = weights * np.exp(1j * (phases + np.multiply.outer(t, rates)))
    return np.array([z.real.sum(-1), -(z.imag @ rates),
                     -(z.real @ rates**2)])


def walk_sequence(seq: PulseSequence, t_eval: np.ndarray, state,
                  fly, kick, observe) -> np.ndarray:
    """The one event walker over a kick sequence, shared by both engines.

    The clock starts at the earlier of the first kick and the first
    requested time, with ``state`` at rest there. The kick times cut the
    ascending ``t_eval`` (see :func:`time_grid`) into segments, a kick at
    exactly t acting before t is sampled; ``observe(state, dts)`` is
    called once per non-empty segment, with its times relative to the
    clock. Between segments ``fly(state, dt)`` advances the state to the
    next kick group and ``kick(state, kicks)`` applies it; kicks after the
    last requested time are never applied. Returns the samples joined
    along the first axis (an empty ``t_eval`` is observed once, at rest).
    """
    groups = seq.time_groups()
    clock = min([t for t, _ in groups[:1]] + list(t_eval[:1]), default=0.0)
    out, start = [], 0
    for t_kick, kicks in groups:
        stop = int(np.searchsorted(t_eval, t_kick, side="left"))
        if stop == t_eval.size:
            break
        if stop > start:
            out.append(observe(state, t_eval[start:stop] - clock))
        state = kick(fly(state, t_kick - clock), kicks)
        clock, start = t_kick, stop
    if start < t_eval.size:
        out.append(observe(state, t_eval[start:] - clock))
    return np.concatenate(out) if out else observe(state, t_eval - clock)


def pulse_pair(p_s: float, p_a: float,
               order: PulseOrder) -> tuple[tuple[Kick, ...], tuple[Kick, ...]]:
    """The one home of the pulse order: the kicks of the first and of the
    second pulse of the canonical pair, each at time 0.

    Laser first is ``((sym,), (asym,))``, HCP first ``((asym,), (sym,))``;
    simultaneous pulses are one hybrid second pulse ``((), (sym, asym))``,
    so the delay before it acts on an ensemble at rest.
    """
    sym = Kick(KickKind.SYMMETRIC, p_s, 0.0)
    asym = Kick(KickKind.ASYMMETRIC, p_a, 0.0)
    if order is PulseOrder.LASER_FIRST:
        return (sym,), (asym,)
    if order is PulseOrder.HCP_FIRST:
        return (asym,), (sym,)
    return (), (sym, asym)


def two_pulse_sequence(
    p_s: float, p_a: float, delay: float, order: PulseOrder
) -> PulseSequence:
    """Build the canonical two-kick sequence for a given temporal order.

    The first pulse fires at t = 0 and the second at t = delay >= 0
    (both at 0 for ``SIMULTANEOUS``). Kicks of zero strength are kept so
    the sequence shape is order-independent.
    """
    if delay < 0:
        raise ValueError("delay must be >= 0; negative-time continuations are "
                         "handled by the classical closed-form evaluators")
    first, second = pulse_pair(p_s, p_a, order)
    t_second = delay if first else 0.0
    return validate_sequence(
        first + tuple(Kick(k.kind, k.strength, t_second) for k in second))


@dataclass(frozen=True)
class ObservableSeries:
    """Time series of <cos theta> (orientation) or <cos^2 theta> (alignment)."""

    times: np.ndarray
    values: np.ndarray
    kind: ObservableKind

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        eps = 1e-9
        if self.kind is ObservableKind.ORIENTATION:
            lo, hi = -1.0 - eps, 1.0 + eps
        else:
            lo, hi = -eps, 1.0 + eps
        if values.size and (values.min() < lo or values.max() > hi):
            raise ValueError(f"{self.kind.value} values outside [{lo}, {hi}]")

    def min(self) -> tuple[float, float]:
        i = int(np.argmin(self.values))
        return float(self.times[i]), float(self.values[i])

    def max(self) -> tuple[float, float]:
        i = int(np.argmax(self.values))
        return float(self.times[i]), float(self.values[i])


@dataclass(frozen=True)
class OptimizationResult:
    """Optimal pulse-pair parameters and the achieved orientation factor.

    ``objective`` is the signed <cos theta> at the optimum; ``t_1`` is the
    delay between pulses and ``t_2`` the observation time after the last
    pulse (both may be negative on the classical revival continuation).
    ``evaluations`` counts the distinct (p_s, t_1) points evaluated, each
    one value and gradient, by the one solve that every problem sharing
    this one's unit problem reads (``optimize._unit_problem``).
    ``stagnated``: no quasi-Newton ascent ended above the best start it
    was given. ``on_boundary``: the optimum holds a bound of the search
    box that the gradient points out of, so a larger box would score
    higher.
    """

    p_a: float
    p_s: float
    t_1: float
    t_2: float
    objective: float
    branch: Branch
    order: PulseOrder
    engine: Engine
    evaluations: int
    stagnated: bool = False
    on_boundary: bool = False

    def __post_init__(self):
        if abs(self.objective) > 1.0 + 1e-9:
            raise ValueError("|objective| cannot exceed 1")

    @property
    def scaled_delay(self) -> float:
        """Scale-invariant delay product |p_s| * delay.

        The delay is t_1 between sequential pulses; for coincident pulses
        the only delay left is the observation time t_2.
        """
        delay = self.t_2 if self.order is PulseOrder.SIMULTANEOUS else self.t_1
        return abs(self.p_s) * delay


# ---------------------------------------------------------------------------
# plain-text sequence format: one kick per line, `sym|asym <strength> <time>`

def format_sequence(seq: PulseSequence) -> str:
    lines = [f"{k.kind.value} {k.strength!r} {k.time!r}" for k in seq.kicks]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_sequence(text: str) -> PulseSequence:
    """Parse the plain-text kick format; '#' starts a comment.

    Raises ValueError on malformed lines (the CLI maps this to a config
    error), or the validation errors on bad values.
    """
    kicks: list[Kick] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'sym|asym <strength> <time>'")
        kind_token, strength_token, time_token = parts
        try:
            kind = KickKind(kind_token.lower())
        except ValueError:
            raise ValueError(f"line {lineno}: unknown kick kind {kind_token!r}") from None
        try:
            strength = float(strength_token)
            time = float(time_token)
        except ValueError:
            raise ValueError(f"line {lineno}: malformed number") from None
        kicks.append(Kick(kind, strength, time))
    return validate_sequence(kicks)
