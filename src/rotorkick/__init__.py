"""Field-free orientation of linear dipolar molecules by impulsive
pulse pairs: classical ensemble and quantum wavepacket engines, plus an
optimizer for the pulse-pair parameters.

Times are in units of I_m/hbar (one rotational revival = 2*pi) and kick
strengths are dimensionless time-integrated phases. <cos theta> is the
orientation factor, <cos^2 theta> the alignment factor.
"""

from .classical import (ClassicalEnsemble, classical_observable,
                        make_ensemble, propagate_classical,
                        two_kick_observable, two_kick_theta)
from .core import (REVIVAL_PERIOD, Branch, Engine, Kick, KickKind,
                   ObjectiveSign, ObservableKind, ObservableSeries,
                   OptimizationResult, PulseOrder, PulseSequence,
                   format_sequence, parse_sequence, two_pulse_sequence,
                   validate_sequence)
from .errors import (BasisOverflow, ConfigError, ConvergenceFailure,
                     InvalidNodeCount, NonFiniteValue, RotorkickError,
                     TooManyKicksAtSameTime)
from .labunits import (KCL, HalfCyclePulse, LaserPulse, MoleculeParams,
                       kick_strength, time_from_dimensionless,
                       time_to_dimensionless)
from .optimize import (CSV_HEADER, BoundsBox, OptimizationProblem, SweepRow,
                       default_bounds, evaluate_objective, optimize,
                       result_csv_row, sweep)
from .quantum import (KickOperator, RotorWavefunction, apply_kick,
                      expectation, free_propagate, ground_state,
                      kick_operator, observable_scan, run_sequence,
                      two_kick_state)

__version__ = "0.1.0"

__all__ = [
    "REVIVAL_PERIOD", "__version__",
    # enums and data types
    "Branch", "Engine", "Kick", "KickKind", "ObjectiveSign",
    "ObservableKind", "ObservableSeries", "OptimizationResult",
    "PulseOrder", "PulseSequence",
    # sequence helpers
    "format_sequence", "parse_sequence", "two_pulse_sequence",
    "validate_sequence",
    # errors
    "RotorkickError", "ConfigError", "NonFiniteValue",
    "TooManyKicksAtSameTime", "InvalidNodeCount", "ConvergenceFailure",
    "BasisOverflow",
    # classical engine
    "ClassicalEnsemble", "make_ensemble", "propagate_classical",
    "classical_observable", "two_kick_theta", "two_kick_observable",
    # quantum engine
    "RotorWavefunction", "KickOperator", "kick_operator", "ground_state",
    "apply_kick", "free_propagate", "expectation", "observable_scan",
    "run_sequence", "two_kick_state",
    # optimizer
    "BoundsBox", "OptimizationProblem", "SweepRow", "default_bounds",
    "evaluate_objective", "optimize", "sweep",
    "CSV_HEADER", "result_csv_row",
    # lab units
    "MoleculeParams", "HalfCyclePulse", "LaserPulse", "KCL",
    "kick_strength", "time_to_dimensionless", "time_from_dimensionless",
]
