"""Exception types shared across the package."""


class RotorkickError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RotorkickError):
    """Invalid or inconsistent user configuration (CLI / config file)."""


class NonFiniteValue(RotorkickError):
    """A kick strength or time is NaN/inf or exceeds the sanity bound."""


class TooManyKicksAtSameTime(RotorkickError):
    """More than one kick of the same kind shares a single kick time."""


class InvalidNodeCount(RotorkickError):
    """Requested ensemble node count is too small."""


class ConvergenceFailure(RotorkickError):
    """Quadrature refinement hit the node-count cap without converging."""


class BasisOverflow(RotorkickError):
    """Angular-momentum basis would exceed the hard l_max cap."""
