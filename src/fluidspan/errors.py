"""Exception hierarchy shared across the package, and how each failure ends.

Each class carries the code the CLI exits with and the label that starts
the one line it prints, ``label: message``.  A run that meets an
instability, a chord-arc violation, an elliptic non-convergence or a
vacuum ends with that code as its status and ``label: message`` as its
termination; it still writes run_meta.json, and ``fluidspan run`` exits
with the status.
"""


class FluidspanError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    label = "error"


class SolvabilityError(FluidspanError):
    """Poisson solve requested for a right-hand side with nonzero mean."""


class GridMismatchError(FluidspanError):
    """Two fields that must share a grid do not."""


class ParameterError(FluidspanError):
    """A parameter is outside the supported range (e.g. p <= 2)."""


class HypothesisError(FluidspanError):
    """A closed-form bound was requested outside its hypothesis (e.g. C <= e)."""

    exit_code = 4
    label = "hypothesis violation"


class NestedLogDomainError(FluidspanError):
    """A nested-log lifespan formula was evaluated outside its domain.

    ``level`` identifies the innermost log that went nonpositive
    (1 = innermost).
    """

    exit_code = 4
    label = "hypothesis violation"

    def __init__(self, message, level):
        super().__init__(message)
        self.level = level


class VacuumError(FluidspanError):
    """Density touches zero (or is not bounded away from it)."""

    exit_code = 5
    label = "vacuum"


class ConvergenceError(FluidspanError):
    """Iterative solver failed to reach tolerance; carries the solve report."""

    exit_code = 5
    label = "elliptic non-convergence"

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InstabilityError(FluidspanError):
    """Time integration produced non-finite values."""

    exit_code = 3
    label = "instability"


class ChordArcError(FluidspanError):
    """Measured flow-map stretching exceeded its exponential bound."""

    exit_code = 3
    label = "chord-arc violation"


class ReconstructionError(FluidspanError):
    """Lagrangian reconstruction lacks the history it needs."""


class ConfigError(FluidspanError):
    """Malformed or inconsistent run configuration."""

    exit_code = 2
    label = "config error"
