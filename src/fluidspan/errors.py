"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError (and an OSError on a path
the user gave) -> 2, InstabilityError -> 3, HypothesisError /
NestedLogDomainError -> 4, ConvergenceError / VacuumError -> 5.  Inside a
run, instability and chord-arc violations end with status 3 and elliptic
non-convergence and vacuum with status 5; the run still writes
run_meta.json and ``fluidspan run`` exits with the status.
"""


class FluidspanError(Exception):
    """Base class for all package errors."""


class SolvabilityError(FluidspanError):
    """Poisson solve requested for a right-hand side with nonzero mean."""


class GridMismatchError(FluidspanError):
    """Two fields that must share a grid do not."""


class ParameterError(FluidspanError):
    """A parameter is outside the supported range (e.g. p <= 2)."""


class HypothesisError(FluidspanError):
    """A closed-form bound was requested outside its hypothesis (e.g. C <= e)."""


class NestedLogDomainError(FluidspanError):
    """A nested-log lifespan formula was evaluated outside its domain.

    ``level`` identifies the innermost log that went nonpositive
    (1 = innermost).
    """

    def __init__(self, message, level):
        super().__init__(message)
        self.level = level


class VacuumError(FluidspanError):
    """Density touches zero (or is not bounded away from it)."""


class ConvergenceError(FluidspanError):
    """Iterative solver failed to reach tolerance; carries the solve report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InstabilityError(FluidspanError):
    """Time integration produced non-finite values."""


class ChordArcError(FluidspanError):
    """Measured flow-map stretching exceeded its exponential bound."""


class ReconstructionError(FluidspanError):
    """Lagrangian reconstruction lacks the history it needs."""


class ConfigError(FluidspanError):
    """Malformed or inconsistent run configuration."""
