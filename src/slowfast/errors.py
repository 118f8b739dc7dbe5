"""Exception taxonomy shared by all modules.

The CLI maps these onto its stable exit codes: schema/usage errors -> 1,
certificate infeasibility and violated certificate preconditions -> 2,
fixed-point non-convergence -> 3, everything numeric -> 4.
"""


class SlowfastError(Exception):
    """Base class for all library errors."""


class SchemaError(SlowfastError):
    """Scenario document failed validation (unknown key, bad type, bad value)."""


class PreconditionError(SlowfastError):
    """An operation's documented precondition does not hold for the inputs."""


class CapabilityError(SlowfastError):
    """The system lacks a callable (a derivative) the operation needs."""


class InfeasibleBudgetError(SlowfastError):
    """No admissible constant exists for the requested budget inequality."""


class ContractionError(SlowfastError):
    """A certified contraction condition (e.g. K*M1x < mu) is violated."""


class NoDecayError(SlowfastError):
    """Sampled process norms show no exponential decay."""


class ConvergenceError(SlowfastError):
    """A fixed-point iteration failed to meet tolerance within its sweeps."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NumericError(SlowfastError):
    """Numerical backend failure (eigensolver breakdown, overflow, ...)."""


class UnderdeterminedError(SlowfastError):
    """Not enough signal above the noise floor to fit anything."""
