"""Exception taxonomy shared across the package.

Each error class carries the process exit code the CLI maps it to.
"""

import numbers


class SnnkitError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ConfigurationError(SnnkitError):
    """Invalid shapes, layer stacks, or experiment configuration."""

    exit_code = 2


class DimensionError(ConfigurationError):
    """Operand shapes do not agree."""


class IngestionError(SnnkitError):
    """Malformed or truncated dataset / model file."""

    exit_code = 3


class TrainingError(SnnkitError):
    """Training diverged or produced non-finite values."""

    exit_code = 4


class EncodingError(TrainingError):
    """Input could not be converted to a spike representation."""


class CalibrationError(TrainingError):
    """Threshold calibration received a degenerate input distribution."""


class NumericalError(TrainingError):
    """A tensor operation produced NaN or Inf."""


class ContractViolation(SnnkitError):
    """An internal precondition was violated (missing trace fields, zero samples)."""


class EmissionError(SnnkitError):
    """Report or artifact files could not be written."""

    exit_code = 5


def require(name: str, value, ok: bool, expected: str):
    """Raise ConfigurationError naming the field and its value unless ``ok``."""
    if not ok:
        raise ConfigurationError(f"{name} must be {expected}, got {value!r}")


def require_count(name: str, value, minimum: int = 1):
    """Raise ConfigurationError unless ``value`` is an integer of at least ``minimum``."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    require(name, value, integral and value >= minimum, f"an integer >= {minimum}")
