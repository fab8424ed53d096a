"""Exception hierarchy shared across the package, and the config field rules."""

import math


class QuantrlError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QuantrlError):
    """Invalid configuration value or experiment spec (CLI exit code 1)."""


def check_fields(rules: dict, values: dict) -> None:
    """Raise a ConfigError naming the first ruled field in ``values`` that fails."""
    for name, (ok, phrase) in rules.items():
        if name in values and not ok(values[name]):
            raise ConfigError(f"{name} must be {phrase}, got {values[name]!r}")


# a (predicate, phrase) rule per kind; a NaN fails every numeric rule
SEED = (lambda v: hasattr(v, "__index__") and v >= 0), "an integer >= 0"
POSITIVE = (lambda v: math.isfinite(v) and v > 0), "finite and > 0"
FRACTION = (lambda v: 0 < v <= 1), "in (0, 1]"


def between(low, high=math.inf):
    phrase = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    return (lambda v: low <= v <= high), phrase


def one_of(names: tuple):
    return (lambda v: v in names), f"one of {names}"


class IngestionError(QuantrlError):
    """Market CSV could not be turned into a valid series."""


class DataError(QuantrlError):
    """Numeric data violates a hard precondition (e.g. nonpositive equity)."""


class TrainingError(QuantrlError):
    """Training diverged or a worker died."""


class EvaluationError(QuantrlError):
    """A forecast/metric evaluation is undefined for the given inputs."""


class ModelFileError(QuantrlError, ValueError):
    """A model file is missing, truncated or corrupt (CLI exit code 2)."""


class GradientRejected(QuantrlError):
    """A pushed gradient was non-finite; the worker must resync."""


class StageError(QuantrlError):
    """An experiment stage failed (CLI exit code 2)."""
