"""Exception hierarchy shared across the package."""


class QuantrlError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QuantrlError):
    """Invalid configuration value or experiment spec (CLI exit code 1)."""


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

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
