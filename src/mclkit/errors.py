"""Exception hierarchy shared across the package."""


class MclError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatchError(MclError, ValueError):
    """Operands have incompatible shapes; the message names the offending mode/layer."""


class NonFiniteError(MclError, ValueError):
    """An input array holds NaN or infinity; the message names the array."""


class ConvergenceError(MclError, RuntimeError):
    """An iterative numeric routine failed to converge."""


class StateError(MclError, RuntimeError):
    """An operation was called out of order (e.g. backward without a cached forward)."""


class TrainingDivergedError(MclError, RuntimeError):
    """A non-finite loss was encountered; the message carries a diagnostics dump."""


class ConfigError(MclError, ValueError):
    """Invalid configuration value or run specification."""


class CheckpointError(MclError):
    """Base class for checkpoint file problems."""


class CheckpointFormatError(CheckpointError):
    """Bad magic bytes or malformed record structure."""


class CheckpointVersionError(CheckpointError):
    """Unsupported checkpoint format version."""


class CheckpointChecksumError(CheckpointError):
    """Stored CRC does not match the file contents."""


class CheckpointTruncatedError(CheckpointError):
    """File ended before all declared bytes were read."""


class CheckpointShapeError(CheckpointError):
    """A stored tensor does not fit the target model; message names the field."""


class DatasetError(MclError):
    """Base class for dataset file problems."""


class DatasetFormatError(DatasetError):
    """Bad magic bytes or malformed dataset header."""


class DatasetTruncatedError(DatasetError):
    """Dataset file ended mid-record."""


class DatasetLabelError(DatasetError):
    """A stored label falls outside the declared class range."""
