"""Exception types shared across the toolkit."""


class HsimvtError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(HsimvtError):
    """Array shapes or coordinates do not fit the requested operation."""


class ConfigError(HsimvtError):
    """A configuration value is invalid or inconsistent."""


class FormatError(HsimvtError):
    """A container file is malformed (bad magic, unreadable header, ...)."""


class PayloadLengthError(FormatError):
    """Container payload does not match the size announced by its header."""


class DegenerateInputError(HsimvtError):
    """Input data is non-finite or has no usable variation (constant cube, zero-variance view)."""


class DivergenceError(HsimvtError):
    """Training produced a non-finite loss or gradient."""


class UsageError(HsimvtError):
    """An API was called in an unsupported way."""


class CompatibilityError(ConfigError):
    """A checkpoint and a run configuration disagree."""


class WorkerError(HsimvtError):
    """A forked scoring worker or training lane could not start, or exited or failed."""
