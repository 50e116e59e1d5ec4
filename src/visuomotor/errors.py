"""Exception types shared across the package."""


class VisuomotorError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(VisuomotorError):
    """A configuration value violates its documented constraints."""


class DimensionError(VisuomotorError):
    """An array argument has the wrong length or shape."""


class NumericError(VisuomotorError):
    """A numerical operation produced a non-finite or unstable result."""


class ParseError(VisuomotorError):
    """Malformed input bytes. ``offset`` points at the offending byte."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
