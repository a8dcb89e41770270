"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input-data problems exit with 2,
configuration problems with 3 (usage errors are handled by argparse and
exit with 1).
"""


class FuzzmineError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FuzzmineError):
    """A problem with the event-stream input data."""


class _LineError(InputError):
    """An input error that may carry the 1-based line number it is about."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(_LineError):
    """Malformed CSV content."""


class StreamDataError(_LineError):
    """Well-formed CSV whose values violate stream constraints."""


class ConfigError(FuzzmineError):
    """Invalid pipeline configuration (schema, roles, or vocabularies)."""
