"""Exception hierarchy shared across the package.

One class per exit code of the CLI: :class:`InputError` (malformed or
unreadable event-stream input) exits with 2, :class:`ConfigError`
(configuration problems) with 3. Usage errors are handled by argparse
and exit with 1.
"""


class FuzzmineError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FuzzmineError):
    """A problem with the event-stream input, at a 1-based ``line`` if known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(FuzzmineError):
    """Invalid pipeline configuration (schema, roles, or vocabularies)."""
