"""What can be wrong with an input: errors and findings.

An error stops a run. There is one class per exit code of the CLI, and
no base class of their own (catch both to catch either):
:class:`InputError` (malformed or unreadable event-stream input) exits
with 2, :class:`ConfigError` (configuration problems) with 3. Usage
errors are handled by argparse and exit with 1.

A finding is listed by ``fuzzmine validate``. Every record is a named
tuple whose constructor checks its own fields and raises ValueError.
Validators never raise: they return a list of findings so callers can
decide how strict to be. They have two jobs: listing every error in a
vocabulary at once (severity ``error``), and reporting what is legal but
notable, either probably unintended (``warning``, such as an empty
stream) or diagnostic (``info``, such as partition properties and
repeated events).
"""

from collections import namedtuple

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITIES = (ERROR, WARNING, INFO)


class InputError(Exception):
    """A problem with the event-stream input, at a 1-based ``line`` if known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(Exception):
    """Invalid pipeline configuration (schema, roles, or vocabularies)."""


class Finding(namedtuple("Finding", "severity code message")):
    __slots__ = ()

    def __new__(cls, severity, code, message):
        if severity not in _SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        return super().__new__(cls, severity, code, message)

    def __str__(self):
        return f"{self.severity}: [{self.code}] {self.message}"


def shown_path(path):
    """``path`` as a message names it: ``''`` for an empty path, which
    would otherwise vanish from the message, else the path as given."""
    return path or "''"
