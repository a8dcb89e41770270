"""Validation findings reported by vocabulary, bundle, and config checks.

Every record is a named tuple whose constructor checks its own fields
and raises ValueError. Validators never raise: they return a list of
findings so callers can decide how strict to be. They have two jobs:
listing every error in a vocabulary at once (severity ``error``), and
reporting what is legal but notable, either probably unintended
(``warning``, such as an empty stream) or diagnostic (``info``, such as
partition properties and repeated events).
"""

from collections import namedtuple

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITIES = (ERROR, WARNING, INFO)


class Finding(namedtuple("Finding", "severity code message")):
    __slots__ = ()

    def __new__(cls, severity, code, message):
        if severity not in _SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        return super().__new__(cls, severity, code, message)

    def __str__(self):
        return f"{self.severity}: [{self.code}] {self.message}"


def has_errors(findings):
    """True if any finding is error-severity."""
    return any(f.severity == ERROR for f in findings)
