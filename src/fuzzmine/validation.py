"""Validation findings reported by vocabulary, bundle, and config checks.

A record's constructor checks its own fields and raises ValueError.
Validators never raise: they return a list of findings so callers can
decide how strict to be. They have two jobs: listing every error in a
vocabulary at once (severity ``error``), and reporting what is legal but
notable, either probably unintended (``warning``, such as an empty
stream) or diagnostic (``info``, such as partition properties and
repeated events). The module also holds :class:`Record`, the base of the
records that are not tuples.
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


class Record:
    """A record whose fields are its ``__slots__``, set once by ``_init``
    and read-only after; it compares, hashes, pickles and prints by its
    field values."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __reduce__(self):   # the default would restore fields through __setattr__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def has_errors(findings):
    """True if any finding is error-severity."""
    return any(f.severity == ERROR for f in findings)
