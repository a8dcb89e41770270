"""Timestamped event streams and their CSV ingestion.

Two CSV layouts are accepted. The long layout is the canonical on-disk
format: a ``timestamp,stream,value`` header with one event per row. The
wide layout has a ``timestamp`` column followed by one column per stream,
where ``-`` or an empty cell means the stream has no event at that
timestamp. Timestamps are non-negative reals in a generic time unit;
values are reals in a generic volume unit.

Every :class:`EventStream` is sorted by timestamp, however it was built,
so the miner's window search can rely on the order. Malformed input
raises :class:`InputError` naming its line.
"""

import csv
import io
from dataclasses import dataclass, field
from math import isfinite

from .errors import ConfigError, InputError
from .validation import ERROR, INFO, WARNING, Finding

ROLES = ("trigger1", "trigger2", "consequence")

_LONG_HEADER = ("timestamp", "stream", "value")


@dataclass(frozen=True)
class Event:
    timestamp: float
    value: float


@dataclass(frozen=True)
class EventStream:
    """A named, time-ordered sequence of events.

    The constructor stores the events sorted by timestamp, stably, so
    input order among equal timestamps survives.
    """

    name: str
    events: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "events",
                           tuple(sorted(self.events, key=lambda e: e.timestamp)))

    def __len__(self):
        return len(self.events)


@dataclass(frozen=True)
class StreamBundle:
    """The three role-bound streams one mining run operates on."""

    trigger1: EventStream
    trigger2: EventStream
    consequence: EventStream


def parse_streams(text):
    """Parse CSV into all streams it defines, keyed by stream name.

    Wide-layout files define a stream per header column even when no row
    carries an event for it; long-layout files define streams as the
    names their rows mention.
    """
    streams, _ = _parse(text)
    return streams


def parse_streams_csv(text, role_map):
    """Parse CSV and bind streams to the three mining roles.

    ``role_map`` maps each role (``trigger1``, ``trigger2``,
    ``consequence``) to a stream name. Streams in the file that no role
    selects are ignored. In the wide layout the header declares which
    streams exist, so selecting an absent name is a configuration error;
    in the long layout an unseen name simply yields an empty stream.
    """
    if set(role_map) != set(ROLES):
        raise ConfigError(
            f"role map must assign exactly the roles {', '.join(ROLES)}; "
            f"got {sorted(role_map)}"
        )
    names = [role_map[role] for role in ROLES]
    if len(set(names)) != len(names):
        raise ConfigError(f"role map must name three distinct streams, got {names}")

    streams, declared = _parse(text)
    bound = {}
    for role, name in zip(ROLES, names):
        if name in streams:
            bound[role] = streams[name]
        elif declared is not None:
            raise ConfigError(
                f"role {role!r} selects stream {name!r}, but the input only "
                f"defines {sorted(declared)}"
            )
        else:
            bound[role] = EventStream(name)
    return StreamBundle(bound["trigger1"], bound["trigger2"], bound["consequence"])


def _parse(text):
    """Shared parser. Returns (streams by name, declared names or None)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _parse_rows(reader)
    except csv.Error as exc:  # e.g. a field past the csv field limit
        raise InputError(str(exc), line=reader.line_num) from None


def _parse_rows(reader):
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("empty input, expected a header row", line=1) from None

    head = [cell.strip() for cell in header]
    if tuple(h.lower() for h in head) == _LONG_HEADER:
        return _parse_long(reader), None
    if head and head[0].lower() == "timestamp":
        names = head[1:]
        if not names or any(not n for n in names):
            raise InputError("wide layout requires a non-empty name per stream column",
                             line=1)
        if len(set(names)) != len(names):
            raise InputError(f"duplicate stream names in header: {names}", line=1)
        return _parse_wide(reader, names), tuple(names)
    raise InputError(
        "unrecognized header: expected 'timestamp,stream,value' or "
        "'timestamp,<name>,...'", line=1)


def _parse_long(reader):
    collected = {}
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != 3:
            raise InputError(f"expected 3 columns, got {len(row)}", line=line)
        ts = _number(row[0], "timestamp", line)
        name = row[1].strip()
        if not name:
            raise InputError("stream name is empty", line=line)
        value = _number(row[2], "value", line)
        _check_event(ts, value, line)
        collected.setdefault(name, []).append(Event(ts, value))
    return {name: EventStream(name, events) for name, events in collected.items()}


def _parse_wide(reader, names):
    collected = {name: [] for name in names}
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != len(names) + 1:
            raise InputError(f"expected {len(names) + 1} columns, got {len(row)}",
                             line=line)
        ts = _number(row[0], "timestamp", line)
        for name, cell in zip(names, row[1:]):
            cell = cell.strip()
            if cell in ("", "-"):
                continue
            value = _number(cell, f"value for {name!r}", line)
            _check_event(ts, value, line)
            collected[name].append(Event(ts, value))
    return {name: EventStream(name, events) for name, events in collected.items()}


def _number(cell, what, line):
    try:
        return float(cell)
    except ValueError:
        raise InputError(f"non-numeric {what}: {cell.strip()!r}", line=line) from None


def _check_event(ts, value, line):
    if not isfinite(ts):
        raise InputError(f"timestamp must be finite, got {ts}", line=line)
    if ts < 0:
        raise InputError(f"timestamp must be non-negative, got {ts:g}", line=line)
    if not isfinite(value):
        raise InputError(f"value must be finite, got {value}", line=line)


def validate_stream(stream, where=None):
    """Check one stream and report findings.

    Errors flag invariant breaches (empty name, negative or non-finite
    fields). An empty stream is a warning since
    it makes the mining output trivially empty, and repeated
    (timestamp, value) events are reported informationally.
    """
    where = where or repr(stream.name)
    findings = []
    if not stream.name:
        findings.append(Finding(ERROR, "stream-name", f"{where}: stream name is empty"))
    if not stream.events:
        findings.append(
            Finding(WARNING, "empty-stream",
                    f"{where} has no events; no associations can involve it")
        )
        return findings
    seen = set()
    duplicates = set()
    for event in stream.events:
        if not isfinite(event.timestamp) or event.timestamp < 0:
            findings.append(
                Finding(ERROR, "event-timestamp",
                        f"{where}: timestamps must be finite and non-negative, "
                        f"got {event.timestamp}")
            )
        if not isfinite(event.value):
            findings.append(
                Finding(ERROR, "event-value",
                        f"{where}: values must be finite, got {event.value}")
            )
        key = (event.timestamp, event.value)
        if key in seen:
            duplicates.add(key)
        seen.add(key)
    for ts, value in sorted(duplicates):
        findings.append(
            Finding(INFO, "duplicate-event",
                    f"{where}: repeated event (timestamp {ts:g}, value {value:g})")
        )
    return findings


def validate_bundle(bundle):
    """Check a bundle: per-stream findings plus name distinctness."""
    findings = []
    streams = (bundle.trigger1, bundle.trigger2, bundle.consequence)
    names = [s.name for s in streams]
    if len(set(names)) != len(names):
        findings.append(
            Finding(ERROR, "duplicate-stream",
                    f"streams must have distinct names, got {names}")
        )
    for role, stream in zip(ROLES, streams):
        findings.extend(validate_stream(stream, where=f"{role} ({stream.name!r})"))
    return findings
