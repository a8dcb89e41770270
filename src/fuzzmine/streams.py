"""Timestamped event streams and their CSV ingestion.

Two CSV layouts are accepted. The long layout is the canonical on-disk
format: a ``timestamp,stream,value`` header with one event per row. The
wide layout has a ``timestamp`` column followed by one column per stream,
where ``-`` or an empty cell means the stream has no event at that
timestamp. Timestamps are non-negative reals in a generic time unit;
values are reals in a generic volume unit.

An :class:`EventStream` stores two columns, its timestamps and its values,
as ``array('d')`` (8 bytes a reading), sorted together by timestamp however
they were given, for the miner's window walk to read directly. Each layout
is parsed in one pass straight into such arrays, which the streams keep,
with no list or tuple of floats built, from a binary file (as
:func:`open_input` opens it) or a text, decoded as UTF-8 a chunk at a
time, so a file's text is never held whole. Malformed input raises
:class:`InputError` naming its line. :func:`stream_findings` lists what is
legal but notable in a stream, holding only its events at tied timestamps.
"""

import csv
import io
from array import array
from codecs import BOM_UTF8
from collections import Counter, namedtuple
from contextlib import contextmanager
from itertools import chain, compress, islice
from math import inf, isfinite, isinf
from operator import eq, le
from sys import float_info

from .validation import INFO, WARNING, ConfigError, Finding, InputError

ROLES = ("trigger1", "trigger2", "consequence")

_LONG_HEADER = ("timestamp", "stream", "value")

Event = namedtuple("Event", "timestamp value")

_MAX = float_info.max   # -_MAX <= x <= _MAX is False for NaN and ±inf


class EventStream(namedtuple("EventStream", "name timestamps values")):
    """A named, time-ordered stream of events, held as two columns.

    The constructor keeps an ``array('d')`` column as it is given, as the
    parser's are, and copies any other into one, sorting both together by
    timestamp, stably, into new arrays only if they are out of order. It is
    the one place a stream's fields are checked: an empty name, columns of
    unequal length, a timestamp that is negative or not a finite float
    (NaN, infinite, or a number past the float range), or a value that is
    not a finite float raise ValueError. ``_make`` and ``_replace`` skip
    the conversion, the sort and the checks.
    ``mine`` checks this order again (:func:`in_order`): a timestamp changed
    in place out of order or out of range raises ValueError there.
    """

    __slots__ = ()

    def __new__(cls, name, timestamps=(), values=()):
        if not name:
            raise ValueError("stream name is empty")
        owner = f"stream {name!r}"
        times, values = _floats(owner, timestamps, "timestamp"), _floats(owner, values, "value")
        if len(times) != len(values):
            raise ValueError(f"stream {name!r} has {len(times)} timestamps "
                             f"but {len(values)} values")
        if not in_order(times):   # a sort to make, or a timestamp to reject
            if not all(-_MAX <= t <= _MAX for t in times):
                raise ValueError(f"stream {name!r} has a timestamp that is not finite")
            order = sorted(range(len(times)), key=times.__getitem__)
            times, values = (array("d", map(column.__getitem__, order))
                             for column in (times, values))
            if times[0] < 0:
                raise ValueError(f"stream {name!r} has a negative timestamp")
        if not all(map(isfinite, values)):
            raise ValueError(f"stream {name!r} has a value that is not finite")
        return super().__new__(cls, name, times, values)

    @property
    def events(self):
        """The events in time order, as ``(timestamp, value)`` named tuples."""
        return tuple(map(Event, self.timestamps, self.values))


def in_order(times):
    """Whether the timestamps ``times`` never fall, from 0 up to the float maximum."""
    return all(map(le, chain((0.0,), times), chain(times, (_MAX,))))   # False at a NaN


def _floats(owner, numbers, what):
    """``numbers`` as an ``array('d')``, the one place a number given in code
    becomes a float: an ``array('d')`` as it is, anything else copied, each
    number as the float nearest it. Raises, naming ``owner`` and ``what``,
    ValueError if a number is past the float range or a signalling NaN, and
    TypeError if one is not a number, or ``numbers`` is text or not iterable."""
    if type(numbers) is array and numbers.typecode == "d":
        return numbers
    if isinstance(numbers, (str, bytes, bytearray)):   # array() reads bytes as raw doubles
        raise TypeError(f"{owner} has {what}s given as {type(numbers).__name__}, not numbers")
    try:
        floats = array("d", numbers)
        # float() takes a Decimal past the float range to an infinity it does not
        # equal. An iterator is read once: a stream rejects infinities itself.
        if all(map(isfinite, floats)) or all(x == n for x, n in zip(floats, numbers) if isinf(x)):
            return floats
    except (OverflowError, ValueError):   # an int or fraction past the float range, a Decimal sNaN
        pass
    except TypeError as exc:   # a number that is not one, or no column at all
        raise TypeError(f"{owner} needs real numbers as its {what}s ({exc})") from None
    raise ValueError(f"{owner} has a {what} that is not finite")


class StreamBundle(namedtuple("StreamBundle", "trigger1 trigger2 consequence")):
    """The three role-bound streams one mining run operates on."""

    __slots__ = ()


def parse_streams(source):
    """Parse CSV (a text or a binary file) into all streams it defines,
    keyed by stream name. Wide-layout files define a stream per header
    column even when no row carries an event for it; long-layout files
    define streams as the names their rows mention.
    """
    streams, _ = _parse(source)
    return streams


def parse_streams_csv(source, role_map):
    """Parse CSV, a text or a binary file, and bind streams to the roles.

    ``role_map`` maps each role (``trigger1``, ``trigger2``,
    ``consequence``) to a stream name. Streams in the file that no role
    selects are ignored. In the wide layout the header declares which
    streams exist, so selecting an absent name is a configuration error;
    in the long layout an unseen name simply yields an empty stream.
    """
    names = role_names(role_map)
    streams, declared = _parse(source)
    for role, name in zip(ROLES, names):
        if declared is not None and name not in declared:
            raise ConfigError(
                f"role {role!r} selects stream {name!r}, but the input only "
                f"defines {sorted(declared)}"
            )
    return StreamBundle(*(streams.get(name, EventStream(name)) for name in names))


@contextmanager
def open_input(path):
    """The file at ``path`` open for binary reading; InputError if it cannot be read."""
    try:
        with open(path, "rb") as handle:
            yield handle
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from None


def role_names(role_map):
    """The stream names ``role_map`` assigns, in role order, once it is
    checked to map each role to a distinct non-empty name."""
    if set(role_map) != set(ROLES):
        raise ConfigError(f"'roles' must have exactly the keys {', '.join(ROLES)}; "
                          f"got {sorted(role_map)}")
    for role in ROLES:
        if not isinstance(role_map[role], str) or not role_map[role]:
            raise ConfigError(f"'roles.{role}' must be a non-empty stream name")
    names = [role_map[role] for role in ROLES]
    if len(set(names)) != len(names):
        raise ConfigError(f"'roles' must name three distinct streams, got {names}")
    return names


def _parse(source):
    """Shared parser. Returns (streams by name, declared names or None).

    A file and a text's UTF-8 bytes are decoded by one rule: one leading
    BOM is dropped, lines end at LF, CR or CR LF, and the endings stay in
    quoted fields. A text's lone surrogates are carried through; a file
    that is not UTF-8 gets the message ``bytes.decode("utf-8-sig")`` gives,
    unless a bad row in an earlier chunk is reported first.
    """
    text = isinstance(source, str)
    counted = _Counted(io.BytesIO(source.encode("utf-8", "surrogatepass")) if text else source)
    errors = "surrogatepass" if text else "strict"
    reader = csv.reader(io.TextIOWrapper(counted, "utf-8-sig", errors, newline=""))
    try:
        return _parse_rows(reader)
    except csv.Error as exc:  # e.g. a field past the csv field limit
        raise InputError(str(exc), line=reader.line_num) from None
    except UnicodeDecodeError as exc:   # its positions count from its chunk's start
        at = counted.size - len(exc.object)
        start, last = exc.start + at, exc.end - 1 + at
        what = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if start == last
                else f"bytes in position {start}-{last}")
        raise InputError(f"input file is not valid UTF-8: '{exc.encoding}' codec can't "
                         f"decode {what}: {exc.reason}") from None


class _Counted(io.BufferedIOBase):
    """Reads the binary file ``source``; ``size`` counts the bytes read past
    a leading BOM, as ``bytes.decode("utf-8-sig")`` counts positions (a
    pipe cannot ``tell()`` them). Closing it leaves ``source`` open.
    ``closed`` is a plain attribute, not IOBase's property: the decoder
    reads it once a line, and the property's flag lookup costs more."""

    closed = False

    def __init__(self, source):
        self.source, self.size = source, None

    def close(self):
        self.closed = True

    def readable(self):
        return True

    def read1(self, size=-1):
        data = self.source.read(size)
        if self.size is None:
            self.size = -len(BOM_UTF8) if data.startswith(BOM_UTF8) else 0
        self.size += len(data)
        return data


def _parse_rows(reader):
    header = next(reader, None)
    if header is None:
        raise InputError("empty input, expected a header row", line=1)

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
    columns = {}
    for row in reader:
        if len(row) != 3:
            if not row:
                continue
            raise InputError(f"expected 3 columns, got {len(row)}", line=reader.line_num)
        ts_cell, name, cell = row
        try:
            ts = float(ts_cell)
        except ValueError:
            ts = _padded_float(ts_cell, "timestamp", reader)
        name = name.strip()
        if not name:
            raise InputError("stream name is empty", line=reader.line_num)
        try:
            value = float(cell)
        except ValueError:
            value = _padded_float(cell, "value", reader)
        if not (0 <= ts < inf and -inf < value < inf):
            _check_event(ts, value, reader.line_num)
        times, values = columns.get(name) or columns.setdefault(name, (array("d"), array("d")))
        times.append(ts)
        values.append(value)
    return {name: EventStream(name, *column) for name, column in columns.items()}


def _parse_wide(reader, names):
    columns = [(array("d"), array("d")) for _ in names]
    slots = [(i, times.append, values.append) for i, (times, values) in enumerate(columns, 1)]
    width = len(names) + 1
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            raise InputError(f"expected {width} columns, got {len(row)}",
                             line=reader.line_num)
        try:
            ts = float(row[0])
        except ValueError:
            ts = _padded_float(row[0], "timestamp", reader)
        good = 0 <= ts < inf
        for i, add_time, add_value in slots:   # left to right: the first bad cell is named
            cell = row[i]
            if cell == "-" or not cell:   # no event
                continue
            try:
                value = float(cell)   # skips what strip() would, bar U+001C to U+001F
            except ValueError:
                if cell.strip() in ("-", ""):   # no event once stripped
                    continue
                value = _padded_float(cell, f"value for {names[i - 1]!r}", reader)
            if not (good and -inf < value < inf):
                _check_event(ts, value, reader.line_num)
            add_time(ts)
            add_value(value)
        if not good:   # a bad timestamp gets here only in a row without events
            _check_event(ts, 0.0, reader.line_num)
    return {name: EventStream(name, times, values)
            for name, (times, values) in zip(names, columns)}


def _padded_float(cell, what, reader):
    """The float of a cell that ``float()`` rejects, if ``strip()`` removes
    padding that ``float()`` keeps (U+001C to U+001F), else an InputError."""
    try:
        return float(cell.strip())
    except ValueError:
        raise InputError(f"non-numeric {what}: {cell.strip()!r}",
                         line=reader.line_num) from None


def _check_event(ts, value, line):
    if not isfinite(ts):
        raise InputError(f"timestamp must be finite, got {ts}", line=line)
    if ts < 0:
        raise InputError(f"timestamp must be non-negative, got {ts:g}", line=line)
    if not isfinite(value):
        raise InputError(f"value must be finite, got {value}", line=line)


def stream_findings(where, stream):
    """Findings about a stream that is legal but notable, located by
    ``where`` (how :func:`fuzzmine.validate` names the stream).

    An empty stream is a warning, since it makes the mining output
    trivially empty; each repeated (timestamp, value) event is noted as
    info, its numbers as :func:`_shown` writes them. In time order a repeat
    sits where neighbours share a timestamp, so only the events there are
    counted and held. The :class:`EventStream` constructor checks a
    stream's fields, so there are no errors to find.
    """
    times = stream.timestamps
    if not times:
        return [Finding(WARNING, "empty-stream",
                        f"{where} has no events; no associations can involve it")]
    tied = set(compress(times, map(eq, times, islice(times, 1, None))))
    repeats = Counter(compress(zip(times, stream.values), map(tied.__contains__, times)))
    return [Finding(INFO, "duplicate-event", f"{where}: repeated event "
                    f"(timestamp {_shown(ts)}, value {_shown(value)})")
            for ts, value in sorted(e for e, n in repeats.items() if n > 1)]


def _shown(number):
    """``number`` to 6 significant digits, or its repr where those read as another number."""
    text = f"{number:g}"
    return text if float(text) == number else repr(number)
