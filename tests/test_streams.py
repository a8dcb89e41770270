"""Tests for CSV ingestion, stream ordering, and bundle validation."""

import gc
import io
import os
import re
import tracemalloc
from array import array
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import inf, nan
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzzmine import (
    ConfigError,
    EventStream,
    InputError,
    StreamBundle,
    load_config,
    mine,
    parse_streams_csv,
    render_table,
    validate,
)
from fuzzmine.streams import Event, _Counted, open_input, parse_streams, stream_findings
from fuzzmine.validation import ERROR, INFO, WARNING

from common import (
    QUICKSTART_CONFIG,
    quickstart_bundle,
    quickstart_mining_config,
    rendered,
    stream,
    write_workload,
)
from strategies import bundles

ROLES = {"trigger1": "stream1", "trigger2": "stream2", "consequence": "stream3"}

WIDE = """timestamp,stream1,stream2,stream3
0,2,-,-
3,-,8,-
7,-,-,10.5
13,-,-,15
1000,7,-,-
1003,-,2,-
1013,-,-,7
"""


def long_csv(bundle):
    """The bundle in the long layout: streams in role order, events in order."""
    rows = [f"{event.timestamp!r},{stream.name},{event.value!r}"
            for stream in (bundle.trigger1, bundle.trigger2, bundle.consequence)
            for event in stream.events]
    return "\n".join(["timestamp,stream,value", *rows]) + "\n"


def wide_csv(bundle, blank):
    """The bundle in the wide layout. The k-th event at a timestamp of each
    stream shares a row with the other streams' k-th at that timestamp;
    rows go in (timestamp, k) order, and each cell without an event is
    ``blank()``."""
    streams = (bundle.trigger1, bundle.trigger2, bundle.consequence)
    rows = {}
    for i, stream in enumerate(streams):
        seen = Counter()
        for ts, value in zip(stream.timestamps, stream.values):
            seen[ts] += 1
            rows.setdefault((ts, seen[ts]), [None] * 3)[i] = value
    lines = [",".join(["timestamp", *(stream.name for stream in streams)])]
    for (ts, _), cells in sorted(rows.items()):
        lines.append(",".join([repr(ts), *(blank() if value is None else repr(value)
                                            for value in cells)]))
    return "\n".join(lines) + "\n"


LONG = """timestamp,stream,value
0,stream1,2
3,stream2,8
7,stream3,10.5
13,stream3,15
1000,stream1,7
1003,stream2,2
1013,stream3,7
"""


class TestWideLayout:
    def test_quickstart_sizes(self):
        bundle = parse_streams_csv(WIDE, ROLES)
        assert len(bundle.trigger1.timestamps) == 2
        assert len(bundle.trigger2.timestamps) == 2
        assert len(bundle.consequence.timestamps) == 3

    def test_quickstart_events_exact(self):
        bundle = parse_streams_csv(WIDE, ROLES)
        assert bundle.trigger1.events == (Event(0, 2), Event(1000, 7))
        assert bundle.trigger2.events == (Event(3, 8), Event(1003, 2))
        assert bundle.consequence.events == (
            Event(7, 10.5), Event(13, 15), Event(1013, 7))

    def test_empty_cells_and_dashes_mean_absent(self):
        text = "timestamp,a,b,c\n1,5,,-\n"
        streams = parse_streams(text)
        assert len(streams["a"].timestamps) == 1
        assert len(streams["b"].timestamps) == 0
        assert len(streams["c"].timestamps) == 0

    def test_empty_body_yields_empty_streams(self):
        bundle = parse_streams_csv("timestamp,stream1,stream2,stream3\n", ROLES)
        assert (len(bundle.trigger1.timestamps), len(bundle.trigger2.timestamps),
                len(bundle.consequence.timestamps)) == (0, 0, 0)

    def test_unselected_streams_are_ignored(self):
        text = "timestamp,stream1,stream2,stream3,other\n1,1,2,3,4\n"
        bundle = parse_streams_csv(text, ROLES)
        assert len(bundle.trigger1.timestamps) == 1

    def test_absent_stream_is_config_error(self):
        with pytest.raises(ConfigError, match="stream9"):
            parse_streams_csv(WIDE, {**ROLES, "trigger1": "stream9"})

    def test_duplicate_header_names_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_streams("timestamp,a,a\n")

    def test_wrong_column_count_names_line(self):
        with pytest.raises(InputError, match="line 3") as exc:
            parse_streams("timestamp,a,b\n1,2,3\n4,5\n")
        assert exc.value.line == 3

    def test_non_numeric_value_names_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_streams("timestamp,a\n1,zap\n")

    def test_non_numeric_timestamp(self):
        with pytest.raises(InputError, match="timestamp"):
            parse_streams("timestamp,a\nnoon,1\n")

    # float() skips ASCII and Unicode spaces; strip() also U+001C to U+001F.
    def test_cells_are_read_stripped(self):
        streams = parse_streams("timestamp,a,b,c\n"
                                "1, 5 ,\t-\t,\u2003\n"
                                "2,\x1c6\x1f,\xa0,\x1d-\n")
        assert streams["a"].values == array("d", (5.0, 6.0))
        assert streams["b"].values == streams["c"].values == array("d")
        with pytest.raises(InputError, match=r"line 2: non-numeric value for 'b': 'zap'"):
            parse_streams("timestamp,a,b\n1,-,\x1czap\x1f\n")


class TestLongLayout:
    def test_matches_wide_layout(self):
        assert parse_streams_csv(LONG, ROLES) == parse_streams_csv(WIDE, ROLES)

    def test_shuffled_rows_sort_identically(self):
        lines = LONG.strip().split("\n")
        shuffled = "\n".join([lines[0]] + lines[1:][::-1]) + "\n"
        assert parse_streams_csv(shuffled, ROLES) == parse_streams_csv(LONG, ROLES)

    def test_equal_timestamps_preserve_input_order(self):
        text = "timestamp,stream,value\n5,a,1\n5,a,2\n5,a,3\n"
        stream = parse_streams(text)["a"]
        assert stream.events == (Event(5, 1), Event(5, 2), Event(5, 3))

    def test_unseen_role_name_yields_empty_stream(self):
        bundle = parse_streams_csv("timestamp,stream,value\n1,stream1,5\n", ROLES)
        assert len(bundle.trigger1.timestamps) == 1
        assert len(bundle.trigger2.timestamps) == 0
        assert len(bundle.consequence.timestamps) == 0

    def test_empty_stream_name_rejected(self):
        with pytest.raises(InputError, match="name"):
            parse_streams("timestamp,stream,value\n1,,5\n")

    def test_negative_timestamp_is_data_error(self):
        with pytest.raises(InputError, match="non-negative"):
            parse_streams("timestamp,stream,value\n-1,a,5\n")

    def test_non_finite_value_is_data_error(self):
        with pytest.raises(InputError, match="finite"):
            parse_streams("timestamp,stream,value\n1,a,nan\n")

    def test_crlf_input_accepted(self):
        text = LONG.replace("\n", "\r\n")
        assert parse_streams_csv(text, ROLES) == parse_streams_csv(LONG, ROLES)

    def test_blank_lines_skipped(self):
        text = "timestamp,stream,value\n\n1,a,5\n\n"
        assert len(parse_streams(text)["a"].timestamps) == 1


CHUNK = 8192   # the bytes io.TextIOWrapper reads and decodes at a time
ENDINGS = ("\r\n", "\r", "\n")


def utf8(text):
    return text.encode("utf-8", "surrogatepass")


class ChunkedCsv:
    """CSV rows with mixed line endings, laid out so that chosen characters
    straddle a multiple of CHUNK bytes of the text's UTF-8."""

    def __init__(self, header, filler):
        self.filler = filler   # row number -> a valid row
        self.rows, self.endings, self.size = [], [], 0
        self.straddles = []    # (boundary, the bytes that must start just before it)
        self.add(header, "\n")

    def add(self, row, ending=None):
        ending = ENDINGS[len(self.rows) % 3] if ending is None else ending
        self.rows.append(row)
        self.endings.append(ending)
        self.size += len(utf8(row + ending))

    def fill(self, size):
        while self.size < size:
            self.add(self.filler(len(self.rows)))

    def straddle(self, head, rest, ending=None):
        """After at least one chunk of filler, add ``head``, spaces, then
        ``rest`` and the ending, such that the first byte after the spaces
        is the last byte before a multiple of CHUNK."""
        boundary = (self.size // CHUNK + 2) * CHUNK
        self.fill(boundary - 100)
        ending = ENDINGS[len(self.rows) % 3] if ending is None else ending
        spaces = boundary - 1 - self.size - len(utf8(head))
        self.straddles.append((boundary, utf8(rest + ending)[:3]))
        self.add(head + " " * spaces + rest, ending)

    def text(self, rows=None, lf=False):
        """The first ``rows`` rows (all by default), with their own endings
        or with ``\\n``."""
        pairs = list(zip(self.rows, self.endings))[:rows]
        text = "".join(row + ("\n" if lf else ending) for row, ending in pairs)
        data = utf8(text)
        for boundary, start in self.straddles:
            if boundary < len(data) and not lf:
                assert data[boundary - 1:boundary - 1 + len(start)] == start
        return text


NAMES = ("a", "b", "str\u00f6m")


def long_rows():
    built = ChunkedCsv("timestamp,stream,value", lambda n: f"{n}.25,{NAMES[n % 3]},{n % 15}")
    built.straddle("1.5,a,3", "", "\r\n")                 # CR LF
    built.straddle("2.5,b,4", "", "\r")                    # a lone CR, then the next row
    built.straddle("3.5,a,", "\xa05")                      # no-break space, 2 bytes
    built.straddle('4.5,b,"6', '\r\n"')                    # a quoted CR LF: one row, two lines
    built.straddle("5.5,", "\ud800,7")                     # a lone surrogate, 3 bytes
    built.straddle("6.5,str", "\u00f6m,8")                 # o with diaeresis, 2 bytes
    return built


def wide_rows():
    def filler(n):
        cells = [str(n % 15), "-", ""]
        return ",".join([f"{n}.25", *cells[n % 3:], *cells[:n % 3]])
    built = ChunkedCsv("timestamp,a,\udcb0,str\u00f6m", filler)
    built.straddle("1.5,-,-,3", "", "\r\n")
    built.straddle("2.5,4,,", "", "\r")
    built.straddle("3.5,", "\xa05,-,-")
    built.straddle('4.5,-,"6', '\r\n",-')
    built.straddle('5.5,"-', '\r\n",7,-')
    return built


class TestLineSource:
    """The parser decodes a file, or a text's UTF-8, a chunk at a time: a
    line ending or a character across a chunk boundary parses as anywhere
    else."""

    @pytest.mark.parametrize("rows", [long_rows, wide_rows], ids=["long", "wide"])
    def test_mixed_endings_parse_as_lf(self, rows):
        built = rows()
        built.fill(9 * CHUNK)
        text = built.text()
        assert len(utf8(text)) > 64 * 1024
        streams = parse_streams(text)
        assert streams == parse_streams(built.text(lf=True))
        assert sum(len(s.timestamps) for s in streams.values()) == len(built.rows) - 1

    @pytest.mark.parametrize("rows, head, rest, message", [
        (long_rows, "9.5,a,", "zap", "non-numeric value: 'zap'"),
        (wide_rows, "9.5,", "zap,-,-", "non-numeric value for 'a': 'zap'"),
    ], ids=["long", "wide"])
    def test_bad_row_after_a_boundary_names_its_line(self, rows, head, rest, message):
        built = rows()
        built.straddle(head, rest)
        bad = len(built.rows) - 1
        built.fill(built.size + CHUNK)
        line = len(re.findall(r"\r\n|\r|\n", built.text(rows=bad))) + 1
        with pytest.raises(InputError) as exc:
            parse_streams(built.text())
        assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")

    def test_quoted_line_endings_are_kept(self):
        streams = parse_streams('timestamp,stream,value\r1,"a\rb\nc\r\nd",2\r\n')
        assert list(streams) == ["a\rb\nc\r\nd"]

    @pytest.mark.parametrize("rows", [long_rows, wide_rows], ids=["long", "wide"])
    def test_a_file_parses_as_its_text(self, rows):
        built = rows()
        built.fill(9 * CHUNK)
        # A file is strict UTF-8: each lone surrogate becomes another 3-byte character.
        text = re.sub("[\ud800-\udfff]", "\u20ac", built.text())
        assert len(utf8(text)) == len(utf8(built.text()))
        assert parse_streams(io.BytesIO(text.encode("utf-8"))) == parse_streams(text)

    def test_leading_bom_is_dropped(self):
        # One BOM, from a file or a text alike: a second one reaches the header.
        for text in (LONG, WIDE):
            expected = parse_streams(text)
            assert parse_streams("\ufeff" + text) == expected
            assert parse_streams(io.BytesIO(("\ufeff" + text).encode("utf-8"))) == expected
            with pytest.raises(InputError, match="^line 1: unrecognized header"):
                parse_streams("\ufeff\ufeff" + text)


class TestSourceStaysOpen:
    """The parser reads a binary file to its end and leaves it open."""

    @pytest.mark.parametrize("text", [LONG, WIDE], ids=["long", "wide"])
    def test_a_parsed_file_is_left_open(self, tmp_path, text):
        path = tmp_path / "streams.csv"
        path.write_text(text)
        with open_input(path) as handle:
            assert parse_streams(handle) == parse_streams(text)
            assert not handle.closed
            assert handle.read() == b""

    def test_the_byte_counter_reads_closed_once_closed(self):
        source = io.BytesIO(b"timestamp,stream,value\n")
        counted = _Counted(source)
        assert not counted.closed
        counted.close()
        assert counted.closed
        assert not source.closed


class TestParseMemory:
    """The streams a parse returns hold 8 bytes per timestamp and per value,
    about 16 bytes per event; a tuple slot and a float object per reading,
    as columns of tuples held them, take 48 or more. Each stream keeps the
    ``array('d')`` columns the parser filled, with no second copy of them.
    A file is read a chunk at a time, as the CLI reads it, with no copy of
    its text: on ``sparse`` (1.5 MB of ASCII, 1.2 MB of streams) what the
    parse allocates beyond the streams it returns peaks at a few tens of
    KB, the rows of one chunk (about the file's size when the streams
    copied the parser's columns, three times it when the CLI read the
    whole text first). A text is parsed from its UTF-8 bytes, one per
    ASCII character, so that peak is about the text's size; a copy of the
    text at 4 bytes per character alone would take it past 4 times."""

    @pytest.fixture
    def sparse(self, tmp_path):
        """The ``sparse`` seed-1 file's path and its config's roles."""
        csv_path, config_path = write_workload(tmp_path, "sparse", 1)
        return csv_path, load_config(config_path).roles

    @staticmethod
    def traced(parse):
        """The traced bytes ``parse()`` leaves allocated, and its peak, once
        it returned the 75,000 events of ``sparse``."""
        gc.collect()
        tracemalloc.start()
        try:
            bundle = parse()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(s.timestamps) for s in bundle) == 75_000
        return retained, peak

    @staticmethod
    def parse_file(csv_path, roles):
        with open_input(csv_path) as handle:
            return parse_streams_csv(handle, roles)

    def test_sparse_streams_retain_under_24_bytes_per_event(self, sparse):
        retained, _ = self.traced(lambda: self.parse_file(*sparse))
        assert retained / 75_000 < 24

    def test_sparse_peak_beyond_the_streams(self, sparse):
        csv_path, roles = sparse
        text = Path(csv_path).read_text(encoding="utf-8")
        retained, peak = self.traced(lambda: parse_streams_csv(text, roles))
        assert peak - retained < 3 * len(text)

    def test_sparse_file_peak_beyond_the_streams(self, sparse):
        retained, peak = self.traced(lambda: self.parse_file(*sparse))
        assert peak - retained < 1.5 * os.path.getsize(sparse[0])

    def test_sparse_file_peak_beyond_the_streams_is_under_a_tenth_of_them(self, sparse):
        retained, peak = self.traced(lambda: self.parse_file(*sparse))
        assert peak - retained < 0.1 * retained


class TestHeaderAndRoles:
    def test_unrecognized_header(self):
        with pytest.raises(InputError, match="header"):
            parse_streams("time,a,b\n")

    def test_empty_input(self):
        with pytest.raises(InputError):
            parse_streams("")

    def test_role_map_must_cover_all_roles(self):
        with pytest.raises(ConfigError, match="role"):
            parse_streams_csv(WIDE, {"trigger1": "stream1"})

    def test_role_map_names_must_be_distinct(self):
        with pytest.raises(ConfigError, match="distinct"):
            parse_streams_csv(WIDE, {"trigger1": "stream1", "trigger2": "stream1",
                                     "consequence": "stream3"})


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        bundle = parse_streams_csv(WIDE, ROLES)
        again = parse_streams_csv(long_csv(bundle), ROLES)
        assert again == bundle

    def test_serialization_is_a_fixed_point(self):
        bundle = parse_streams_csv(WIDE, ROLES)
        once = long_csv(bundle)
        twice = long_csv(parse_streams_csv(once, ROLES))
        assert once == twice

    def test_parsing_is_deterministic(self):
        assert parse_streams_csv(WIDE, ROLES) == parse_streams_csv(WIDE, ROLES)

    @given(bundle=bundles(max_events=6))
    def test_round_trip_on_random_bundles(self, bundle):
        roles = {"trigger1": "alpha", "trigger2": "beta", "consequence": "gamma"}
        text = long_csv(bundle)
        assert parse_streams_csv(text, roles) == bundle

    @given(bundle=bundles(max_events=4), data=st.data())
    def test_wide_round_trip_on_random_bundles(self, bundle, data):
        # Every spelling of "no event": a dash, an empty cell, and padded dashes.
        blanks = st.sampled_from(["-", "", " - ", "\x1c-"])
        roles = {"trigger1": "alpha", "trigger2": "beta", "consequence": "gamma"}
        text = wide_csv(bundle, lambda: data.draw(blanks))
        assert parse_streams_csv(text, roles) == bundle
        assert parse_streams_csv(text, roles) == parse_streams_csv(long_csv(bundle), roles)


# Numbers a caller may put in a stream built in code.
NUMBERS = st.one_of(st.floats(), st.integers(-5, 30), st.sampled_from([-10**400, 10**400]),
                    st.fractions(-5, 30, max_denominator=4))


class TestEventStream:
    def test_out_of_order_streams_mine_like_sorted(self):
        bundle = quickstart_bundle()
        shuffled = StreamBundle(
            bundle.trigger1, bundle.trigger2,
            stream(bundle.consequence.name, bundle.consequence.events[::-1]))
        cfg = quickstart_mining_config()
        assert (rendered(render_table, mine(shuffled, cfg))
                == rendered(render_table, mine(bundle, cfg)))
        assert shuffled == bundle

    # The columns are arrays, which can be changed in place after the
    # constructor sorted and checked them. mine() checks each stream's order,
    # range and values again, rather than mine wrong rules (here 0 in place
    # of 4; with the first consequence value NaN, which classifies to no
    # label, 2 rules of weight 2.0 in place of 4 of weight 3.0).
    @pytest.mark.parametrize("role, column, index, number", [
        ("trigger2", "timestamps", 0, 2000.0), ("trigger1", "timestamps", 0, -1.0),
        ("consequence", "timestamps", -1, inf), ("consequence", "timestamps", 1, nan),
        ("consequence", "values", 0, nan), ("trigger1", "values", -1, inf),
        ("trigger2", "values", 1, -inf),
    ], ids=["out-of-order", "negative", "inf", "nan", "nan-value", "inf-value",
            "minus-inf-value"])
    def test_column_changed_in_place_raises_in_mine(self, role, column, index, number):
        bundle = quickstart_bundle()
        changed = getattr(bundle, role)
        getattr(changed, column)[index] = number
        problem = ("has timestamps out of order or range" if column == "timestamps" else
                   "has a value that is not finite")
        with pytest.raises(ValueError, match=f"^stream '{changed.name}' {problem}$"):
            mine(bundle, quickstart_mining_config())

    def test_equal_timestamps_keep_input_order(self):
        ordered = stream("a", [(5, 3), (1, 9), (5, 1), (5, 2)])
        assert ordered.events == (Event(1, 9), Event(5, 3), Event(5, 1), Event(5, 2))

    # A NaN defeats both the sortedness test and the sort, so it would keep
    # its place and mine silently wrong weights. An int past the float range
    # would make the window arithmetic overflow.
    @pytest.mark.parametrize("times", [
        (nan, 0, 1), (0, nan, 1), (0, 1, nan), (nan,), (0, 1, inf), (5, inf, 1), (-inf, 0),
        (10**400,), (1, 10**400, 0), (-10**400, 0),
    ], ids=["nan-first", "nan-middle", "nan-last", "nan-alone", "inf", "inf-unsorted",
            "minus-inf", "big-int", "big-int-unsorted", "minus-big-int"])
    def test_non_finite_timestamp_raises(self, times):
        with pytest.raises(ValueError, match="stream 'a' has a timestamp that is not finite"):
            EventStream("a", times, (1,) * len(times))

    def test_columns_are_float_arrays(self):
        built = EventStream("a", (2, Fraction(1, 3)), (Decimal("0.5"), 7))
        assert built.timestamps.typecode == built.values.typecode == "d"
        assert built == ("a", array("d", (1 / 3, 2.0)), array("d", (7.0, 0.5)))
        with pytest.raises(TypeError, match="unhashable type"):
            hash(built)
        with pytest.raises(ValueError, match="stream 'a' has a value that is not finite"):
            EventStream("a", (1,), (Fraction(10**400),))

    def test_in_order_float_arrays_are_kept(self):
        times, values = array("d", (1, 2, 2)), array("d", (5, 6, 7))
        built = EventStream("a", times, values)
        assert built.timestamps is times and built.values is values

    @pytest.mark.parametrize("make", [list, tuple, lambda numbers: array("f", numbers)],
                             ids=["list", "tuple", "float32-array"])
    def test_other_columns_are_copied(self, make):
        times, values = make((1, 2, 2)), make((5, 6, 7))
        built = EventStream("a", times, values)
        assert built == ("a", array("d", (1, 2, 2)), array("d", (5, 6, 7)))
        assert built.timestamps is not times and built.values is not values

    def test_out_of_order_float_arrays_are_sorted_into_new_arrays(self):
        times, values = array("d", (2, 1, 2)), array("d", (5, 6, 7))
        built = EventStream("a", times, values)
        assert built == ("a", array("d", (1, 2, 2)), array("d", (6, 5, 7)))
        assert times == array("d", (2, 1, 2)) and values == array("d", (5, 6, 7))

    # array("d", b) reads bytes as raw machine doubles: b"\0" * 8 would be 0.0.
    @pytest.mark.parametrize("column", [b"\0" * 8, b"\0", bytearray(8), "0"],
                             ids=["bytes", "short-bytes", "bytearray", "str"])
    def test_text_or_bytes_column_raises(self, column):
        with pytest.raises(TypeError, match="^stream 'a' has timestamps given as "):
            EventStream("a", column, [1])
        with pytest.raises(TypeError, match="^stream 'a' has values given as "):
            EventStream("a", [1], column)

    @pytest.mark.parametrize("column, reason", [
        ([0, "1"], "must be real number, not str"), ([None], "must be real number, not NoneType"),
        (5, "'int' object is not iterable"),
    ], ids=["str", "none", "not-iterable"])
    def test_column_that_is_not_numbers_raises_naming_the_stream(self, column, reason):
        for what, columns in (("timestamps", (column, [1, 2])), ("values", ([1, 2], column))):
            with pytest.raises(TypeError) as exc:
                EventStream("s", *columns)
            assert str(exc.value) == f"stream 's' needs real numbers as its {what} ({reason})"

    @pytest.mark.parametrize("number, what", [
        (Decimal("sNaN"), "value"), (Decimal("1e400"), "value"), (Decimal("-1e400"), "value"),
        (Decimal("sNaN"), "timestamp"), (Decimal("1e400"), "timestamp"),
    ], ids=["snan-value", "big-value", "minus-big-value", "snan-timestamp", "big-timestamp"])
    def test_decimal_with_no_finite_float_raises(self, number, what):
        columns = ([number], [1]) if what == "timestamp" else ([1], [number])
        with pytest.raises(ValueError, match=f"^stream 'a' has a {what} that is not finite$"):
            EventStream("a", *columns)

    def test_columns_of_unequal_length_raise(self):
        with pytest.raises(ValueError, match="stream 'a' has 2 timestamps but 1 values"):
            EventStream("a", (1, 2), (1,))

    def test_empty_name_raises(self):
        with pytest.raises(ValueError, match="stream name is empty"):
            EventStream("", (1,), (2,))

    def test_negative_timestamp_raises(self):
        with pytest.raises(ValueError, match="stream 'a' has a negative timestamp"):
            EventStream("a", (3, -1), (2, 2))
        with pytest.raises(ValueError, match="stream 'a' has a negative timestamp"):
            EventStream("a", (-1, 3), (2, 2))

    # An int past the float range has no float value: the check must say
    # so with ValueError, not fail with OverflowError.
    @pytest.mark.parametrize("value", [nan, inf, -10**400, 10**400],
                             ids=["nan", "inf", "minus-big-int", "big-int"])
    def test_non_finite_value_raises(self, value):
        with pytest.raises(ValueError, match="stream 'a' has a value that is not finite"):
            EventStream("a", (1, 1), (value, value))

    # Whatever the constructor accepts must mine and validate without
    # raising: a NaN value, say, must not reach the empty right ramp
    # (c == d) of "Large Volume", where mine() would divide by zero.
    @given(parts=st.lists(st.lists(st.tuples(NUMBERS, NUMBERS), max_size=5),
                          min_size=3, max_size=3))
    def test_accepted_streams_mine_and_validate(self, parts):
        try:
            bundle = StreamBundle(*map(stream, ("s1", "s2", "s3"), parts))
        except ValueError:
            return
        mine(bundle, quickstart_mining_config())
        for s in bundle:
            stream_findings(repr(s.name), s)


def validate_input(tmp_path, text):
    """validate() of ``text`` as an input file, under the quickstart config."""
    path = tmp_path / "streams.csv"
    path.write_text(text, encoding="utf-8")
    return validate(QUICKSTART_CONFIG, path)


class TestValidateBundle:
    """The findings validate() gives for the streams of an input, by role."""

    def test_quickstart_bundle_is_clean(self, tmp_path):
        findings = validate_input(tmp_path, WIDE)
        assert ERROR not in {f.severity for f in findings}

    def test_empty_trigger_stream_warns(self, tmp_path):
        # No row names stream1, so trigger1 is an empty stream.
        findings = validate_input(tmp_path, "timestamp,stream,value\n"
                                            "1,stream2,1\n1,stream3,1\n")
        warnings = [f for f in findings if f.severity == WARNING]
        assert any(f.code == "empty-stream" and "trigger1" in f.message
                   for f in warnings)
        assert ERROR not in {f.severity for f in findings}

    def test_duplicate_events_are_informational(self, tmp_path):
        findings = validate_input(tmp_path, "timestamp,stream,value\n"
                                            "1,stream1,2\n1,stream1,2\n"
                                            "1,stream2,1\n1,stream3,1\n")
        assert any(f.severity == INFO and f.code == "duplicate-event"
                   for f in findings)
        assert ERROR not in {f.severity for f in findings}

    def test_repeated_fraction_is_listed_as_float(self):
        # Fraction.__format__ has no "g" before Python 3.12.
        findings = stream_findings("'a'", EventStream("a", (1, 1), (Fraction(1, 2),) * 2))
        assert [str(f) for f in findings] == [
            "info: [duplicate-event] 'a': repeated event (timestamp 1, value 0.5)"]


def counted_findings(where, stream):
    """The findings' text as a Counter over every (timestamp, value) event
    gives it, for the scan over tied timestamps to match."""
    if not stream.timestamps:
        return [f"warning: [empty-stream] {where} has no events; "
                "no associations can involve it"]
    repeats = Counter(zip(stream.timestamps, stream.values))
    return [f"info: [duplicate-event] {where}: repeated event "
            f"(timestamp {shown(ts)}, value {shown(value)})"
            for ts, value in sorted(e for e, n in repeats.items() if n > 1)]


def shown(number):
    """``number`` with ``:g`` where that reads back as the same float, else
    its repr."""
    text = f"{number:g}"
    return text if float(text) == number else repr(number)


class TestStreamFindings:
    """stream_findings counts only the events at timestamps a neighbour
    shares, which the time order makes the only place a repeat can be."""

    # Small sets, so that events tie and repeat; both zeros, whose first
    # spelling a Counter keeps.
    @given(events=st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0]),
                                     st.sampled_from([0.0, -0.0, 0.5, 2.0])), max_size=30))
    @example(events=[(1.0, 2.0), (1.0, -0.0), (1.0, 2.0), (1.0, 0.0), (1.0, 0.5)])
    @example(events=[(7.0, 2.0), (0.0, 2.0), (2.5, 2.0), (1.0, 2.0)])
    # Two repeats that read alike to 6 significant digits (1e+06).
    @example(events=[(1000000.4, 5.0), (1000000.1, 5.0), (1000000.4, 5.0), (1000000.1, 5.0)])
    def test_same_findings_as_a_counter_over_every_event(self, events):
        # Unsorted columns: the constructor sorts them, stably.
        s = EventStream("a", [t for t, _ in events], [v for _, v in events])
        found = list(map(str, stream_findings("'a'", s)))
        assert found == counted_findings("'a'", s)
        assert len(set(found)) == len(found)

    def test_sparse_peak_is_under_a_quarter_of_the_columns(self, tmp_path):
        # A Counter over every event peaked at 10.4 times the stream's two
        # columns (16 bytes an event); sparse has no tied timestamps.
        with open_input(write_workload(tmp_path, "sparse", 1)[0]) as handle:
            streams = parse_streams(handle)
        for s in streams.values():
            gc.collect()
            tracemalloc.start()
            try:
                stream_findings(repr(s.name), s)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 0.25 * 16 * len(s.timestamps), s.name
