"""Tests for CSV ingestion, stream ordering, and bundle validation."""

from fractions import Fraction
from math import inf, nan

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzmine import (
    ConfigError,
    Event,
    EventStream,
    InputError,
    StreamBundle,
    mine,
    parse_streams,
    parse_streams_csv,
    render_table,
    validate_bundle,
    validate_stream,
)
from fuzzmine.validation import INFO, WARNING, has_errors

from common import quickstart_bundle, quickstart_mining_config, stream
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
        assert len(bundle.trigger1) == 2
        assert len(bundle.trigger2) == 2
        assert len(bundle.consequence) == 3

    def test_quickstart_events_exact(self):
        bundle = parse_streams_csv(WIDE, ROLES)
        assert bundle.trigger1.events == (Event(0, 2), Event(1000, 7))
        assert bundle.trigger2.events == (Event(3, 8), Event(1003, 2))
        assert bundle.consequence.events == (
            Event(7, 10.5), Event(13, 15), Event(1013, 7))

    def test_empty_cells_and_dashes_mean_absent(self):
        text = "timestamp,a,b,c\n1,5,,-\n"
        streams = parse_streams(text)
        assert len(streams["a"]) == 1
        assert len(streams["b"]) == 0
        assert len(streams["c"]) == 0

    def test_empty_body_yields_empty_streams(self):
        bundle = parse_streams_csv("timestamp,stream1,stream2,stream3\n", ROLES)
        assert (len(bundle.trigger1), len(bundle.trigger2),
                len(bundle.consequence)) == (0, 0, 0)

    def test_unselected_streams_are_ignored(self):
        text = "timestamp,stream1,stream2,stream3,other\n1,1,2,3,4\n"
        bundle = parse_streams_csv(text, ROLES)
        assert len(bundle.trigger1) == 1

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
        assert len(bundle.trigger1) == 1
        assert len(bundle.trigger2) == 0
        assert len(bundle.consequence) == 0

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
        assert len(parse_streams(text)["a"]) == 1


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
        assert render_table(mine(shuffled, cfg)) == render_table(mine(bundle, cfg))
        assert shuffled == bundle

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

    def test_columns_of_unequal_length_raise(self):
        with pytest.raises(ValueError, match="stream 'a' has 2 timestamps but 1 values"):
            EventStream("a", (1, 2), (1,))

    def test_empty_name_raises(self):
        with pytest.raises(ValueError, match="stream name is empty"):
            EventStream("", (1,), (2,))

    def test_negative_timestamp_raises(self):
        with pytest.raises(ValueError, match="stream 'a' has a negative timestamp"):
            EventStream("a", (3, -1), (2, 2))

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
        validate_bundle(bundle)


class TestValidateBundle:
    def test_quickstart_bundle_is_clean(self):
        assert not has_errors(validate_bundle(parse_streams_csv(WIDE, ROLES)))

    def test_empty_trigger_stream_warns(self):
        bundle = StreamBundle(EventStream("a"), stream("b", [(1, 1)]),
                              stream("c", [(1, 1)]))
        findings = validate_bundle(bundle)
        warnings = [f for f in findings if f.severity == WARNING]
        assert any(f.code == "empty-stream" and "trigger1" in f.message
                   for f in warnings)
        assert not has_errors(findings)

    def test_duplicate_events_are_informational(self):
        bundle = StreamBundle(stream("a", [(1, 2), (1, 2)]),
                              stream("b", [(1, 1)]),
                              stream("c", [(1, 1)]))
        findings = validate_bundle(bundle)
        assert any(f.severity == INFO and f.code == "duplicate-event"
                   for f in findings)
        assert not has_errors(findings)

    def test_repeated_fraction_is_listed_as_float(self):
        # Fraction.__format__ has no "g" before Python 3.12.
        findings = validate_stream(EventStream("a", (1, 1), (Fraction(1, 2),) * 2))
        assert [str(f) for f in findings] == [
            "info: [duplicate-event] 'a': repeated event (timestamp 1, value 0.5)"]
