from __future__ import annotations

import csv
import io
import operator
import re
from dataclasses import replace
from datetime import timedelta
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from startrepair import (
    ActivityInstance,
    ActivityInstanceLog,
    ColumnMapping,
    ConcurrencyRelation,
    ConfigurationError,
    LogFormatError,
    load_concurrency,
    parse_event_log,
    read_instance_log,
    to_activity_instances,
    write_activity_instance_log,
)
from startrepair.concurrency import write_concurrency
from startrepair.model import EVENT_COLUMNS, INSTANCE_COLUMNS, parse_timestamp

from .conftest import (EVENT_HEADER, SHIPPING_ROWS, event_csv, resource_buckets,
                       shipping_csv, shipping_instances, ts)
from .strategies import instance_logs


class TestTimestampParsing:
    def test_space_separated_assumed_utc(self):
        assert parse_timestamp("2021-03-07 12:59:21") == ts("2021-03-07 12:59:21")

    def test_explicit_offset_preserved(self):
        parsed = parse_timestamp("2021-03-07T12:59:21+02:00")
        assert parsed.utcoffset() == timedelta(hours=2)
        assert parsed == ts("2021-03-07 10:59:21")

    def test_zulu_suffix(self):
        assert parse_timestamp("2021-03-07T12:59:21Z") == ts("2021-03-07 12:59:21")

    def test_garbage_rejected(self):
        with pytest.raises(LogFormatError):
            parse_timestamp("not-a-date")

    def test_garbage_message_is_the_row_message_without_its_row(self):
        with pytest.raises(LogFormatError) as error:
            parse_timestamp("soon")
        assert str(error.value) == "unparseable timestamp 'soon'"


def normalised_timestamp(raw: str) -> datetime:
    """The parsing rule written out in full: strip, rewrite a trailing Z/z
    to +00:00, parse, and take an offset-free value as UTC."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    return parsed if parsed.tzinfo else parsed.replace(tzinfo=timezone.utc)


@st.composite
def timestamp_cells(draw):
    """ISO 8601 cells in the forms logs hold, with surrounding blanks."""
    stamp = datetime(draw(st.integers(1900, 2100)), draw(st.integers(1, 12)),
                     draw(st.integers(1, 28)), draw(st.integers(0, 23)),
                     draw(st.integers(0, 59)), draw(st.integers(0, 59)),
                     draw(st.one_of(st.just(0), st.integers(0, 999_999))))
    text = stamp.isoformat(sep=draw(st.sampled_from("T ")),
                           timespec=draw(st.sampled_from(("seconds", "microseconds"))))
    sign, hours, minutes = (draw(st.sampled_from("+-")), draw(st.integers(0, 23)),
                            draw(st.integers(0, 59)))
    text += draw(st.sampled_from(("", f"{sign}{hours:02d}:{minutes:02d}", "Z", "z")))
    blanks = st.text(alphabet=" \t", max_size=2)
    return draw(blanks) + text + draw(blanks)


cells = st.one_of(timestamp_cells(),
                  st.text(alphabet="0123456789-:.+ TZz", max_size=30))


class TestTimestampFastPath:
    """`parse_timestamp` and a one-row read both parse through `_stamps`: a
    bulk `fromisoformat`, or the cell rule where that rejects a cell. The
    result must be the normalised rule's on every input, on every Python
    whose `fromisoformat` accepts a different set of strings."""

    @given(cells)
    def test_equals_normalised_rule(self, raw):
        try:
            expected = normalised_timestamp(raw)
        except ValueError:
            with pytest.raises(LogFormatError, match="unparseable timestamp"):
                parse_timestamp(raw)
            return
        parsed = parse_timestamp(raw)
        assert parsed == expected
        assert parsed.utcoffset() == expected.utcoffset()
        assert parsed.isoformat() == expected.isoformat()

    @given(cells.filter(lambda raw: raw.strip()))
    def test_one_row_read_equals_normalised_rule(self, raw):
        source = io.StringIO(f"{HEADER}23,a,{raw},{raw},Fry\n")
        try:
            expected = normalised_timestamp(raw)
        except ValueError:
            message = f"row 2: unparseable timestamp {raw.strip()!r}"
            with pytest.raises(LogFormatError, match=re.escape(message)):
                read_instance_log(source)
            return
        (instance,) = read_instance_log(source)
        for parsed in (instance.start, instance.end):
            assert parsed == expected
            assert parsed.utcoffset() == expected.utcoffset()
            assert parsed.isoformat() == expected.isoformat()

    def test_garbage_cell_names_row(self):
        with pytest.raises(LogFormatError,
                           match=re.escape("row 2: unparseable timestamp '2021-13-07'")):
            read_instance_log(io.StringIO(f"{HEADER}23,a,2021-13-07,2021-13-07,Fry\n"))


class TestParseEventLog:
    def test_empty_file_with_header(self):
        assert parse_event_log(io.StringIO(EVENT_HEADER), EVENT_COLUMNS) == []

    def test_bad_timestamp_names_row(self):
        source = io.StringIO(
            EVENT_HEADER
            + "23,Register Order,2021-03-07 12:59:21,start,Fry\n"
            + "24,Register Order,not-a-date,start,Fry\n"
        )
        with pytest.raises(LogFormatError, match="row 3.*not-a-date"):
            parse_event_log(source, EVENT_COLUMNS)

    def test_missing_mapped_column_is_config_error(self):
        source = io.StringIO("case,act,ts\n")
        with pytest.raises(ConfigurationError, match="missing"):
            parse_event_log(source, EVENT_COLUMNS)

    def test_event_mapping_is_refused_by_the_instance_reader(self):
        source = io.StringIO(EVENT_HEADER)
        with pytest.raises(ConfigurationError, match="needs an instance-per-row mapping"):
            read_instance_log(source, EVENT_COLUMNS)

    def test_instance_mapping_is_refused_by_the_event_reader(self):
        # a reversed instance row is rejected by every reader, never split
        # into an orphan end and a dropped start
        source = io.StringIO(HEADER + "1,a,2021-03-07 14:00:00,2021-03-07 13:00:00,r\n")
        with pytest.raises(ConfigurationError,
                           match="^parse_event_log needs an event-per-row mapping$"):
            parse_event_log(source, INSTANCE_COLUMNS)

    def test_mapping_of_two_shapes_is_refused(self):
        for fields in ({"timestamp": "ts", "lifecycle": "lc"},  # keeps start and end
                       {"timestamp": "ts"},
                       {"start_time": None, "timestamp": "ts", "lifecycle": "lc"}):
            with pytest.raises(ConfigurationError,
                               match="^mapping names columns of two input shapes"):
                ColumnMapping(**fields)
        with pytest.raises(ConfigurationError, match="two input shapes"):
            replace(EVENT_COLUMNS, start_time="start")
        assert replace(EVENT_COLUMNS, timestamp="ts", lifecycle="lc").is_event_per_row

    def test_event_per_row_mapping(self):
        source = io.StringIO(
            "case_id,activity,timestamp,lifecycle,resource\n"
            "23,Register Order,2021-03-07 12:59:21,START,Fry\n"
            "23,Register Order,2021-03-07 13:05:37,end,Fry\n"
        )
        events = parse_event_log(source, EVENT_COLUMNS)
        assert [lifecycle for _, _, lifecycle, _, _ in events] == ["start", "end"]

    def test_missing_resource_cell_is_none(self):
        source = io.StringIO(EVENT_HEADER
                             + "23,Register Order,2021-03-07 12:59:21,start,\n")
        ((_, _, _, _, resource),) = parse_event_log(source, EVENT_COLUMNS)
        assert resource is None


class TestStreams:
    """Readers and writers take text streams and never close them."""

    def test_binary_source_is_one_format_error_and_stays_open(self):
        readers = ((read_instance_log, shipping_csv()),
                   (parse_event_log, event_csv(SHIPPING_ROWS)),
                   (load_concurrency, shipping_csv()))
        for reader, text in readers:
            source = io.BytesIO(text.encode())
            with pytest.raises(LogFormatError, match="text mode"):
                reader(source)
            assert not source.closed

    def test_text_sink_stays_open_and_holds_the_csv(self, shipping_log):
        sink = io.StringIO()
        write_activity_instance_log(shipping_log, sink)
        assert not sink.closed
        assert read_instance_log(io.StringIO(sink.getvalue())) == shipping_log
        sink = io.StringIO()
        write_concurrency(ConcurrencyRelation([("b", "a"), ("c", "a")]), sink)
        assert not sink.closed
        assert sink.getvalue() == "a,b\na,c\n"


HEADER = "case_id,activity,start_time,end_time,resource\n"
ROW = "23,Register Order,2021-03-07 12:59:21,2021-03-07 13:05:37,Fry\n"

# Both readers must apply the same row rules. The event reader reads the
# instance rows with the start column as its stamp and the end column as its
# lifecycle, since a rule that does not look at a cell's meaning holds for
# either shape.
STAMPS_AS_EVENTS = ColumnMapping(
    start_time=None, end_time=None, timestamp="start_time", lifecycle="end_time")
ROW_READERS = {
    "read_instance_log": lambda source: list(read_instance_log(source)),
    "parse_event_log": lambda source: parse_event_log(source, STAMPS_AS_EVENTS),
}


@pytest.fixture(params=sorted(ROW_READERS))
def read_rows(request):
    return lambda text: ROW_READERS[request.param](io.StringIO(text))


# each reader, a mapping under which it reads HEADER's columns, and the getter
# of a read row's resource
RESOURCE_READERS = {
    "read_instance_log": (read_instance_log, INSTANCE_COLUMNS, operator.attrgetter("resource")),
    "parse_event_log": (parse_event_log, STAMPS_AS_EVENTS, operator.itemgetter(4)),
}


@pytest.mark.parametrize("reader, mapping, resource_of", RESOURCE_READERS.values(),
                         ids=RESOURCE_READERS)
class TestResourceColumn:
    """Only the default resource column, `resource`, may be absent from the header."""

    def test_renamed_column_absent_from_header_is_refused(self, reader, mapping,
                                                          resource_of):
        renamed = replace(mapping, resource="nope")
        with pytest.raises(ConfigurationError,
                           match=r"^mapped columns missing from header: \['nope'\]$"):
            reader(io.StringIO(HEADER + ROW), renamed)
        rows = reader(io.StringIO(HEADER.replace("resource", "nope") + ROW), renamed)
        assert [resource_of(row) for row in rows] == ["Fry"]

    def test_default_column_may_be_absent(self, reader, mapping, resource_of):
        rows = reader(io.StringIO(HEADER.replace(",resource", "")
                                  + ROW.replace(",Fry", "") * 2), mapping)
        assert [resource_of(row) for row in rows] == [None, None]


class TestRowRules:
    def test_blank_lines_skipped_and_not_counted(self, read_rows):
        assert read_rows(HEADER + "\n" + ROW + "\n\n") == read_rows(HEADER + ROW)
        with pytest.raises(LogFormatError, match=r"^row 3: unparseable timestamp"):
            read_rows(HEADER + "\n" + ROW + "\n"
                      + "24,Pack,soon,2021-03-07 13:05:37,Fry\n")

    def test_extra_fields_rejected(self, read_rows):
        with pytest.raises(LogFormatError,
                           match=r"^row 3: malformed CSV row \(extra fields\)$"):
            read_rows(HEADER + ROW + ROW.replace("Fry", "Fry,spare"))

    def test_missing_mapped_field_rejected(self, read_rows):
        with pytest.raises(LogFormatError,
                           match=r"^row 2: malformed CSV row \(missing fields\)$"):
            read_rows(HEADER + ROW.replace(",Fry", ""))

    def test_missing_unmapped_trailing_field_accepted(self, read_rows):
        rows = read_rows(HEADER.replace("resource", "resource,note") + ROW)
        assert rows == read_rows(HEADER + ROW)

    def test_repeated_header_name_resolves_to_last(self, read_rows):
        rows = read_rows(HEADER.replace("activity", "activity,activity")
                         + ROW.replace("Register Order", "first,Register Order"))
        assert rows == read_rows(HEADER + ROW)

    def test_empty_input_has_no_header(self, read_rows):
        with pytest.raises(LogFormatError, match="^input has no header row$"):
            read_rows("")

    @pytest.mark.parametrize("row, message", [
        (" ,Register Order,2021-03-07 12:59:21,2021-03-07 13:05:37,Fry",
         "row 2: empty trace id"),
        ("23,,2021-03-07 12:59:21,2021-03-07 13:05:37,Fry", "row 2: empty activity"),
        ("23,Register Order,,2021-03-07 13:05:37,Fry", "row 2: empty start time"),
        ("23,Register Order,2021-03-07 12:59:21,,Fry", "row 2: empty end time"),
        ("23,Register Order,soon,2021-03-07 13:05:37,Fry",
         "row 2: unparseable timestamp 'soon'"),
        ("23,Register Order,2021-03-07 12:59:21,later,Fry",
         "row 2: unparseable timestamp 'later'"),
    ])
    # the messages name the instance columns, so only the instance reader
    @pytest.mark.parametrize("read_rows", ["read_instance_log"], indirect=True)
    def test_single_fault_messages(self, read_rows, row, message):
        with pytest.raises(LogFormatError) as error:
            read_rows(HEADER + row + "\n")
        assert str(error.value) == message

    @pytest.mark.parametrize("row, message", [
        ("23,Register Order,,start,Fry", "row 2: empty timestamp"),
        ("23,Register Order,2021-03-07 12:59:21, ,Fry", "row 2: empty lifecycle"),
        ("23,Register Order,soon,start,Fry", "row 2: unparseable timestamp 'soon'"),
    ])
    def test_event_row_single_fault_messages(self, row, message):
        source = io.StringIO("case_id,activity,timestamp,lifecycle,resource\n"
                             + row + "\n")
        with pytest.raises(LogFormatError) as error:
            parse_event_log(source, EVENT_COLUMNS)
        assert str(error.value) == message


class TestPairing:
    def test_shipping_log_pairs_bit_exact(self):
        events = parse_event_log(io.StringIO(event_csv(SHIPPING_ROWS)), EVENT_COLUMNS)
        log, summary = to_activity_instances(events)
        assert summary.matched_pairs == 10
        assert summary.orphan_ends == summary.dropped_starts == 0
        assert sorted(log.instances, key=lambda i: (i.start, i.end)) == sorted(
            shipping_instances(), key=lambda i: (i.start, i.end)
        )

    def test_orphan_end_becomes_zero_duration(self):
        log, summary = to_activity_instances(
            [("1", "a", "end", ts("2021-03-07 12:00:00"), "r")]
        )
        assert len(log) == 1
        assert log.instances[0].start == log.instances[0].end
        assert summary.orphan_ends == 1

    def test_unmatched_start_dropped_and_counted(self):
        log, summary = to_activity_instances(
            [("1", "a", "start", ts("2021-03-07 12:00:00"), "r")]
        )
        assert len(log) == 0
        assert summary.dropped_starts == 1

    def test_fifo_pairing_of_interleaved_same_key(self):
        # two starts then two ends for the same key: first start pairs with
        # first end (FIFO), not with the later one
        events = [
            ("1", "a", "start", ts("2021-03-07 12:00:00"), "r"),
            ("1", "a", "start", ts("2021-03-07 12:10:00"), "r"),
            ("1", "a", "end", ts("2021-03-07 12:20:00"), "r"),
            ("1", "a", "end", ts("2021-03-07 12:40:00"), "r"),
        ]
        log, _ = to_activity_instances(events)
        spans = sorted((i.start, i.end) for i in log.instances)
        assert spans == [
            (ts("2021-03-07 12:00:00"), ts("2021-03-07 12:20:00")),
            (ts("2021-03-07 12:10:00"), ts("2021-03-07 12:40:00")),
        ]

    def test_schedule_lifecycle_dropped_with_count(self):
        events = [
            ("1", "a", "schedule", ts("2021-03-07 11:00:00"), "r"),
            ("1", "a", "start", ts("2021-03-07 12:00:00"), "r"),
            ("1", "a", "end", ts("2021-03-07 12:30:00"), "r"),
        ]
        log, summary = to_activity_instances(events)
        assert len(log) == 1
        assert summary.dropped_other_lifecycle == 1

    @given(instance_logs(max_size=10))
    def test_pairing_conservation(self, log):
        events = []
        for inst in log.instances:
            events.append((inst.trace_id, inst.activity, "start", inst.start,
                           inst.resource))
            events.append((inst.trace_id, inst.activity, "end", inst.end,
                           inst.resource))
        paired, summary = to_activity_instances(events)
        assert len(paired) == summary.matched_pairs + summary.orphan_ends
        assert summary.matched_pairs + summary.dropped_starts == len(log)
        assert all(i.start <= i.end for i in paired)


class TestIndexes:
    @given(instance_logs())
    def test_indexes_partition_and_are_end_sorted(self, log):
        from itertools import chain

        by_resource = resource_buckets(log)
        flat = list(chain.from_iterable(by_resource.values()))
        assert sorted(map(id, flat)) == sorted(map(id, log.instances))
        for bucket in by_resource.values():
            ends = [i.end for i in bucket]
            assert ends == sorted(ends)
        for inst in log.instances:
            assert inst in by_resource[inst.resource]
        by_trace = log.per_trace_index
        assert sorted(chain.from_iterable(by_trace.values())) == list(range(len(log)))
        for trace, rows in by_trace.items():
            assert rows == sorted(rows) and {log.trace_ids[row] for row in rows} == {trace}


class TestWriteRoundTrip:
    def test_shipping_log_rows(self, shipping_log):
        sink = io.StringIO()
        write_activity_instance_log(shipping_log, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "case_id,activity,start_time,end_time,resource"
        assert len(lines) == 11

    def test_empty_log_header_only(self):
        sink = io.StringIO()
        write_activity_instance_log(ActivityInstanceLog([]), sink)
        assert sink.getvalue() == "case_id,activity,start_time,end_time,resource\n"

    def test_write_parse_pair_round_trip(self, shipping_log):
        sink = io.StringIO()
        write_activity_instance_log(shipping_log, sink)
        written = list(csv.reader(io.StringIO(sink.getvalue())))[1:]
        events = parse_event_log(io.StringIO(event_csv(written)), EVENT_COLUMNS)
        log, _ = to_activity_instances(events)
        assert sorted(log.instances, key=lambda i: (i.start, i.end)) == sorted(
            shipping_log.instances, key=lambda i: (i.start, i.end)
        )

    @given(instance_logs(min_size=0))
    def test_direct_round_trip_exact(self, log):
        sink = io.StringIO()
        write_activity_instance_log(log, sink)
        back = read_instance_log(io.StringIO(sink.getvalue()))
        assert back == log

    def test_each_stamp_keeps_its_own_offset(self):
        # equal instants with different offsets compare and hash equal, yet
        # each must be written with its own offset
        utc = ts("2021-03-01 09:00:00")
        plus_two = utc.astimezone(timezone(timedelta(hours=2)))
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", utc, utc, "r"),
            ActivityInstance("2", "b", plus_two, plus_two, "r"),
            ActivityInstance("3", "c", utc, plus_two, "r"),
            ActivityInstance("4", "d", plus_two, utc, None),
        ])
        sink = io.StringIO()
        write_activity_instance_log(log, sink)
        utc_text, plus_two_text = "2021-03-01 09:00:00+00:00", "2021-03-01 11:00:00+02:00"
        assert sink.getvalue().splitlines()[1:] == [
            f"1,a,{utc_text},{utc_text},r",
            f"2,b,{plus_two_text},{plus_two_text},r",
            f"3,c,{utc_text},{plus_two_text},r",
            f"4,d,{plus_two_text},{utc_text},",
        ]


class TestInvariants:
    def test_start_after_end_rejected(self):
        with pytest.raises(LogFormatError):
            ActivityInstance("1", "a", ts("2021-03-07 13:00:00"),
                             ts("2021-03-07 12:00:00"), None)

    def test_empty_labels_rejected(self):
        with pytest.raises(LogFormatError, match="empty trace id"):
            ActivityInstance("", "a", ts("2021-03-07 12:00:00"), ts("2021-03-07 12:00:00"))
        with pytest.raises(LogFormatError, match="empty activity label"):
            ActivityInstance("1", "", ts("2021-03-07 12:00:00"), ts("2021-03-07 12:00:00"))

    def test_replace_on_slotted_instance_still_checks(self):
        instance = ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                                    ts("2021-03-07 13:00:00"), None)
        assert not hasattr(instance, "__dict__")
        with pytest.raises(LogFormatError, match="after end"):
            replace(instance, start=ts("2021-03-07 14:00:00"))


def columns(log: ActivityInstanceLog) -> tuple:
    return log.trace_ids, log.activities, log.starts, log.ends, log.resources


class TestColumns:
    @given(instance_logs(min_size=0))
    def test_from_columns_is_the_same_log(self, log):
        columnar = ActivityInstanceLog.from_columns(*columns(log))
        assert columnar == log
        assert columnar.instances == log.instances
        assert resource_buckets(columnar) == resource_buckets(log)
        assert columnar.per_trace_index == log.per_trace_index
        sink = io.StringIO()
        write_activity_instance_log(columnar, sink)
        assert read_instance_log(io.StringIO(sink.getvalue())) == columnar

    def test_reader_reports_the_first_bad_row(self):
        # a start after its end in row 2 wins over an unparseable stamp in row 3
        text = (HEADER + "23,Pack,2021-03-07 14:00:00,2021-03-07 13:00:00,Fry\n"
                + "24,Pack,soon,2021-03-07 13:05:37,Fry\n")
        with pytest.raises(LogFormatError, match=r"^row 2: instance start .* after end .*"
                                                 r"\(trace 23, activity Pack\)$"):
            read_instance_log(io.StringIO(text))

    def test_len_and_equality_build_no_instances(self, shipping_log):
        columnar = ActivityInstanceLog.from_columns(*columns(shipping_log))
        assert len(columnar) == 10 and columnar == shipping_log
        assert "instances" not in columnar.__dict__

    def test_tuple_columns_are_shared(self, shipping_log):
        columnar = ActivityInstanceLog.from_columns(*columns(shipping_log))
        assert all(map(operator.is_, columns(columnar), columns(shipping_log)))

    def test_unequal_lengths_rejected(self, shipping_log):
        trace_ids, *rest = columns(shipping_log)
        with pytest.raises(ValueError, match="columns differ in length"):
            ActivityInstanceLog.from_columns(trace_ids[:-1], *rest)

    # an empty trace id, an empty activity, a start after its end
    @pytest.mark.parametrize("column, value", [
        (0, ""), (1, ""), (2, ts("2021-03-09 00:00:00")),
    ])
    def test_first_bad_row_gives_the_instance_error(self, shipping_log, column, value):
        rows = list(map(list, zip(*columns(shipping_log))))
        rows[3][column] = value
        rows[7][2] = ts("2021-03-09 00:00:00")  # a later bad row does not win
        with pytest.raises(LogFormatError) as expected:
            ActivityInstance(*rows[3])
        with pytest.raises(LogFormatError, match=f"^{re.escape(str(expected.value))}$"):
            ActivityInstanceLog.from_columns(*zip(*rows))
