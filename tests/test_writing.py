"""Writing: the bulk stamp formatter against `format_timestamp`, the chunked
writer against a `csv.writer` oracle, a label holding CR read back, and the
memory one write holds."""
from __future__ import annotations

import csv
import io
import tracemalloc
from datetime import datetime, timedelta, timezone, tzinfo
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from startrepair import (ActivityInstanceLog, model, read_instance_log,
                         write_activity_instance_log)
from startrepair.model import INSTANCE_HEADER, _stamp_texts, format_timestamp


class Seasonal(tzinfo):
    """A zone whose offset moves with the month, as a daylight-saving zone's
    does, so that one zone can print two offsets. Like some third-party
    zones, it compares by value and cannot be hashed."""

    def utcoffset(self, dt):
        return timedelta(hours=2 if dt is not None and 4 <= dt.month <= 9 else 1)

    def dst(self, dt):
        return None

    def __eq__(self, other):
        return isinstance(other, Seasonal)

    __hash__ = None


FIXED = (timezone.utc, timezone(timedelta(hours=14)), timezone(-timedelta(hours=14)),
         timezone(timedelta(hours=5, minutes=30, seconds=15)),
         timezone(-timedelta(hours=3, microseconds=250)))
ZONES = (*FIXED, Seasonal(), None)
# naive bounds of a column's stamps: three days of year 1, three days across
# the Unix epoch, the last three days of year 9999, a year and everything
WINDOWS = ((datetime(1, 1, 1), datetime(1, 1, 3, 23, 59, 59, 999999)),
           (datetime(1969, 12, 30), datetime(1970, 1, 2, 23, 59, 59, 999999)),
           (datetime(9999, 12, 29), datetime.max),
           (datetime(2021, 1, 1), datetime(2021, 12, 31, 23, 59, 59, 999999)),
           (datetime.min, datetime.max))


@st.composite
def stamp_columns(draw):
    """Stamps in one window, all of one zone or each of its own, with no
    microseconds, all with them, or a mix."""
    low, high = draw(st.sampled_from(WINDOWS))
    one_zone = draw(st.sampled_from(ZONES)) if draw(st.booleans()) else None
    micro = draw(st.sampled_from(("none", "some", "all")))
    column = []
    for _ in range(draw(st.integers(0, 12))):
        stamp = draw(st.datetimes(min_value=low, max_value=high))
        zone = one_zone if one_zone is not None else draw(st.sampled_from(ZONES))
        if micro == "none" or (micro == "some" and draw(st.booleans())):
            stamp = stamp.replace(microsecond=0)
        column.append(stamp.replace(tzinfo=zone))
    return column


@settings(max_examples=500, deadline=None)
@given(stamp_columns())
def test_bulk_stamp_texts_equal_format_timestamp(column):
    assert _stamp_texts(column) == list(map(format_timestamp, column))


def csv_oracle(log: ActivityInstanceLog) -> str:
    """The log written by the csv module alone, row by row. Each row is
    written with the terminator CRLF, so that the module quotes a field
    holding a lone CR on every Python, and its CRLF is then made LF."""
    texts = []
    for row in chain([INSTANCE_HEADER],
                     zip(log.trace_ids, log.activities, map(format_timestamp, log.starts),
                         map(format_timestamp, log.ends), log.resources)):
        sink = io.StringIO()
        csv.writer(sink, lineterminator="\r\n").writerow(row)
        texts.append(sink.getvalue()[:-2] + "\n")
    return "".join(texts)


QUOTED = ("a,b", 'say "hi"', "cr\rhere", "two\nlines", '"', ",")
LABELS = (*QUOTED, " spaced ", "x")
BASE = datetime(2021, 3, 1, 8)


@st.composite
def chunked_logs(draw):
    """A log of one to three slices and a part, whose labels hold a quoted
    character, a space, an empty resource or a None resource in a few rows
    only. Each slice's stamps take one fixed zone, the seasonal zone, or
    the fixed zones in turn, and in some slices every third stamp has 250 ms."""
    chunk = model._CHUNK
    size = draw(st.integers(chunk + 1, 3 * chunk + 7))
    traces = [f"t{n // 3}" for n in range(size)]
    activities = [("a", "b", "c")[n % 3] for n in range(size)]
    resources = [None if n % 5 == 0 else f"r{n % 4}" for n in range(size)]
    for _ in range(draw(st.integers(0, 4))):
        column, labels = draw(st.sampled_from(((traces, LABELS), (activities, LABELS),
                                               (resources, (*LABELS, "", None)))))
        column[draw(st.integers(0, size - 1))] = draw(st.sampled_from(labels))
    starts, ends = [], []
    for first in range(0, size, chunk):
        zone = draw(st.sampled_from((*FIXED, Seasonal(), "in turn")))
        micro = draw(st.booleans())
        for n in range(first, min(first + chunk, size)):
            start = BASE + timedelta(seconds=97 * n,
                                     milliseconds=250 if micro and n % 3 == 0 else 0)
            if zone == "in turn":
                start = start.replace(tzinfo=FIXED[n % len(FIXED)])
            else:
                start = start.replace(tzinfo=zone)
            starts.append(start)
            ends.append(start + timedelta(seconds=300 + n % 7))
    return ActivityInstanceLog.from_columns(traces, activities, starts, ends, resources)


@settings(max_examples=60, deadline=None)
@given(chunked_logs())
def test_chunked_writer_matches_the_csv_oracle(log):
    sink = io.StringIO()
    write_activity_instance_log(log, sink)
    assert sink.getvalue() == csv_oracle(log)


def test_non_string_label_is_written_as_the_csv_module_writes_it():
    stamp = BASE.replace(tzinfo=timezone.utc)
    log = ActivityInstanceLog.from_columns((7, "t"), ("a", 2.5), (stamp,) * 2,
                                           (stamp,) * 2, (None, 3))
    sink = io.StringIO()
    write_activity_instance_log(log, sink)
    assert sink.getvalue() == csv_oracle(log)


def test_label_holding_a_lone_cr_reads_back():
    # on Python 3.11 and older, a csv module whose terminator is LF alone
    # leaves a lone CR unquoted, and no reader can read such a row back
    stamp = BASE.replace(tzinfo=timezone.utc)
    log = ActivityInstanceLog.from_columns(("t\r1", "t2"), ("a\rb", "c\r\nd"), (stamp,) * 2,
                                           (stamp,) * 2, ("r\rs", None))
    sink = io.StringIO(newline="")
    write_activity_instance_log(log, sink)
    assert read_instance_log(io.StringIO(sink.getvalue(), newline="")) == log


class Discarding:
    """A text sink that keeps nothing, so that only the writer's own memory
    is traced."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def write_memory(rows: int) -> int:
    """Peak traced bytes of one write of a `rows`-row log, all on one offset
    and on whole seconds, to a sink that keeps nothing."""
    zone = timezone(timedelta(hours=2))
    starts = [(BASE + timedelta(seconds=61 * n)).replace(tzinfo=zone) for n in range(rows)]
    ends = [start + timedelta(seconds=3000) for start in starts]
    log = ActivityInstanceLog.from_columns(
        [f"t{n // 4}" for n in range(rows)], [f"a{n % 4}" for n in range(rows)],
        starts, ends, [None if n % 9 == 0 else f"r{n % 5}" for n in range(rows)])
    tracemalloc.start()
    try:
        write_activity_instance_log(log, Discarding())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_write_memory_is_bounded_by_the_slice():
    # 2 and 64 slices of 512 rows. A slice's texts and rows are freed before
    # the next slice is formatted, so 32x the rows must not mean more
    # transient memory, as it does for a writer that formats whole columns
    # (a memo of every stamp's text peaked at 5.4 MB on 32k rows)
    small = write_memory(1024)
    large = write_memory(32_768)
    assert large < 1.25 * small, (small, large)
    assert large < 1_000_000, large
