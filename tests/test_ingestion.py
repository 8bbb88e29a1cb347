"""Ingestion: start/end pairing against an independent FIFO oracle, chunked
row decoding against a per-row oracle, and the memory the readers and the
pairing keep."""
from __future__ import annotations

import csv
import io
import re
import tracemalloc
from datetime import timedelta
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from startrepair import (LogFormatError, model, parse_event_log, read_instance_log,
                         to_activity_instances)
from startrepair.model import _columns, parse_timestamp

from .strategies import EPOCH


@st.composite
def event_streams(draw):
    """`(trace, activity, lifecycle, timestamp, resource)` events over at most
    3 traces, 2 activities and resources {r1, r2, None}, with stamps from a
    small pool so that ties occur. Every stamp is a new object, so that `is`
    tells which event's stamp an instance took."""
    size = draw(st.integers(min_value=0, max_value=40))
    return [(draw(st.sampled_from(("t1", "t2", "t3"))),
             draw(st.sampled_from(("a", "b"))),
             draw(st.sampled_from(("start", "end", "schedule"))),
             EPOCH + timedelta(minutes=draw(st.integers(0, 6))),
             draw(st.sampled_from(("r1", "r2", None))))
            for _ in range(size)]


def fifo_oracle(events):
    """Rows `(trace, activity, start, end, resource)` and the four summary
    counts, from a stable sort on the stamp and one list of open starts per
    (trace, activity, resource) key, taken from the front."""
    open_starts, rows = {}, []
    matched = orphans = other = 0
    for trace, activity, lifecycle, stamp, resource in sorted(events,
                                                              key=lambda e: e[3]):
        key = (trace, activity, resource)
        if lifecycle == "start":
            open_starts.setdefault(key, []).append(stamp)
        elif lifecycle == "end":
            if open_starts.get(key):
                start = open_starts[key].pop(0)
                matched += 1
            else:
                start = stamp
                orphans += 1
            rows.append((trace, activity, start, stamp, resource))
        else:
            other += 1
    dropped = sum(len(starts) for starts in open_starts.values())
    return rows, (matched, orphans, dropped, other)


@settings(max_examples=300, deadline=None)
@given(event_streams())
def test_pairing_matches_fifo_oracle(events):
    log, summary = to_activity_instances(events)
    rows, counts = fifo_oracle(events)
    assert list(zip(log.trace_ids, log.activities, log.ends, log.resources)) == [
        (trace, activity, end, resource) for trace, activity, _, end, resource in rows]
    assert len(log.starts) == len(rows)
    assert all(start is row[2] for start, row in zip(log.starts, rows))
    assert (summary.matched_pairs, summary.orphan_ends, summary.dropped_starts,
            summary.dropped_other_lifecycle) == counts


def test_pairing_keeps_no_queue_for_a_closed_key():
    # 10k keys, each opened by one start and closed by one end before the
    # next opens: a queue left behind per closed key costs hundreds of bytes
    keys = 10_000
    rows = [(f"t{n}", "a", phase, EPOCH + timedelta(seconds=2 * n + step), None)
            for n in range(keys) for step, phase in enumerate(("start", "end"))]
    tracemalloc.start()
    try:
        log, summary = to_activity_instances(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.matched_pairs == len(log) == keys
    assert peak / len(rows) < 200


def transient_read_memory(rows: int, quoted: bool = False) -> int:
    """Peak minus retained traced bytes of one `read_instance_log` of `rows`
    instance rows: what the read holds only while it runs. With `quoted`, the
    first row's trace id is quoted, so that every row goes through the csv
    module."""
    lines = [f"t{n % 97},a{n % 7},2021-03-01 08:00:{n % 60:02},"
             f"2021-03-01 11:00:{n % 60:02}+02:00,r{n % 5}" for n in range(rows)]
    if quoted:
        lines[0] = '"' + lines[0].replace(",", '",', 1)
    source = io.StringIO("\n".join(["case_id,activity,start_time,end_time,resource",
                                    *lines]) + "\n")
    tracemalloc.start()
    try:
        log = read_instance_log(source)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) == rows
    return peak - retained


def test_read_memory_is_bounded_by_the_chunk():
    # 2 and 8 chunks of 512 records. A chunk's records and cells are freed
    # once the next chunk is decoded, so 4x the rows must not mean 4x the
    # transient memory, as it does for a decoder that reads everything at
    # once. The 25% slack covers the over-allocation of the growing columns
    # and the one column list a tuple is copied from, about 2 bytes a row.
    small = transient_read_memory(1024)
    large = transient_read_memory(4096)
    assert large < 1.25 * small, (small, large)


def test_csv_read_memory_is_bounded_by_the_chunk():
    # the same bound when no chunk is plain
    small = transient_read_memory(1024, quoted=True)
    large = transient_read_memory(4096, quoted=True)
    assert large < 1.25 * small, (small, large)


EVENT_CSV = """case_id,activity,timestamp,lifecycle,resource
T01,Pack,2021-03-01 08:00:00,start,R01
T02,Pack,2021-03-01 08:05:00,START,
T01,Pack,2021-03-01 08:10:00,end,R01
T02,Pack,2021-03-01 08:20:00,end,
T01,Invoice,2021-03-01 08:30:00,start,R01
T02,Invoice,2021-03-01 08:35:00,start,R02
T01,Invoice,2021-03-01 08:40:00,end,R01
T02,Invoice,2021-03-01 08:50:00,end,R02
"""

INSTANCE_CSV = """case_id,activity,start_time,end_time,resource
T01,Pack,2021-03-01 08:00:00,2021-03-01 08:10:00,R01
T02,Pack,2021-03-01 08:05:00,2021-03-01 08:20:00,
T01,Invoice,2021-03-01 08:30:00,2021-03-01 08:40:00,R01
T02,Invoice,2021-03-01 08:35:00,2021-03-01 08:50:00,R02
T02,Check,2021-03-01 08:55:00,2021-03-01 09:00:00,
"""


def assert_labels_shared(*columns):
    for column in columns:
        for one, other in combinations(column, 2):
            assert (one is other) == (one == other), (one, other)


def test_equal_labels_are_one_object():
    log = read_instance_log(io.StringIO(INSTANCE_CSV))
    assert_labels_shared(log.trace_ids, log.activities, log.resources)
    assert log.resources.count(None) == 2

    events = parse_event_log(io.StringIO(EVENT_CSV))
    assert_labels_shared(*zip(*((trace, activity, lifecycle, resource)
                                for trace, activity, lifecycle, _, resource in events)))
    assert [resource for *_, resource in events].count(None) == 2

    paired, _ = to_activity_instances(events)
    assert_labels_shared(paired.trace_ids, paired.activities, paired.resources)
    assert paired.resources.count(None) == 1


def test_equal_labels_are_one_object_across_chunks(monkeypatch):
    # at 2 records a chunk, every label recurs in a later chunk than its first
    monkeypatch.setattr(model, "_CHUNK", 2)
    test_equal_labels_are_one_object()


# Chunked decoding against a per-row oracle. The header has a trailing
# unmapped `note` column, so a row may be five or six cells long; a text whose
# rows all have six cells and few blank lines splits into plain chunks.
CELLS = {
    "trace": ("t1", " t1", "t2", "r1"),  # `r1` is also a resource label
    "activity": ("a", "b ", "t2"),
    "stamp": ("2021-03-01 08:00:00", "2021-03-01T09:30:00.250000+02:00",
              " 2021-03-01 10:00:00+00:00", "2021-03-01T12:00:00Z",
              "2021-03-01 12:00:00z"),  # `fromisoformat` rejects the last
    "lifecycle": ("start", "END", " complete", "Start "),
    "resource": ("r1", "r2", "", " ", "t1"),
}
FAULTS = ("empty", "bad stamp", "short", "long", "csv", "reversed")
# activities the csv module must read: a quoted one, one quoted across two
# lines, one with a doubled quote, and one holding a NUL, which Python 3.10's
# csv module refuses and 3.11's reads
LATE_ACTIVITIES = ('"a,b"', '"a\nb"', '" b ""x"""', "a\0b")


@st.composite
def chunked_csv(draw, events: bool):
    """A CSV text of valid rows and blank lines, with up to two faulty rows
    inserted anywhere and up to one row whose activity only the csv module
    reads inserted in the latter half. Lines end in LF or CRLF, and the last
    one may lack its ending."""
    second = "lifecycle" if events else "stamp"
    notes = draw(st.sampled_from((["n"], ["n"], [], None)))  # None: either, row by row

    def row():
        cells = [draw(st.sampled_from(CELLS[kind]))
                 for kind in ("trace", "activity", "stamp", second, "resource")]
        if not events:  # a start after its end is the "reversed" fault's
            cells[2:4] = sorted(cells[2:4], key=parse_timestamp)
        return cells + (notes if notes is not None else draw(st.sampled_from(([], ["n"]))))

    lines = [row() if draw(st.integers(0, 5)) else []
             for _ in range(draw(st.integers(0, 24)))]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        cells = row()
        if fault == "empty":
            cells[draw(st.integers(0, 3))] = draw(st.sampled_from(("", " ")))
        elif fault == "bad stamp":
            cells[2] = "soon"
        elif fault == "short":
            cells = cells[:draw(st.integers(1, 4))]
        elif fault == "long":
            cells += ["x"] * (7 - len(cells))
        elif fault == "csv":
            cells[1] = "a\rb"
        elif not events:  # reversed: a start after its end
            cells[2:4] = "2021-03-02 00:00:00", "2021-03-01 00:00:00"
        lines.insert(draw(st.integers(0, len(lines))), cells)
    for activity in draw(st.lists(st.sampled_from(LATE_ACTIVITIES), max_size=1)):
        cells = row()
        cells[1] = activity
        lines.insert(draw(st.integers(len(lines) // 2, len(lines))), cells)
    header = ("case_id,activity,timestamp,lifecycle,resource,note" if events
              else "case_id,activity,start_time,end_time,resource,note")
    ending = draw(st.sampled_from(("\n", "\r\n")))
    return (ending.join([header, *map(",".join, lines)])
            + draw(st.sampled_from((ending, ""))))


LONE_CR = re.compile("\r(?!\n)")


def per_row_oracle(text: str, events: bool):
    """The rows `(trace, activity, first, second, resource)` read one at a
    time with the per-row rules, or the first bad row's error text."""
    what = (("trace id", "activity", "timestamp", "lifecycle") if events
            else ("trace id", "activity", "start time", "end time"))
    records = csv.reader(io.StringIO(text))
    memo, rows, number = {}, [], 1
    try:
        next(records)
        for record in records:
            if not record:
                continue
            number += 1
            if len(record) > 6:
                raise LogFormatError(f"row {number}: malformed CSV row (extra fields)")
            if len(record) < 5:
                raise LogFormatError(f"row {number}: malformed CSV row (missing fields)")
            cells = [cell.strip() for cell in record[:5]]
            for name, cell in zip(what, cells):
                if not cell:
                    raise LogFormatError(f"row {number}: empty {name}")
            for i in ((2,) if events else (2, 3)):
                try:
                    cells[i] = parse_timestamp(cells[i])
                except LogFormatError:
                    raise LogFormatError(
                        f"row {number}: unparseable timestamp {cells[i]!r}") from None
            trace, activity, first, second, resource = cells
            if not events and first > second:
                raise LogFormatError(f"row {number}: instance start {first} after end "
                                     f"{second} (trace {trace}, activity {activity})")
            rows.append((memo.setdefault(trace, trace),
                         memo.setdefault(activity, activity), first, second,
                         memo.setdefault(resource, resource) if resource else None))
    except csv.Error as exc:
        return f"line {records.line_num}: {exc}"
    except LogFormatError as exc:
        return str(exc)
    return rows


def outcome(read):
    try:
        return read()
    except LogFormatError as exc:
        return str(exc)


def assert_one_object_per_label(rows):
    labels = [label for row in rows for label in (row[0], row[1], row[-1])
              if label is not None]
    assert len(set(map(id, labels))) == len(set(labels))


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from((3, 4)), st.booleans())
def test_chunked_reading_matches_the_per_row_oracle(data, chunk, events):
    """Event text through `parse_event_log`, instance text through
    `read_instance_log`."""
    text = data.draw(chunked_csv(events))
    # the oracle reads `io.StringIO(text)`, which ends a line at LF only; a
    # `newline=""` stream also ends one at a lone CR, as it would at an LF
    # there, and no quoted cell holds a lone CR
    for newline, oracle_text in (("\n", text), ("", LONE_CR.sub("\n", text))):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_CHUNK", chunk)
            source = io.StringIO(text, newline=newline)
            read = outcome(lambda: parse_event_log(source) if events
                           else list(zip(*_columns(read_instance_log(source)))))
        expected = per_row_oracle(oracle_text, events)
        if not isinstance(expected, str):
            if events:
                expected = [(trace, activity, second.lower(), first, resource)
                            for trace, activity, first, second, resource in expected]
            assert_one_object_per_label(read)
        assert repr(read) == repr(expected)


def test_quoted_label_after_plain_chunks(monkeypatch):
    # lines 2-5 split as two plain chunks of two lines; the quoted label on
    # lines 6-7 sends the rest through the csv module, whose fault on line 9
    # is named by the file's line, not the csv module's count of 4
    monkeypatch.setattr(model, "_CHUNK", 2)
    lines = ["case_id,activity,start_time,end_time,resource",
             *(f"t{n},a,2021-03-01 08:0{n}:00,2021-03-01 09:00:00,r{n}" for n in range(4)),
             't4,"two', 'lines",2021-03-01 08:10:00,2021-03-01 09:00:00,r4',
             "t5,b,2021-03-01 08:20:00,2021-03-01 09:00:00,"]
    text = "\r\n".join(lines) + "\r\n"
    for newline in ("\n", ""):
        log = read_instance_log(io.StringIO(text, newline=newline))
        assert log.trace_ids == ("t0", "t1", "t2", "t3", "t4", "t5")
        assert log.activities == ("a",) * 4 + ("two\r\nlines", "b")
        assert log.resources == ("r0", "r1", "r2", "r3", "r4", None)
    faulty = text + "t6,c\rd,2021-03-01 08:30:00,2021-03-01 09:00:00,r6\r\n"
    with pytest.raises(LogFormatError, match="^line 9: new-line character seen"):
        read_instance_log(io.StringIO(faulty))


def test_one_column_log_skips_blank_lines():
    # every field mapped to one column: a blank line is one empty cell when
    # split at commas, but the csv module skips it, so no chunk is plain
    mapping = model.ColumnMapping(trace_id="x", activity="x", start_time="x",
                                  end_time="x", resource=None)
    text = "x\n2021-03-01 08:00:00\n\n2021-03-01 09:00:00\n"
    log = read_instance_log(io.StringIO(text), mapping)
    assert log.trace_ids == ("2021-03-01 08:00:00", "2021-03-01 09:00:00")
    assert log.resources == (None, None)


def test_chunk_of_lines_that_cannot_be_split_goes_to_the_csv_module():
    # an empty line, or one that is no string, makes no plain chunk; the csv
    # module then reads the empty line as blank and refuses the bytes
    header = "case_id,activity,start_time,end_time,resource\n"
    row = "t1,a,2021-03-01 08:00:00,2021-03-01 09:00:00,r1\n"
    log = read_instance_log(iter([header, "", row]))
    assert log.trace_ids == ("t1",) and log.resources == ("r1",)
    with pytest.raises(LogFormatError, match=r"^line \d+: iterator should return strings"):
        read_instance_log(iter([header, row.encode()]))


def test_csv_fault_reports_after_a_bad_row_read_before_it():
    # the quoted first cell sends the file to the csv module, which reads rows
    # 2 and 3 and then refuses row 4's over-long activity: row 3's empty trace
    # id, read before that fault, is reported first
    lines = ["case_id,activity,start_time,end_time,resource",
             '"t1",a,2021-03-01 08:00:00,2021-03-01 09:00:00,r1',
             ",a,2021-03-01 08:00:00,2021-03-01 09:00:00,r1",
             "t3," + "a" * 200_000 + ",2021-03-01 08:00:00,2021-03-01 09:00:00,r1"]
    text = "\n".join(lines) + "\n"
    for newline in ("", None):
        with pytest.raises(LogFormatError, match="^row 3: empty trace id$"):
            read_instance_log(io.StringIO(text, newline=newline))
