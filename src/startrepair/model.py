"""Event and activity-instance data model, CSV ingestion, and start/end pairing."""
from __future__ import annotations

import csv
from collections import defaultdict, deque
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from operator import attrgetter, itemgetter, le
from typing import Iterable, Optional, Sequence

INSTANCE_HEADER = ("case_id", "activity", "start_time", "end_time", "resource")
_fields = attrgetter("trace_id", "activity", "start", "end", "resource")
_columns = attrgetter("trace_ids", "activities", "starts", "ends", "resources")


class LogFormatError(ValueError):
    """Raised for malformed input logs (bad CSV rows, unparseable timestamps)."""


class ConfigurationError(ValueError):
    """Raised for invalid configuration (bad column mapping, bad thresholds)."""


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp (``T`` or space separator, optional offset,
    trailing ``Z`` accepted). Offset-free values are assumed UTC.

    The cell is tried as given first; only when that fails is it stripped and
    a trailing ``Z``/``z`` rewritten to ``+00:00``, which gives the same value
    and offset on every input both forms accept."""
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        text = raw.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        try:
            ts = datetime.fromisoformat(text)
        except ValueError:
            raise LogFormatError(f"unparseable timestamp: {raw!r}") from None
    if ts.tzinfo is None:
        ts = datetime.combine(ts.date(), ts.time(), timezone.utc)
    return ts


def format_timestamp(ts: datetime) -> str:
    return ts.isoformat(sep=" ")


@dataclass(frozen=True, slots=True)
class Event:
    """One raw log row: a start or end occurrence of an activity."""

    trace_id: str
    activity: str
    lifecycle: str  # "start" or "end"; other phases are dropped during pairing
    timestamp: datetime
    resource: Optional[str] = None

    def __post_init__(self):
        if not self.trace_id:
            raise LogFormatError("event with empty trace id")
        if not self.activity:
            raise LogFormatError("event with empty activity label")


@dataclass(frozen=True, slots=True)
class ActivityInstance:
    """One paired execution record: (trace, activity, start, end, resource)."""

    trace_id: str
    activity: str
    start: datetime
    end: datetime
    resource: Optional[str] = None

    def __post_init__(self):
        if not self.trace_id:
            raise LogFormatError("instance with empty trace id")
        if not self.activity:
            raise LogFormatError("instance with empty activity label")
        if self.start > self.end:
            raise LogFormatError(
                f"instance start {self.start} after end {self.end} "
                f"(trace {self.trace_id}, activity {self.activity})"
            )


def _by_end(keys: Sequence, ends: Sequence[datetime]) -> dict[object, list[int]]:
    """Row positions grouped by their value in `keys`, each group sorted by
    `ends`. The sort is stable, so equal ends keep log order."""
    groups = defaultdict(list)
    for row, key in enumerate(keys):
        groups[key].append(row)
    return {key: sorted(rows, key=ends.__getitem__) for key, rows in groups.items()}


class ActivityInstanceLog:
    """Ordered collection of activity instances, immutable after construction.

    It stores five parallel columns, `trace_ids`, `activities`, `starts`,
    `ends` and `resources`, however it was built. `instances`, a tuple of
    `ActivityInstance`, is a view built on first use and cached, so a log read
    from CSV and only repaired, written or evaluated never builds an instance.
    On first use the rows are also grouped by resource and by trace, as row
    positions sorted by end (`_by_end`); `per_resource_index` and
    `per_trace_index` are views of those groups, built on first use too.
    """

    def __init__(self, instances: Iterable[ActivityInstance]):
        (self.trace_ids, self.activities, self.starts, self.ends,
         self.resources) = tuple(zip(*map(_fields, instances))) or ((),) * 5

    @classmethod
    def from_columns(cls, trace_ids: Iterable[str], activities: Iterable[str],
                     starts: Iterable[datetime], ends: Iterable[datetime],
                     resources: Iterable[Optional[str]]) -> "ActivityInstanceLog":
        """A log from its columns, each holding one value per instance; a
        tuple given as a column is shared, not copied. A row that breaks an
        `ActivityInstance` rule raises that instance's error."""
        columns = tuple(map(tuple, (trace_ids, activities, starts, ends, resources)))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"columns differ in length: {list(map(len, columns))}")
        log = cls.__new__(cls)
        log.trace_ids, log.activities, log.starts, log.ends, log.resources = columns
        if not (all(log.trace_ids) and all(log.activities)
                and all(map(le, log.starts, log.ends))):
            for row in zip(*columns):
                ActivityInstance(*row)  # the first bad row raises
        return log

    @cached_property
    def instances(self) -> tuple[ActivityInstance, ...]:
        return tuple(map(ActivityInstance, *_columns(self)))

    @cached_property
    def _resource_groups(self) -> dict[Optional[str], list[int]]:
        return _by_end(self.resources, self.ends)

    @cached_property
    def _trace_groups(self) -> dict[str, list[int]]:
        return _by_end(self.trace_ids, self.ends)

    def _instances_of(self, groups: dict) -> dict:
        instance = self.instances.__getitem__
        return {key: tuple(map(instance, rows)) for key, rows in groups.items()}

    @cached_property
    def per_resource_index(self) -> dict[Optional[str], tuple[ActivityInstance, ...]]:
        return self._instances_of(self._resource_groups)

    @cached_property
    def per_trace_index(self) -> dict[str, tuple[ActivityInstance, ...]]:
        return self._instances_of(self._trace_groups)

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self):
        return iter(self.instances)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActivityInstanceLog):
            return NotImplemented
        # equal instances are equal in every field, so equal rows are equal columns
        return _columns(self) == _columns(other)


@dataclass(frozen=True)
class ColumnMapping:
    """Names of the CSV columns carrying each field.

    Instance-per-row inputs set `start_time` and `end_time`; event-per-row
    inputs set `timestamp` and `lifecycle` instead.
    """

    trace_id: str = "case_id"
    activity: str = "activity"
    start_time: Optional[str] = "start_time"
    end_time: Optional[str] = "end_time"
    timestamp: Optional[str] = None
    lifecycle: Optional[str] = None
    resource: Optional[str] = "resource"

    def __post_init__(self):
        if not (self.start_time and self.end_time) and not self.is_event_per_row:
            raise ConfigurationError(
                "mapping needs either start_time+end_time or timestamp+lifecycle columns"
            )

    @property
    def is_event_per_row(self) -> bool:
        return bool(self.timestamp and self.lifecycle)


EVENT_COLUMNS = ColumnMapping(
    start_time=None, end_time=None, timestamp="timestamp", lifecycle="lifecycle"
)
INSTANCE_COLUMNS = ColumnMapping()


@dataclass
class PairingSummary:
    """Anomaly counts from start/end pairing."""

    matched_pairs: int = 0
    orphan_ends: int = 0
    dropped_starts: int = 0
    dropped_other_lifecycle: int = 0


def _csv_records(source):
    """The csv module's records of the text stream `source`. A fault it
    raises, such as a field over its size limit or a binary stream's bytes,
    becomes a LogFormatError naming the line; the stream is left open."""
    records = csv.reader(source)
    try:
        yield from records
    except csv.Error as exc:
        raise LogFormatError(f"line {records.line_num}: {exc}") from None


def _rows(source, mapping: ColumnMapping):
    """Decode the CSV rows of `source` under `mapping`.

    Yields `(row_number, trace, activity, first, second, resource)` per data
    row, where `first` and `second` are the start and end cells, or the
    timestamp and lifecycle cells of an event-per-row mapping. Cells are
    stripped, and only `resource` may be None. Blank lines are skipped and not
    counted; the header is row 1. A repeated header name resolves to its last
    occurrence. A row may lack unmapped trailing cells but no mapped one, and
    may not be longer than the header. Equal trace ids, activities and
    resources are one string object, shared through a memo that lives for
    this read only, so a log keeps one string per distinct label.
    """
    rows = _csv_records(source)
    header = next(rows, None)
    if header is None:
        raise LogFormatError("input has no header row")
    if mapping.is_event_per_row:
        first, second = mapping.timestamp, mapping.lifecycle
        what = ("trace id", "activity", "timestamp", "lifecycle")
    else:
        first, second = mapping.start_time, mapping.end_time
        what = ("trace id", "activity", "start time", "end time")
    required = [mapping.trace_id, mapping.activity, first, second]
    missing = [c for c in required if c not in header]
    if missing:
        raise ConfigurationError(f"mapped columns missing from header: {missing}")
    position = {name: i for i, name in enumerate(header)}
    columns = [position[c] for c in required]
    pick = itemgetter(*columns)
    resource = position.get(mapping.resource)
    width, reach = len(header), max(columns + [resource or 0])
    share = {}.setdefault
    row_number = 1
    for row in rows:
        if not row:
            continue
        row_number += 1
        if len(row) > width:
            raise LogFormatError(f"row {row_number}: malformed CSV row (extra fields)")
        if len(row) <= reach:
            raise LogFormatError(f"row {row_number}: malformed CSV row (missing fields)")
        cells = tuple(map(str.strip, pick(row)))
        if not all(cells):
            raise LogFormatError(f"row {row_number}: empty {what[cells.index('')]}")
        trace, activity, first_cell, second_cell = cells
        label = None if resource is None else row[resource].strip() or None
        yield (row_number, share(trace, trace), share(activity, activity),
               first_cell, second_cell, label and share(label, label))


def _row_timestamp(raw: str, row_number: int) -> datetime:
    try:
        return parse_timestamp(raw)
    except LogFormatError:
        raise LogFormatError(
            f"row {row_number}: unparseable timestamp {raw!r}"
        ) from None


def _event_rows(source, mapping: ColumnMapping):
    """The start and end occurrences in the CSV rows of `source` under
    `mapping`, as `(trace, activity, lifecycle, timestamp, resource)` tuples:
    one per event row, with its lifecycle lower-cased, or a start and an end
    per instance row."""
    rows = _rows(source, mapping)
    if mapping.is_event_per_row:
        return ((trace, activity, lifecycle.lower(), _row_timestamp(raw, n), resource)
                for n, trace, activity, raw, lifecycle, resource in rows)
    return ((trace, activity, phase, _row_timestamp(raw, n), resource)
            for n, trace, activity, raw_start, raw_end, resource in rows
            for phase, raw in (("start", raw_start), ("end", raw_end)))


def parse_event_log(source, mapping: ColumnMapping = EVENT_COLUMNS) -> list[Event]:
    """Read a CSV event log into Events, one per start/end occurrence.

    Instance-per-row inputs yield two Events per data row. Row numbers in
    error messages count the header as row 1.
    """
    return [Event(*row) for row in _event_rows(source, mapping)]


def _pair(rows: Iterable[tuple]) -> tuple[ActivityInstanceLog, PairingSummary]:
    """Pair `(trace, activity, lifecycle, timestamp, resource)` occurrences
    into activity instances, as `to_activity_instances` describes. A key
    holds a queue only while it has an open start: the end that takes its
    last start deletes it, so closed keys cost no memory."""
    ordered = sorted(rows, key=itemgetter(3))
    open_starts: dict[tuple, deque[datetime]] = defaultdict(deque)
    columns = trace_ids, activities, starts, ends, resources = [], [], [], [], []
    opened = 0
    for trace, activity, lifecycle, stamp, resource in ordered:
        if lifecycle == "start":
            open_starts[trace, activity, resource].append(stamp)
            opened += 1
        elif lifecycle == "end":
            key = trace, activity, resource
            waiting = open_starts.get(key)
            starts.append(waiting.popleft() if waiting else stamp)
            if waiting is not None and not waiting:
                del open_starts[key]
            trace_ids.append(trace)
            activities.append(activity)
            ends.append(stamp)
            resources.append(resource)
    # a start is matched or left open; an end takes a start or is an orphan
    dropped = sum(map(len, open_starts.values()))
    matched = opened - dropped
    summary = PairingSummary(matched, len(ends) - matched, dropped,
                             len(ordered) - opened - len(ends))
    return ActivityInstanceLog.from_columns(*columns), summary


def to_activity_instances(
    events: Sequence[Event],
) -> tuple[ActivityInstanceLog, PairingSummary]:
    """Pair start and end events into activity instances.

    Matching is FIFO per (trace, activity, resource) key over events sorted by
    timestamp (stable, so input order breaks ties). Unmatched end events become
    zero-duration instances; unmatched start events and non-start/end lifecycle
    phases are dropped and counted in the summary.
    """
    return _pair(map(attrgetter("trace_id", "activity", "lifecycle", "timestamp",
                                "resource"), events))


def read_instance_log(source, mapping: ColumnMapping = INSTANCE_COLUMNS) -> ActivityInstanceLog:
    """Read an instance-per-row CSV directly, preserving row order.

    Unlike `parse_event_log` + `to_activity_instances`, this never re-pairs
    rows, so write -> read round trips are exact even when same-key instances
    overlap in time.
    """
    if mapping.is_event_per_row:
        raise ConfigurationError("read_instance_log needs an instance-per-row mapping")
    columns = trace_ids, activities, starts, ends, resources = [], [], [], [], []
    rows = _rows(source, mapping)
    for row_number, trace, activity, raw_start, raw_end, resource in rows:
        start = _row_timestamp(raw_start, row_number)
        end = _row_timestamp(raw_end, row_number)
        if start > end:  # checked per row, so that the first bad row's error wins
            try:
                ActivityInstance(trace, activity, start, end, resource)
            except LogFormatError as exc:
                raise LogFormatError(f"row {row_number}: {exc}") from None
        trace_ids.append(trace)
        activities.append(activity)
        starts.append(start)
        ends.append(end)
        resources.append(resource)
    return ActivityInstanceLog.from_columns(*columns)


def write_activity_instance_log(log: ActivityInstanceLog, sink) -> None:
    """Write the log as CSV with header `case_id,activity,start_time,end_time,resource`
    and ISO-8601 timestamps with explicit offset to the text stream `sink`,
    opened with `newline=""`, then flush it; the stream is left open."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(INSTANCE_HEADER)
    # A start that is another instance's end object, as most repaired starts
    # are, reuses that end's text. The memo is keyed by identity, never by
    # value: equal instants with different offsets compare equal but print
    # differently. The log keeps every stamp alive, so no id is reused here.
    end_texts = list(map(format_timestamp, log.ends))
    memo = dict(zip(map(id, log.ends), end_texts))
    start_texts = (memo.get(id(start)) or format_timestamp(start) for start in log.starts)
    # the csv module writes a None resource as an empty cell
    writer.writerows(zip(log.trace_ids, log.activities, start_texts, end_texts,
                         log.resources))
    sink.flush()
