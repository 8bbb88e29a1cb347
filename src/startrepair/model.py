"""Activity-instance data model, CSV ingestion, start/end pairing, and the
checker of JSON settings."""
from __future__ import annotations

import csv
import json
import re
import sys
from collections import defaultdict, deque, namedtuple
from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter, itemgetter, le
from types import SimpleNamespace
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
    trailing ``Z`` accepted) as `_stamps` parses a column: offset-free is UTC."""
    return _stamps([raw])[0]


def format_timestamp(ts: datetime) -> str:
    """The text a writer gives `ts`: ISO 8601 with a space separator and the
    stamp's own offset. This is the one formatting rule; the writer's bulk
    path, `_stamp_texts`, gives exactly its text."""
    return ts.isoformat(sep=" ")


# the kind of a setting: its description, which names its type and its bound;
# the test of its type; the conversion of a value of that type; and the test
# of its bound, on the converted value. A value's one step, `_setting`, runs
# the three in turn for a file's key in `checked_settings` and for a config
# field in `check_fields` alike, so a field is stored as a file's value is
# read. A number is an int or a float, never a bool, and is read from its
# digits: 2 as 2.0, 10**400 as inf
Kind = namedtuple("Kind", "description valid convert within",
                  defaults=(lambda v: v, lambda v: True))
TEXT = Kind("a string", lambda v: isinstance(v, str))
NUMBER = Kind("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
              lambda v: float(str(v)))
SWITCH = Kind("true or false", lambda v: isinstance(v, bool))
# a string is a comma-separated list, as its flag gives it
LABELS = Kind("a string or a list of strings", lambda v: TEXT.valid(v) or (
    isinstance(v, (list, tuple)) and all(map(TEXT.valid, v))),
    lambda v: v.split(",") if isinstance(v, str) else v)
INTEGER = Kind("an integer", lambda v: NUMBER.valid(v) and isinstance(v, int))
SHARE = NUMBER._replace(description="a number in [0, 1]", within=lambda v: 0 <= v <= 1)
TIMESTAMP = Kind("an ISO 8601 timestamp", TEXT.valid, parse_timestamp)
_DEEPEST = 100  # the deepest refused value a message quotes


def checked_settings(data, kinds: dict, subject: str) -> dict:
    """The settings of the JSON object `data`, each checked, converted and
    bounded by `_setting` as its `Kind` in `kinds` says; a null value counts
    as not given. A fault is a ConfigurationError that begins `bad {subject}: `,
    and a refused value reads `'<key>' must be <description>, got <JSON>`."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"bad {subject}: expected a JSON object")
    unknown = sorted(set(data) - set(kinds))
    if unknown:
        raise ConfigurationError(f"bad {subject}: unknown keys {unknown}")
    return {key: _setting(kinds[key], value, f"bad {subject}: {key!r}", as_json=True)
            for key, value in data.items() if value is not None}


def check_fields(values: dict, kinds: dict) -> None:
    """Check and convert in place, by `_setting`, each value of `values` that
    `kinds` names, in the order of `kinds`: the one check of a config
    object's fields, given its `vars`, so that each field is stored as
    converted. The first value refused raises the ConfigurationError
    `<name> must be <description>, got <repr>`, worded as `checked_settings`
    words a file's fault."""
    for name, kind in kinds.items():
        values[name] = _setting(kind, values[name], name, as_json=False)


def _setting(kind: Kind, value, name: str, as_json: bool):
    """`value` converted by `kind`, when it is of the kind's type, its
    conversion succeeds and the converted value is within the kind's bound;
    else the ConfigurationError `<name> must be <description>, got <value>`,
    quoted by `_quoted`. A conversion fails by raising a ValueError, such as
    an unparseable timestamp's or an over-long integer's, or a TypeError."""
    with suppress(ValueError, TypeError):
        if kind.valid(value) and kind.within(converted := kind.convert(value)):
            return converted
    raise ConfigurationError(
        f"{name} must be {kind.description}, got {_quoted(value, as_json)}")


def _quoted(value, as_json: bool = True) -> str:
    """`value` as JSON text when parsed JSON can give it and `as_json` is set,
    else as its repr: a tuple is no JSON array, and an object has no JSON text.
    It is walked a level at a time, and one nested over `_DEEPEST` deep is
    named by that, since both texts recurse. One that holds an integer too
    long for `str` is named by that, since neither text has its digits."""
    level = [value]
    for _ in range(_DEEPEST):
        as_json = as_json and all(map(_from_json, level))
        level = list(chain.from_iterable(
            chain(item, item.values()) if isinstance(item, dict) else item
            for item in level if isinstance(item, (dict, list, tuple, set, frozenset))))
        if not level:
            try:
                return json.dumps(value) if as_json else repr(value)
            except ValueError:  # Python's limit on an integer's digits
                return (f"{'an integer' if isinstance(value, int) else 'a value with an integer'}"
                        f" of over {sys.get_int_max_str_digits()} digits")
    return f"a value nested more than {_DEEPEST} deep"


def _from_json(item) -> bool:  # a value parsed JSON can give, its items aside
    return (item is None or type(item) in (list, str, int, float, bool)
            or type(item) is dict and all(type(key) is str for key in item))


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


class ActivityInstanceLog:
    """Ordered collection of activity instances, immutable after construction.

    It stores five parallel columns, `trace_ids`, `activities`, `starts`,
    `ends` and `resources`, however it was built. `instances`, a tuple of
    `ActivityInstance`, is a view built on first use and cached, so a log read
    from CSV and only repaired, written or evaluated never builds an instance.
    `per_trace_index`, built on first use too, maps each trace to its
    instances sorted by end, with equal ends in log order. The log caches no
    other grouping.
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
    def per_trace_index(self) -> dict[str, tuple[ActivityInstance, ...]]:
        # the benchmark's set-up reads it, to count traces
        groups = defaultdict(list)
        for row, key in enumerate(self.trace_ids):
            groups[key].append(row)
        instance, end = self.instances.__getitem__, self.ends.__getitem__
        return {key: tuple(map(instance, sorted(rows, key=end)))
                for key, rows in groups.items()}

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
    inputs set `timestamp` and `lifecycle` instead. A mapping that sets a
    column of each shape is a ConfigurationError, so no column it names is
    silently ignored.
    """

    trace_id: str = "case_id"
    activity: str = "activity"
    start_time: Optional[str] = "start_time"
    end_time: Optional[str] = "end_time"
    timestamp: Optional[str] = None
    lifecycle: Optional[str] = None
    resource: Optional[str] = "resource"

    def __post_init__(self):
        if (self.timestamp or self.lifecycle) and (self.start_time or self.end_time):
            raise ConfigurationError(
                "mapping names columns of two input shapes: set start_time+end_time "
                "or timestamp+lifecycle, not both"
            )
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


_CHUNK = 512  # lines or records per bulk step, which bounds a read's transient memory
_UTC = {None: timezone.utc}.get  # a stamp's zone, with UTC for none
_last = itemgetter(-1)


def _stamp(raw: str) -> datetime:
    """The cell rule: `raw` stripped, a trailing ``Z``/``z`` as ``+00:00``, by
    `fromisoformat`, else LogFormatError. An offset-free value stays naive."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise LogFormatError(f"unparseable timestamp {raw!r}") from None


def _stamps(cells: Sequence[str]) -> list[datetime]:
    """The one timestamp parser, over a column of cells: by `fromisoformat` in
    bulk, or, when it rejects a cell, by the cell rule `_stamp`, which raises
    LogFormatError for an unparseable one. Either way a naive stamp then gets
    UTC by one `datetime.combine` rule and an aware one keeps its zone, so an
    offset-free column stays on the bulk path."""
    try:
        stamps = list(map(datetime.fromisoformat, cells))
    except ValueError:
        stamps = list(map(_stamp, cells))
    zones = list(map(attrgetter("tzinfo"), stamps))
    if None in zones:
        stamps = list(map(datetime.combine, map(datetime.date, stamps),
                          map(datetime.time, stamps), map(_UTC, zones, zones)))
    return stamps


# a clock's "HH:MM:" by (hour, minute), and its "SS" by second
_CLOCK_MINUTES = {(m // 60, m % 60): f"{m // 60:02}:{m % 60:02}:" for m in range(1440)}
_CLOCK_SECONDS = tuple(f"{s:02}" for s in range(60))
_QUOTED = re.compile('[,"\r\n]')  # a label holding one goes through the csv module


def _stamp_texts(stamps: Sequence[datetime]) -> list[str]:
    """`format_timestamp` over a column of stamps, in bulk.

    When every stamp's zone is a `datetime.timezone`, each text is put
    together from the stamp's own local fields. The `"YYYY-MM-DD "` part
    comes from one `format_timestamp` call per distinct local day, each
    zone's offset from one more, the clock from the tables `_CLOCK_MINUTES`
    and `_CLOCK_SECONDS`, and a fraction `.ffffff` is added where the stamp
    has microseconds, as `isoformat` adds it. A fixed zone prints one offset
    for every stamp, so each text equals `format_timestamp`'s. A column with
    any other zone, or with naive stamps, is formatted stamp by stamp."""
    zones = list(map(attrgetter("tzinfo"), stamps))
    if set(map(type, zones)) != {timezone}:  # checked first: some zones can't be hashed
        return list(map(format_timestamp, stamps))
    days = list(map(datetime.toordinal, stamps))
    dates = {day: format_timestamp(stamp)[:11]
             for day, stamp in dict(zip(days, stamps)).items()}
    offsets = {zone: format_timestamp(datetime.min.replace(tzinfo=zone))[19:]
               for zone in set(zones)}
    seconds = map(attrgetter("second"), stamps)
    texts = [map(dates.__getitem__, days),
             map(_CLOCK_MINUTES.__getitem__, map(attrgetter("hour", "minute"), stamps))]
    if len(offsets) == 1 and not any(map(attrgetter("microsecond"), stamps)):
        # the common column: one zone and whole seconds, so the offset rides
        # on the second's text
        offset, = offsets.values()
        texts.append(map([text + offset for text in _CLOCK_SECONDS].__getitem__, seconds))
    else:
        micros = list(map(attrgetter("microsecond"), stamps))
        fractions = {micro: f".{micro:06}" if micro else "" for micro in set(micros)}
        texts += [map(_CLOCK_SECONDS.__getitem__, seconds), map(fractions.__getitem__, micros),
                  map(offsets.__getitem__, zones)]
    return list(map("".join, zip(*texts)))


def _plain_cells(lines: list, width: int) -> Optional[list]:
    """The cells of the chunk `lines`, row after row, when it is plain; else
    None. A plain chunk's lines are strings, each ending in `\\n` or `\\r\\n`
    and holding no other CR or LF, no `"` and no NUL, none longer than the
    csv module's field limit, and each with exactly `width` fields, at least
    two, so none is blank. The csv module reads such a line as its text split
    at commas, so these cells are its records' cells, except that each row's
    last cell keeps the line ending, which stripping a cell drops. This is the
    reader's mirror of `_write_table`'s plain slices."""
    if width < 2:
        return None
    try:
        text = ",".join(lines)
        endings = "".join(map(_last, lines))
    except (TypeError, IndexError):  # a line that is not a string, or is empty
        return None
    limit = csv.field_size_limit()
    if ('"' in text or "\0" in text or endings != "\n" * len(lines)
            or text.count("\n") != len(lines)
            or ("\r" in text and text.count("\r") != text.count("\r\n"))
            or (len(text) > limit and max(map(len, lines)) > limit)):
        return None
    # each line now holds one LF, at its end, and no cell spans two lines, so
    # the cells at `width - 1::width` hold every LF only when each line has
    # `width` cells
    cells = text.split(",")
    if (len(cells) != width * len(lines)
            or "".join(cells[width - 1::width]).count("\n") != len(lines)):
        return None
    return cells


def _decoded(source, mapping: ColumnMapping):
    """Decode the CSV rows of `source` under `mapping`, one chunk at a time.

    Yields per chunk the columns `(traces, activities, firsts, seconds,
    resources)` of its data rows. `firsts` and `seconds` are the start and end
    stamps of instance rows, where a start after its end is an error, or the
    stamps and lower-cased lifecycles of event rows. Cells are stripped, and
    only a resource may be None. Blank lines are skipped and not counted; the
    header is row 1. A repeated header name resolves to its last occurrence. A
    row may lack unmapped trailing cells but no mapped one, and may not be
    longer than the header. Equal trace ids, activities, lifecycles and
    resources are one string object, shared through a memo that lives for
    this read only, so a log keeps one string per distinct label.

    The csv module reads the header. After it, `source` is read in chunks of
    `_CHUNK` lines, by iterating it as the csv module does, so that a
    stream's own `newline` setting decides the lines. A plain chunk
    (`_plain_cells`) is split at its commas, and its mapped columns are taken
    as slices of its cells. The first chunk that is not plain, and the rest of
    the input with it, goes through the csv module in chunks of `_CHUNK`
    records, since a quoted field may span lines. A fault it raises, such as
    a field over its size limit or a binary stream's bytes, is raised as
    `line N: ...`, counting the lines split before it, after the records
    read before it, so that a bad row among those still reports first.

    One loop decodes every chunk, in either form, by one decoder, `convert`,
    which holds every cell rule. It checks and converts a chunk a column at a
    time, by C-level calls, so no row of valid input runs code of its own,
    and raises the first failing check's message: extra fields, then missing
    ones (both checked by `picked` on csv records, the only ones that can
    have them), then the first empty mapped cell in column order, then the
    stamps, start column first, then a start after its end. When a chunk
    fails, its rows, cut from a plain chunk's cells only then, are decoded
    again one at a time, in row order, and the first bad row raises its
    message with its row number; only bad input pays for that walk. At most
    two chunks are alive at once, the one decoded and the one read next.
    """
    lines = iter(source)
    records = csv.reader(lines)
    try:
        header = next(records)
    except StopIteration:
        raise LogFormatError("input has no header row") from None
    except csv.Error as exc:
        raise LogFormatError(f"line {records.line_num}: {exc}") from None
    if mapping.is_event_per_row:
        first, second = mapping.timestamp, mapping.lifecycle
        what = ("trace id", "activity", "timestamp", "lifecycle")
    else:
        first, second = mapping.start_time, mapping.end_time
        what = ("trace id", "activity", "start time", "end time")
    required = [mapping.trace_id, mapping.activity, first, second]
    missing = [c for c in required if c not in header]
    if mapping.resource not in (None, ColumnMapping.resource, *header):  # the default is optional
        missing.append(mapping.resource)
    if missing:
        raise ConfigurationError(f"mapped columns missing from header: {missing}")
    position = {name: i for i, name in enumerate(header)}
    columns = [position[c] for c in required]
    resource = position.get(mapping.resource)
    if resource is not None:
        columns.append(resource)
    pick = itemgetter(*columns)
    width, reach = len(header), max(columns)
    stamped = (2,) if mapping.is_event_per_row else (2, 3)
    share = {"": None}.setdefault  # an empty resource cell is None

    def picked(rows):
        """The mapped columns of csv records, each long enough to hold them."""
        widths = set(map(len, rows))
        if max(widths) > width:
            raise LogFormatError("malformed CSV row (extra fields)")
        if min(widths) <= reach:
            raise LogFormatError("malformed CSV row (missing fields)")
        return zip(*map(pick, rows))

    def convert(mapped):
        cells = [tuple(map(str.strip, column)) for column in mapped]
        for name, column in zip(what, cells):
            if not all(column):
                raise LogFormatError(f"empty {name}")
        stamps = [_stamps(cells[i]) for i in stamped]
        if len(stamps) == 1:  # an event row's lifecycle is shared as a label is
            lifecycles = list(map(str.lower, cells[3]))
            stamps.append(list(map(share, lifecycles, lifecycles)))
        elif not all(map(le, *stamps)):
            list(map(ActivityInstance, cells[0], cells[1], *stamps))  # the first bad row raises
        traces, activities = (list(map(share, column, column)) for column in cells[:2])
        resources = (list(map(share, cells[4], cells[4])) if resource is not None
                     else [None] * len(traces))
        return traces, activities, *stamps, resources

    def first_bad(rows):
        """Raise the error of the first row of `rows` that fails alone."""
        for number, row in enumerate(rows, row_number):
            try:
                convert(picked([row]))
            except LogFormatError as exc:
                raise LogFormatError(f"row {number}: {exc}") from None

    def chunks():
        """Each chunk: `(cells, None)` if plain, else `(None, records)`, blanks dropped."""
        lines_read = records.line_num  # before the chunk
        chunk = list(islice(lines, _CHUNK))
        while chunk and (cells := _plain_cells(chunk, width)) is not None:
            yield cells, None
            lines_read += len(chunk)
            chunk = list(islice(lines, _CHUNK))
        rest = csv.reader(chain(chunk, lines))
        while chunk:
            chunk, fault = [], None
            try:
                chunk.extend(islice(rest, _CHUNK))  # keeps what it read before a fault
            except csv.Error as exc:
                fault = LogFormatError(f"line {lines_read + rest.line_num}: {exc}")
            if rows := list(filter(None, chunk)):  # a blank line is an empty record
                yield None, rows
            if fault is not None:
                raise fault

    row_number = 2  # of the chunk's first data row
    for cells, rows in chunks():
        try:
            decoded = convert([cells[i::width] for i in columns] if rows is None
                              else picked(rows))
        except LogFormatError:
            first_bad(rows or [cells[at:at + width] for at in range(0, len(cells), width)])
            raise
        row_number += len(decoded[0])
        yield decoded


def parse_event_log(source, mapping: ColumnMapping = EVENT_COLUMNS) -> list[tuple]:
    """The events in the event-per-row CSV `source` under `mapping`, as
    `(trace, activity, lifecycle, timestamp, resource)` tuples, one per row,
    its lifecycle lower-cased. Row numbers in error messages count the header
    as row 1. An instance-per-row mapping is a ConfigurationError.

    Rows are decoded in chunks of a few hundred, a column at a time; only a
    chunk holding a bad row is decoded again one row at a time, to name the
    first one.
    """
    if not mapping.is_event_per_row:
        raise ConfigurationError("parse_event_log needs an event-per-row mapping")
    return list(chain.from_iterable(
        zip(traces, activities, lifecycles, stamps, resources)
        for traces, activities, stamps, lifecycles, resources in _decoded(source, mapping)))


def to_activity_instances(rows: Iterable[tuple]) -> tuple[ActivityInstanceLog, PairingSummary]:
    """Pair `(trace, activity, lifecycle, timestamp, resource)` occurrences,
    as `parse_event_log` gives them, into activity instances.

    Matching is FIFO per (trace, activity, resource) key over occurrences
    sorted by timestamp (stable, so input order breaks ties). Unmatched ends
    become zero-duration instances; unmatched starts and non-start/end
    lifecycle phases are dropped and counted in the summary. A key holds a
    queue only while it has an open start: the end that takes its last start
    deletes it, so closed keys cost no memory.
    """
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


def read_instance_log(source, mapping: ColumnMapping = INSTANCE_COLUMNS) -> ActivityInstanceLog:
    """Read an instance-per-row CSV, preserving row order; a start after its
    end is an error. An event-per-row mapping is a ConfigurationError.

    Every cell is stripped of surrounding spaces, so a write -> read round
    trip is exact only for labels without them: a trace id written as ` t1`
    is read back as `t1`.

    Rows are decoded in chunks of a few hundred, each checked and converted a
    column at a time, so the read's transient memory is one chunk's records
    and cells, however long the log. Only a chunk that fails a check is
    decoded again one row at a time, so that the first bad row's error, with
    its row number, wins.
    """
    if mapping.is_event_per_row:
        raise ConfigurationError("read_instance_log needs an instance-per-row mapping")
    columns = [[], [], [], [], []]
    for chunk in _decoded(source, mapping):
        for column, part in zip(columns, chunk):
            column.extend(part)
    for i in range(len(columns)):  # free each list as its tuple is made
        columns[i] = tuple(columns[i])
    return ActivityInstanceLog.from_columns(*columns)


def _or_empty(labels: Sequence) -> list:
    """A slice of labels, each None given as an empty cell."""
    return list(map({None: ""}.get, labels, labels))


def _write_table(sink, header: Optional[Sequence[str]], columns: Sequence[Sequence],
                 formats: Sequence) -> None:
    """Write `header`, unless it is None, and the rows of `columns` as CSV to
    the text stream `sink`, then flush it: the one writer of every CSV the
    package writes. `formats` gives each column a function from a slice of
    its values to their texts, or None to write them as they are. Each slice
    of `_CHUNK` rows is formatted only when reached, so a write holds one
    slice's texts. A slice whose labels, every column but a `_stamp_texts`
    one, are strings free of `,`, `"`, CR and LF is written as joined rows.
    Any other goes through the csv module, which writes a non-string as its
    `str()`, under the terminator CRLF so that it quotes a lone CR; each
    row's CRLF is written as LF."""
    writer = csv.writer(SimpleNamespace(write=lambda row: sink.write(row[:-2] + "\n")),
                        lineterminator="\r\n")
    if header is not None:
        writer.writerow(header)
    labels = [i for i, format in enumerate(formats) if format is not _stamp_texts]
    for at in range(0, len(columns[0]), _CHUNK):
        texts = [column[at:at + _CHUNK] if format is None else format(column[at:at + _CHUNK])
                 for column, format in zip(columns, formats)]
        try:
            plain = not _QUOTED.search("".join(chain.from_iterable(texts[i] for i in labels)))
        except TypeError:
            plain = False
        if plain:
            sink.write("\n".join(map(",".join, zip(*texts))) + "\n")
        else:
            writer.writerows(zip(*texts))
    sink.flush()


def write_activity_instance_log(log: ActivityInstanceLog, sink) -> None:
    """Write the log as CSV with header `case_id,activity,start_time,end_time,resource`
    to the text stream `sink`, opened with `newline=""`, through `_write_table`:
    each stamp as `format_timestamp` gives it, and a None resource as an empty cell."""
    _write_table(sink, INSTANCE_HEADER, _columns(log),
                 (None, None, _stamp_texts, _stamp_texts, _or_empty))
