"""Concurrency relation discovery from directly-follows and interval-overlap counts."""
from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice
from operator import eq, itemgetter, lt
from typing import Iterable

from .model import SHARE, ActivityInstanceLog, LogFormatError, _write_table, check_fields

log = logging.getLogger(__name__)
_trace, _label, _trace_end = itemgetter(0), itemgetter(3), itemgetter(0, 2)


@dataclass(frozen=True)
class OracleThresholds:
    """Thresholds of the directly-follows concurrency oracle.

    `df_threshold` filters noise: a direction observed fewer than
    df_threshold * max(count(a,b), count(b,a)) times counts as unobserved.
    `balance_threshold` bounds the imbalance |ab - ba| / (ab + ba) below which
    a bidirectional pair is declared concurrent. Each is checked and
    converted by its kind, `SHARE`, a number in [0, 1] stored as a float,
    the kind of its config-file key too.
    """

    df_threshold: float = 0.05
    balance_threshold: float = 0.75

    def __post_init__(self):
        check_fields(vars(self), {"df_threshold": SHARE, "balance_threshold": SHARE})


class ConcurrencyRelation:
    """Symmetric, irreflexive set of activity-label pairs declared concurrent."""

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()):
        cleaned = set()
        for a, b in pairs:
            if a == b:
                continue
            cleaned.add((a, b) if a <= b else (b, a))
        self.pairs: frozenset[tuple[str, str]] = frozenset(cleaned)

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConcurrencyRelation):
            return NotImplemented
        return self.pairs == other.pairs

    def concurrent(self, a: str, b: str) -> bool:
        return ((a, b) if a <= b else (b, a)) in self.pairs

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)


def count_directly_follows(log_: ActivityInstanceLog) -> Counter:
    """Count ordered adjacency within traces (sorted by start, ties by end then
    label) plus interval overlaps, which add evidence in both directions.

    One sort orders the rows `(trace, start, end, label)`, and adjacent rows
    of one trace are counted in bulk. The overlap scan is entered only at a
    row whose next row starts before it ends, and goes forward only while the
    next one does, so a trace of k instances costs O(k log k + overlapping
    pairs) rather than O(k^2). A later row is below a row's `(trace, end)`
    pair exactly when it is of the same trace and starts before that end; one
    that starts at that end is above it, being the longer tuple. So the scan
    never compares the stamps of two traces, which may differ in kind, naive
    in one and aware in another.
    """
    rows = sorted(zip(log_.trace_ids, log_.starts, log_.ends, log_.activities))
    later = partial(islice, rows, 1, None)  # each row's next one
    counts = Counter(compress(zip(map(_label, rows), map(_label, later())),
                              map(eq, map(_trace, rows), map(_trace, later()))))
    for i in compress(range(len(rows)), map(lt, later(), map(_trace_end, rows))):
        close, first = _trace_end(rows[i]), rows[i][3]
        for j in range(i + 1, len(rows)):
            # every later row starts later still; before that, the (start,
            # end) order already gives first.start < second.end
            if not rows[j] < close:
                break
            second = rows[j][3]
            counts[first, second] += 1
            counts[second, first] += 1
    return counts


def discover_concurrency(
    counts: Counter,
    thresholds: OracleThresholds = OracleThresholds(),
) -> ConcurrencyRelation:
    """Declare {a, b} concurrent when both directions survive the noise filter
    and the directional imbalance stays below the balance threshold."""
    pairs = []
    for a, b in counts:  # ConcurrencyRelation normalises pairs, drops reflexive ones
        ab, ba = counts[(a, b)], counts[(b, a)]
        floor = thresholds.df_threshold * max(ab, ba)
        ab = ab if ab >= floor else 0
        ba = ba if ba >= floor else 0
        if ab > 0 and ba > 0 and abs(ab - ba) / (ab + ba) < thresholds.balance_threshold:
            pairs.append((a, b))
    return ConcurrencyRelation(pairs)


def discover_from_log(
    log_: ActivityInstanceLog,
    thresholds: OracleThresholds = OracleThresholds(),
) -> ConcurrencyRelation:
    return discover_concurrency(count_directly_follows(log_), thresholds)


def load_concurrency(source) -> ConcurrencyRelation:
    """Load a user-supplied relation from a two-column, headerless CSV.

    The result is symmetrized. A reflexive row is logged as a warning, and
    `ConcurrencyRelation` drops it, as it drops every reflexive pair.
    """
    records = csv.reader(source)
    pairs = []
    try:
        for row in records:
            # the reader's line count, so a quoted label spanning lines does
            # not shift the lines named after it
            line_number = records.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise LogFormatError(
                    f"line {line_number}: expected two activity labels, got {len(row)} fields"
                )
            a, b = row[0].strip(), row[1].strip()
            if not a or not b:
                raise LogFormatError(f"line {line_number}: empty activity label")
            if a == b:
                log.warning("line %d: reflexive pair (%s, %s) dropped", line_number, a, b)
            pairs.append((a, b))
    except csv.Error as exc:
        raise LogFormatError(f"line {records.line_num}: {exc}") from None
    return ConcurrencyRelation(pairs)


def write_concurrency(relation: ConcurrencyRelation, sink) -> None:
    """Write one lexicographically sorted row per unordered pair to the text
    stream `sink` through `_write_table`, which flushes it and quotes labels
    as in the repaired log, so that `load_concurrency` reads them back."""
    columns = tuple(zip(*relation.sorted_pairs())) or ((), ())
    _write_table(sink, None, columns, (None, None))
