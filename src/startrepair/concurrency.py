"""Concurrency relation discovery from directly-follows and interval-overlap counts."""
from __future__ import annotations

import csv
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

from .model import ActivityInstanceLog, ConfigurationError, LogFormatError, _write_table

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OracleThresholds:
    """Thresholds of the directly-follows concurrency oracle.

    `df_threshold` filters noise: a direction observed fewer than
    df_threshold * max(count(a,b), count(b,a)) times counts as unobserved.
    `balance_threshold` bounds the imbalance |ab - ba| / (ab + ba) below which
    a bidirectional pair is declared concurrent.
    """

    df_threshold: float = 0.05
    balance_threshold: float = 0.75

    def __post_init__(self):
        for name in ("df_threshold", "balance_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


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

    Overlaps come from a start-ordered sweep that scans forward from each
    instance only while the next one starts before it ends, so a trace of k
    instances costs O(k log k + overlapping pairs) rather than O(k^2).
    """
    by_trace: dict[str, list] = defaultdict(list)
    for trace, start, end, activity in zip(log_.trace_ids, log_.starts, log_.ends,
                                           log_.activities):
        by_trace[trace].append((start, end, activity))
    counts = Counter()
    for ordered in by_trace.values():
        ordered.sort()
        for (_, _, previous), (_, _, current) in zip(ordered, ordered[1:]):
            counts[(previous, current)] += 1
        size = len(ordered)
        for i, (_, first_end, first) in enumerate(ordered):
            for j in range(i + 1, size):
                second_start, _, second = ordered[j]
                # every later instance starts later still; before that, the
                # (start, end) order already gives first.start < second.end
                if second_start >= first_end:
                    break
                counts[(first, second)] += 1
                counts[(second, first)] += 1
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
