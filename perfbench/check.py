"""Correctness checks that share no code with the program under test.

The checker reads the CSV files itself, pairs event rows itself and derives
every repaired start from the paper's rules:

- RAT: the latest end of the same resource strictly before the instance's end;
- ENT: the same over same-trace instances whose activity is not concurrent;
- earliest start = max(RAT, ENT); only ENT when the resource is unknown;
  start = end for bot resources; no evidence keeps the recorded start;
- with an outlier threshold, a repaired duration above threshold x the
  activity's median repaired duration is cut back to that cap;
- a start never moves past the end, nor later than recorded except on a bot.

It also recomputes both EMDs from the two CSVs. Each check returns a list of
problems; an empty list means the output is correct.
"""
from __future__ import annotations

import csv
import json
import random
import statistics
from bisect import bisect_left
from collections import Counter, defaultdict, deque
from datetime import datetime, timedelta
from math import floor
from typing import NamedTuple, Optional

BRUTE_FORCE_SAMPLE = 100
EMD_TOLERANCE = 1e-9


class Row(NamedTuple):
    trace: str
    activity: str
    start: datetime
    end: datetime
    resource: Optional[str]


def read_instance_rows(path: str) -> list[Row]:
    with open(path, encoding="utf-8", newline="") as source:
        reader = csv.reader(source)
        if next(reader) != ["case_id", "activity", "start_time", "end_time", "resource"]:
            raise ValueError(f"{path}: unexpected header")
        return [Row(t, a, datetime.fromisoformat(s), datetime.fromisoformat(e), r or None)
                for t, a, s, e, r in reader]


def read_event_rows(path: str) -> list[Row]:
    """Pair start and end rows into instances, in the order their end rows
    come when the rows are sorted by timestamp (ties keep file order)."""
    with open(path, encoding="utf-8", newline="") as source:
        reader = csv.reader(source)
        next(reader)
        events = [(datetime.fromisoformat(ts), t, a, lc, r or None)
                  for t, a, ts, lc, r in reader]
    events.sort(key=lambda event: event[0])
    open_starts: dict[tuple, deque] = defaultdict(deque)
    rows = []
    for timestamp, trace, activity, lifecycle, resource in events:
        key = (trace, activity, resource)
        if lifecycle == "start":
            open_starts[key].append(timestamp)
        else:
            rows.append(Row(trace, activity, open_starts[key].popleft(), timestamp,
                            resource))
    return rows


def _last_end_before(sorted_ends: list[datetime], end: datetime) -> Optional[datetime]:
    i = bisect_left(sorted_ends, end)
    return sorted_ends[i - 1] if i else None


def _indexed_anchors(rows: list[Row], pairs: frozenset) -> list[tuple]:
    """(RAT, ENT) per row from sorted per-resource and per-(trace, activity)
    end lists."""
    by_resource: dict = defaultdict(list)
    by_trace: dict = defaultdict(lambda: defaultdict(list))
    for row in rows:
        by_resource[row.resource].append(row.end)
        by_trace[row.trace][row.activity].append(row.end)
    for ends in by_resource.values():
        ends.sort()
    for activities in by_trace.values():
        for ends in activities.values():
            ends.sort()
    anchors = []
    for row in rows:
        rat = (None if row.resource is None
               else _last_end_before(by_resource[row.resource], row.end))
        ents = [_last_end_before(ends, row.end)
                for activity, ends in by_trace[row.trace].items()
                if frozenset((activity, row.activity)) not in pairs]
        anchors.append((rat, max((e for e in ents if e is not None), default=None)))
    return anchors


def _scanned_anchors(row: Row, same_resource: list[Row], same_trace: list[Row],
                     pairs: frozenset) -> tuple:
    """(RAT, ENT) of one row by a full scan of its resource's and trace's rows."""
    rat = max((o.end for o in same_resource if o.end < row.end), default=None)
    ent = max((o.end for o in same_trace
               if o.end < row.end and frozenset((o.activity, row.activity)) not in pairs),
              default=None)
    return (None if row.resource is None else rat), ent


class Expectation:
    """The repaired start and rule of every input instance under the paper's
    rules, derived from the workload's input CSV."""

    def __init__(self, inputs, seed: int):
        self.inputs = inputs
        read = read_event_rows if inputs.event_rows else read_instance_rows
        self.rows = read(inputs.input_csv)
        self.earliest = [self._earliest(row, *anchors) for row, anchors in
                         zip(self.rows, _indexed_anchors(self.rows, inputs.concurrency_pairs))]
        self.caps = {}
        if inputs.outlier_threshold is not None:
            durations = defaultdict(list)
            for row, start in zip(self.rows, self.earliest):
                if start is not None:
                    durations[row.activity].append((row.end - start).total_seconds())
            self.caps = {a: inputs.outlier_threshold * timedelta(seconds=statistics.median(d))
                         for a, d in durations.items()}
        self.outcomes = [self._outcome(row, start)
                         for row, start in zip(self.rows, self.earliest)]
        self.rules = Counter(rule for _, rule in self.outcomes)
        self.sample = random.Random(seed).sample(range(len(self.rows)),
                                                 min(BRUTE_FORCE_SAMPLE, len(self.rows)))
        self.scanned = self._scan_sample()

    def _earliest(self, row: Row, rat, ent) -> Optional[datetime]:
        if row.resource in self.inputs.bot_resources:
            return row.end
        if rat is None:
            return ent
        return rat if ent is None else max(rat, ent)

    def _outcome(self, row: Row, earliest) -> tuple[datetime, str]:
        if row.resource in self.inputs.bot_resources:
            return row.end, "bot_or_instant"
        if earliest is None:
            return row.start, "no_evidence"
        rule = "estimated"
        cap = self.caps.get(row.activity)
        if cap is not None and row.end - earliest > cap:
            earliest, rule = row.end - cap, "outlier_capped"
        if earliest > row.start:
            return row.start, "clamped_to_recorded"
        return earliest, rule

    def _scan_sample(self) -> dict[int, datetime]:
        """Repaired start of each sampled row from full-scan anchors."""
        by_resource, by_trace = defaultdict(list), defaultdict(list)
        for row in self.rows:
            by_resource[row.resource].append(row)
            by_trace[row.trace].append(row)
        pairs = self.inputs.concurrency_pairs
        scanned = {}
        for index in self.sample:
            row = self.rows[index]
            anchors = _scanned_anchors(row, by_resource[row.resource],
                                       by_trace[row.trace], pairs)
            scanned[index] = self._outcome(row, self._earliest(row, *anchors))[0]
        return scanned

    def check_repair(self, output_csv: str, report_json: str) -> list[str]:
        """Problems with one repair job's output CSV and JSON report."""
        try:
            repaired = read_instance_rows(output_csv)
            with open(report_json, encoding="utf-8") as source:
                report = json.load(source)
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        if len(repaired) != len(self.rows):
            return [f"{len(repaired)} output rows for {len(self.rows)} input instances"]
        problems = []
        for number, (row, out, (start, _)) in enumerate(
                zip(self.rows, repaired, self.outcomes), start=2):
            if (out.trace, out.activity, out.end, out.resource) != (
                    row.trace, row.activity, row.end, row.resource):
                problems.append(f"row {number}: trace, activity, end or resource changed")
            elif out.start > out.end or (out.start > row.start
                                          and row.resource not in self.inputs.bot_resources):
                problems.append(f"row {number}: start {out.start} after end or recorded start")
            elif out.start != start:
                problems.append(f"row {number}: start {out.start}, rules give {start}")
            if len(problems) >= 5:
                return problems
        for index, start in self.scanned.items():
            if repaired[index].start != start:
                problems.append(f"row {index + 2}: start {repaired[index].start}, "
                                f"a full RAT/ENT scan gives {start}")
        discovered = frozenset(frozenset(p) for p in report.get("concurrency_pairs", []))
        if discovered != self.inputs.concurrency_pairs:
            problems.append(f"discovered relation {sorted(map(sorted, discovered))} "
                            "is not the generator's")
        reported = {rule: n for rule, n in report.get("rule_counts", {}).items() if n}
        if reported != dict(self.rules) or report.get("instances") != len(self.rows):
            problems.append(f"report counts {reported}, rules give {dict(self.rules)}")
        return problems


def _emd(masses_a: Counter, masses_b: Counter) -> float:
    total_a, total_b = sum(masses_a.values()), sum(masses_b.values())
    indices = set(masses_a) | set(masses_b)
    distance = cdf_a = cdf_b = 0.0
    for index in range(min(indices), max(indices)):
        cdf_a += masses_a.get(index, 0.0) / total_a
        cdf_b += masses_b.get(index, 0.0) / total_b
        distance += abs(cdf_a - cdf_b)
    return distance


def _cycle_seconds(rows: list[Row]) -> list[float]:
    first: dict = {}
    last: dict = {}
    for row in rows:
        first[row.trace] = min(first.get(row.trace, row.start), row.start)
        last[row.trace] = max(last.get(row.trace, row.end), row.end)
    return [(last[t] - first[t]).total_seconds() for t in first]


def expected_emds(truth: list[Row], other: list[Row]) -> tuple[float, float]:
    """(timestamp EMD in hours, cycle-time EMD in bins of the truth's grid)."""
    hour = timedelta(hours=1)
    origin = min(r.start for r in truth + other).replace(minute=0, second=0,
                                                          microsecond=0)

    def hours(rows):
        return Counter((t - origin) // hour for r in rows for t in (r.start, r.end))

    reference, compared = _cycle_seconds(truth), _cycle_seconds(other)
    low, high = min(reference), max(reference)
    width = (high - low) / 100 or 1.0

    def bins(values):
        counts = Counter()
        for value in values:
            index = floor((value - low) / width)
            counts[99 if index == 100 and value <= low + 100 * width else index] += 1
        return counts

    return (_emd(hours(truth), hours(other)),
            _emd(bins(reference), bins(compared)))


def check_evaluate(inputs, repaired_csv: str, stdout: str) -> list[str]:
    """Problems with one evaluate job's JSON output."""
    try:
        report = json.loads(stdout)
        reported = (report["timestamp_emd"], report["cycle_time_emd"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable evaluate output: {exc}"]
    truth = read_instance_rows(inputs.truth_csv)
    expected = expected_emds(truth, read_instance_rows(repaired_csv))
    problems = [f"{name} {got!r}, expected {want!r}"
                for name, got, want in zip(("timestamp_emd", "cycle_time_emd"),
                                           reported, expected)
                if abs(got - want) > EMD_TOLERANCE * max(1.0, abs(want))]
    if report.get("reference_mass") != 2 * len(truth):
        problems.append(f"reference mass {report.get('reference_mass')} "
                        f"for {len(truth)} instances")
    return problems


def corrupt_one_start(source_csv: str, target_csv: str, seed: int) -> None:
    """Copy a repaired CSV with one seeded row's start a second earlier."""
    with open(source_csv, encoding="utf-8", newline="") as source:
        rows = list(csv.reader(source))
    row = rows[random.Random(seed).randrange(1, len(rows))]
    row[2] = (datetime.fromisoformat(row[2]) - timedelta(seconds=1)).isoformat(sep=" ")
    with open(target_csv, "w", encoding="utf-8", newline="") as target:
        csv.writer(target, lineterminator="\n").writerows(rows)
