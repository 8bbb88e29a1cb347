from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import replace
from datetime import datetime, timezone
from operator import attrgetter

import pytest

from startrepair import (ActivityInstance, ActivityInstanceLog, ConcurrencyRelation,
                         Histogram, RepairConfig, repair_start_times)


def ts(text: str) -> datetime:
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc)


# 10-instance shipping log: orders are registered, then package and invoice
# are prepared in either order (sometimes overlapping), then delivered.
SHIPPING_ROWS = [
    ("23", "Register Order", "2021-03-07 12:59:21", "2021-03-07 13:05:37", "Fry"),
    ("24", "Register Order", "2021-03-07 13:06:53", "2021-03-07 13:12:11", "Fry"),
    ("23", "Prepare Package", "2021-03-07 13:11:07", "2021-03-07 14:17:29", "Leela"),
    ("23", "Prepare Invoice", "2021-03-07 13:15:21", "2021-03-07 14:21:56", "Bender"),
    ("24", "Prepare Invoice", "2021-03-07 14:23:12", "2021-03-07 15:43:01", "Bender"),
    ("23", "Deliver Package", "2021-03-07 14:30:00", "2021-03-07 16:34:10", "Leela"),
    ("25", "Prepare Package", "2021-03-08 10:02:32", "2021-03-08 10:31:00", "Zoidberg"),
    ("24", "Prepare Package", "2021-03-08 10:35:53", "2021-03-08 11:11:05", "Zoidberg"),
    ("24", "Deliver Package", "2021-03-08 11:15:07", "2021-03-08 14:37:06", "Leela"),
    ("25", "Prepare Invoice", "2021-03-08 14:40:23", "2021-03-08 14:57:48", "Leela"),
]


def shipping_instances() -> list[ActivityInstance]:
    return [
        ActivityInstance(trace, activity, ts(start), ts(end), resource)
        for trace, activity, start, end, resource in SHIPPING_ROWS
    ]


def shipping_csv() -> str:
    lines = ["case_id,activity,start_time,end_time,resource"]
    lines += [",".join(row) for row in SHIPPING_ROWS]
    return "\n".join(lines) + "\n"


EVENT_HEADER = "case_id,activity,timestamp,lifecycle,resource\n"


def event_csv(rows) -> str:
    """Event-per-row CSV of instance rows `(trace, activity, start, end,
    resource)`: a start event and an end event per row."""
    sink = io.StringIO()
    sink.write(EVENT_HEADER)
    writer = csv.writer(sink, lineterminator="\n")
    for trace, activity, start, end, resource in rows:
        writer.writerows(((trace, activity, start, "start", resource),
                          (trace, activity, end, "end", resource)))
    return sink.getvalue()


@pytest.fixture
def shipping_log() -> ActivityInstanceLog:
    return ActivityInstanceLog(shipping_instances())


def histogram(masses: dict) -> Histogram:
    """A histogram of `masses` over unit-width bins from 0."""
    return Histogram(origin=0.0, bin_width=1.0, masses=masses)


def _buckets(log: ActivityInstanceLog, field: str) -> dict:
    """Per value of the instances' `field`, its instances sorted by end; the
    sort is stable, so equal ends keep log order. Only ends of one bucket are
    compared, so aware and naive stamps may lie in different buckets."""
    buckets = defaultdict(list)
    for instance in log.instances:
        buckets[getattr(instance, field)].append(instance)
    return {key: tuple(sorted(bucket, key=attrgetter("end")))
            for key, bucket in buckets.items()}


def resource_buckets(log: ActivityInstanceLog) -> dict:
    """Per resource, its instances sorted by end, equal ends in log order."""
    return _buckets(log, "resource")


def trace_buckets(log: ActivityInstanceLog) -> dict:
    """Per trace, its instances sorted by end, equal ends in log order."""
    return _buckets(log, "trace_id")


def row_of(log: ActivityInstanceLog, trace: str, activity: str) -> int:
    rows = [row for row, key in enumerate(zip(log.trace_ids, log.activities))
            if key == (trace, activity)]
    assert len(rows) == 1
    return rows[0]


def find(log: ActivityInstanceLog, trace: str, activity: str) -> ActivityInstance:
    return log.instances[row_of(log, trace, activity)]


def probe_decision(probe: ActivityInstance, log: ActivityInstanceLog,
                   relation: ConcurrencyRelation = ConcurrencyRelation(),
                   config: RepairConfig = RepairConfig()) -> tuple:
    """The RAT, ENT and estimate before the outlier cap of `probe`, an
    instance that is no row of `log`, from one repair of `log` with `probe`
    appended as its last row. The repair visits rows in a stable end order
    and anchors a row only on strictly earlier ends, so no row that ends with
    or after the probe changes them, and of equal ends the probe comes last."""
    outcome = repair_start_times(ActivityInstanceLog([*log.instances, probe]), relation,
                                 replace(config, outlier_threshold=None))
    return outcome.rats[-1], outcome.ents[-1], outcome.estimates[-1]
