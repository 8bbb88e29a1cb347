"""Host speed reference for steady timings on a shared machine.

On a shared 2-vCPU host the same job can take anywhere from 1x to 2x its
fastest time, in phases lasting from seconds to minutes, so medians of raw
wall times from different runs disagree by more than any useful bound. The
benchmark therefore times a fixed reference task right before and right
after every job and reports the job's wall time scaled by
`NOMINAL_SECONDS / reference time`: seconds at the speed at which the
reference takes `NOMINAL_SECONDS`.

The reference uses only the standard library and the same kinds of work as
the program (CSV parsing, ISO timestamp parsing and formatting, sorting and
grouping), on fixed data that depends on nothing but the constants below, so
a change to the program never changes it.
"""
from __future__ import annotations

import csv
import io
import time
from datetime import datetime, timedelta, timezone

NOMINAL_SECONDS = 0.025  # about the reference time in a fast phase of a 2-vCPU Xeon VM
_ROWS = 4000


def _reference_text() -> str:
    origin = datetime(2021, 3, 1, 8, tzinfo=timezone.utc)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("case_id", "activity", "start_time", "end_time", "resource"))
    for i in range(_ROWS):
        start = origin + timedelta(seconds=(i * 7919) % 1_000_000)
        writer.writerow((f"T{i // 4:04d}", ("Register", "Pack", "Invoice", "Deliver")[i % 4],
                         start.isoformat(sep=" "),
                         (start + timedelta(seconds=60 + i % 3541)).isoformat(sep=" "),
                         f"R{i % 5:02d}"))
    return out.getvalue()


_TEXT = _reference_text()


def reference_seconds() -> float:
    """Wall time of one pass of the reference task."""
    start = time.perf_counter()
    rows = [(trace, activity, datetime.fromisoformat(begin), datetime.fromisoformat(end),
             resource)
            for trace, activity, begin, end, resource in csv.reader(io.StringIO(_TEXT))
            if trace != "case_id"]
    rows.sort(key=lambda row: row[3])
    by_resource: dict = {}
    for row in rows:
        by_resource.setdefault(row[4], []).append(row[3])
    writer = csv.writer(io.StringIO(), lineterminator="\n")
    for trace, activity, begin, end, resource in rows:
        writer.writerow((trace, activity, begin.isoformat(sep=" "), end.isoformat(sep=" "),
                         resource))
    return time.perf_counter() - start


def scale(run) -> tuple[float, float]:
    """Run `run()` between two reference passes; return its wall seconds and
    the factor that scales them to the nominal speed."""
    before = reference_seconds()
    start = time.perf_counter()
    run()
    seconds = time.perf_counter() - start
    after = reference_seconds()
    return seconds, NOMINAL_SECONDS / ((before + after) / 2)
