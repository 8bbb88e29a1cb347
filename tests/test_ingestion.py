"""Ingestion: start/end pairing against an independent FIFO oracle, and the
memory the readers and the pairing keep."""
from __future__ import annotations

import io
import tracemalloc
from datetime import timedelta
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from startrepair import parse_event_log, read_instance_log, to_activity_instances
from startrepair.model import EVENT_COLUMNS, INSTANCE_COLUMNS

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


EVENT_CSV = """case_id,activity,timestamp,lifecycle,resource
T01,Pack,2021-03-01 08:00:00,start,R01
T02,Pack,2021-03-01 08:05:00,start,
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
    assert_labels_shared(*zip(*((trace, activity, resource)
                                for trace, activity, _, _, resource in events)))
    assert [resource for *_, resource in events].count(None) == 2

    for text, mapping, missing in ((EVENT_CSV, EVENT_COLUMNS, 1),
                                   (INSTANCE_CSV, INSTANCE_COLUMNS, 2)):
        paired, _ = to_activity_instances(parse_event_log(io.StringIO(text), mapping))
        assert_labels_shared(paired.trace_ids, paired.activities, paired.resources)
        assert paired.resources.count(None) == missing
