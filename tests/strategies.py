"""Hypothesis strategies shared across test modules."""
from __future__ import annotations

from datetime import datetime, timedelta, timezone

from hypothesis import strategies as st

from startrepair import ActivityInstance, ActivityInstanceLog

EPOCH = datetime(2021, 3, 1, 0, 0, 0, tzinfo=timezone.utc)

ACTIVITIES = ("a", "b", "c", "d")
TRACES = ("t1", "t2", "t3")
RESOURCES = ("r1", "r2", None)


@st.composite
def instances(draw, activities=ACTIVITIES, traces=TRACES, resources=RESOURCES,
              horizon_seconds=86_400, max_duration_seconds=7_200):
    start_offset = draw(st.integers(min_value=0, max_value=horizon_seconds))
    duration = draw(st.integers(min_value=0, max_value=max_duration_seconds))
    return ActivityInstance(
        trace_id=draw(st.sampled_from(traces)),
        activity=draw(st.sampled_from(activities)),
        start=EPOCH + timedelta(seconds=start_offset),
        end=EPOCH + timedelta(seconds=start_offset + duration),
        resource=draw(st.sampled_from(resources)),
    )


@st.composite
def instance_logs(draw, min_size=1, max_size=12, **kwargs):
    return ActivityInstanceLog(
        draw(st.lists(instances(**kwargs), min_size=min_size, max_size=max_size))
    )
