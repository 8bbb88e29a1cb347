"""Metamorphic properties of the repair: changes to a log that carry no
process information leave the repaired log unchanged in kind."""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from datetime import timedelta, timezone

from hypothesis import given, settings, strategies as st

from startrepair import (
    ActivityInstance,
    ActivityInstanceLog,
    RepairConfig,
    discover_from_log,
    repair_start_times,
)

from .strategies import RESOURCES, TRACES, instance_logs

# no cap; median with a 2x cap and a bot; mode with a 5x cap and an instant
# activity; later starts allowed with a 2x cap
CONFIGS = (
    RepairConfig(),
    RepairConfig(outlier_threshold=2.0, bot_resources={"r1"}),
    RepairConfig(statistic="mode", outlier_threshold=5.0, instant_activities={"b"}),
    RepairConfig(allow_later_start=True, outlier_threshold=2.0),
)
EXAMPLES = settings(max_examples=200, deadline=None)


def repaired(log: ActivityInstanceLog, config: RepairConfig):
    return repair_start_times(log, discover_from_log(log), config)


def durations(outcome) -> list[timedelta]:
    return [i.end - i.start for i in outcome.repaired_log.instances]


@EXAMPLES
@given(instance_logs(),
       st.sampled_from(CONFIGS),
       st.integers(min_value=-10 * 365 * 86_400, max_value=10 * 365 * 86_400),
       st.integers(min_value=0, max_value=999_999),
       st.integers(min_value=-23 * 60 - 59, max_value=23 * 60 + 59))
def test_time_shift_and_offset_change_keep_durations(log, config, seconds,
                                                     microseconds, offset_minutes):
    shift = timedelta(seconds=seconds, microseconds=microseconds)
    zone = timezone(timedelta(minutes=offset_minutes))
    shifted = ActivityInstanceLog(
        replace(i, start=(i.start + shift).astimezone(zone),
                end=(i.end + shift).astimezone(zone))
        for i in log.instances)
    before, after = repaired(log, config), repaired(shifted, config)
    assert durations(after) == durations(before)
    assert after.rule_counts() == before.rule_counts()


@EXAMPLES
@given(instance_logs(), st.sampled_from(CONFIGS), st.randoms(use_true_random=False))
def test_renaming_traces_and_resources_is_invariant(log, config, rng):
    names = rng.sample(["c7", "a-b", "Order 12", "x", "ü"], len(TRACES))
    trace_names = dict(zip(TRACES, names))
    known = [r for r in RESOURCES if r is not None]
    resource_names = dict(zip(known, rng.sample(["Fry", "r2", "SYSTEM", "bot-1"],
                                                len(known))))
    resource_names[None] = None
    renamed = ActivityInstanceLog(
        replace(i, trace_id=trace_names[i.trace_id], resource=resource_names[i.resource])
        for i in log.instances)
    renamed_config = replace(
        config, bot_resources={resource_names[r] for r in config.bot_resources})
    before, after = repaired(log, config), repaired(renamed, renamed_config)
    assert [i.start for i in after.repaired_log.instances] == [
        i.start for i in before.repaired_log.instances]
    assert after.rule_counts() == before.rule_counts()


@EXAMPLES
@given(instance_logs(), st.sampled_from(CONFIGS), st.randoms(use_true_random=False))
def test_row_order_keeps_the_repaired_multiset(log, config, rng: random.Random):
    rows = list(log.instances)
    rng.shuffle(rows)
    before, after = repaired(log, config), repaired(ActivityInstanceLog(rows), config)
    assert Counter(after.repaired_log.instances) == Counter(before.repaired_log.instances)
    assert after.rule_counts() == before.rule_counts()
