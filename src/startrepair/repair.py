"""Start-time repair: resource availability, enablement, earliest start, outlier cap."""
from __future__ import annotations

import statistics
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cached_property
from math import floor, isfinite
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .concurrency import ConcurrencyRelation
from .model import ActivityInstance, ActivityInstanceLog, ConfigurationError, _end

_end_and_activity = attrgetter("end", "activity")

RULE_ESTIMATED = "estimated"
RULE_CLAMPED = "clamped_to_recorded"
RULE_CAPPED = "outlier_capped"
RULE_BOT_OR_INSTANT = "bot_or_instant"
RULE_NO_EVIDENCE = "no_evidence"
ALL_RULES = (RULE_ESTIMATED, RULE_CLAMPED, RULE_CAPPED, RULE_BOT_OR_INSTANT,
             RULE_NO_EVIDENCE)
STATISTICS = ("median", "mode")  # typical repaired duration for the outlier cap


@dataclass(frozen=True)
class RepairConfig:
    statistic: str = "median"  # one of STATISTICS
    outlier_threshold: Optional[float] = None  # > 1; None disables capping
    bot_resources: frozenset = frozenset()
    instant_activities: frozenset = frozenset()
    allow_later_start: bool = False

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ConfigurationError(f"unknown statistic: {self.statistic!r}")
        threshold = self.outlier_threshold
        if threshold is not None and not (isfinite(threshold) and threshold > 1):
            raise ConfigurationError(
                f"outlier threshold must be finite and > 1, got {threshold}"
            )
        for name in ("bot_resources", "instant_activities"):
            labels = getattr(self, name)
            if isinstance(labels, str):  # would silently split into characters
                raise ConfigurationError(f"{name} must be a set of labels, got {labels!r}")
            object.__setattr__(self, name, frozenset(labels))


@dataclass(frozen=True)
class InstanceRepair:
    """Per-instance audit record of the repair decision.

    Bot and instant instances are decided before any lookup, so their `rat`
    and `ent` are None. `earliest_start` is the estimate after the outlier cap.
    """

    original_start: datetime
    rat: Optional[datetime]
    ent: Optional[datetime]
    earliest_start: Optional[datetime]
    repaired_start: datetime
    rule_applied: str


@dataclass(frozen=True)
class RepairOutcome:
    """The repaired log, with what is needed to explain it.

    `estimates` holds one `(rat, ent, earliest)` per instance and `rules` the
    rule applied, both tuples in log order; `earliest` is the estimate after
    the outlier cap. The `InstanceRepair` audit records are built from these
    on first access to `per_instance`, so a caller that never reads them does
    not pay for them.
    """

    log: ActivityInstanceLog
    repaired_log: ActivityInstanceLog
    estimates: tuple[tuple[Optional[datetime], Optional[datetime], Optional[datetime]], ...]
    rules: tuple[str, ...]

    def rule_counts(self) -> dict[str, int]:
        counts = {rule: 0 for rule in ALL_RULES}
        counts.update(Counter(self.rules))
        return counts

    @cached_property
    def per_instance(self) -> tuple[InstanceRepair, ...]:
        return tuple(
            InstanceRepair(before, rat, ent, earliest, after, rule)
            for before, after, (rat, ent, earliest), rule in zip(
                self.log.starts, self.repaired_log.starts, self.estimates, self.rules)
        )


def _last_end_before(group: Sequence, i: int,
                     relation: Optional[ConcurrencyRelation] = None,
                     activity: Optional[str] = None,
                     fields: Optional[Callable] = None) -> Optional[datetime]:
    """The one anchor rule of RAT and ENT: the largest end in the end-sorted
    `group` before position `i`, skipping entries that `relation` declares
    concurrent with `activity`. `group` holds `(end, activity)` pairs, or
    items that `fields` maps to one. `i` is the first position whose end is
    not before the instance's end, so equal ends never count as before. A
    walk back past concurrent entries only: O(c) for c of them skipped."""
    while i > 0:
        i -= 1
        end, other = group[i] if fields is None else fields(group[i])
        if relation is None or not relation.concurrent(other, activity):
            return end  # group is end-sorted, first hit is the max
    return None


def resource_availability_time(
    instance: ActivityInstance, log: ActivityInstanceLog
) -> Optional[datetime]:
    """Largest end time among instances of the same resource ending strictly
    before this instance's end; None for the resource's first instance."""
    if instance.resource is None:
        return None
    group = log.per_resource_index.get(instance.resource, ())
    return _last_end_before(group, bisect_left(group, instance.end, key=_end),
                            fields=_end_and_activity)


def enablement_time(
    instance: ActivityInstance,
    log: ActivityInstanceLog,
    relation: ConcurrencyRelation,
) -> Optional[datetime]:
    """Largest end time among same-trace instances ending strictly before this
    instance's end whose activity is not concurrent with it; None when empty."""
    group = log.per_trace_index.get(instance.trace_id, ())
    return _last_end_before(group, bisect_left(group, instance.end, key=_end),
                            relation, instance.activity, _end_and_activity)


def _look_back(groups: dict, key, entry: tuple[datetime, str],
               relation: Optional[ConcurrencyRelation] = None) -> Optional[datetime]:
    """Add `entry`, the `(end, activity)` of an instance visited in end
    order, to the group `key` of `groups` and return `_last_end_before` over
    that group.

    A group is `[entries seen so far, start of their current run of equal
    ends]`. The seen entries are end-sorted, and the run start is where the
    lookup begins, so equal ends never count as before and a long run of
    ties is never rescanned.
    """
    state = groups.get(key)
    if state is None:
        groups[key] = [[entry], 0]
        return None
    seen = state[0]
    if seen[-1][0] < entry[0]:
        state[1] = len(seen)
    seen.append(entry)
    return _last_end_before(seen, state[1], relation, entry[1])


def _end_ordered_anchors(
    log: ActivityInstanceLog, relation: ConcurrencyRelation,
) -> tuple[list[Optional[datetime]], list[Optional[datetime]]]:
    """RAT and ENT of every instance, by position, from one visit of the
    log's rows in end order: O(n log n) for the sort, then O(1) per instance
    plus the concurrent instances ENT skips. The sort keeps log order among
    equal ends, as the log's indexes do, so each anchor is the very object
    `resource_availability_time` and `enablement_time` return.
    """
    ends, resources, trace_ids = log.ends, log.resources, log.trace_ids
    entries = list(zip(ends, log.activities))
    rats: list[Optional[datetime]] = [None] * len(ends)
    ents: list[Optional[datetime]] = [None] * len(ends)
    by_resource: dict[str, list] = {}
    by_trace: dict[str, list] = {}
    for i in sorted(range(len(ends)), key=ends.__getitem__):
        entry, resource = entries[i], resources[i]
        if resource is not None:  # an unknown performer has no RAT
            rats[i] = _look_back(by_resource, resource, entry)
        ents[i] = _look_back(by_trace, trace_ids[i], entry, relation)
    return rats, ents


def _anchors(
    activity: str,
    resource: Optional[str],
    end: datetime,
    rat: Optional[datetime],
    ent: Optional[datetime],
    config: RepairConfig,
) -> tuple[Optional[datetime], Optional[datetime], Optional[datetime], bool]:
    """The rule chain for one instance, given its RAT and ENT:
    (rat, ent, earliest, instant).

    Bot and instant instances start at their end and drop their anchors. An
    unknown performer has no RAT: it is treated as a maximum-capacity pool.
    """
    if activity in config.instant_activities or (
        resource is not None and resource in config.bot_resources
    ):
        return None, None, end, True
    if rat is None or ent is None:
        return rat, ent, ent if rat is None else rat, False
    return rat, ent, max(rat, ent), False


def earliest_start(
    instance: ActivityInstance,
    log: ActivityInstanceLog,
    relation: ConcurrencyRelation,
    config: RepairConfig = RepairConfig(),
) -> Optional[datetime]:
    """Earliest instant the instance could have started: max of resource
    availability and enablement, with the bot/instant and missing-resource rules."""
    return _anchors(instance.activity, instance.resource, instance.end,
                    resource_availability_time(instance, log),
                    enablement_time(instance, log, relation), config)[2]


def typical_repaired_duration(
    durations: list[timedelta], statistic: str
) -> Optional[timedelta]:
    """Median, or mode over whole-second buckets (ties to the smallest value).

    Returns None for empty input: the activity is exempt from outlier capping.
    """
    if not durations:
        return None
    if statistic == "median":
        return timedelta(seconds=statistics.median(d.total_seconds() for d in durations))
    if statistic == "mode":
        buckets = Counter(floor(d.total_seconds()) for d in durations)
        top = max(buckets.values())
        return timedelta(seconds=min(s for s, n in buckets.items() if n == top))
    raise ConfigurationError(f"unknown statistic: {statistic!r}")


def repair_start_times(
    log: ActivityInstanceLog,
    relation: ConcurrencyRelation,
    config: RepairConfig = RepairConfig(),
) -> RepairOutcome:
    """Repair every start time to the instance's earliest starting point.

    Pass 1 computes the earliest start per instance; when an outlier threshold
    is set, pass 2 fixes each activity's cap at threshold * typical repaired
    duration and pass 3 shortens longer repaired durations to it. Estimates are
    then clamped so starts never move past the recorded start (unless
    `allow_later_start`); RAT and ENT lie strictly before the end and the cap is
    non-negative, so no estimate passes the end. Instances flagged bot/instant
    keep start = end regardless of clamping; instances with no evidence keep
    their recorded start.
    """
    activities, starts, ends = log.activities, log.starts, log.ends
    rats, ents = _end_ordered_anchors(log, relation)
    records = [_anchors(activity, resource, end, rat, ent, config)
               for activity, resource, end, rat, ent
               in zip(activities, log.resources, ends, rats, ents)]

    bounds: dict[str, timedelta] = {}
    if config.outlier_threshold is not None:
        by_activity: dict[str, list[timedelta]] = defaultdict(list)
        for activity, end, (_, _, earliest, _) in zip(activities, ends, records):
            if earliest is not None:
                by_activity[activity].append(end - earliest)
        for activity, durations in by_activity.items():
            typical = typical_repaired_duration(durations, config.statistic)
            try:
                bounds[activity] = config.outlier_threshold * typical
            except OverflowError:
                pass  # a cap beyond timedelta's range never binds: leave uncapped

    repaired_starts, estimates, rules = [], [], []
    for activity, start, end, (rat, ent, earliest, instant) in zip(
            activities, starts, ends, records):
        if instant:
            repaired, rule = end, RULE_BOT_OR_INSTANT
        elif earliest is None:
            repaired, rule = start, RULE_NO_EVIDENCE
        else:
            rule = RULE_ESTIMATED
            bound = bounds.get(activity)
            if bound is not None and end - earliest > bound:
                earliest, rule = end - bound, RULE_CAPPED
            repaired = earliest
            if not config.allow_later_start and repaired > start:
                repaired, rule = start, RULE_CLAMPED
        repaired_starts.append(repaired)
        estimates.append((rat, ent, earliest))
        rules.append(rule)
    # only the starts change: the repaired log shares the other four columns
    repaired_log = ActivityInstanceLog.from_columns(
        log.trace_ids, activities, repaired_starts, ends, log.resources)
    return RepairOutcome(log, repaired_log, tuple(estimates), tuple(rules))
