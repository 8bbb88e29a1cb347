"""Start-time repair: resource availability, enablement, earliest start, outlier cap."""
from __future__ import annotations

import statistics
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cached_property
from itertools import compress
from math import floor, isfinite
from typing import Optional, Sequence

from .concurrency import ConcurrencyRelation
from .model import ActivityInstance, ActivityInstanceLog, ConfigurationError, _by_end

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

    `earliest_start` is the estimate after the outlier cap. Bot and instant
    instances have None for `rat` and `ent`, and their end as the estimate.
    """

    original_start: datetime
    rat: Optional[datetime]
    ent: Optional[datetime]
    earliest_start: Optional[datetime]
    repaired_start: datetime
    rule_applied: str


@dataclass(frozen=True)
class RepairOutcome:
    """The repaired log, with the decision behind each start as columns in
    log order: `rats` and `ents` the anchors, `estimates` the earliest start
    after the outlier cap, and `rules` the rule applied. The `InstanceRepair`
    audit records are built from these on first access to `per_instance`, so
    a caller that never reads them does not pay for them.
    """

    log: ActivityInstanceLog
    repaired_log: ActivityInstanceLog
    rats: tuple[Optional[datetime], ...]
    ents: tuple[Optional[datetime], ...]
    estimates: tuple[Optional[datetime], ...]
    rules: tuple[str, ...]

    def rule_counts(self) -> dict[str, int]:
        counts = {rule: 0 for rule in ALL_RULES}
        counts.update(Counter(self.rules))
        return counts

    @cached_property
    def per_instance(self) -> tuple[InstanceRepair, ...]:
        return tuple(map(InstanceRepair, self.log.starts, self.rats, self.ents,
                         self.estimates, self.repaired_log.starts, self.rules))


def _last_end_before(log: ActivityInstanceLog, group: Sequence[int], i: int,
                     relation: Optional[ConcurrencyRelation] = None,
                     activity: Optional[str] = None) -> Optional[datetime]:
    """The one anchor rule of RAT and ENT: the largest end in `group`, row
    positions of `log` sorted by end, before position `i`, skipping rows whose
    activity `relation` declares concurrent with `activity`. `i` is the first
    position whose end is not before the instance's end, so equal ends never
    count as before; among equal ends the last in log order wins. A walk back
    past concurrent rows only: O(c) for c of them skipped."""
    ends, activities = log.ends, log.activities
    while i > 0:
        i -= 1
        row = group[i]
        if relation is None or not relation.concurrent(activities[row], activity):
            return ends[row]  # group is end-sorted, first hit is the max
    return None


def resource_availability_time(
    instance: ActivityInstance, log: ActivityInstanceLog
) -> Optional[datetime]:
    """Largest end time among instances of the same resource ending strictly
    before this instance's end; None for the resource's first instance."""
    if instance.resource is None:
        return None
    group = log._resource_groups.get(instance.resource, ())
    return _last_end_before(
        log, group, bisect_left(group, instance.end, key=log.ends.__getitem__))


def enablement_time(
    instance: ActivityInstance,
    log: ActivityInstanceLog,
    relation: ConcurrencyRelation,
) -> Optional[datetime]:
    """Largest end time among same-trace instances ending strictly before this
    instance's end whose activity is not concurrent with it; None when empty."""
    group = log._trace_groups.get(instance.trace_id, ())
    return _last_end_before(
        log, group, bisect_left(group, instance.end, key=log.ends.__getitem__),
        relation, instance.activity)


def _anchors_in_end_order(log: ActivityInstanceLog, groups: dict,
                          relation: Optional[ConcurrencyRelation] = None
                          ) -> list[Optional[datetime]]:
    """The anchor of every row, by position, over `groups` from `_by_end`: each
    group is walked in end order, and the lookup starts where the current run
    of equal ends starts, so a run of ties is never rescanned. O(1) per row
    plus the concurrent rows skipped."""
    ends, activities = log.ends, log.activities
    anchors: list[Optional[datetime]] = [None] * len(ends)
    for key, group in groups.items():
        if key is None:  # an unknown performer has no RAT; a trace id is never None
            continue
        run = 0
        for j, row in enumerate(group):
            if ends[group[run]] < ends[row]:
                run = j
            anchors[row] = _last_end_before(log, group, run, relation, activities[row])
    return anchors


def _bot_or_instant(activity: str, resource: Optional[str],
                    config: RepairConfig) -> bool:
    """The bot/instant rule: the instance starts at its end, with no anchors."""
    return activity in config.instant_activities or (
        resource is not None and resource in config.bot_resources)


def _earliest(end: datetime, rat: Optional[datetime], ent: Optional[datetime],
              instant: bool) -> Optional[datetime]:
    """The earliest-start chain: an instant instance starts at its end;
    otherwise the later anchor, or the only one present. An unknown performer
    has no RAT: it is treated as a maximum-capacity pool."""
    if instant:
        return end
    if rat is None or ent is None:
        return ent if rat is None else rat
    return max(rat, ent)


def earliest_start(
    instance: ActivityInstance,
    log: ActivityInstanceLog,
    relation: ConcurrencyRelation,
    config: RepairConfig = RepairConfig(),
) -> Optional[datetime]:
    """Earliest instant the instance could have started: max of resource
    availability and enablement, with the bot/instant and missing-resource rules."""
    return _earliest(instance.end, resource_availability_time(instance, log),
                     enablement_time(instance, log, relation),
                     _bot_or_instant(instance.activity, instance.resource, config))


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
    keep start = end regardless of clamping, and their zero durations count in
    the typical duration; instances with no evidence keep their recorded start.
    """
    activities, starts, ends = log.activities, log.starts, log.ends
    instants = [_bot_or_instant(activity, resource, config)
                for activity, resource in zip(activities, log.resources)]
    # built for this call only: cached on the log, they would outlive the repair
    rats = _anchors_in_end_order(log, _by_end(log.resources, ends))
    ents = _anchors_in_end_order(log, _by_end(log.trace_ids, ends), relation)
    for row in compress(range(len(ends)), instants):
        rats[row] = ents[row] = None
    rats, ents = tuple(rats), tuple(ents)
    estimates = list(map(_earliest, ends, rats, ents, instants))

    bounds: dict[str, timedelta] = {}
    if config.outlier_threshold is not None:
        by_activity: dict[str, list[timedelta]] = defaultdict(list)
        for activity, end, earliest in zip(activities, ends, estimates):
            if earliest is not None:
                by_activity[activity].append(end - earliest)
        for activity, durations in by_activity.items():
            typical = typical_repaired_duration(durations, config.statistic)
            try:
                bounds[activity] = config.outlier_threshold * typical
            except OverflowError:
                pass  # a cap beyond timedelta's range never binds: leave uncapped

    repaired_starts, rules = [], []
    for row, (activity, start, end, earliest, instant) in enumerate(
            zip(activities, starts, ends, estimates, instants)):
        if instant:
            repaired, rule = earliest, RULE_BOT_OR_INSTANT
        elif earliest is None:
            repaired, rule = start, RULE_NO_EVIDENCE
        else:
            rule = RULE_ESTIMATED
            bound = bounds.get(activity)
            if bound is not None and end - earliest > bound:
                estimates[row] = earliest = end - bound
                rule = RULE_CAPPED
            repaired = earliest
            if not config.allow_later_start and repaired > start:
                repaired, rule = start, RULE_CLAMPED
        repaired_starts.append(repaired)
        rules.append(rule)
    # only the starts change: the repaired log shares the other four columns
    repaired_log = ActivityInstanceLog.from_columns(
        log.trace_ids, activities, repaired_starts, ends, log.resources)
    return RepairOutcome(log, repaired_log, rats, ents, tuple(estimates), tuple(rules))
