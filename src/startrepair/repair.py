"""Start-time repair: resource availability, enablement, earliest start, outlier cap."""
from __future__ import annotations

import statistics
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cached_property
from math import floor, isfinite
from typing import Optional

from .concurrency import ConcurrencyRelation
from .model import ActivityInstance, ActivityInstanceLog, ConfigurationError, _end

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
            InstanceRepair(before.start, rat, ent, earliest, after.start, rule)
            for before, after, (rat, ent, earliest), rule in zip(
                self.log.instances, self.repaired_log.instances, self.estimates,
                self.rules)
        )


def _last_end_before(group: tuple[ActivityInstance, ...], end: datetime,
                     relation: Optional[ConcurrencyRelation] = None,
                     activity: Optional[str] = None) -> Optional[datetime]:
    """The one anchor lookup of RAT and ENT: the largest end in the end-sorted
    `group` strictly before `end`, skipping instances that `relation` declares
    concurrent with `activity`. A bisection, then a walk back past concurrent
    instances only: O(log k + c) for k instances, c of them skipped."""
    i = bisect_left(group, end, key=_end)
    while i > 0:
        i -= 1
        other = group[i]
        if relation is None or not relation.concurrent(other.activity, activity):
            return other.end  # group is end-sorted, first hit is the max
    return None


def resource_availability_time(
    instance: ActivityInstance, log: ActivityInstanceLog
) -> Optional[datetime]:
    """Largest end time among instances of the same resource ending strictly
    before this instance's end; None for the resource's first instance."""
    if instance.resource is None:
        return None
    return _last_end_before(log.per_resource_index.get(instance.resource, ()), instance.end)


def enablement_time(
    instance: ActivityInstance,
    log: ActivityInstanceLog,
    relation: ConcurrencyRelation,
) -> Optional[datetime]:
    """Largest end time among same-trace instances ending strictly before this
    instance's end whose activity is not concurrent with it; None when empty."""
    return _last_end_before(log.per_trace_index.get(instance.trace_id, ()), instance.end,
                            relation, instance.activity)


def _anchors(
    instance: ActivityInstance,
    log: ActivityInstanceLog,
    relation: ConcurrencyRelation,
    config: RepairConfig,
) -> tuple[Optional[datetime], Optional[datetime], Optional[datetime], bool]:
    """The rule chain for one instance: (rat, ent, earliest, instant).

    Bot and instant instances start at their end and skip the RAT/ENT lookups.
    An unknown performer has no RAT: it is treated as a maximum-capacity pool.
    """
    if instance.activity in config.instant_activities or (
        instance.resource is not None and instance.resource in config.bot_resources
    ):
        return None, None, instance.end, True
    rat = resource_availability_time(instance, log)
    ent = enablement_time(instance, log, relation)
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
    return _anchors(instance, log, relation, config)[2]


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
    records = [(instance, *_anchors(instance, log, relation, config))
               for instance in log.instances]

    bounds: dict[str, timedelta] = {}
    if config.outlier_threshold is not None:
        by_activity: dict[str, list[timedelta]] = defaultdict(list)
        for instance, _, _, earliest, _ in records:
            if earliest is not None:
                by_activity[instance.activity].append(instance.end - earliest)
        for activity, durations in by_activity.items():
            typical = typical_repaired_duration(durations, config.statistic)
            try:
                bounds[activity] = config.outlier_threshold * typical
            except OverflowError:
                pass  # a cap beyond timedelta's range never binds: leave uncapped

    repaired_instances: list[ActivityInstance] = []
    estimates, rules = [], []
    for instance, rat, ent, earliest, instant in records:
        if instant:
            repaired, rule = instance.end, RULE_BOT_OR_INSTANT
        elif earliest is None:
            repaired, rule = instance.start, RULE_NO_EVIDENCE
        else:
            rule = RULE_ESTIMATED
            bound = bounds.get(instance.activity)
            if bound is not None and instance.end - earliest > bound:
                earliest, rule = instance.end - bound, RULE_CAPPED
            repaired = earliest
            if not config.allow_later_start and repaired > instance.start:
                repaired, rule = instance.start, RULE_CLAMPED
        repaired_instances.append(ActivityInstance(
            instance.trace_id, instance.activity, repaired, instance.end,
            instance.resource))
        estimates.append((rat, ent, earliest))
        rules.append(rule)
    return RepairOutcome(log, ActivityInstanceLog(repaired_instances),
                         tuple(estimates), tuple(rules))
