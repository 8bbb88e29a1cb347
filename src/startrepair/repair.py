"""Start-time repair: resource availability, enablement, earliest start, outlier cap."""
from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cached_property
from math import floor, inf
from typing import Optional, Sequence

from .concurrency import ConcurrencyRelation
from .model import NUMBER, SWITCH, TEXT, ActivityInstanceLog, Kind, _columns, check_fields

RULE_ESTIMATED = "estimated"
RULE_CLAMPED = "clamped_to_recorded"
RULE_CAPPED = "outlier_capped"
RULE_BOT_OR_INSTANT = "bot_or_instant"
RULE_NO_EVIDENCE = "no_evidence"
ALL_RULES = (RULE_ESTIMATED, RULE_CLAMPED, RULE_CAPPED, RULE_BOT_OR_INSTANT,
             RULE_NO_EVIDENCE)
STATISTICS = ("median", "mode")  # typical repaired duration for the outlier cap
STATISTIC = TEXT._replace(description=" or ".join(STATISTICS), within=STATISTICS.__contains__)
OUTLIER_THRESHOLD = NUMBER._replace(description="a finite number > 1",
                                    within=lambda v: 1 < v < inf)
# a label set: any iterable of strings, read once, but a bare string, which
# would split into characters
LABEL_SET = Kind("a set of labels", lambda v: not isinstance(v, str),
                 lambda v: frozenset(filter(None, map(str.strip, v))))


@dataclass(frozen=True)
class RepairConfig:
    """Repair settings, each checked and converted by its kind: `statistic`,
    `outlier_threshold` (unless None) and `allow_later_start` by those of
    their config-file keys, `STATISTIC`, `OUTLIER_THRESHOLD` and `SWITCH`, so
    a threshold is stored as a float, and the two label sets by `LABEL_SET`,
    so each is stored as a frozenset of labels, stripped as input cells are
    and without empty ones, so that every label can match a cell."""

    statistic: str = "median"  # one of STATISTICS
    outlier_threshold: Optional[float] = None  # > 1; None disables capping
    bot_resources: frozenset = frozenset()
    instant_activities: frozenset = frozenset()
    allow_later_start: bool = False

    def __post_init__(self):
        check_fields(vars(self), {
            "statistic": STATISTIC,
            **({} if self.outlier_threshold is None else {"outlier_threshold": OUTLIER_THRESHOLD}),
            "allow_later_start": SWITCH,
            "bot_resources": LABEL_SET, "instant_activities": LABEL_SET})


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


def _decide(trace_ids: Sequence[str], activities: Sequence[str],
            starts: Sequence[datetime], ends: Sequence[datetime],
            resources: Sequence[Optional[str]], relation: ConcurrencyRelation,
            config: RepairConfig) -> tuple[list, ...]:
    """The one pass that decides every start before the outlier cap, over
    five parallel columns: the rows are visited in one stable sort by end, so
    of equal ends the last in column order anchors. Per resource it keeps the
    end visited last and its run's RAT, which a later end replaces with that
    end; an unknown performer has no RAT, as a pool of unbounded capacity.
    Per trace it keeps the rows visited and where the current run of equal
    ends starts, and ENT walks back from there past concurrent activities:
    O(1) per row plus the rows skipped. The same visit sets the estimate,
    `max(RAT, ENT)` or the only one present, the rule and the repaired
    start; a bot or instant row starts at its end and keeps no anchors, but
    anchors others. Returns the RATs, ENTs, estimates, repaired starts and
    rules, in column order."""
    partners = defaultdict(set)  # activity -> the activities concurrent with it
    for a, b in relation.pairs:
        partners[a].add(b)
        partners[b].add(a)
    bots, instants = config.bot_resources, config.instant_activities
    later = config.allow_later_start
    count = len(ends)
    rats, ents, estimates, repaired, rules = ([None] * count for _ in range(5))
    by_resource = {}  # resource -> (end visited last, RAT of its run of equal ends)
    by_trace = {}  # trace -> [rows visited, where the current run of equal ends starts]
    for row in sorted(range(count), key=ends.__getitem__):
        end, activity, resource = ends[row], activities[row], resources[row]
        rat = None
        if resource is not None:
            last, rat = by_resource.get(resource, (None, None))
            if last is not None and last < end:
                rat = last
            by_resource[resource] = end, rat
        ent = None
        state = by_trace.get(trace_ids[row])
        if state is None:
            by_trace[trace_ids[row]] = [[row], 0]
        else:
            visited, run = state
            if ends[visited[-1]] < end:
                state[1] = run = len(visited)
            skip = partners.get(activity, ())
            while run:
                run -= 1
                if activities[visited[run]] not in skip:
                    ent = ends[visited[run]]
                    break
            visited.append(row)
        if activity in instants or resource in bots:
            estimates[row] = repaired[row] = end
            rules[row] = RULE_BOT_OR_INSTANT
            continue
        rats[row], ents[row] = rat, ent
        # as max(rat, ent): of two equal instants, RAT's object and so its offset
        estimates[row] = estimate = ent if rat is None or ent is not None and ent > rat else rat
        start = starts[row]
        if estimate is None:
            repaired[row], rules[row] = start, RULE_NO_EVIDENCE
        elif estimate > start and not later:
            repaired[row], rules[row] = start, RULE_CLAMPED
        else:
            repaired[row], rules[row] = estimate, RULE_ESTIMATED
    return rats, ents, estimates, repaired, rules


def typical_repaired_duration(
    durations: list[timedelta], statistic: str
) -> Optional[timedelta]:
    """Median, or mode over whole-second buckets (ties to the smallest value).

    Returns None for empty input: the activity is exempt from outlier capping.
    A statistic not in `STATISTICS` is refused first, by its kind `STATISTIC`.
    """
    check_fields({"statistic": statistic}, {"statistic": STATISTIC})
    if not durations:
        return None
    if statistic == "median":
        return timedelta(seconds=statistics.median(d.total_seconds() for d in durations))
    return timedelta(seconds=min(statistics.multimode(
        floor(d.total_seconds()) for d in durations)))


def repair_start_times(
    log: ActivityInstanceLog,
    relation: ConcurrencyRelation,
    config: RepairConfig = RepairConfig(),
) -> RepairOutcome:
    """Repair every start time to the instance's earliest starting point.

    One end-ordered pass, `_decide`, gives every instance its anchors, its
    earliest start and its uncapped rule: O(n log n) for the sort, then O(1)
    per row plus the concurrent rows ENT skips. When an outlier threshold is
    set, each activity's cap is then fixed at threshold * typical repaired
    duration, and only the rows whose repaired duration exceeds it are
    decided again, with the capped estimate. Estimates are clamped so starts
    never move past the recorded start (unless `allow_later_start`); RAT and
    ENT lie strictly before the end and the cap is non-negative, so no
    estimate passes the end. Instances flagged bot/instant keep start = end
    regardless of clamping, and their zero durations count in the typical
    duration; instances with no evidence keep their recorded start.
    """
    activities, starts, ends = log.activities, log.starts, log.ends
    rats, ents, estimates, repaired_starts, rules = _decide(*_columns(log), relation, config)

    if config.outlier_threshold is not None:
        by_activity: dict[str, list[timedelta]] = defaultdict(list)
        for activity, end, estimate in zip(activities, ends, estimates):
            if estimate is not None:
                by_activity[activity].append(end - estimate)
        caps: dict[str, timedelta] = {}
        for activity, durations in by_activity.items():
            typical = typical_repaired_duration(durations, config.statistic)
            try:
                caps[activity] = config.outlier_threshold * typical
            except OverflowError:
                pass  # a cap beyond timedelta's range never binds: leave uncapped
        for row, (activity, end, estimate) in enumerate(zip(activities, ends, estimates)):
            cap = caps.get(activity)
            # a bot or instant row's duration is 0, never above a cap
            if cap is None or estimate is None or end - estimate <= cap:
                continue
            estimates[row] = estimate = end - cap
            if not config.allow_later_start and estimate > starts[row]:
                repaired_starts[row], rules[row] = starts[row], RULE_CLAMPED
            else:
                repaired_starts[row], rules[row] = estimate, RULE_CAPPED
    # only the starts change: the repaired log shares the other four columns
    repaired_log = ActivityInstanceLog.from_columns(
        log.trace_ids, activities, repaired_starts, ends, log.resources)
    return RepairOutcome(log, repaired_log, tuple(rats), tuple(ents), tuple(estimates),
                         tuple(rules))
