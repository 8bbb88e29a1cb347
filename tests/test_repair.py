from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import replace
from datetime import timedelta
from datetime import timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from startrepair import (
    ActivityInstance,
    ActivityInstanceLog,
    ConcurrencyRelation,
    ConfigurationError,
    RepairConfig,
    discover_from_log,
    earliest_start,
    enablement_time,
    repair_start_times,
    resource_availability_time,
    typical_repaired_duration,
)
from startrepair.repair import (
    RULE_BOT_OR_INSTANT,
    RULE_CLAMPED,
    RULE_NO_EVIDENCE,
    STATISTICS,
)
from startrepair.repair import RULE_CAPPED, RULE_ESTIMATED

from .conftest import find, ts
from .strategies import ACTIVITIES, instance_logs
from .strategies import TRACES
from .strategies import RESOURCES

EMPTY = ConcurrencyRelation()


def brute_force_rat(instance, log):
    """O(n^2) reference: max same-resource end strictly before this end."""
    if instance.resource is None:
        return None
    ends = [
        other.end
        for other in log.instances
        if other.resource == instance.resource and other.end < instance.end
    ]
    return max(ends) if ends else None


def brute_force_ent(instance, log, relation):
    ends = [
        other.end
        for other in log.instances
        if other.trace_id == instance.trace_id
        and other.end < instance.end
        and not relation.concurrent(other.activity, instance.activity)
    ]
    return max(ends) if ends else None


class TestResourceAvailability:
    def test_leela_deliver_package(self, shipping_log):
        instance = find(shipping_log, "24", "Deliver Package")
        assert resource_availability_time(instance, shipping_log) == ts(
            "2021-03-07 16:34:10"
        )

    def test_first_instance_of_resource_absent(self, shipping_log):
        instance = find(shipping_log, "23", "Register Order")
        assert resource_availability_time(instance, shipping_log) is None

    def test_fry_register_order_trace_24(self, shipping_log):
        instance = find(shipping_log, "24", "Register Order")
        assert resource_availability_time(instance, shipping_log) == ts(
            "2021-03-07 13:05:37"
        )

    def test_equal_end_is_not_previous(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 12:30:00"), "r"),
            ActivityInstance("2", "b", ts("2021-03-07 12:10:00"),
                             ts("2021-03-07 12:30:00"), "r"),
        ])
        for instance in log.instances:
            assert resource_availability_time(instance, log) is None


class TestEnablement:
    def test_deliver_package_trace_24(self, shipping_log):
        relation = discover_from_log(shipping_log)
        instance = find(shipping_log, "24", "Deliver Package")
        assert enablement_time(instance, shipping_log, relation) == ts(
            "2021-03-08 11:11:05"
        )

    def test_first_in_trace_absent(self, shipping_log):
        instance = find(shipping_log, "24", "Register Order")
        assert enablement_time(instance, shipping_log, EMPTY) is None

    def test_concurrent_predecessor_excluded(self, shipping_log):
        relation = ConcurrencyRelation([("Prepare Package", "Prepare Invoice")])
        instance = find(shipping_log, "24", "Prepare Package")
        # Prepare Invoice's end (15:43:01) is skipped; Register Order enables
        assert enablement_time(instance, shipping_log, relation) == ts(
            "2021-03-07 13:12:11"
        )

    def test_equal_ends_are_not_previous(self):
        at = "2021-03-07 12:30:00"
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 11:00:00"),
                             ts("2021-03-07 11:40:00"), "r"),
            ActivityInstance("1", "b", ts("2021-03-07 11:50:00"), ts(at), "r"),
            ActivityInstance("1", "c", ts("2021-03-07 12:00:00"), ts(at), "s"),
            ActivityInstance("1", "d", ts("2021-03-07 12:10:00"), ts(at), None),
            ActivityInstance("2", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 12:20:00"), "r"),
        ])
        for instance in log.instances[1:4]:
            assert enablement_time(instance, log, EMPTY) == ts(
                "2021-03-07 11:40:00") == brute_force_ent(instance, log, EMPTY)


class TestEarliestStart:
    def test_max_of_rat_and_ent(self, shipping_log):
        relation = discover_from_log(shipping_log)
        instance = find(shipping_log, "24", "Deliver Package")
        assert earliest_start(instance, shipping_log, relation) == ts(
            "2021-03-08 11:11:05"
        )

    def test_bot_resource_pins_to_end(self, shipping_log):
        config = RepairConfig(bot_resources={"Leela"})
        instance = find(shipping_log, "24", "Deliver Package")
        assert earliest_start(instance, shipping_log, EMPTY, config) == instance.end

    def test_instant_activity_pins_to_end(self, shipping_log):
        config = RepairConfig(instant_activities={"Deliver Package"})
        instance = find(shipping_log, "24", "Deliver Package")
        assert earliest_start(instance, shipping_log, EMPTY, config) == instance.end

    def test_missing_resource_uses_enablement_only(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 12:30:00"), "r"),
            ActivityInstance("1", "b", ts("2021-03-07 12:45:00"),
                             ts("2021-03-07 13:00:00"), None),
        ])
        assert earliest_start(log.instances[1], log, EMPTY) == ts(
            "2021-03-07 12:30:00"
        )

    def test_no_evidence_is_absent(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 12:30:00"), "r"),
        ])
        assert earliest_start(log.instances[0], log, EMPTY) is None


class TestTypicalDuration:
    def seconds(self, values):
        return [timedelta(seconds=v) for v in values]

    def test_median_odd(self):
        assert typical_repaired_duration(self.seconds([10, 20, 30]), "median") == (
            timedelta(seconds=20)
        )

    def test_median_even_is_midpoint(self):
        assert typical_repaired_duration(
            self.seconds([10, 20, 30, 40]), "median"
        ) == timedelta(seconds=25)

    def test_mode_majority(self):
        assert typical_repaired_duration(
            self.seconds([10, 10, 500]), "mode"
        ) == timedelta(seconds=10)

    def test_mode_tie_breaks_to_smallest(self):
        assert typical_repaired_duration(
            self.seconds([30, 30, 10, 10, 500]), "mode"
        ) == timedelta(seconds=10)

    def test_mode_discretizes_to_whole_seconds(self):
        durations = [timedelta(seconds=10.2), timedelta(seconds=10.9),
                     timedelta(seconds=20)]
        assert typical_repaired_duration(durations, "mode") == timedelta(seconds=10)

    def test_empty_absent(self):
        assert typical_repaired_duration([], "median") is None

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown statistic: 'mean'"):
            typical_repaired_duration(self.seconds([10, 20]), "mean")


class TestRepairStartTimes:
    def test_shipping_deliver_package_repaired(self, shipping_log):
        relation = discover_from_log(shipping_log)
        outcome = repair_start_times(shipping_log, relation)
        repaired = find(outcome.repaired_log, "24", "Deliver Package")
        assert repaired.start == ts("2021-03-08 11:11:05")
        assert repaired.end - repaired.start == timedelta(hours=3, minutes=26,
                                                          seconds=1)

    def test_repaired_log_shares_all_but_the_start_column(self, shipping_log):
        outcome = repair_start_times(shipping_log, discover_from_log(shipping_log))
        repaired = outcome.repaired_log
        for column in ("trace_ids", "activities", "ends", "resources"):
            assert getattr(repaired, column) is getattr(shipping_log, column)
        assert "instances" not in repaired.__dict__

    def test_outlier_cap_re_estimates(self):
        # nine 1h instances and one 5h outlier; eta=2 caps the outlier at 2h
        instances = []
        base = ts("2021-03-07 08:00:00")
        for i in range(9):
            start = base + timedelta(hours=2 * i)
            instances.append(
                ActivityInstance("1", "a", start, start + timedelta(hours=1), "r")
            )
        tail = instances[-1].end
        instances.append(
            ActivityInstance("1", "a", tail + timedelta(hours=5),
                             tail + timedelta(hours=5, minutes=1), "r")
        )
        log = ActivityInstanceLog(instances)
        config = RepairConfig(statistic="median", outlier_threshold=2.0)
        outcome = repair_start_times(log, EMPTY, config)
        capped = outcome.per_instance[-1]
        # repaired durations run from the prior end: eight 2h values and the
        # 5h01m outlier, median 2h; the cap bounds the outlier at 4h
        assert capped.earliest_start == instances[-1].end - timedelta(hours=4)

    def test_fixpoint_log_unchanged(self):
        # sequential one-resource chain where each start equals the previous end
        base = ts("2021-03-07 08:00:00")
        instances = []
        cursor = base
        for activity in ("a", "b", "c"):
            instances.append(
                ActivityInstance("1", activity, cursor,
                                 cursor + timedelta(minutes=30), "r")
            )
            cursor += timedelta(minutes=30)
        log = ActivityInstanceLog(instances)
        outcome = repair_start_times(log, EMPTY)
        assert outcome.repaired_log == log

    def test_no_evidence_keeps_recorded_start(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 12:30:00"), "r"),
        ])
        outcome = repair_start_times(log, EMPTY)
        assert outcome.repaired_log == log
        assert outcome.per_instance[0].rule_applied == RULE_NO_EVIDENCE

    def test_bot_resource_start_set_to_end(self, shipping_log):
        config = RepairConfig(bot_resources={"Zoidberg"})
        outcome = repair_start_times(shipping_log, EMPTY, config)
        for record, instance in zip(outcome.per_instance, shipping_log.instances):
            if instance.resource == "Zoidberg":
                assert record.rule_applied == RULE_BOT_OR_INSTANT
                assert record.repaired_start == instance.end

    def test_later_estimate_clamped_by_default(self):
        # resource finishes "a" after "b" was recorded to start
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 13:00:00"), "r"),
            ActivityInstance("2", "b", ts("2021-03-07 12:30:00"),
                             ts("2021-03-07 14:00:00"), "r"),
        ])
        outcome = repair_start_times(log, EMPTY)
        record = outcome.per_instance[1]
        assert record.earliest_start == ts("2021-03-07 13:00:00")
        assert record.repaired_start == ts("2021-03-07 12:30:00")
        assert record.rule_applied == RULE_CLAMPED

    def test_allow_later_start_moves_past_recorded(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 13:00:00"), "r"),
            ActivityInstance("2", "b", ts("2021-03-07 12:30:00"),
                             ts("2021-03-07 14:00:00"), "r"),
        ])
        outcome = repair_start_times(log, EMPTY,
                                     RepairConfig(allow_later_start=True))
        assert outcome.per_instance[1].repaired_start == ts("2021-03-07 13:00:00")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RepairConfig(statistic="mean")
        with pytest.raises(ConfigurationError):
            RepairConfig(outlier_threshold=1.0)
        for threshold in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                RepairConfig(outlier_threshold=threshold)

    @pytest.mark.parametrize("field", ["bot_resources", "instant_activities"])
    def test_bare_string_is_not_a_label_set(self, field):
        with pytest.raises(ConfigurationError, match=field):
            RepairConfig(**{field: "R04"})
        assert getattr(RepairConfig(**{field: ["R04"]}), field) == frozenset({"R04"})


class TestRepairProperties:
    @given(instance_logs(max_size=12))
    def test_indexed_equals_brute_force(self, log):
        relation = discover_from_log(log)
        for instance in log.instances:
            assert resource_availability_time(instance, log) == brute_force_rat(
                instance, log
            )
            assert enablement_time(instance, log, relation) == brute_force_ent(
                instance, log, relation
            )

    @given(instance_logs(max_size=12))
    def test_repair_invariants(self, log):
        relation = discover_from_log(log)
        outcome = repair_start_times(log, relation)
        assert len(outcome.per_instance) == len(log)
        for record, before, after in zip(
            outcome.per_instance, log.instances, outcome.repaired_log.instances
        ):
            assert after.start <= after.end
            assert after.start <= before.start  # default clamp
            assert (after.trace_id, after.activity, after.end, after.resource) == (
                before.trace_id, before.activity, before.end, before.resource
            )
        # idempotence: repairing the repaired log never moves a start later
        again = repair_start_times(outcome.repaired_log, relation)
        for once, twice in zip(
            outcome.repaired_log.instances, again.repaired_log.instances
        ):
            assert twice.start <= once.start

    @given(instance_logs(max_size=12))
    def test_dominance_without_threshold(self, log):
        relation = discover_from_log(log)
        outcome = repair_start_times(log, relation)
        for record, instance in zip(outcome.per_instance, log.instances):
            if (
                record.rat is not None
                and record.ent is not None
                and max(record.rat, record.ent) <= instance.start
            ):
                assert record.repaired_start == max(record.rat, record.ent)

    @given(instance_logs(max_size=12),
           st.frozensets(st.sampled_from(("r1", "r2"))),
           st.frozensets(st.sampled_from(ACTIVITIES)))
    def test_repair_agrees_with_earliest_start(self, log, bots, instants):
        relation = discover_from_log(log)
        config = RepairConfig(bot_resources=bots, instant_activities=instants)
        outcome = repair_start_times(log, relation, config)
        for record, instance in zip(outcome.per_instance, log.instances):
            assert record.earliest_start == earliest_start(
                instance, log, relation, config)
            if record.rule_applied == RULE_BOT_OR_INSTANT:
                assert record.rat is None and record.ent is None

    def test_audit_records_built_only_on_request(self, shipping_log):
        outcome = repair_start_times(shipping_log, discover_from_log(shipping_log))
        assert len(outcome.repaired_log) == len(shipping_log)
        assert sum(outcome.rule_counts().values()) == len(shipping_log)
        assert "per_instance" not in outcome.__dict__
        assert len(outcome.per_instance) == len(shipping_log)
        assert outcome.per_instance is outcome.per_instance

    # a 3 s horizon and durations of at most 2 s give many equal ends within
    # a resource and within a trace
    @given(instance_logs(horizon_seconds=3, max_duration_seconds=2, max_size=30),
           st.lists(st.tuples(st.sampled_from(ACTIVITIES), st.sampled_from(ACTIVITIES))),
           st.frozensets(st.sampled_from(("r1", "r2"))),
           st.frozensets(st.sampled_from(ACTIVITIES)))
    def test_end_ordered_pass_on_heavy_ties(self, log, pairs, bots, instants):
        relation = ConcurrencyRelation(pairs)
        config = RepairConfig(bot_resources=bots, instant_activities=instants)
        outcome = repair_start_times(log, relation, config)
        for record, instance in zip(outcome.per_instance, log.instances):
            if record.rule_applied != RULE_BOT_OR_INSTANT:
                assert record.rat == brute_force_rat(instance, log)
                assert record.ent == brute_force_ent(instance, log, relation)

    def test_repair_builds_no_resource_index(self, shipping_log):
        repair_start_times(shipping_log, discover_from_log(shipping_log))
        assert "per_resource_index" not in shipping_log.__dict__

    @given(instance_logs(max_size=12))
    def test_rule_counts_sum_to_instances(self, log):
        outcome = repair_start_times(log, discover_from_log(log))
        assert sum(outcome.rule_counts().values()) == len(log)

    @given(instance_logs(max_size=12),
           st.sampled_from([None, 1.5, 2.0, 5.0]),
           st.sampled_from(STATISTICS),
           st.frozensets(st.sampled_from(("r1", "r2"))),
           st.booleans())
    def test_repaired_start_never_passes_end(self, log, threshold, statistic, bots,
                                             allow_later_start):
        config = RepairConfig(statistic=statistic, outlier_threshold=threshold,
                              bot_resources=bots, allow_later_start=allow_later_start)
        outcome = repair_start_times(log, discover_from_log(log), config)
        for record, after in zip(outcome.per_instance, outcome.repaired_log.instances):
            assert after.start <= after.end
            if record.earliest_start is not None:
                assert record.earliest_start <= after.end


def tie_anchor(log, row, keys, relation=EMPTY):
    """O(n^2) reference of the tie rule: among the rows that share `row`'s key
    in `keys` and end strictly before it, not concurrent with it, the end
    object of the one last in log order among the maximal ends."""
    ends, activities = log.ends, log.activities
    earlier = [j for j in range(len(log))
               if keys[j] == keys[row] and ends[j] < ends[row]
               and not relation.concurrent(activities[j], activities[row])]
    if not earlier:
        return None
    latest = max(ends[j] for j in earlier)
    return ends[[j for j in earlier if ends[j] == latest][-1]]


class TestTieOrder:
    """Equal ends can be different objects, and with different offsets, so
    which one becomes an anchor decides the offset a repaired start is
    written with: it is always the one last in log order."""

    # a 3 s horizon gives many equal ends; traces in `moved` are written at
    # UTC+02:00, so a resource's equal ends differ in offset
    @given(instance_logs(horizon_seconds=3, max_duration_seconds=2, max_size=30),
           st.frozensets(st.sampled_from(TRACES)),
           st.lists(st.tuples(st.sampled_from(ACTIVITIES), st.sampled_from(ACTIVITIES))))
    def test_anchor_is_the_last_of_the_latest_ends(self, log, moved, pairs):
        plus_two = timezone(timedelta(hours=2))
        log = ActivityInstanceLog(
            replace(i, start=i.start.astimezone(plus_two), end=i.end.astimezone(plus_two))
            if i.trace_id in moved else i
            for i in log.instances)
        relation = ConcurrencyRelation(pairs)
        outcome = repair_start_times(log, relation)
        for row, (instance, record) in enumerate(zip(log.instances, outcome.per_instance)):
            rat = None if instance.resource is None else tie_anchor(log, row, log.resources)
            ent = tie_anchor(log, row, log.trace_ids, relation)
            assert record.rat is rat and record.ent is ent
            assert resource_availability_time(instance, log) is rat
            assert enablement_time(instance, log, relation) is ent
        for index, keys in ((log.per_resource_index, log.resources),
                            (log.per_trace_index, log.trace_ids)):
            assert index.keys() == set(keys)
            for key, group in index.items():
                rows = sorted((j for j in range(len(log)) if keys[j] == key),
                              key=lambda j: (log.ends[j], j))
                assert len(group) == len(rows)
                assert all(map(operator.is_, group, map(log.instances.__getitem__, rows)))


def columnar_copy(log):
    """An equal log built from `log`'s columns, with no view built yet."""
    return ActivityInstanceLog.from_columns(log.trace_ids, log.activities, log.starts,
                                            log.ends, log.resources)


def test_lookups_build_no_instance_view(shipping_log):
    log = columnar_copy(shipping_log)
    assert log == shipping_log
    relation = discover_from_log(shipping_log)
    for instance in shipping_log.instances:
        assert resource_availability_time(instance, log) == brute_force_rat(
            instance, shipping_log)
        assert enablement_time(instance, log, relation) == brute_force_ent(
            instance, shipping_log, relation)
        earliest_start(instance, log, relation)
    for view in ("instances", "per_resource_index", "per_trace_index"):
        assert view not in log.__dict__


def test_repair_caches_nothing_on_the_log(shipping_log):
    # groups cached on the log would outlive the repair, through the write
    log = columnar_copy(shipping_log)
    relation = discover_from_log(log)
    cached = dict(log.__dict__)
    repair_start_times(log, relation, RepairConfig(outlier_threshold=2.0))
    assert log.__dict__ == cached


class TestBotDurationsInTheCap:
    """A bot or instant instance's estimate is its end, so its zero duration
    counts in its activity's typical duration. Four bot instances against
    three human ones make the median zero, the 2x cap zero, and so undo the
    humans' repair."""

    @staticmethod
    def log():
        rows = []
        for k in range(3):  # human `a`, enabled 1 h before its end, recorded 30 min
            day = ts("2021-03-07 08:00:00") + timedelta(days=k)
            rows.append(ActivityInstance(f"h{k}", "x", day, day + timedelta(hours=1), f"s{k}"))
            rows.append(ActivityInstance(f"h{k}", "a", day + timedelta(minutes=90),
                                         day + timedelta(hours=2), f"r{k}"))
        for k in range(4):
            day = ts("2021-03-07 08:00:00") + timedelta(days=k)
            rows.append(ActivityInstance(f"b{k}", "a", day, day + timedelta(minutes=5), "b"))
        return ActivityInstanceLog(rows)

    def test_bot_zero_durations_pull_the_cap_to_zero(self):
        log = self.log()
        humans = [i for i in range(len(log)) if log.resources[i] in ("r0", "r1", "r2")]
        config = RepairConfig(outlier_threshold=2.0, bot_resources={"b"})
        outcome = repair_start_times(log, EMPTY, config)
        assert outcome.rule_counts()[RULE_CLAMPED] == 3
        assert outcome.rule_counts()[RULE_BOT_OR_INSTANT] == 4
        for i in humans:
            record = outcome.per_instance[i]
            assert record.rule_applied == RULE_CLAMPED
            assert record.earliest_start == log.ends[i]  # capped at a zero duration
            assert log.ends[i] - record.repaired_start == timedelta(minutes=30)

        without_bot = repair_start_times(log, EMPTY, replace(config, bot_resources=frozenset()))
        for i in humans:
            record = without_bot.per_instance[i]
            assert record.rule_applied == RULE_ESTIMATED
            assert log.ends[i] - record.repaired_start == timedelta(hours=1)


class TestDecisionColumns:
    @given(instance_logs(max_size=12),
           st.frozensets(st.sampled_from(RESOURCES[:2])),
           st.frozensets(st.sampled_from(ACTIVITIES)),
           st.sampled_from([None, 1.5, 2.0, 5.0]),
           st.sampled_from(STATISTICS),
           st.booleans())
    def test_columns_explain_every_start(self, log, bots, instants, threshold,
                                         statistic, allow_later_start):
        config = RepairConfig(statistic=statistic, outlier_threshold=threshold,
                              bot_resources=bots, instant_activities=instants,
                              allow_later_start=allow_later_start)
        outcome = repair_start_times(log, discover_from_log(log), config)
        rats, ents, estimates, rules = (outcome.rats, outcome.ents, outcome.estimates,
                                        outcome.rules)
        for column in (rats, ents, estimates, rules):
            assert isinstance(column, tuple) and len(column) == len(log)
        starts, ends, repaired = log.starts, log.ends, outcome.repaired_log.starts

        def later_anchor(i):
            return max((a for a in (rats[i], ents[i]) if a is not None), default=None)

        # each activity's cap, from the uncapped estimates the anchors give
        caps = {}
        if threshold is not None:
            durations = defaultdict(list)
            for i, activity in enumerate(log.activities):
                if rules[i] == RULE_BOT_OR_INSTANT:
                    durations[activity].append(timedelta(0))
                elif later_anchor(i) is not None:
                    durations[activity].append(ends[i] - later_anchor(i))
            caps = {activity: threshold * typical_repaired_duration(d, statistic)
                    for activity, d in durations.items()}

        for i, record in enumerate(outcome.per_instance):
            assert (record.original_start, record.rat, record.ent, record.earliest_start,
                    record.repaired_start, record.rule_applied) == (
                starts[i], rats[i], ents[i], estimates[i], repaired[i], rules[i])
            rule, estimate, later = rules[i], estimates[i], later_anchor(i)
            cap = caps.get(log.activities[i])
            bot = log.activities[i] in instants or log.resources[i] in bots
            assert bot == (rule == RULE_BOT_OR_INSTANT)
            if bot:
                assert rats[i] is None and ents[i] is None
                assert estimate is ends[i] and repaired[i] is ends[i]
            elif rule == RULE_NO_EVIDENCE:
                assert later is None and estimate is None and repaired[i] is starts[i]
            elif rule == RULE_ESTIMATED:
                assert estimate == later
                assert estimate is rats[i] or estimate is ents[i]
                assert cap is None or ends[i] - estimate <= cap
                assert repaired[i] is estimate
            elif rule == RULE_CAPPED:
                assert ends[i] - later > cap
                assert estimate == ends[i] - cap and repaired[i] is estimate
            else:
                assert rule == RULE_CLAMPED and not allow_later_start
                capped = cap is not None and ends[i] - later > cap
                assert estimate == (ends[i] - cap if capped else later)
                assert estimate > starts[i] and repaired[i] is starts[i]
