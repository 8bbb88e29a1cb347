from __future__ import annotations

import io
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
    repair_start_times,
    typical_repaired_duration,
    write_activity_instance_log,
)
from startrepair.repair import (
    RULE_BOT_OR_INSTANT,
    RULE_CLAMPED,
    RULE_NO_EVIDENCE,
    STATISTICS,
)
from startrepair.repair import RULE_CAPPED, RULE_ESTIMATED

from .conftest import find, probe_decision, resource_buckets, row_of, ts
from .strategies import ACTIVITIES, instance_logs, instances
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
        rats = repair_start_times(shipping_log, EMPTY).rats
        assert rats[row_of(shipping_log, "24", "Deliver Package")] == ts(
            "2021-03-07 16:34:10"
        )

    def test_first_instance_of_resource_absent(self, shipping_log):
        rats = repair_start_times(shipping_log, EMPTY).rats
        assert rats[row_of(shipping_log, "23", "Register Order")] is None

    def test_fry_register_order_trace_24(self, shipping_log):
        rats = repair_start_times(shipping_log, EMPTY).rats
        assert rats[row_of(shipping_log, "24", "Register Order")] == ts(
            "2021-03-07 13:05:37"
        )

    def test_equal_end_is_not_previous(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 12:30:00"), "r"),
            ActivityInstance("2", "b", ts("2021-03-07 12:10:00"),
                             ts("2021-03-07 12:30:00"), "r"),
        ])
        assert repair_start_times(log, EMPTY).rats == (None, None)


class TestEnablement:
    def test_deliver_package_trace_24(self, shipping_log):
        ents = repair_start_times(shipping_log, discover_from_log(shipping_log)).ents
        assert ents[row_of(shipping_log, "24", "Deliver Package")] == ts(
            "2021-03-08 11:11:05"
        )

    def test_first_in_trace_absent(self, shipping_log):
        ents = repair_start_times(shipping_log, EMPTY).ents
        assert ents[row_of(shipping_log, "24", "Register Order")] is None

    def test_concurrent_predecessor_excluded(self, shipping_log):
        relation = ConcurrencyRelation([("Prepare Package", "Prepare Invoice")])
        ents = repair_start_times(shipping_log, relation).ents
        # Prepare Invoice's end (15:43:01) is skipped; Register Order enables
        assert ents[row_of(shipping_log, "24", "Prepare Package")] == ts(
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
        ents = repair_start_times(log, EMPTY).ents
        for row in range(1, 4):
            assert ents[row] == ts(
                "2021-03-07 11:40:00") == brute_force_ent(log.instances[row], log, EMPTY)


class TestEarliestStart:
    def test_max_of_rat_and_ent(self, shipping_log):
        estimates = repair_start_times(shipping_log, discover_from_log(shipping_log)).estimates
        assert estimates[row_of(shipping_log, "24", "Deliver Package")] == ts(
            "2021-03-08 11:11:05"
        )

    def test_bot_resource_pins_to_end(self, shipping_log):
        config = RepairConfig(bot_resources={"Leela"})
        row = row_of(shipping_log, "24", "Deliver Package")
        estimates = repair_start_times(shipping_log, EMPTY, config).estimates
        assert estimates[row] == shipping_log.ends[row]

    def test_instant_activity_pins_to_end(self, shipping_log):
        config = RepairConfig(instant_activities={"Deliver Package"})
        row = row_of(shipping_log, "24", "Deliver Package")
        estimates = repair_start_times(shipping_log, EMPTY, config).estimates
        assert estimates[row] == shipping_log.ends[row]

    def test_missing_resource_uses_enablement_only(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 12:30:00"), "r"),
            ActivityInstance("1", "b", ts("2021-03-07 12:45:00"),
                             ts("2021-03-07 13:00:00"), None),
        ])
        assert repair_start_times(log, EMPTY).estimates[1] == ts(
            "2021-03-07 12:30:00"
        )

    def test_no_evidence_is_absent(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 12:30:00"), "r"),
        ])
        assert repair_start_times(log, EMPTY).estimates[0] is None


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
        with pytest.raises(ConfigurationError,
                           match="^statistic must be median or mode, got 'mean'$"):
            typical_repaired_duration(self.seconds([10, 20]), "mean")

    def test_unknown_statistic_rejected_without_durations(self):
        # the statistic is refused before the empty input exempts the activity
        with pytest.raises(ConfigurationError,
                           match="^statistic must be median or mode, got 'mean'$"):
            typical_repaired_duration([], "mean")


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
        # repaired durations run from the prior end: eight 2h values and the
        # 5h01m outlier, median 2h; the cap bounds the outlier at 4h
        assert outcome.estimates[-1] == instances[-1].end - timedelta(hours=4)

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
        assert outcome.rules[0] == RULE_NO_EVIDENCE

    def test_bot_resource_start_set_to_end(self, shipping_log):
        config = RepairConfig(bot_resources={"Zoidberg"})
        outcome = repair_start_times(shipping_log, EMPTY, config)
        for rule, repaired, instance in zip(outcome.rules, outcome.repaired_log.starts,
                                            shipping_log.instances):
            if instance.resource == "Zoidberg":
                assert rule == RULE_BOT_OR_INSTANT
                assert repaired == instance.end

    def test_later_estimate_clamped_by_default(self):
        # resource finishes "a" after "b" was recorded to start
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 13:00:00"), "r"),
            ActivityInstance("2", "b", ts("2021-03-07 12:30:00"),
                             ts("2021-03-07 14:00:00"), "r"),
        ])
        outcome = repair_start_times(log, EMPTY)
        assert outcome.estimates[1] == ts("2021-03-07 13:00:00")
        assert outcome.repaired_log.starts[1] == ts("2021-03-07 12:30:00")
        assert outcome.rules[1] == RULE_CLAMPED

    def test_estimate_equal_to_recorded_start_is_estimated(self):
        # "b" is recorded to start exactly when the resource finished "a"
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 13:00:00"), "r"),
            ActivityInstance("2", "b", ts("2021-03-07 13:00:00"),
                             ts("2021-03-07 14:00:00"), "r"),
        ])
        outcome = repair_start_times(log, EMPTY)
        assert outcome.estimates[1] == log.starts[1]
        assert outcome.repaired_log.starts[1] == log.starts[1]
        assert outcome.rules[1] == RULE_ESTIMATED
        assert outcome.rule_counts()[RULE_CLAMPED] == 0

    def test_allow_later_start_moves_past_recorded(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 13:00:00"), "r"),
            ActivityInstance("2", "b", ts("2021-03-07 12:30:00"),
                             ts("2021-03-07 14:00:00"), "r"),
        ])
        outcome = repair_start_times(log, EMPTY,
                                     RepairConfig(allow_later_start=True))
        assert outcome.repaired_log.starts[1] == ts("2021-03-07 13:00:00")

    def test_allow_later_start_must_be_a_bool(self):
        # b's enablement is a's end, 10:00, an hour after b's recorded start
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 08:00:00"),
                             ts("2021-03-07 10:00:00"), "r"),
            ActivityInstance("1", "b", ts("2021-03-07 09:00:00"),
                             ts("2021-03-07 12:00:00"), "s"),
        ])
        for allow, start, rule in ((False, "09:00", RULE_CLAMPED),
                                   (True, "10:00", RULE_ESTIMATED)):
            outcome = repair_start_times(log, EMPTY, RepairConfig(allow_later_start=allow))
            assert (outcome.repaired_log.starts[1], outcome.rules[1]) == (
                ts(f"2021-03-07 {start}:00"), rule)
        # "no" is truthy, so it would let b start later too
        with pytest.raises(ConfigurationError,
                           match="^allow_later_start must be true or false, got 'no'$"):
            RepairConfig(allow_later_start="no")

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
        # a bare string is a comma-separated list, as a flag's and a file's
        # text is, not a set of characters; a label that is not a string is
        # refused: None in bot_resources would make every unknown performer a bot
        for labels in (["R04", None], [None], ("R04", 4)):
            with pytest.raises(ConfigurationError, match=field):
                RepairConfig(**{field: labels})
        for labels in ("R04", ["R04"], iter(["R04"]), [" R04 ", ""]):
            assert getattr(RepairConfig(**{field: labels}), field) == frozenset({"R04"})

    @pytest.mark.parametrize("field", ["bot_resources", "instant_activities"])
    def test_comma_separated_string_is_a_label_set(self, field):
        # the text a flag or a config file gives: a dict, whose keys would
        # iterate as labels, is still refused
        assert (RepairConfig(**{field: "R04, R05,"})
                == RepairConfig(**{field: ["R04", "R05"]}))
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be a string or a list of strings, got "):
            RepairConfig(**{field: {"R04": True}})

    @pytest.mark.parametrize("field", ["bot_resources", "instant_activities"])
    @pytest.mark.parametrize("labels", [None, 5, [{"a": 1}]],
                             ids=["none", "int", "unhashable"])
    def test_label_set_that_frozenset_refuses(self, field, labels):
        # not iterable, or holding an unhashable value: a configuration error
        # that names the field, not the TypeError of `frozenset(labels)`
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be a string or a list of strings"):
            RepairConfig(**{field: labels})

    def test_duration_equal_to_its_cap_is_estimated(self):
        # repaired durations of `a` are 1h and 3h: median 2h, so threshold 1.5
        # caps at 3h, and a duration equal to its cap is not capped
        log = ActivityInstanceLog([
            ActivityInstance("1", "s", ts("2021-03-07 08:00:00"),
                             ts("2021-03-07 09:00:00"), "r"),
            ActivityInstance("1", "a", ts("2021-03-07 09:30:00"),
                             ts("2021-03-07 10:00:00"), "r"),
            ActivityInstance("1", "a", ts("2021-03-07 12:30:00"),
                             ts("2021-03-07 13:00:00"), "r"),
        ])
        config = RepairConfig(statistic="median", outlier_threshold=1.5)
        outcome = repair_start_times(log, EMPTY, config)
        assert outcome.rules == (RULE_NO_EVIDENCE, RULE_ESTIMATED, RULE_ESTIMATED)
        assert outcome.estimates[1:] == (ts("2021-03-07 09:00:00"),
                                         ts("2021-03-07 10:00:00"))


class TestFirstInTraceLimitation:
    """A trace's first instance has no ENT, so its RAT alone sets its start:
    the resource's last end in another trace, which may lie long before this
    trace began. This pins today's repair, which moves such a start back to
    that RAT; a rule that bounds a RAT-only estimate must change it on
    purpose."""

    def test_first_instance_moves_back_to_a_rat_from_another_trace(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 08:00:00"),
                             ts("2021-03-07 09:00:00"), "r"),
            ActivityInstance("2", "a", ts("2021-03-07 13:00:00"),
                             ts("2021-03-07 14:00:00"), "r"),
            ActivityInstance("2", "b", ts("2021-03-07 14:00:00"),
                             ts("2021-03-07 15:00:00"), "s"),
        ])
        outcome = repair_start_times(log, EMPTY)
        assert outcome.ents[1] is None
        assert outcome.rats[1] == ts("2021-03-07 09:00:00")
        assert outcome.rules[1] == RULE_ESTIMATED
        assert outcome.repaired_log.starts[1] == ts("2021-03-07 09:00:00")
        assert log.starts[1] - outcome.repaired_log.starts[1] == timedelta(hours=4)


class TestRepairProperties:
    @given(instance_logs(max_size=12))
    def test_indexed_equals_brute_force(self, log):
        relation = discover_from_log(log)
        outcome = repair_start_times(log, relation)
        for instance, rat, ent in zip(log.instances, outcome.rats, outcome.ents):
            assert rat == brute_force_rat(instance, log)
            assert ent == brute_force_ent(instance, log, relation)

    # the probe is no row of the log: it shares the log's trace, a resource,
    # both or neither, or has no resource
    @given(instance_logs(max_size=12), st.data(),
           st.lists(st.tuples(st.sampled_from(ACTIVITIES), st.sampled_from(ACTIVITIES))),
           st.frozensets(st.sampled_from(("r1", "r2", "nobody"))),
           st.frozensets(st.sampled_from(ACTIVITIES)))
    def test_lookups_of_a_probe_outside_the_log(self, log, data, pairs, bots, instants):
        probe = data.draw(instances(traces=(*log.trace_ids, "elsewhere"),
                                    resources=(*log.resources, "nobody", None)))
        relation = ConcurrencyRelation(pairs)
        config = RepairConfig(bot_resources=bots, instant_activities=instants)
        rat, ent, _ = probe_decision(probe, log, relation)
        assert rat == brute_force_rat(probe, log)
        assert ent == brute_force_ent(probe, log, relation)
        if probe.resource in bots or probe.activity in instants:
            expected = probe.end
        else:
            expected = max((anchor for anchor in (rat, ent) if anchor is not None),
                           default=None)
        assert probe_decision(probe, log, relation, config)[2] == expected

    @given(instance_logs(max_size=12))
    def test_repair_invariants(self, log):
        relation = discover_from_log(log)
        outcome = repair_start_times(log, relation)
        for column in (outcome.rats, outcome.ents, outcome.estimates, outcome.rules,
                       outcome.repaired_log.starts):
            assert len(column) == len(log)
        for before, after in zip(log.instances, outcome.repaired_log.instances):
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
        for rat, ent, instance, repaired in zip(outcome.rats, outcome.ents, log.instances,
                                                outcome.repaired_log.starts):
            if rat is not None and ent is not None and max(rat, ent) <= instance.start:
                assert repaired == max(rat, ent)

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
        for rat, ent, rule, instance in zip(outcome.rats, outcome.ents, outcome.rules,
                                            log.instances):
            if rule != RULE_BOT_OR_INSTANT:
                assert rat == brute_force_rat(instance, log)
                assert ent == brute_force_ent(instance, log, relation)

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
        for estimate, after in zip(outcome.estimates, outcome.repaired_log.instances):
            assert after.start <= after.end
            if estimate is not None:
                assert estimate <= after.end


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
        for row, instance in enumerate(log.instances):
            rat = None if instance.resource is None else tie_anchor(log, row, log.resources)
            ent = tie_anchor(log, row, log.trace_ids, relation)
            assert outcome.rats[row] is rat and outcome.ents[row] is ent
        for index, keys in ((resource_buckets(log), log.resources),
                            (log.per_trace_index, log.trace_ids)):
            assert index.keys() == set(keys)
            for key, group in index.items():
                rows = sorted((j for j in range(len(log)) if keys[j] == key),
                              key=lambda j: (log.ends[j], j))
                assert len(group) == len(rows)
                assert all(map(operator.is_, group, map(log.instances.__getitem__, rows)))

    def test_rat_keeps_its_offset_when_ent_is_the_same_instant(self):
        # RAT is 10:00 UTC written at +00:00, ENT the same instant written at
        # +02:00; the estimate is max(RAT, ENT), which keeps RAT's object
        plus_two = timezone(timedelta(hours=2))
        log = ActivityInstanceLog([
            ActivityInstance("other", "p", ts("2021-03-07 09:00:00"),
                             ts("2021-03-07 10:00:00"), "r"),
            ActivityInstance("t", "a", ts("2021-03-07 09:30:00").astimezone(plus_two),
                             ts("2021-03-07 10:00:00").astimezone(plus_two), "s"),
            ActivityInstance("t", "b", ts("2021-03-07 10:30:00"),
                             ts("2021-03-07 11:00:00"), "r"),
        ])
        rat, ent = log.ends[0], log.ends[1]
        assert rat == ent and rat.utcoffset() != ent.utcoffset()
        outcome = repair_start_times(log, EMPTY)
        assert outcome.rats[2] is rat and outcome.ents[2] is ent
        assert outcome.estimates[2] is rat
        assert outcome.repaired_log.starts[2] is rat
        sink = io.StringIO()
        write_activity_instance_log(outcome.repaired_log, sink)
        assert sink.getvalue().splitlines()[3] == (
            "t,b,2021-03-07 10:00:00+00:00,2021-03-07 11:00:00+00:00,r")


def columnar_copy(log):
    """An equal log built from `log`'s columns, with no view built yet."""
    return ActivityInstanceLog.from_columns(log.trace_ids, log.activities, log.starts,
                                            log.ends, log.resources)


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
            assert outcome.rules[i] == RULE_CLAMPED
            assert outcome.estimates[i] == log.ends[i]  # capped at a zero duration
            assert log.ends[i] - outcome.repaired_log.starts[i] == timedelta(minutes=30)

        without_bot = repair_start_times(log, EMPTY, replace(config, bot_resources=frozenset()))
        for i in humans:
            assert without_bot.rules[i] == RULE_ESTIMATED
            assert log.ends[i] - without_bot.repaired_log.starts[i] == timedelta(hours=1)


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
