from __future__ import annotations

import io
from collections import Counter
from datetime import datetime
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from startrepair import (
    ActivityInstance,
    ActivityInstanceLog,
    ConcurrencyRelation,
    ConfigurationError,
    LogFormatError,
    OracleThresholds,
    count_directly_follows,
    discover_concurrency,
    discover_from_log,
    load_concurrency,
)
from startrepair.concurrency import write_concurrency

from .conftest import ts
from .strategies import instance_logs


# labels holding `,`, `"`, CR or LF inside them; `load_concurrency` strips
# every label, so only a label equal to its own strip reads back as written
QUOTED_LABELS = st.text(st.sampled_from('ab ,"\r\n'), min_size=1, max_size=6).filter(
    lambda label: label == label.strip())


def counts_of(pairs: dict) -> Counter:
    return Counter(pairs)


def pairwise_directly_follows(log) -> Counter:
    """O(k^2) reference: adjacency in (start, end, label) order plus every
    overlapping pair of a trace, counted in both directions."""
    counts = Counter()
    for trace_instances in log.per_trace_index.values():
        ordered = sorted(trace_instances,
                         key=lambda i: (i.start, i.end, i.activity))
        for previous, current in zip(ordered, ordered[1:]):
            counts[(previous.activity, current.activity)] += 1
        for first, second in combinations(ordered, 2):
            if first.start < second.end and second.start < first.end:
                counts[(first.activity, second.activity)] += 1
                counts[(second.activity, first.activity)] += 1
    return counts


# dense logs: ties, touching intervals and zero-length instances are common
DENSE_LOGS = instance_logs(max_size=30, horizon_seconds=20, max_duration_seconds=4)


class TestCountDirectlyFollows:
    def test_trace_24_adjacency(self, shipping_log):
        counts = count_directly_follows(shipping_log)
        # trace 24 start-order: Register Order, Prepare Invoice, Prepare
        # Package, Deliver Package
        assert counts[("Register Order", "Prepare Invoice")] >= 1
        assert counts[("Prepare Invoice", "Prepare Package")] >= 1
        assert counts[("Prepare Package", "Deliver Package")] >= 1

    def test_single_instance_trace_contributes_nothing(self):
        log = ActivityInstanceLog(
            [ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                              ts("2021-03-07 12:30:00"), "r")]
        )
        assert count_directly_follows(log) == Counter()

    def test_trace_23_overlap_counts_both_directions(self, shipping_log):
        # Prepare Package (13:11:07-14:17:29) overlaps Prepare Invoice
        # (13:15:21-14:21:56) in trace 23
        counts = count_directly_follows(shipping_log)
        # adjacency gives PP->PI in traces 23 and 25, PI->PP in trace 24;
        # the overlap adds one in each direction
        assert counts[("Prepare Package", "Prepare Invoice")] == 3
        assert counts[("Prepare Invoice", "Prepare Package")] == 2

    def test_zero_length_touch_is_not_overlap(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 12:30:00"), "r"),
            ActivityInstance("1", "b", ts("2021-03-07 12:30:00"),
                             ts("2021-03-07 13:00:00"), "r"),
        ])
        counts = count_directly_follows(log)
        assert counts[("a", "b")] == 1  # adjacency only
        assert counts[("b", "a")] == 0
        assert counts == pairwise_directly_follows(log)

    @pytest.mark.parametrize("intervals, expected", [
        # zero-length at another's start is no overlap
        ([("a", "12:00", "12:30"), ("b", "12:00", "12:00")], {("b", "a"): 1}),
        ([("a", "12:00", "12:30"), ("b", "12:30", "12:30")], {("a", "b"): 1}),
        # zero-length strictly inside another does overlap
        ([("a", "12:00", "12:30"), ("b", "12:10", "12:10")],
         {("a", "b"): 2, ("b", "a"): 1}),
        # identical intervals overlap once in each direction
        ([("a", "12:00", "12:30"), ("b", "12:00", "12:30")],
         {("a", "b"): 2, ("b", "a"): 1}),
        ([("a", "12:00", "12:30"), ("a", "12:00", "12:30")], {("a", "a"): 3}),
    ])
    def test_boundary_intervals(self, intervals, expected):
        log = ActivityInstanceLog([
            ActivityInstance("1", activity, ts(f"2021-03-07 {start}:00"),
                             ts(f"2021-03-07 {end}:00"), "r")
            for activity, start, end in intervals
        ])
        counts = count_directly_follows(log)
        assert counts == Counter(expected)
        assert counts == pairwise_directly_follows(log)

    def test_traces_of_aware_and_naive_stamps(self):
        # trace 1's stamps are aware and trace 2's naive, which cannot be
        # ordered against each other; only stamps of one trace are compared
        def naive(text):
            return datetime.fromisoformat(text)
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 13:00:00"), "r"),
            ActivityInstance("1", "b", ts("2021-03-07 12:30:00"),
                             ts("2021-03-07 14:00:00"), "r"),
            ActivityInstance("2", "c", naive("2021-03-07 12:10:00"),
                             naive("2021-03-07 12:20:00"), "r"),
            ActivityInstance("2", "a", naive("2021-03-07 12:15:00"),
                             naive("2021-03-07 12:40:00"), "r"),
        ])
        counts = count_directly_follows(log)
        assert counts == Counter({("a", "b"): 2, ("b", "a"): 1,
                                  ("c", "a"): 2, ("a", "c"): 1})
        assert counts == pairwise_directly_follows(log)

    def test_nothing_is_counted_across_traces(self):
        # trace 1's last row ends after trace 2's first row starts, and the
        # sort puts them next to each other
        log = ActivityInstanceLog([
            ActivityInstance("2", "r", ts("2021-03-07 12:30:00"),
                             ts("2021-03-07 12:45:00"), "r"),
            ActivityInstance("1", "p", ts("2021-03-07 12:00:00"),
                             ts("2021-03-07 12:20:00"), "r"),
            ActivityInstance("2", "s", ts("2021-03-07 12:50:00"),
                             ts("2021-03-07 13:10:00"), "r"),
            ActivityInstance("1", "q", ts("2021-03-07 12:10:00"),
                             ts("2021-03-07 13:00:00"), "r"),
        ])
        counts = count_directly_follows(log)
        assert counts == Counter({("p", "q"): 2, ("q", "p"): 1, ("r", "s"): 1})
        assert counts == pairwise_directly_follows(log)


class TestDiscoverConcurrency:
    def test_balanced_pair_is_concurrent(self):
        counts = counts_of({("PP", "PI"): 2, ("PI", "PP"): 2})
        relation = discover_concurrency(counts, OracleThresholds(0.05, 0.75))
        assert relation.concurrent("PP", "PI")
        assert relation.concurrent("PI", "PP")

    def test_one_directional_never_concurrent(self):
        counts = counts_of({("a", "b"): 5})
        for balance in (0.1, 0.5, 0.99, 1.0):
            relation = discover_concurrency(counts, OracleThresholds(0.0, balance))
            assert not relation.concurrent("a", "b")

    def test_imbalance_at_threshold_not_concurrent(self):
        counts = counts_of({("a", "b"): 9, ("b", "a"): 1})
        relation = discover_concurrency(counts, OracleThresholds(0.05, 0.75))
        assert not relation.concurrent("a", "b")  # |9-1|/10 = 0.8 >= 0.75

    def test_imbalance_equal_to_threshold_not_concurrent(self):
        counts = counts_of({("a", "b"): 3, ("b", "a"): 1})  # |3-1|/4 = 0.5 exactly
        assert not discover_concurrency(counts, OracleThresholds(0.05, 0.5)).concurrent(
            "a", "b")
        assert discover_concurrency(counts, OracleThresholds(0.05, 0.51)).concurrent(
            "a", "b")

    def test_count_equal_to_floor_survives_noise_filter(self):
        counts = counts_of({("a", "b"): 2, ("b", "a"): 4})  # floor 0.5 * 4 = 2 exactly
        assert discover_concurrency(counts, OracleThresholds(0.5, 0.75)).concurrent(
            "a", "b")
        assert not discover_concurrency(counts, OracleThresholds(0.51, 0.75)).concurrent(
            "a", "b")
        # at df_threshold 1 the floor is the larger count itself, so each
        # direction of an equal pair sits on it
        balanced = counts_of({("a", "b"): 2, ("b", "a"): 2})
        assert discover_concurrency(balanced, OracleThresholds(1.0, 0.75)).concurrent(
            "a", "b")

    def test_df_threshold_filters_noise_direction(self):
        counts = counts_of({("a", "b"): 100, ("b", "a"): 1})
        relation = discover_concurrency(counts, OracleThresholds(0.05, 1.0))
        assert not relation.concurrent("a", "b")  # 1 < 0.05 * 100 -> treated as 0

    def test_reflexive_counts_ignored(self):
        counts = counts_of({("a", "a"): 10})
        assert len(discover_concurrency(counts)) == 0

    def test_shipping_oracle_finds_only_prepare_pair(self, shipping_log):
        relation = discover_from_log(shipping_log)
        assert relation.sorted_pairs() == [("Prepare Invoice", "Prepare Package")]

    def test_threshold_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            OracleThresholds(df_threshold=-0.1)
        with pytest.raises(ConfigurationError):
            OracleThresholds(balance_threshold=1.5)


class TestLoadConcurrency:
    def test_single_pair(self):
        relation = load_concurrency(io.StringIO("Prepare Package,Prepare Invoice\n"))
        assert relation.sorted_pairs() == [("Prepare Invoice", "Prepare Package")]

    def test_reflexive_row_dropped(self, caplog):
        relation = load_concurrency(io.StringIO("A,A\n"))
        assert len(relation) == 0
        assert [(record.levelname, record.getMessage()) for record in caplog.records] == [
            ("WARNING", "line 1: reflexive pair (A, A) dropped")]

    def test_mirrored_rows_collapse(self):
        relation = load_concurrency(io.StringIO("A,B\nB,A\n"))
        assert relation.sorted_pairs() == [("A", "B")]

    def test_bad_field_count_names_line(self):
        with pytest.raises(LogFormatError, match="line 2"):
            load_concurrency(io.StringIO("A,B\nA,B,C\n"))

    def test_lines_after_a_label_spanning_two_lines_keep_their_number(self):
        with pytest.raises(LogFormatError) as error:
            load_concurrency(io.StringIO('a,"b\nc"\nx,x,x\n'))
        assert str(error.value) == "line 3: expected two activity labels, got 3 fields"

    def test_round_trip_through_writer(self):
        relation = load_concurrency(io.StringIO("B,A\nC,A\n"))
        sink = io.StringIO()
        write_concurrency(relation, sink)
        assert sink.getvalue() == "A,B\nA,C\n"
        assert load_concurrency(io.StringIO(sink.getvalue())) == relation

    @given(st.lists(st.tuples(QUOTED_LABELS, QUOTED_LABELS), max_size=6))
    @example([("a\rb", "c")])
    def test_written_relation_loads_back(self, pairs):
        relation = ConcurrencyRelation(pairs)
        sink = io.StringIO(newline="")
        write_concurrency(relation, sink)
        assert load_concurrency(io.StringIO(sink.getvalue(), newline="")) == relation


class TestProperties:
    @given(instance_logs(max_size=10))
    def test_symmetric_irreflexive_deterministic(self, log):
        relation = discover_from_log(log)
        again = discover_from_log(log)
        assert relation == again
        for a in set(log.activities):
            assert not relation.concurrent(a, a)
            for b in set(log.activities):
                assert relation.concurrent(a, b) == relation.concurrent(b, a)

    @given(instance_logs(max_size=10))
    def test_monotone_evidence(self, log):
        # a pair with no reverse-order evidence is never concurrent
        counts = count_directly_follows(log)
        relation = discover_from_log(log)
        for a, b in relation.sorted_pairs():
            assert counts[(a, b)] > 0 and counts[(b, a)] > 0

    @given(st.one_of(DENSE_LOGS, instance_logs(max_size=12)))
    def test_sweep_equals_pairwise_reference(self, log):
        assert count_directly_follows(log) == pairwise_directly_follows(log)
