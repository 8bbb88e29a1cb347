from __future__ import annotations

import csv
import io
import math
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from startrepair import (
    ActivityInstance,
    ActivityInstanceLog,
    Histogram,
    cycle_time_histograms,
    evaluate_logs,
    timestamp_histogram,
    wasserstein_1d,
)
from startrepair.evaluate import HOUR, EmdReport, dump_histograms, trace_cycle_times

from .conftest import ts
from .emd_oracles import flow_enumeration_cost, monotone_matching_cost
from .strategies import instance_logs


def histogram(masses: dict) -> Histogram:
    return Histogram(origin=0.0, bin_width=1.0, masses=masses)


def shifted(log: ActivityInstanceLog, delta: timedelta) -> ActivityInstanceLog:
    return ActivityInstanceLog(
        ActivityInstance(i.trace_id, i.activity, i.start + delta, i.end + delta,
                         i.resource)
        for i in log.instances
    )


zones = st.builds(lambda minutes: timezone(timedelta(minutes=minutes)),
                  st.integers(min_value=-14 * 60, max_value=14 * 60))
stamps = st.builds(lambda moment, zone: moment.replace(tzinfo=zone),
                   st.datetimes(min_value=datetime(2020, 1, 1),
                                max_value=datetime(2022, 12, 31)), zones)
near_hours = st.builds(
    lambda hours, microseconds: timedelta(hours=hours, microseconds=microseconds),
    st.integers(min_value=-2000, max_value=2000),
    st.one_of(st.integers(min_value=-10**6, max_value=10**6),
              st.integers(min_value=-3600 * 10**6, max_value=3600 * 10**6)))

# A hand-built pair, every stamp on 2021-03-01 UTC. Its report, worked by hand:
# - Timestamps, in hour bins from 08:00. The reference's starts and ends fall
#   in bins 0, 1, 4 and 1, 2, 5: {0: 1, 1: 2, 2: 1, 4: 1, 5: 1}, mass 6 in 5
#   bins. The other's fall in 0 and 3: mass 2 in 2 bins. Their CDFs differ by
#   1/3, 0, 1/6, 1/3 and 1/6 over the unit gaps from bin 0 to 5: EMD 1.
# - Cycle times. The reference's are 2.5 h (t1) and 1 h (t2), so the origin is
#   3600 s and W = (9000 - 3600) / 100 = 54 s. 1 h takes bin 0, and 2.5 h
#   takes the right-closed bin 99. The other's 3 h takes floor(7200 / 54) =
#   133. Half the mass moves 99 bins and all of it 34 more: EMD 49.5 + 34 = 83.5.
EMD_REFERENCE_ROWS = [
    ("t1", "a", "2021-03-01 08:00:00", "2021-03-01 09:00:00", "r"),
    ("t1", "b", "2021-03-01 09:00:00", "2021-03-01 10:30:00", "r"),
    ("t2", "a", "2021-03-01 12:00:00", "2021-03-01 13:00:00", "r"),
]
EMD_OTHER_ROWS = [("t1", "a", "2021-03-01 08:00:00", "2021-03-01 11:00:00", "r")]
EMD_PAIR_REPORT = EmdReport(timestamp_emd=1.0, cycle_time_emd=83.5, reference_mass=6.0,
                            other_mass=2.0, bin_width_seconds=54.0, reference_bins=5,
                            other_bins=2)


def log_of(rows) -> ActivityInstanceLog:
    return ActivityInstanceLog(ActivityInstance(trace, activity, ts(start), ts(end), resource)
                               for trace, activity, start, end, resource in rows)


small_masses = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=4),
    min_size=1,
    max_size=6,
).filter(lambda m: sum(m.values()) > 0)


class TestTimestampHistogram:
    def test_shipping_total_mass_is_twenty(self, shipping_log):
        assert timestamp_histogram(shipping_log, ts("2021-03-07 12:00:00")).total_mass == 20

    def test_same_hour_shares_a_bin(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2022-02-09 10:00:00"),
                             ts("2022-02-09 10:59:59"), "r"),
        ])
        hist = timestamp_histogram(log, ts("2022-02-09 10:00:00"))
        assert hist.masses == {0: 2.0}

    def test_hour_boundary_splits_bins(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2022-02-09 10:59:59"),
                             ts("2022-02-09 11:00:00"), "r"),
        ])
        hist = timestamp_histogram(log, ts("2022-02-09 10:00:00"))
        assert hist.masses == {0: 1.0, 1: 1.0}

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            timestamp_histogram(ActivityInstanceLog([]), ts("2022-02-09 10:00:00"))

    @given(stamps, st.lists(st.tuples(near_hours, near_hours, zones), min_size=1,
                            max_size=20))
    def test_bins_equal_floored_hours_from_the_origin(self, origin, offsets):
        # points either side of the origin, within a second of an hour
        # boundary or anywhere, written at mixed offsets
        points = [(origin + first).astimezone(zone) for first, _, zone in offsets]
        ends = [(origin + max(first, second)).astimezone(zone)
                for first, second, zone in offsets]
        log = ActivityInstanceLog.from_columns(
            ["t"] * len(points), ["a"] * len(points), points, ends, [None] * len(points))
        expected = Counter((point - origin) // HOUR for point in (*points, *ends))
        assert timestamp_histogram(log, origin).masses == {
            index: float(count) for index, count in expected.items()}


class TestCycleTimeHistograms:
    def reference_log(self):
        # two traces with cycle times 0h and 100h
        return ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-01 00:00:00"),
                             ts("2021-03-01 00:00:00"), "r"),
            ActivityInstance("2", "a", ts("2021-03-01 00:00:00"),
                             ts("2021-03-05 04:00:00"), "r"),
        ])

    def test_reference_range_gives_hundredth_width(self):
        ref = self.reference_log()
        hist, _ = cycle_time_histograms(ref, ref)
        assert hist.bin_width == 3600.0  # (100h - 0h) / 100

    def test_reference_max_closes_last_bin(self):
        ref = self.reference_log()
        hist, _ = cycle_time_histograms(ref, ref)
        assert hist.masses == {0: 1.0, 99: 1.0}

    def test_other_log_extrapolates_beyond_range(self):
        ref = self.reference_log()
        other = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-01 00:00:00"),
                             ts("2021-03-07 06:00:00"), "r"),  # 150h cycle
            # 100h30m: index 100, just past the right-closed last bin's edge
            ActivityInstance("2", "a", ts("2021-03-01 00:00:00"),
                             ts("2021-03-05 04:30:00"), "r"),
        ])
        _, hist = cycle_time_histograms(ref, other)
        assert hist.masses == {100: 1.0, 150: 1.0}

    def test_grid_is_the_reference_range_alone(self):
        # the other log's 5h cycle lies below the reference's 10h..110h
        # range; it takes a negative bin and moves neither origin nor width
        ref = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-01 00:00:00"),
                             ts("2021-03-01 10:00:00"), "r"),
            ActivityInstance("2", "a", ts("2021-03-01 00:00:00"),
                             ts("2021-03-05 14:00:00"), "r"),
        ])
        other = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-01 00:00:00"),
                             ts("2021-03-01 05:00:00"), "r"),
        ])
        ref_hist, other_hist = cycle_time_histograms(ref, other)
        assert ref_hist.bin_width == other_hist.bin_width == 3600.0
        assert ref_hist.origin == other_hist.origin == 36000.0
        assert ref_hist.masses == {0: 1.0, 99: 1.0}
        assert other_hist.masses == {-5: 1.0}
        assert wasserstein_1d(ref_hist, other_hist) == 54.5  # 0.5 * 5 + 0.5 * 104

    def test_zero_range_falls_back_to_single_bin(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2021-03-01 09:00:00"),
                             ts("2021-03-01 10:00:00"), "r"),
            ActivityInstance("2", "a", ts("2021-03-02 09:00:00"),
                             ts("2021-03-02 10:00:00"), "r"),
        ])
        ref_hist, other_hist = cycle_time_histograms(log, log)
        assert ref_hist.masses == other_hist.masses == {0: 2.0}

    def test_cycle_time_definition(self, shipping_log):
        cycles = trace_cycle_times(shipping_log)
        assert cycles["24"] == ts("2021-03-08 14:37:06") - ts("2021-03-07 13:06:53")

    def test_cycle_times_equal_brute_force_min_max(self):
        # interleaved traces, tied ends, and a trace whose first row is
        # neither its earliest start nor its latest end
        rows = [("b", "09:30", "10:00"), ("a", "09:00", "11:00"), ("b", "08:00", "10:00"),
                ("c", "12:00", "12:00"), ("a", "08:30", "11:00"), ("b", "09:00", "10:30"),
                ("a", "10:00", "10:30")]
        log = ActivityInstanceLog(
            ActivityInstance(trace, "x", ts(f"2021-03-07 {start}:00"),
                             ts(f"2021-03-07 {end}:00"), None)
            for trace, start, end in rows)
        traces = list(dict.fromkeys(i.trace_id for i in log.instances))
        expected = {
            trace: max(i.end for i in log.instances if i.trace_id == trace)
            - min(i.start for i in log.instances if i.trace_id == trace)
            for trace in traces
        }
        cycles = trace_cycle_times(log)
        assert cycles == expected
        assert list(cycles) == traces


class TestRejectedInputs:
    def test_histogram_needs_a_positive_width(self):
        with pytest.raises(ValueError, match="bin width must be positive, got 0.0"):
            Histogram(origin=0.0, bin_width=0.0, masses={0: 1.0})

    def test_histogram_rejects_a_negative_mass(self):
        with pytest.raises(ValueError, match="negative bin mass"):
            histogram({0: 1.0, 1: -0.5})

    @pytest.mark.parametrize("width, refused", [
        (-1.0, "positive"), (-math.inf, "positive"), (math.inf, "finite"), (math.nan, "finite"),
    ])
    def test_histogram_needs_a_finite_width(self, width, refused):
        with pytest.raises(ValueError, match=f"^bin width must be {refused}, got {width}$"):
            Histogram(origin=0.0, bin_width=width, masses={0: 1.0})

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_histogram_rejects_a_non_finite_mass(self, mass):
        # a NaN mass would make every EMD against the histogram NaN
        with pytest.raises(ValueError, match="^non-finite bin mass$"):
            wasserstein_1d(histogram({0: mass, 1: 1.0}), histogram({0: 1.0}))

    def test_cycle_time_histograms_reject_an_empty_log(self, shipping_log):
        empty = ActivityInstanceLog([])
        for reference, other in ((empty, shipping_log), (shipping_log, empty)):
            with pytest.raises(ValueError, match="cannot discretize an empty log"):
                cycle_time_histograms(reference, other)


class TestWasserstein:
    def test_single_point_transport(self):
        assert wasserstein_1d(histogram({0: 1}), histogram({5: 1})) == 5.0

    def test_identity(self):
        hist = histogram({0: 1, 3: 2})
        assert wasserstein_1d(hist, hist) == 0.0

    def test_split_mass_example(self):
        assert wasserstein_1d(histogram({0: 1, 2: 1}), histogram({1: 2})) == 1.0

    def test_cost_follows_occupied_bins_not_index_span(self):
        assert wasserstein_1d(histogram({0: 1}), histogram({10**9: 1})) == 1e9

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d(histogram({0: 1}),
                           Histogram(origin=1.0, bin_width=1.0, masses={0: 1}))

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d(histogram({0: 0.0}), histogram({0: 1}))

    @given(small_masses, small_masses)
    def test_matches_both_oracles(self, a, b):
        distance = wasserstein_1d(histogram(a), histogram(b))
        assert distance == pytest.approx(monotone_matching_cost(a, b), abs=1e-9)
        if sum(a.values()) * sum(b.values()) <= 16:
            assert distance == pytest.approx(flow_enumeration_cost(a, b), abs=1e-9)

    @given(small_masses, small_masses)
    def test_symmetry(self, a, b):
        assert wasserstein_1d(histogram(a), histogram(b)) == pytest.approx(
            wasserstein_1d(histogram(b), histogram(a)), abs=1e-12
        )

    @given(small_masses, small_masses, small_masses)
    def test_triangle_inequality(self, a, b, c):
        ab = wasserstein_1d(histogram(a), histogram(b))
        bc = wasserstein_1d(histogram(b), histogram(c))
        ac = wasserstein_1d(histogram(a), histogram(c))
        assert ac <= ab + bc + 1e-9


class TestEvaluateLogs:
    def test_self_comparison_is_zero(self, shipping_log):
        report = evaluate_logs(shipping_log, shipping_log)
        assert report.timestamp_emd == 0.0
        assert report.cycle_time_emd == 0.0
        assert report.reference_mass == report.other_mass == 20

    def test_uniform_shift_moves_timestamp_emd_only(self, shipping_log):
        report = evaluate_logs(shipping_log, shifted(shipping_log,
                                                     timedelta(hours=3)))
        assert report.timestamp_emd == pytest.approx(3.0, abs=1e-9)
        assert report.cycle_time_emd == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_single_bin_logs(self):
        make = lambda hour: ActivityInstanceLog([
            ActivityInstance("1", "a", ts(f"2021-03-01 {hour:02d}:00:00"),
                             ts(f"2021-03-01 {hour:02d}:30:00"), "r")
        ])
        report = evaluate_logs(make(2), make(9))
        assert report.timestamp_emd == pytest.approx(7.0, abs=1e-12)

    def test_hand_built_pair(self):
        report = evaluate_logs(log_of(EMD_REFERENCE_ROWS), log_of(EMD_OTHER_ROWS))
        assert report == EMD_PAIR_REPORT

    def test_dump_histograms(self, shipping_log, tmp_path):
        evaluate_logs(shipping_log, shipping_log, dump_dir=str(tmp_path / "hists"))
        names = sorted(p.name for p in (tmp_path / "hists").iterdir())
        assert names == [
            "cycle_time_other.csv", "cycle_time_reference.csv",
            "timestamp_other.csv", "timestamp_reference.csv",
        ]
        content = (tmp_path / "hists" / "timestamp_reference.csv").read_text()
        assert content.startswith("bin,mass\n")
        # more bins than one slice of the writer, negative, zero and large
        # indexes, and masses whose text is their shortest repr
        masses = {index: index / 7 for index in range(1, 700)}
        masses.update({0: 0.1 + 0.2, -5: 1e300, -10**15: 0.0, 10**15: 2.0})
        dump_histograms(str(tmp_path / "edges"), edges=histogram(masses))
        expected = io.StringIO()
        oracle = csv.writer(expected, lineterminator="\n")
        oracle.writerow(("bin", "mass"))
        oracle.writerows(sorted(masses.items()))
        written = (tmp_path / "edges" / "edges.csv").read_bytes()
        assert written == expected.getvalue().encode()


class TestNoIndexWork:
    def test_evaluate_builds_no_index(self, shipping_log):
        other = shifted(shipping_log, timedelta(hours=1))
        evaluate_logs(shipping_log, other)
        for log in (shipping_log, other):
            assert "per_trace_index" not in log.__dict__

    def test_evaluate_caches_nothing_on_the_logs(self, shipping_log):
        logs = (shipping_log, shifted(shipping_log, timedelta(hours=1)))
        cached = [dict(log.__dict__) for log in logs]
        evaluate_logs(*logs)
        assert [log.__dict__ for log in logs] == cached


class TestTranslationProperty:
    @given(instance_logs(min_size=5, max_size=15),
           st.integers(min_value=-12, max_value=12))
    def test_whole_hour_shift(self, log, hours):
        report = evaluate_logs(log, shifted(log, timedelta(hours=hours)))
        assert report.timestamp_emd == pytest.approx(abs(hours), abs=1e-9)
        assert report.cycle_time_emd == pytest.approx(0.0, abs=1e-9)
