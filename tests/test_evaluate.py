from __future__ import annotations

from datetime import timedelta

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
from startrepair.evaluate import trace_cycle_times

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


small_masses = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=4),
    min_size=1,
    max_size=6,
).filter(lambda m: sum(m.values()) > 0)


class TestTimestampHistogram:
    def test_shipping_total_mass_is_twenty(self, shipping_log):
        assert timestamp_histogram(shipping_log).total_mass == 20

    def test_same_hour_shares_a_bin(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2022-02-09 10:00:00"),
                             ts("2022-02-09 10:59:59"), "r"),
        ])
        hist = timestamp_histogram(log)
        assert hist.masses == {0: 2.0}

    def test_hour_boundary_splits_bins(self):
        log = ActivityInstanceLog([
            ActivityInstance("1", "a", ts("2022-02-09 10:59:59"),
                             ts("2022-02-09 11:00:00"), "r"),
        ])
        hist = timestamp_histogram(log)
        assert hist.masses == {0: 1.0, 1: 1.0}

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            timestamp_histogram(ActivityInstanceLog([]))


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
        ])
        _, hist = cycle_time_histograms(ref, other)
        assert hist.masses == {150: 1.0}

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

    def test_dump_histograms(self, shipping_log, tmp_path):
        evaluate_logs(shipping_log, shipping_log, dump_dir=str(tmp_path / "hists"))
        names = sorted(p.name for p in (tmp_path / "hists").iterdir())
        assert names == [
            "cycle_time_other.csv", "cycle_time_reference.csv",
            "timestamp_other.csv", "timestamp_reference.csv",
        ]
        content = (tmp_path / "hists" / "timestamp_reference.csv").read_text()
        assert content.startswith("bin,mass\n")


class TestNoIndexWork:
    def test_evaluate_builds_no_index(self, shipping_log):
        other = shifted(shipping_log, timedelta(hours=1))
        evaluate_logs(shipping_log, other)
        for log in (shipping_log, other):
            assert "per_trace_index" not in log.__dict__
            assert "per_resource_index" not in log.__dict__


class TestTranslationProperty:
    @given(instance_logs(min_size=5, max_size=15),
           st.integers(min_value=-12, max_value=12))
    def test_whole_hour_shift(self, log, hours):
        report = evaluate_logs(log, shifted(log, timedelta(hours=hours)))
        assert report.timestamp_emd == pytest.approx(abs(hours), abs=1e-9)
        assert report.cycle_time_emd == pytest.approx(0.0, abs=1e-9)
