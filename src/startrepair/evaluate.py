"""Histogram discretization of logs and 1-D Earth Mover's Distance between them."""
from __future__ import annotations

import csv
import os
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain
from math import floor
from typing import Mapping, Optional

from .model import ActivityInstanceLog

HOUR = timedelta(hours=1)
CYCLE_TIME_BINS = 100


@dataclass(frozen=True)
class Histogram:
    """Discretized distribution: mass per integer bin index.

    `origin` and `bin_width`, in seconds, fix the discretization grid; two
    histograms are comparable only when they share both. A timestamp
    histogram's origin is POSIX seconds.
    """

    origin: float
    bin_width: float
    masses: Mapping[int, float]

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ValueError(f"bin width must be positive, got {self.bin_width}")
        if any(m < 0 for m in self.masses.values()):
            raise ValueError("negative bin mass")

    @property
    def total_mass(self) -> float:
        return sum(self.masses.values())


def timestamp_histogram(
    log: ActivityInstanceLog, origin: Optional[datetime] = None
) -> Histogram:
    """Date-hour histogram of all start and end timestamps (2 per instance).

    The origin defaults to the log's earliest timestamp truncated to the hour;
    pass a shared origin to co-discretize two logs.
    """
    if not log:
        raise ValueError("cannot discretize an empty log")
    # a start is never after its end, so the first earliest stamp, whose
    # offset sets the hour boundaries, is a start
    if origin is None:
        origin = min(log.starts).replace(minute=0, second=0, microsecond=0)
    counts = Counter((point - origin) // HOUR for point in chain(log.starts, log.ends))
    masses = {index: float(count) for index, count in counts.items()}
    return Histogram(origin.timestamp(), HOUR.total_seconds(), masses)


def trace_cycle_times(log: ActivityInstanceLog) -> dict[str, timedelta]:
    """Per trace, in order of first appearance: largest end timestamp minus
    smallest start timestamp. One pass over the instances; no index is built."""
    spans: dict[str, list[datetime]] = {}
    for trace, start, end in zip(log.trace_ids, log.starts, log.ends):
        span = spans.get(trace)
        if span is None:
            spans[trace] = [start, end]
        else:
            if start < span[0]:
                span[0] = start
            if end > span[1]:
                span[1] = end
    return {trace: last - first for trace, (first, last) in spans.items()}


def _cycle_histogram(cycle_seconds, origin: float, width: float) -> Histogram:
    masses: dict[int, float] = {}
    top = origin + CYCLE_TIME_BINS * width
    for value in cycle_seconds:
        index = floor((value - origin) / width)
        # reference range is split into exactly CYCLE_TIME_BINS bins, so the
        # last bin is right-closed; values beyond the range extrapolate freely
        if index == CYCLE_TIME_BINS and value <= top:
            index = CYCLE_TIME_BINS - 1
        masses[index] = masses.get(index, 0.0) + 1.0
    return Histogram(origin, width, masses)


def cycle_time_histograms(
    reference: ActivityInstanceLog, other: ActivityInstanceLog
) -> tuple[Histogram, Histogram]:
    """Bin both logs' trace cycle times on a grid defined by the reference:
    its [min, max] range split into 100 equal bins of width W; the other log is
    discretized with the same origin and W (indices may fall outside [0, 100)).

    A zero-range reference (all cycle times equal) has no defined W; both logs
    are then binned with a 1-second width anchored at the shared value.
    """
    if not reference or not other:
        raise ValueError("cannot discretize an empty log")
    ref_seconds = [ct.total_seconds() for ct in trace_cycle_times(reference).values()]
    other_seconds = [ct.total_seconds() for ct in trace_cycle_times(other).values()]
    origin, top = min(ref_seconds), max(ref_seconds)
    width = (top - origin) / CYCLE_TIME_BINS
    if width == 0.0:
        width = 1.0
    return (
        _cycle_histogram(ref_seconds, origin, width),
        _cycle_histogram(other_seconds, origin, width),
    )


def wasserstein_1d(a: Histogram, b: Histogram) -> float:
    """1-D Earth Mover's Distance between two histograms on the same grid,
    after normalizing each to unit mass. The result is in bin-width units."""
    if a.origin != b.origin or a.bin_width != b.bin_width:
        raise ValueError("histograms are not on the same grid (origin/bin width)")
    total_a, total_b = a.total_mass, b.total_mass
    if total_a <= 0 or total_b <= 0:
        raise ValueError("histograms must have positive total mass")
    # the CDFs are flat between occupied bins, so sweep those alone
    indices = sorted(set(a.masses) | set(b.masses))
    distance = cdf_a = cdf_b = 0.0
    for index, following in zip(indices, indices[1:]):
        cdf_a += a.masses.get(index, 0.0) / total_a
        cdf_b += b.masses.get(index, 0.0) / total_b
        distance += (following - index) * abs(cdf_a - cdf_b)
    return distance


@dataclass(frozen=True)
class EmdReport:
    timestamp_emd: float  # in hour units
    cycle_time_emd: float  # in cycle-bin-width units
    reference_mass: float
    other_mass: float
    bin_width_seconds: float  # cycle-time bin width W
    reference_bins: int
    other_bins: int


def evaluate_logs(
    reference: ActivityInstanceLog,
    other: ActivityInstanceLog,
    dump_dir: Optional[str] = None,
) -> EmdReport:
    """Compare two logs: EMD over shared date-hour timestamp histograms and
    over cycle-time histograms on the reference-defined grid."""
    ct_ref, ct_other = cycle_time_histograms(reference, other)  # rejects an empty log
    shared_origin = min(chain(reference.starts, other.starts)).replace(
        minute=0, second=0, microsecond=0)
    ts_ref = timestamp_histogram(reference, shared_origin)
    ts_other = timestamp_histogram(other, shared_origin)
    report = EmdReport(
        timestamp_emd=wasserstein_1d(ts_ref, ts_other),
        cycle_time_emd=wasserstein_1d(ct_ref, ct_other),
        reference_mass=ts_ref.total_mass,
        other_mass=ts_other.total_mass,
        bin_width_seconds=ct_ref.bin_width,
        reference_bins=len(ts_ref.masses),
        other_bins=len(ts_other.masses),
    )
    if dump_dir is not None:
        dump_histograms(
            dump_dir,
            timestamp_reference=ts_ref,
            timestamp_other=ts_other,
            cycle_time_reference=ct_ref,
            cycle_time_other=ct_other,
        )
    return report


def dump_histograms(directory: str, **histograms: Histogram) -> None:
    """Write one `<name>.csv` (bin,mass) per histogram into `directory`."""
    os.makedirs(directory, exist_ok=True)
    for name, histogram in histograms.items():
        with open(os.path.join(directory, f"{name}.csv"), "w", newline="") as sink:
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(("bin", "mass"))
            for index in sorted(histogram.masses):
                writer.writerow((index, histogram.masses[index]))
