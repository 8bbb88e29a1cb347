"""Deterministic synthetic log generator with known ground-truth start times."""
from __future__ import annotations

import random
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timedelta, timezone
from itertools import combinations
from typing import Optional

from .concurrency import ConcurrencyRelation
from .model import (INTEGER, LABELS, SHARE, SWITCH, TIMESTAMP, ActivityInstanceLog,
                    ConfigurationError, Kind, check_fields, checked_settings)

_EPOCH = datetime(2021, 3, 1, 8, 0, 0, tzinfo=timezone.utc)

# the kinds of the spec's bounded keys; `GenSpec` checks its fields by them
COUNT = INTEGER._replace(description="an integer >= 1", within=lambda v: v >= 1)
# a range is in whole seconds, so its high end is at most the most whole
# seconds a timedelta holds
_MOST_SECONDS = timedelta.max // timedelta(seconds=1)
RANGE = Kind(f"a [low, high] pair of integers with 0 <= low <= high <= {_MOST_SECONDS}",
             lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(INTEGER.valid, v)),
             tuple, lambda v: 0 <= v[0] <= v[1] <= _MOST_SECONDS)
DURATIONS = RANGE._replace(
    description=f"a [low, high] pair of integers with 1 <= low <= high <= {_MOST_SECONDS}",
    within=lambda v: 1 <= v[0] <= v[1] <= _MOST_SECONDS)
STAGES = Kind("a non-empty list of activities or non-empty lists of activities, "
              "each label non-blank",
              lambda v: isinstance(v, (list, tuple)) and all(map(LABELS.valid, v)),
              lambda v: tuple((stage.strip(),) if isinstance(stage, str)
                              else tuple(map(str.strip, stage)) for stage in v),
              lambda v: v and all(v) and all(map(all, v)))
# generator spec key -> its kind; README lists the same keys
SPEC_KEYS = {
    "seed": INTEGER, "trace_count": COUNT, "resource_count": COUNT, "stages": STAGES,
    "duration_range": DURATIONS, "delay_range": RANGE, "arrival_gap_range": RANGE,
    "missing_resource_rate": SHARE, "multitasking": SWITCH, "first_arrival": TIMESTAMP,
}
# a spec's `first_arrival` is the datetime that `from_dict` converts its text
# to, and a naive one is taken as UTC, as every reader takes an offset-free stamp
_DATETIME = Kind("a datetime", lambda v: isinstance(v, datetime),
                 lambda v: v if v.tzinfo is not None else v.replace(tzinfo=timezone.utc))


@dataclass(frozen=True)
class GenSpec:
    """Generation parameters. Identical specs always produce identical logs.

    `stages` is the activity template each trace follows: one entry per stage,
    each a string naming one activity or a sequence run concurrently. Each
    label is stripped, as every reader strips its cells, so that a written log
    reads back equal to the generated one. Ground truth is built so every
    start equals max(previous same-resource end, previous-stage end, trace
    arrival); the corrupted twin delays each recorded start by a sampled
    amount of non-recorded processing time, never past the end.
    `multitasking` drops the resource-serialization constraint to test
    graceful degradation. A naive `first_arrival` is taken as UTC, as every
    reader takes an offset-free stamp, so that a written log reads back equal.
    Each field is checked and converted by the kind of its key in
    `SPEC_KEYS`, as `from_dict` reads it, but `first_arrival`, which must be
    a datetime: so `stages` is stored as a tuple of tuples, each range as a
    tuple and the rate as a float, whether given as lists or as tuples.
    """

    seed: int
    trace_count: int
    stages: tuple = (("Register",), ("Pack", "Invoice"), ("Deliver",))
    resource_count: int = 3
    duration_range: tuple[int, int] = (60, 3600)
    delay_range: tuple[int, int] = (0, 1800)
    arrival_gap_range: tuple[int, int] = (60, 1800)
    missing_resource_rate: float = 0.0
    multitasking: bool = False
    first_arrival: datetime = _EPOCH

    def __post_init__(self):
        check_fields(vars(self), {**SPEC_KEYS, "first_arrival": _DATETIME})

    def concurrency_pairs(self) -> ConcurrencyRelation:
        """The relation implied by the template: pairs sharing a stage."""
        pairs = [
            pair
            for stage in self.stages
            for pair in combinations(stage, 2)
        ]
        return ConcurrencyRelation(pairs)

    @classmethod
    def from_dict(cls, data) -> "GenSpec":
        """A spec from a JSON object, each value checked and converted as
        `SPEC_KEYS` says; a null value counts as not given."""
        values = checked_settings(data, SPEC_KEYS, "generator spec")
        missing = [field.name for field in fields(cls)
                   if field.default is MISSING and field.name not in values]
        if missing:
            raise ConfigurationError(f"bad generator spec: missing keys {missing}")
        return cls(**values)


def generate(spec: GenSpec) -> tuple[ActivityInstanceLog, ActivityInstanceLog]:
    """Return (ground_truth_log, corrupted_log) for the spec.

    Both logs are identical except for start times: the corrupted log delays
    each start by a sampled amount, capped at the instance's end.
    """
    rng = random.Random(spec.seed)
    resources = [f"R{i:02d}" for i in range(spec.resource_count)]
    resource_free = dict.fromkeys(resources, spec.first_arrival)
    trace_ids, activities, ends, recorded_resources = [], [], [], []
    truth_starts, corrupted_starts = [], []

    arrival = spec.first_arrival
    for trace_number in range(spec.trace_count):
        if trace_number > 0:
            arrival = arrival + timedelta(seconds=rng.randint(*spec.arrival_gap_range))
        trace_id = f"T{trace_number:04d}"
        enablement = arrival
        for stage in spec.stages:
            stage_ends = []
            for activity in stage:
                resource = min(resources, key=lambda r: (resource_free[r], r))
                start = (enablement if spec.multitasking
                         else max(enablement, resource_free[resource]))
                duration = rng.randint(*spec.duration_range)
                end = start + timedelta(seconds=duration)
                resource_free[resource] = end
                recorded_resource: Optional[str] = resource
                if (
                    spec.missing_resource_rate > 0.0
                    and rng.random() < spec.missing_resource_rate
                ):
                    recorded_resource = None
                delay = timedelta(seconds=rng.randint(*spec.delay_range))
                trace_ids.append(trace_id)
                activities.append(activity)
                truth_starts.append(start)
                corrupted_starts.append(min(start + delay, end))
                ends.append(end)
                recorded_resources.append(recorded_resource)
                stage_ends.append(end)
            enablement = max(stage_ends)
    # the two logs differ only in their starts and share the other columns
    trace_ids, activities, ends, recorded_resources = map(
        tuple, (trace_ids, activities, ends, recorded_resources))
    return tuple(ActivityInstanceLog.from_columns(trace_ids, activities, starts, ends,
                                                  recorded_resources)
                 for starts in (truth_starts, corrupted_starts))
