"""The benchmark's seeded workloads: how each builds its input CSVs and which
`startrepair` CLI jobs it runs on them.

Every workload is made from `startrepair.loggen` output only, so the inputs
depend on nothing but the seed. README.md gives the reason for each choice.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from datetime import timedelta
from typing import Callable, Optional

from startrepair import loggen
from startrepair.model import ActivityInstanceLog, write_activity_instance_log

# A mean arrival gap of 3300 s keeps the five resources below full load, so a
# resource is sometimes idle before an arrival and the repair books that idle
# time as processing time (the paper's known limitation). At the generator's
# default gaps the resources are overloaded, every start is resource-bound,
# the repair recovers the truth exactly and both EMDs read 0.
STATIONARY_ARRIVALS = (600, 6000)

# long-traces: four cases of different lengths run one after another by the
# same two resources, with a pause between cases. The lengths differ so that
# the cycle-time grid's range does not hinge on four random draws; the pause,
# which the repair books as the next case's processing time, spans about 18
# grid bins, so the cycle-time EMD moves little from seed to seed.
LONG_STAGE_COUNTS = (1200, 1400, 1600, 1800)
LONG_CASE_PAUSE = timedelta(days=3)

EVENT_STAGES = (("Register",), ("Pack", "Invoice", "Check"), ("Deliver",), ("Bill",))
EVENT_THRESHOLD = 2.0
EVENT_BOT = "R04"
EVENT_HEADER = ("case_id", "activity", "timestamp", "lifecycle", "resource")

Generated = tuple[ActivityInstanceLog, ActivityInstanceLog, list[loggen.GenSpec]]


def _short_traces(seed: int) -> Generated:
    spec = loggen.GenSpec(seed=seed, trace_count=8000, resource_count=5,
                          arrival_gap_range=STATIONARY_ARRIVALS)
    return (*loggen.generate(spec), [spec])


def _event_rows(seed: int) -> Generated:
    spec = loggen.GenSpec(seed=seed, trace_count=4000, stages=EVENT_STAGES,
                          resource_count=5, missing_resource_rate=0.1,
                          arrival_gap_range=STATIONARY_ARRIVALS)
    return (*loggen.generate(spec), [spec])


def _long_traces(seed: int) -> Generated:
    """One `loggen.generate` call per case, each case arriving a pause after
    the previous one ended, with trace ids renamed to stay distinct."""
    truth, corrupted, specs = [], [], []
    arrival = loggen.GenSpec(seed=0, trace_count=1).first_arrival
    for case, stage_count in enumerate(LONG_STAGE_COUNTS):
        spec = loggen.GenSpec(seed=seed * len(LONG_STAGE_COUNTS) + case,
                              trace_count=1, stages=(("A", "B"),) * stage_count,
                              resource_count=2, first_arrival=arrival)
        case_truth, case_corrupted = loggen.generate(spec)
        truth += [replace(i, trace_id=f"L{case}") for i in case_truth]
        corrupted += [replace(i, trace_id=f"L{case}") for i in case_corrupted]
        specs.append(spec)
        arrival = max(i.end for i in case_truth) + LONG_CASE_PAUSE
    return ActivityInstanceLog(truth), ActivityInstanceLog(corrupted), specs


@dataclass(frozen=True)
class Inputs:
    """Files one workload run works on, plus what the checker needs to know."""

    truth_csv: str
    input_csv: str
    output_csv: str
    report_json: str
    event_rows: bool
    concurrency_pairs: frozenset  # of two-label frozensets, from GenSpec
    outlier_threshold: Optional[float]
    bot_resources: frozenset
    size: dict  # instances, traces and longest trace of the generated log

    def repair_argv(self) -> list[str]:
        argv = ["repair", "--input", self.input_csv, "--output", self.output_csv,
                "--report", self.report_json]
        if self.event_rows:
            argv += ["--timestamp-column", "timestamp", "--lifecycle-column",
                     "lifecycle", "--outlier-threshold", str(self.outlier_threshold),
                     "--bot-resources", ",".join(sorted(self.bot_resources))]
        return argv

    def evaluate_argv(self) -> list[str]:
        return ["evaluate", "--reference", self.truth_csv, "--other", self.output_csv]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], Generated]
    event_rows: bool = False

    def set_up(self, seed: int, workdir: str) -> Inputs:
        """Generate the seeded log pair and write it to `workdir`: the truth as
        instance rows, the corrupted log in the workload's input format."""
        truth, corrupted, specs = self.generate(seed)
        inputs = Inputs(
            truth_csv=os.path.join(workdir, "truth.csv"),
            input_csv=os.path.join(workdir, "input.csv"),
            output_csv=os.path.join(workdir, "repaired.csv"),
            report_json=os.path.join(workdir, "report.json"),
            event_rows=self.event_rows,
            concurrency_pairs=frozenset(
                frozenset(pair) for spec in specs
                for pair in spec.concurrency_pairs().pairs
            ),
            outlier_threshold=EVENT_THRESHOLD if self.event_rows else None,
            bot_resources=frozenset({EVENT_BOT}) if self.event_rows else frozenset(),
            size={"instances": len(truth), "traces": len(truth.per_trace_index),
                  "longest_trace": max(map(len, truth.per_trace_index.values()))},
        )
        with open(inputs.truth_csv, "w", encoding="utf-8", newline="") as sink:
            write_activity_instance_log(truth, sink)
        with open(inputs.input_csv, "w", encoding="utf-8", newline="") as sink:
            if self.event_rows:
                write_event_rows(corrupted, sink)
            else:
                write_activity_instance_log(corrupted, sink)
        return inputs


def write_event_rows(log: ActivityInstanceLog, sink) -> None:
    """Write one start and one end row per instance, in timestamp order as a
    recorded event log would be (stable, so a start precedes its own end)."""
    events = []
    for inst in log.instances:
        events.append((inst.start, inst, "start"))
        events.append((inst.end, inst, "end"))
    events.sort(key=lambda event: event[0])
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(EVENT_HEADER)
    for timestamp, inst, lifecycle in events:
        writer.writerow((inst.trace_id, inst.activity, timestamp.isoformat(sep=" "),
                         lifecycle, inst.resource or ""))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short-traces", _short_traces),
        Workload("long-traces", _long_traces),
        Workload("event-rows-capped", _event_rows, event_rows=True),
    )
}
