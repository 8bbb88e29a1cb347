"""In-memory spans around the program's public module functions.

The benchmark wraps functions from the outside by rebinding their names in
every `startrepair` module that holds them, and restores them afterwards; the
library itself is not changed. A span records its name, start, end, parent
span and job id, plus counts taken from the call's arguments and result.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

from startrepair.repair import ALL_RULES


def _wasserstein_bins(args, result) -> dict:
    a, b = args[0], args[1]
    indices = set(a.masses) | set(b.masses)
    return {"bins": max(indices) - min(indices)}


def _pairing(args, result) -> dict:
    summary = result[1]
    return {"instances": len(result[0]), "matched": summary.matched_pairs,
            "unmatched": summary.orphan_ends + summary.dropped_starts}


def _repair(args, result) -> dict:
    moved = sum(r.repaired_start != r.original_start for r in result.per_instance)
    return {"instances": len(args[0]), "moved": moved, **result.rule_counts()}


# (module, function, counts taken from (args, result)) for each wrapped function
TRACED = (
    ("model", "read_instance_log", lambda args, result: {"instances": len(result)}),
    ("model", "parse_event_log", None),
    ("model", "to_activity_instances", _pairing),
    ("model", "write_activity_instance_log", None),
    ("concurrency", "discover_from_log",
     lambda args, result: {"instances": len(args[0]), "pairs": len(result)}),
    ("concurrency", "count_directly_follows", None),
    ("concurrency", "discover_concurrency", None),
    ("repair", "repair_start_times", _repair),
    ("evaluate", "evaluate_logs", None),
    ("evaluate", "timestamp_histogram", None),
    ("evaluate", "cycle_time_histograms", None),
    ("evaluate", "wasserstein_1d", _wasserstein_bins),
    ("loggen", "generate", lambda args, result: {"instances": len(result[0])}),
)


class Tracer:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job: Optional[str] = None
        self._origin = time.perf_counter()

    def _open(self, name: str) -> int:
        self.spans.append({"name": name, "start": time.perf_counter() - self._origin,
                           "end": None, "parent": self._stack[-1] if self._stack else None,
                           "job": self._job, "counts": {}})
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter() - self._origin
        self._stack.pop()

    @contextmanager
    def job(self, name: str, job_id: str):
        """A root span for one job; spans opened inside it share `job_id`."""
        self._job = job_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self._job = None

    def _wrap(self, name: str, function: Callable, counts) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if counts is not None:
                # counting is traced work of its own, so it is not billed to
                # the caller's self time
                count_index = self._open("trace.count")
                self.spans[index]["counts"] = counts(args, result)
                self._close(count_index)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Rebind each traced function in every loaded `startrepair` module,
        and restore the originals on exit."""
        modules = [m for n, m in sys.modules.items()
                   if n == "startrepair" or n.startswith("startrepair.")]
        restore = []
        for layer, function_name, counts in TRACED:
            original = getattr(sys.modules[f"startrepair.{layer}"], function_name)
            wrapped = self._wrap(f"{layer}.{function_name}", original, counts)
            for module in modules:
                if getattr(module, function_name, None) is original:
                    setattr(module, function_name, wrapped)
                    restore.append((module, function_name, original))
        try:
            yield
        finally:
            for module, function_name, original in restore:
                setattr(module, function_name, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            json.dump(self.spans, sink)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def self_times(spans: list[dict], duration) -> list[float]:
    """Each span's duration minus the time its children cover. One thread
    runs every span, so children never overlap and their durations add."""
    own = [duration(span) for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= duration(span)
    return own


def _scaled(factors: dict):
    """Span duration scaled by its job's speed factor (see speed.py)."""
    return lambda span: (span["end"] - span["start"]) * factors[span["job"]]


def layer_self_seconds(spans: list[dict], factors: dict) -> dict[str, dict[str, float]]:
    """Per job kind, the median over jobs of each layer's summed self time."""
    own = self_times(spans, _scaled(factors))
    per_job: dict = defaultdict(lambda: defaultdict(float))
    kinds = {}
    for span, seconds in zip(spans, own):
        if span["job"] is not None:
            per_job[span["job"]][span["name"].split(".")[0]] += seconds
            if span["parent"] is None:
                kinds[span["job"]] = span["name"]
    result: dict = defaultdict(dict)
    for kind in sorted(set(kinds.values())):
        jobs = [per_job[j] for j, k in kinds.items() if k == kind]
        for layer in sorted({layer for job in jobs for layer in job}):
            result[kind][layer] = _median(job.get(layer, 0.0) for job in jobs)
    return dict(result)


def per_layer_metrics(spans: list[dict], factors: dict, untraced_repair: list[float],
                      traced_repair: list[float]) -> dict[str, float]:
    """The per-layer metrics: seconds, scaled by each job's speed factor, are
    medians per call unless noted; a layer the workload does not run
    reports 0."""
    duration = _scaled(factors)
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span["name"]].append(index)

    def calls(name):
        return [spans[i] for i in by_name[name]]

    def seconds(name):
        return _median(duration(s) for s in calls(name))

    def rate(name):
        return _median(s["counts"]["instances"] / duration(s) for s in calls(name))

    def per_parent(name, parent_name, value):
        """Median over `parent_name` spans of `value` summed over their
        `name` children."""
        totals = {i: 0.0 for i in by_name[parent_name]}
        for span in calls(name):
            if span["parent"] in totals:
                totals[span["parent"]] += value(span)
        return _median(totals.values())

    own = self_times(spans, duration)

    def cli_self(kind):
        return _median(own[i] for i in by_name[kind])

    def generate_per_setup(value):
        totals = defaultdict(float)
        for span in calls("loggen.generate"):
            totals[span["job"]] += value(span)
        return totals

    generate_s = generate_per_setup(duration)
    generated = generate_per_setup(lambda s: s["counts"]["instances"])
    repairs = calls("repair.repair_start_times")
    pairings = calls("model.to_activity_instances")
    return {
        "model.read_s": seconds("model.read_instance_log"),
        "model.read_instances_per_s": rate("model.read_instance_log"),
        "model.write_s": seconds("model.write_activity_instance_log"),
        "model.parse_events_s": seconds("model.parse_event_log"),
        "model.pair_s": seconds("model.to_activity_instances"),
        "model.pairing_matched_share": _median(
            s["counts"]["matched"] / (s["counts"]["matched"] + s["counts"]["unmatched"])
            for s in pairings),
        "concurrency.count_s": seconds("concurrency.count_directly_follows"),
        "concurrency.oracle_s": seconds("concurrency.discover_concurrency"),
        "concurrency.instances_per_s": rate("concurrency.discover_from_log"),
        "concurrency.pairs": _median(s["counts"]["pairs"]
                                     for s in calls("concurrency.discover_from_log")),
        "repair.repair_s": seconds("repair.repair_start_times"),
        "repair.instances_per_s": rate("repair.repair_start_times"),
        **{f"repair.rule.{rule}": _median(s["counts"][rule] for s in repairs)
           for rule in ALL_RULES},
        "repair.moved_share": _median(s["counts"]["moved"] / s["counts"]["instances"]
                                      for s in repairs),
        "evaluate.evaluate_logs_s": seconds("evaluate.evaluate_logs"),
        "evaluate.timestamp_histogram_s": per_parent(
            "evaluate.timestamp_histogram", "evaluate.evaluate_logs", duration),
        "evaluate.cycle_time_histograms_s": seconds("evaluate.cycle_time_histograms"),
        "evaluate.wasserstein_s": per_parent(
            "evaluate.wasserstein_1d", "evaluate.evaluate_logs", duration),
        "evaluate.bins": per_parent("evaluate.wasserstein_1d", "evaluate.evaluate_logs",
                                    lambda s: s["counts"]["bins"]),
        "loggen.generate_s": _median(generate_s.values()),
        "loggen.instances_per_s": _median(generated[j] / generate_s[j] for j in generate_s),
        "cli.repair_self_s": cli_self("cli.repair"),
        "cli.evaluate_self_s": cli_self("cli.evaluate"),
        "trace.overhead_s": _median(traced_repair) - _median(untraced_repair),
    }
