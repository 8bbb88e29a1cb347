#!/usr/bin/env python3
"""Print one sha256 per (configuration, artefact) of the CLI's outputs on a
generated log, so that two versions of the program can be compared with a
`diff` of their digests:

    PYTHONPATH=src python3 scripts/output_digests.py --seed 7 --traces 300 > a.txt
    PYTHONPATH=other/src python3 scripts/output_digests.py --seed 7 --traces 300 > b.txt
    diff a.txt b.txt

The log is generated with stages Register, Pack || Invoice, Check, Deliver,
5 resources and 10% missing resources. Each configuration repairs it, then
evaluates the repaired log against the ground truth (JSON, text and histogram
dumps) and runs `concurrency` with its thresholds. The event-rows
configuration reads the same log written as event rows, in time order and
perfectly paired. The event-rows-noisy one reads those rows with some starts
and ends dropped, `schedule` rows added, some lifecycles upper-cased and each
run of rows with one timestamp reversed, so that the pairing meets orphan
ends, dangling starts, other phases and ties out of order. The mixed-offsets
one reads the log with every other trace's stamps written at UTC+02:00, so
that a repaired start can take an anchor of another offset. The tied-ends
one reads that log with every start and end first floored to 30 minutes, so
that many ends are equal and which of them becomes an anchor shows in the
offsets written. The event-rows-merged one reads the event rows with every
two consecutive traces, in order of first appearance, under the first one's
case id, so that a pairing key closes and later opens again. The
quoted-labels one reads the log split into thirds of its traces, in order of
first appearance: in the first, every 7th trace's id and resource hold `,`,
`"` and a line break; in the second, every 5th trace's stamps are 250 ms
later, and every 6th trace not so moved has its stamps at UTC+01:00 in a
zone that is not a `datetime.timezone`; the last is as generated. So the writer meets slices of
rows that the csv module must quote, a slice it formats stamp by stamp, and
slices it joins and formats in bulk; the repaired log, read back with
`datetime.timezone` zones, has slices of stamps with fractions and of two
offsets. The quoted-activities one reads the log with its concurrent
activities renamed, Pack to a label holding `,` and `"` and Invoice to one
holding a lone CR, so that the written relation must quote both. The
crlf-late-quote one reads the log written with CRLF line endings and the
trace id of every 5th row in the last third of its rows quoted, so that the
reader splits the first rows as plain chunks and switches to the csv module
mid-file; the script exits non-zero unless its repaired CSV equals the
default configuration's. The cap2-bot-file one gives cap2-bot's settings
through a `--config` file, its threshold as the integer 2 and its bot as a
list; the script exits non-zero unless its repaired CSV equals cap2-bot's.
Last, one `generate --spec` run sets every spec key, its
`missing_resource_rate` as the integer 1, and both written logs are digested.

Each configuration also runs `repair --concurrency-file` on the relation that
`concurrency --output` wrote; the script exits non-zero unless that repaired
CSV equals the one from the discovered relation. Report paths are normalised.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import tempfile
from dataclasses import replace
from datetime import timedelta, timezone, tzinfo
from itertools import groupby
from operator import itemgetter

from startrepair import ActivityInstanceLog, GenSpec, generate, write_activity_instance_log
from startrepair.cli import main as cli_main
from startrepair.model import format_timestamp

EVENT_FLAGS = ("--timestamp-column", "timestamp", "--lifecycle-column", "lifecycle")
# (name, input, repair flags, in which `{workdir}` is the working directory);
# `concurrency` takes the threshold and column flags
CONFIGURATIONS = (
    ("default", "instances", ()),
    ("cap2-bot", "instances", ("--outlier-threshold", "2", "--bot-resources", "R04")),
    ("mode5-instant", "instances", ("--statistic", "mode", "--outlier-threshold", "5",
                                    "--instant-activities", "Invoice")),
    ("later-cap2", "instances", ("--allow-later-start", "--outlier-threshold", "2")),
    ("bots-thresholds", "instances", ("--bot-resources", "R00,R01", "--df-threshold",
                                      "0.2", "--balance-threshold", "0.5")),
    ("event-rows", "events", EVENT_FLAGS),
    ("mixed-offsets", "mixed", ()),
    ("event-rows-noisy", "noisy", EVENT_FLAGS),
    ("tied-ends", "tied", ()),
    ("event-rows-merged", "merged", EVENT_FLAGS),
    ("quoted-labels", "quoted", ()),
    ("quoted-activities", "activities", ()),
    ("crlf-late-quote", "crlf", ()),
    ("cap2-bot-file", "instances", ("--config", "{workdir}/cap2-bot.json")),
)
# configuration -> the one whose repaired CSV it must equal
SAME_REPAIR = {"crlf-late-quote": "default", "cap2-bot-file": "cap2-bot"}
# the settings of cap2-bot-file's --config file
CAP2_BOT = {"outlier_threshold": 2, "bot_resources": ["R04"]}
# the keys of the generator spec other than `seed` and `trace_count`
SPEC = {"stages": ["Open", ["Pick", "Pay"], "Ship"], "resource_count": 4,
        "duration_range": [30, 900], "delay_range": [0, 600], "arrival_gap_range": [10, 300],
        "missing_resource_rate": 1, "multitasking": True,
        "first_arrival": "2021-06-01T09:00:00+02:00"}
CONCURRENCY_FLAGS = {"--df-threshold", "--balance-threshold", *EVENT_FLAGS[::2]}


def _run(*argv: str) -> bytes:
    """stdout of one CLI command, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    if code != 0:
        raise SystemExit(f"startrepair {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _event_rows(log) -> list[tuple]:
    """The log as event rows, start and end rows sorted by time (stable)."""
    rows = [(i.trace_id, i.activity, stamp, phase, i.resource or "")
            for i in log.instances
            for stamp, phase in ((i.start, "start"), (i.end, "end"))]
    rows.sort(key=lambda row: row[2])
    return rows


def _noisy(rows: list[tuple]) -> list[tuple]:
    """The event rows without every 23rd row if it is a start and every 29th
    if it is an end, with a `schedule` row at the time of every 7th row that
    is a start, every 3rd lifecycle upper-cased and each run of rows with one
    timestamp reversed."""
    kept = []
    for n, (trace, activity, stamp, phase, resource) in enumerate(rows):
        if (phase == "start" and n % 23 == 0) or (phase == "end" and n % 29 == 0):
            continue
        if phase == "start" and n % 7 == 0:
            kept.append((trace, activity, stamp, "schedule", resource))
        kept.append((trace, activity, stamp, phase, resource))
    kept = [(*row[:3], row[3].upper() if n % 3 == 0 else row[3], row[4])
            for n, row in enumerate(kept)]
    return [row for _, run in groupby(kept, key=itemgetter(2))
            for row in reversed(list(run))]


def _merged(rows: list[tuple]) -> list[tuple]:
    """The event rows with every two consecutive traces, in order of first
    appearance, under the case id of the first of them."""
    traces = list(dict.fromkeys(row[0] for row in rows))
    case_id = {trace: traces[n - n % 2] for n, trace in enumerate(traces)}
    return [(case_id[trace], *rest) for trace, *rest in rows]


def _write_event_rows(rows: list[tuple], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("case_id", "activity", "timestamp", "lifecycle", "resource"))
        writer.writerows((t, a, format_timestamp(s), p, r) for t, a, s, p, r in rows)


def _mixed_offsets(log: ActivityInstanceLog) -> ActivityInstanceLog:
    """The log with the stamps of every other trace, in order of first
    appearance, moved to UTC+02:00: the same instants, other offsets."""
    traces = list(dict.fromkeys(i.trace_id for i in log.instances))
    moved, plus_two = set(traces[::2]), timezone(timedelta(hours=2))
    return ActivityInstanceLog(
        replace(i, start=i.start.astimezone(plus_two), end=i.end.astimezone(plus_two))
        if i.trace_id in moved else i
        for i in log.instances)


def _floored(log: ActivityInstanceLog) -> ActivityInstanceLog:
    """The log with every start and end floored to 30 minutes."""
    def floor(ts):
        return ts - timedelta(minutes=ts.minute % 30, seconds=ts.second,
                              microseconds=ts.microsecond)
    return ActivityInstanceLog(replace(i, start=floor(i.start), end=floor(i.end))
                               for i in log.instances)


class _PlusOne(tzinfo):
    """UTC+01:00 as a plain `tzinfo`, not a `datetime.timezone`."""

    def utcoffset(self, dt):
        return timedelta(hours=1)

    def dst(self, dt):
        return timedelta(0)


def _quoted(log: ActivityInstanceLog) -> ActivityInstanceLog:
    """The log with the trace ids and resources of every 7th trace in the
    first third of its traces, in order of first appearance, holding `,`, `"`
    and a line break; the stamps of every 5th trace in the second third moved
    250 ms later, and those of every 6th trace there not so moved at
    `_PlusOne`."""
    traces = list(dict.fromkeys(i.trace_id for i in log.instances))
    third = len(traces) // 3
    quoted, shifted = set(traces[:third:7]), set(traces[third:2 * third:5])
    plus_one, zone = set(traces[third:2 * third:6]) - shifted, _PlusOne()
    late = timedelta(milliseconds=250)

    def edit(i):
        if i.trace_id in quoted:
            return replace(i, trace_id=f'{i.trace_id},"q"\n{i.trace_id}',
                           resource=i.resource and f'{i.resource} "q",\nx')
        if i.trace_id in shifted:
            return replace(i, start=i.start + late, end=i.end + late)
        if i.trace_id in plus_one:
            return replace(i, start=i.start.astimezone(zone), end=i.end.astimezone(zone))
        return i
    return ActivityInstanceLog(map(edit, log.instances))


def _renamed(log: ActivityInstanceLog) -> ActivityInstanceLog:
    """The log with its concurrent activities renamed: Pack to a label
    holding `,` and `"`, Invoice to one holding a lone CR."""
    names = {"Pack": 'Pack "big", boxed', "Invoice": "Invoice\rdue"}
    return ActivityInstanceLog(replace(i, activity=names.get(i.activity, i.activity))
                               for i in log.instances)


def _crlf_late_quote(text: str) -> str:
    """The CSV `text`, written with LF endings and no quoted cell, with CRLF
    endings and the trace id of every 5th row in the last third of its rows
    quoted."""
    lines = text.split("\n")[:-1]
    for n in range(len(lines) * 2 // 3, len(lines), 5):
        trace, rest = lines[n].split(",", 1)
        lines[n] = f'"{trace}",{rest}'
    return "\r\n".join(lines) + "\r\n"


def digests(seed: int, traces: int, workdir: str):
    """Yield (configuration, artefact, sha256 hex digest)."""
    spec = GenSpec(seed=seed, trace_count=traces,
                   stages=(("Register",), ("Pack", "Invoice"), ("Check",), ("Deliver",)),
                   resource_count=5, missing_resource_rate=0.1)
    truth, corrupted = generate(spec)
    paths = {name: os.path.join(workdir, f"{name}.csv")
             for name in ("truth", "instances", "events", "mixed", "noisy", "tied",
                          "merged", "quoted", "activities", "crlf")}
    for name, log in (("truth", truth), ("instances", corrupted),
                      ("mixed", _mixed_offsets(corrupted)),
                      ("tied", _mixed_offsets(_floored(corrupted))),
                      ("quoted", _quoted(corrupted)), ("activities", _renamed(corrupted))):
        with open(paths[name], "w", encoding="utf-8", newline="") as handle:
            write_activity_instance_log(log, handle)
    rows = _event_rows(corrupted)
    _write_event_rows(rows, paths["events"])
    _write_event_rows(_noisy(rows), paths["noisy"])
    _write_event_rows(_merged(rows), paths["merged"])
    with open(paths["instances"], encoding="utf-8", newline="") as source, \
            open(paths["crlf"], "w", encoding="utf-8", newline="") as sink:
        sink.write(_crlf_late_quote(source.read()))
    with open(os.path.join(workdir, "cap2-bot.json"), "w", encoding="utf-8") as sink:
        json.dump(CAP2_BOT, sink)

    for name, source, flags in CONFIGURATIONS:
        flags = tuple(flag.format(workdir=workdir) for flag in flags)
        repaired = os.path.join(workdir, f"{name}-repaired.csv")
        report = os.path.join(workdir, f"{name}-report.json")
        relation = os.path.join(workdir, f"{name}-concurrency.csv")
        dumps = os.path.join(workdir, f"{name}-histograms")
        _run("repair", "--input", paths[source], "--output", repaired,
             "--report", report, *flags)
        evaluate = ("evaluate", "--reference", paths["truth"], "--other", repaired)
        concurrency_flags = [arg for flag, value in zip(flags, flags[1:])
                             if flag in CONCURRENCY_FLAGS for arg in (flag, value)]
        _run("concurrency", "--input", paths[source], "--output", relation,
             *concurrency_flags)
        # the written relation must read back as the one discovered
        from_file = os.path.join(workdir, f"{name}-repaired-from-file.csv")
        _run("repair", "--input", paths[source], "--output", from_file,
             "--concurrency-file", relation, *flags)
        if _read(from_file) != _read(repaired):
            raise SystemExit(f"{name}: repair --concurrency-file of the written relation "
                             "differs from repair with the discovered one")
        if name in SAME_REPAIR and _read(repaired) != _read(
                os.path.join(workdir, f"{SAME_REPAIR[name]}-repaired.csv")):
            raise SystemExit(f"{name}: the repaired CSV differs from the "
                             f"{SAME_REPAIR[name]} configuration's")
        artefacts = {
            "repaired.csv": _read(repaired),
            "report.json": _read(report).replace(workdir.encode(), b"<dir>"),
            "evaluate.json": _run(*evaluate, "--format", "json",
                                  "--dump-histograms", dumps),
            "evaluate.txt": _run(*evaluate, "--format", "text"),
            "histograms": b"".join(f.encode() + b"\n" + _read(os.path.join(dumps, f))
                                   for f in sorted(os.listdir(dumps))),
            "concurrency.csv": _read(relation),
        }
        for artefact, data in artefacts.items():
            yield name, artefact, hashlib.sha256(data).hexdigest()

    spec, logs = os.path.join(workdir, "spec.json"), os.path.join(workdir, "generated")
    with open(spec, "w", encoding="utf-8") as sink:
        json.dump({"seed": seed, "trace_count": traces, **SPEC}, sink)
    _run("generate", "--spec", spec, "--out-truth", f"{logs}-truth.csv",
         "--out-corrupted", f"{logs}-corrupted.csv")
    for log in ("truth", "corrupted"):
        yield "generate-spec", f"{log}.csv", hashlib.sha256(
            _read(f"{logs}-{log}.csv")).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--traces", type=int, default=300)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        for name, artefact, digest in digests(args.seed, args.traces, workdir):
            print(f"{digest}  {name:16} {artefact}")


if __name__ == "__main__":
    main()
