"""Never-a-traceback property: any CSV input ends in exit 0, or in exit 1
with a single `startrepair: error:` line."""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile
from datetime import datetime, timedelta

from hypothesis import event, given, settings, strategies as st

from startrepair import (RepairConfig, discover_from_log, parse_event_log,
                         repair_start_times, to_activity_instances,
                         write_activity_instance_log)
from startrepair.cli import main
from startrepair.model import EVENT_COLUMNS

from .conftest import shipping_csv

INSTANCE_HEADER = ["case_id", "activity", "start_time", "end_time", "resource"]
EVENT_HEADER = ["case_id", "activity", "timestamp", "lifecycle", "resource"]


@st.composite
def offsets(draw) -> str:
    minutes = draw(st.integers(min_value=-23 * 60 - 59, max_value=23 * 60 + 59))
    sign = "-" if minutes < 0 else "+"
    return draw(st.sampled_from(["", "Z", f"{sign}{abs(minutes) // 60:02d}:"
                                               f"{abs(minutes) % 60:02d}"]))


def _near(moment: datetime, days: int):
    low, high = sorted((moment, moment + timedelta(days=days)))
    return st.datetimes(min_value=low, max_value=high)


@st.composite
def spans(draw) -> tuple[str, str]:
    """A start and an end text with a shared offset, at ordinary dates or
    within two days of the first or last representable day."""
    start = draw(st.one_of(_near(datetime(2021, 3, 1), 3), _near(datetime.min, 2),
                           _near(datetime.max, -2)))
    end = draw(st.datetimes(min_value=start, max_value=start + min(
        timedelta(hours=6), datetime.max - start)))
    separator, offset = draw(st.sampled_from([" ", "T"])), draw(offsets())
    return (start.isoformat(sep=separator) + offset,
            end.isoformat(sep=separator) + offset)


labels = {
    "case_id": st.sampled_from(["1", "2", "3"]),
    "activity": st.sampled_from(["a", "b", "c,d", 'say "x"']),
    "resource": st.sampled_from(["r1", "r2", "", "bot"]),
    "lifecycle": st.sampled_from(["start", "END", "complete"]),
}
faults = st.one_of(st.sampled_from(["", " ", "soon", "2021-13-01", "2021-02-30 10:00",
                                    "2021-03-01 25:00"]),
                   st.text(max_size=6))


@st.composite
def rows(draw, header: list[str]) -> list[str]:
    """Mostly well-formed; now and then a faulty cell or a wrong field count."""
    start, end = draw(spans())
    moments = {"start_time": start, "end_time": end,
               "timestamp": draw(st.sampled_from([start, end]))}
    row = [draw(faults) if draw(st.integers(0, 15)) == 0
           else moments[name] if name in moments else draw(labels.get(name, faults))
           for name in header]
    if draw(st.integers(0, 9)) == 0:
        row = (row + ["x", "y"])[:draw(st.integers(0, len(row) + 2))]
    return row


@st.composite
def csv_logs(draw) -> tuple[str, bool]:
    """(CSV text, whether it is event-per-row)."""
    evented = draw(st.booleans())
    header = EVENT_HEADER if evented else INSTANCE_HEADER
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.permutations(header + ["note"]))[:draw(st.integers(0, 6))]
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 7)) == 0:
            sink.write("\n")
        else:
            writer.writerow(draw(rows(header)))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + sink.getvalue(), evented


def run_quietly(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert err.startswith("startrepair: error:") and err.count("\n") == 1, err
        assert "Traceback" not in err


repair_flags = st.sampled_from([
    [], ["--outlier-threshold", "2"], ["--statistic", "mode", "--outlier-threshold", "1.5"],
    ["--allow-later-start"], ["--bot-resources", "bot", "--instant-activities", "b"],
    ["--outlier-threshold", "abc"], ["--df-threshold", "0x1"],
])


@settings(max_examples=300, deadline=None)
@given(csv_logs(), repair_flags)
def test_any_csv_repairs_or_fails_in_one_line(log, flags):
    text, evented = log
    mapping = ["--timestamp-column", "timestamp", "--lifecycle-column",
               "lifecycle"] if evented else []
    with tempfile.TemporaryDirectory() as directory:
        source = os.path.join(directory, "in.csv")
        repaired = os.path.join(directory, "out.csv")
        with open(source, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        code, err = run_quietly(["repair", "--input", source, "--output", repaired,
                                 *mapping, *flags])
        assert_clean_exit(code, err)
        event("repaired" if code == 0 else "rejected")
        assert_clean_exit(*run_quietly(["evaluate", "--reference", source,
                                        "--other", source, *mapping]))
        if code == 0 and not evented:
            assert_clean_exit(*run_quietly(["evaluate", "--reference", source,
                                            "--other", repaired]))


@st.composite
def event_row_logs(draw) -> str:
    """Well-formed event rows in shuffled order. Each group of rows shares a
    key and holds starts, ends and other phases in mixed case, so that pairs,
    orphan ends, dangling starts and dropped phases all occur; stamps come from
    a small pool of moments, so that ties are common."""
    moments = draw(st.lists(_near(datetime(2021, 3, 1), 1), min_size=1, max_size=4))
    stamps = st.builds(lambda moment, offset: moment.isoformat(sep=" ") + offset,
                       st.sampled_from(moments), st.sampled_from(["", "Z", "+02:00"]))
    phases = st.sampled_from(["start", "START", "end", "End", "schedule", "complete"])
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        case, activity, resource = (draw(labels[name])
                                    for name in ("case_id", "activity", "resource"))
        rows += [[case, activity, draw(stamps), phase, resource]
                 for phase in draw(st.lists(phases, min_size=1, max_size=4))]
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(EVENT_HEADER)
    writer.writerows(draw(st.permutations(rows)))
    return sink.getvalue()


@settings(max_examples=200, deadline=None)
@given(event_row_logs(), st.sampled_from([
    ((), RepairConfig()),
    (("--outlier-threshold", "2", "--bot-resources", "bot", "--instant-activities", "b"),
     RepairConfig(outlier_threshold=2.0, bot_resources={"bot"}, instant_activities={"b"})),
]))
def test_cli_repairs_event_rows_as_the_library_does(text, configured):
    """`startrepair repair` on event rows writes the bytes and reports the
    pairing counts of `parse_event_log`, `to_activity_instances`,
    `repair_start_times` and the writer called in turn."""
    flags, config = configured
    log, summary = to_activity_instances(parse_event_log(io.StringIO(text), EVENT_COLUMNS))
    outcome = repair_start_times(log, discover_from_log(log), config)
    expected = io.StringIO()
    write_activity_instance_log(outcome.repaired_log, expected)
    with tempfile.TemporaryDirectory() as directory:
        source, repaired, report = (os.path.join(directory, name)
                                    for name in ("in.csv", "out.csv", "report.json"))
        with open(source, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        assert run_quietly(["repair", "--input", source, "--output", repaired,
                            "--report", report, "--timestamp-column", "timestamp",
                            "--lifecycle-column", "lifecycle", *flags]) == (0, "")
        with open(repaired, "rb") as handle:
            assert handle.read() == expected.getvalue().encode()
        with open(report, encoding="utf-8") as handle:
            assert json.load(handle)["pairing"] == vars(summary)
    event(f"{summary.matched_pairs} matched, {summary.orphan_ends} orphan ends")


# JSON values with no integer at the top: every one is the wrong type for an
# integer spec key, so no draw asks for a huge trace or resource count
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=5)
    | st.sampled_from(["2021-03-01", "9999-12-31T23:00:00", "0001-01-01"]),
    lambda inner: st.lists(inner | st.integers(-5, 10**20), max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)
spec_keys = st.sampled_from(["seed", "trace_count", "stages", "resource_count",
                             "duration_range", "delay_range", "arrival_gap_range",
                             "missing_resource_rate", "multitasking", "first_arrival",
                             "bogus"])


@st.composite
def generator_specs(draw):
    """A small valid spec with one key set to a wrongly typed value, or now
    and then a spec that is not a JSON object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    spec = {"seed": draw(st.integers(0, 10**6)), "trace_count": draw(st.integers(1, 5)),
            "stages": [["a", "b"], "c"], "resource_count": 2}
    spec[draw(spec_keys)] = draw(json_values)
    return spec


@settings(max_examples=200, deadline=None)
@given(generator_specs())
def test_any_generator_spec_generates_or_fails_in_one_line(spec):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        code, err = run_quietly(["generate", "--spec", path,
                                 "--out-truth", os.path.join(directory, "t.csv"),
                                 "--out-corrupted", os.path.join(directory, "c.csv")])
        assert_clean_exit(code, err)
        event("generated" if code == 0 else "rejected")


relation_cells = st.sampled_from(["", " ", "Register Order", "Deliver Package",
                                  "Prepare Invoice", "x", 'a "b"', "c,d"])


@st.composite
def relation_files(draw) -> str:
    """Rows of random field counts with empty and quoted cells, blank lines
    and now and then a byte-order mark."""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            sink.write("\n")
        else:
            writer.writerow(draw(st.lists(relation_cells, max_size=4)))
    return ("\ufeff" if draw(st.booleans()) else "") + sink.getvalue()


@settings(max_examples=200, deadline=None)
@given(relation_files(), st.sampled_from(["repair", "concurrency"]))
def test_any_relation_file_is_read_or_fails_in_one_line(relation, command):
    with tempfile.TemporaryDirectory() as directory:
        source = os.path.join(directory, "in.csv")
        pairs = os.path.join(directory, "pairs.csv")
        with open(source, "w", encoding="utf-8", newline="") as handle:
            handle.write(shipping_csv())
        with open(pairs, "w", encoding="utf-8", newline="") as handle:
            handle.write(relation)
        code, err = run_quietly([command, "--input", source, "--concurrency-file", pairs,
                                 "--output", os.path.join(directory, "out.csv")])
        assert_clean_exit(code, err)
        event("read" if code == 0 else "rejected")
