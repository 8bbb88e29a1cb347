from __future__ import annotations

import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import startrepair
from startrepair import ActivityInstance, cli
from startrepair.cli import main
from startrepair.repair import repair_start_times

from .conftest import SHIPPING_ROWS, event_csv, shipping_csv
from .test_evaluate import EMD_OTHER_ROWS, EMD_PAIR_REPORT, EMD_REFERENCE_ROWS


@pytest.fixture
def shipping_file(tmp_path):
    path = tmp_path / "shipping.csv"
    path.write_text(shipping_csv())
    return path


@pytest.fixture
def shipping_events_file(tmp_path):
    """The shipping log as event rows: a start row and an end row per instance."""
    path = tmp_path / "events.csv"
    path.write_text(event_csv(SHIPPING_ROWS))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestRepairCommand:
    def test_shipping_defaults(self, shipping_file, tmp_path, capsys):
        out = tmp_path / "repaired.csv"
        assert run("repair", "--input", shipping_file, "--output", out) == 0
        rows = out.read_text().splitlines()
        assert "24,Deliver Package,2021-03-08 11:11:05+00:00" in "\n".join(rows)
        report = json.loads(capsys.readouterr().out)
        assert report["instances"] == 10
        assert sum(report["rule_counts"].values()) == 10
        assert ["Prepare Invoice", "Prepare Package"] in report["concurrency_pairs"]

    def test_missing_input_no_output_created(self, tmp_path, capsys):
        out = tmp_path / "repaired.csv"
        assert run("repair", "--input", tmp_path / "nope.csv",
                   "--output", out) != 0
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_report_echoes_mod2_configuration(self, shipping_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert run("repair", "--input", shipping_file,
                   "--output", tmp_path / "out.csv",
                   "--outlier-threshold", 2, "--statistic", "mode",
                   "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["statistic"] == "mode"
        assert report["config"]["outlier_threshold"] == 2.0

    def test_config_file_with_flag_override(self, shipping_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"statistic": "mode", "balance_threshold": 0.5}))
        report_path = tmp_path / "report.json"
        assert run("repair", "--input", shipping_file,
                   "--output", tmp_path / "out.csv", "--config", config,
                   "--statistic", "median", "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["statistic"] == "median"  # flag wins
        assert report["config"]["balance_threshold"] == 0.5  # file value kept

    def test_unknown_config_key_rejected(self, shipping_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"statistik": "mode"}))
        assert run("repair", "--input", shipping_file,
                   "--output", tmp_path / "out.csv", "--config", config) != 0

    def test_bot_resources_comma_list(self, shipping_file, tmp_path, capsys):
        assert run("repair", "--input", shipping_file,
                   "--output", tmp_path / "out.csv",
                   "--bot-resources", "Leela,Fry") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rule_counts"]["bot_or_instant"] == 6  # 4 Leela + 2 Fry
        assert report["config"]["bot_resources"] == ["Fry", "Leela"]

    def test_deterministic_output_bytes(self, shipping_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run("repair", "--input", shipping_file, "--output", out,
                       "--report", tmp_path / f"{name}.json") == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_infinite_threshold_is_a_one_line_error(self, shipping_file, tmp_path,
                                                    capsys):
        out = tmp_path / "out.csv"
        assert run("repair", "--input", shipping_file, "--output", out,
                   "--outlier-threshold", "inf") == 1
        err = capsys.readouterr().err
        assert err.startswith("startrepair: error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_huge_finite_threshold_never_binds(self, shipping_file, tmp_path):
        outs, reports = [], []
        for name, extra in (("plain", ()), ("huge", ("--outlier-threshold", "1e12"))):
            out, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            assert run("repair", "--input", shipping_file, "--output", out,
                       "--report", report, *extra) == 0
            outs.append(out.read_bytes())
            reports.append(json.loads(report.read_text()))
        assert outs[0] == outs[1]
        assert reports[1]["rule_counts"]["outlier_capped"] == 0
        assert reports[1]["rule_counts"] == reports[0]["rule_counts"]

    def test_byte_order_mark_header(self, shipping_file, tmp_path):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + shipping_file.read_bytes())
        outs = []
        for source in (shipping_file, marked):
            out = tmp_path / f"{source.stem}.out.csv"
            assert run("repair", "--input", source, "--output", out,
                       "--report", tmp_path / "report.json") == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_concurrency_file_replaces_discovery(self, shipping_file, tmp_path,
                                                 capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("Register Order,Deliver Package\n")
        assert run("repair", "--input", shipping_file,
                   "--output", tmp_path / "out.csv",
                   "--concurrency-file", pairs) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["concurrency_pairs"] == [["Deliver Package", "Register Order"]]


class TestEvaluateCommand:
    def test_self_comparison_json(self, shipping_file, capsys):
        assert run("evaluate", "--reference", shipping_file,
                   "--other", shipping_file) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["timestamp_emd"] == 0.0
        assert report["cycle_time_emd"] == 0.0
        assert report["reference_mass"] == 20.0

    def test_text_format(self, shipping_file, capsys):
        assert run("evaluate", "--reference", shipping_file,
                   "--other", shipping_file, "--format", "text") == 0
        assert "timestamp EMD" in capsys.readouterr().out

    @pytest.mark.parametrize("form", ["json", "text"])
    def test_hand_built_pair_report(self, tmp_path, capsys, form):
        paths = []
        for name, rows in (("reference", EMD_REFERENCE_ROWS), ("other", EMD_OTHER_ROWS)):
            paths.append(tmp_path / f"{name}.csv")
            paths[-1].write_text("case_id,activity,start_time,end_time,resource\n"
                                 + "".join(",".join(row) + "\n" for row in rows))
        assert run("evaluate", "--reference", paths[0], "--other", paths[1],
                   "--format", form) == 0
        out = capsys.readouterr().out
        if form == "json":
            assert json.loads(out) == dataclasses.asdict(EMD_PAIR_REPORT)
        else:
            assert out == ("timestamp EMD (hours):      1.000000\n"
                           "cycle-time EMD (bin units): 83.500000\n"
                           "reference mass: 6 (5 bins)\n"
                           "other mass:     2 (2 bins)\n"
                           "cycle bin width: 54.000 s\n")

    def test_empty_log(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("case_id,activity,start_time,end_time,resource\n")
        assert run("evaluate", "--reference", empty, "--other", empty) == 1
        assert capsys.readouterr().err == (
            "startrepair: error: cannot discretize an empty log\n")

    def test_dump_histograms(self, shipping_file, tmp_path):
        dump = tmp_path / "hists"
        assert run("evaluate", "--reference", shipping_file,
                   "--other", shipping_file, "--dump-histograms", dump) == 0
        assert (dump / "timestamp_reference.csv").exists()


class TestGenerateCommand:
    def test_round_trips_through_repair(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "seed": 7, "trace_count": 12,
            "stages": ["Register", ["Pack", "Invoice"], "Deliver"],
            "resource_count": 2,
        }))
        truth = tmp_path / "truth.csv"
        corrupted = tmp_path / "corrupted.csv"
        assert run("generate", "--spec", spec, "--out-truth", truth,
                   "--out-corrupted", corrupted) == 0
        assert truth.exists() and corrupted.exists()
        assert run("repair", "--input", corrupted,
                   "--output", tmp_path / "repaired.csv") == 0

    def test_bad_spec_fails(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 1, "trace_count": 0}))
        assert run("generate", "--spec", spec, "--out-truth", tmp_path / "t.csv",
                   "--out-corrupted", tmp_path / "c.csv") != 0


class TestConcurrencyCommand:
    def test_shipping_pairs_to_stdout(self, shipping_file, capsys):
        assert run("concurrency", "--input", shipping_file) == 0
        assert capsys.readouterr().out == "Prepare Invoice,Prepare Package\n"

    def test_sequential_log_empty(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        path.write_text(
            "case_id,activity,start_time,end_time,resource\n"
            "1,a,2021-03-01 08:00:00,2021-03-01 09:00:00,r\n"
            "1,b,2021-03-01 09:00:00,2021-03-01 10:00:00,r\n"
        )
        assert run("concurrency", "--input", path) == 0
        assert capsys.readouterr().out == ""

    def test_output_file(self, shipping_file, tmp_path):
        out = tmp_path / "pairs.csv"
        assert run("concurrency", "--input", shipping_file, "--output", out) == 0
        assert out.read_text() == "Prepare Invoice,Prepare Package\n"


def assert_one_line_error(err: str) -> None:
    assert err.startswith("startrepair: error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


class TestConfigValues:
    @pytest.mark.parametrize("settings", [
        {"bot_resources": 5},
        {"instant_activities": ["Bill", 3]},
        {"allow_later_start": "no"},
        {"outlier_threshold": [2]},
        {"df_threshold": True},
        {"df_threshold": 10**400},
    ])
    def test_bad_value_is_a_one_line_error(self, shipping_file, tmp_path, capsys,
                                                settings):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        out = tmp_path / "out.csv"
        assert run("repair", "--input", shipping_file, "--output", out,
                   "--config", config) == 1
        assert_one_line_error(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("settings, quoted", [
        ({"input": 5}, "bad config file: 'input' must be a string, got 5"),
        ({"bot_resources": ["a", 3]}, "bad config file: 'bot_resources' must be a string "
                                      'or a list of strings, got ["a", 3]'),
    ], ids=["text", "labels"])
    def test_error_quotes_the_value_as_written(self, shipping_file, tmp_path, capsys,
                                               settings, quoted):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        assert run("repair", "--input", shipping_file, "--output", tmp_path / "out.csv",
                   "--config", config) == 1
        assert capsys.readouterr().err == f"startrepair: error: {quoted}\n"

    def test_integer_number_setting_is_read_as_a_float(self, shipping_file, tmp_path,
                                                       capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"outlier_threshold": 2, "df_threshold": 0}))
        assert run("repair", "--input", shipping_file, "--output", tmp_path / "out.csv",
                   "--config", config) == 0
        echoed = json.loads(capsys.readouterr().out)["config"]
        assert (echoed["outlier_threshold"], echoed["df_threshold"]) == (2.0, 0.0)
        assert all(isinstance(echoed[k], float) for k in ("outlier_threshold",
                                                          "df_threshold"))

    def test_label_list_and_boolean_accepted(self, shipping_file, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bot_resources": ["Leela", "Fry"],
                                      "allow_later_start": False}))
        assert run("repair", "--input", shipping_file, "--output", tmp_path / "out.csv",
                   "--config", config) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["bot_resources"] == ["Fry", "Leela"]
        assert report["config"]["allow_later_start"] is False

    # input cells are stripped, so an unstripped or empty label matches nothing
    @pytest.mark.parametrize("given, labels", [
        ("config", [" Fry "]), ("config", [" Fry ", " "]), ("config", " Fry ,"),
        ("flag", " Fry ,"),
    ])
    def test_labels_stripped_and_empty_ones_dropped(self, shipping_file, tmp_path,
                                                    capsys, given, labels):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bot_resources": labels} if given == "config"
                                     else {}))
        flags = ["--bot-resources", labels] if given == "flag" else []
        assert run("repair", "--input", shipping_file, "--output", tmp_path / "out.csv",
                   "--config", config, *flags) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["bot_resources"] == ["Fry"]
        assert report["rule_counts"]["bot_or_instant"] == 2

    def test_null_means_not_given(self, shipping_file, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": None, "output": str(tmp_path / "o.csv")}))
        assert run("repair", "--config", config) == 1
        assert capsys.readouterr().err == (
            "startrepair: error: repair needs --input and --output\n")

    def test_oracle_thresholds_checked_with_concurrency_file(self, shipping_file,
                                                             tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("Register Order,Deliver Package\n")
        out = tmp_path / "out.csv"
        assert run("repair", "--input", shipping_file, "--output", out,
                   "--concurrency-file", pairs,
                   "--df-threshold", 7, "--balance-threshold", -3) == 1
        assert_one_line_error(capsys.readouterr().err)
        assert not out.exists()

    def test_default_report_echoes_oracle_thresholds(self, shipping_file, tmp_path,
                                                     capsys):
        assert run("repair", "--input", shipping_file,
                   "--output", tmp_path / "out.csv") == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["df_threshold"], config["balance_threshold"]) == (0.05, 0.75)
        assert config["statistic"] == "median"


LONG_CELL = "x" * 200_000  # past the csv module's default field limit of 131072


class TestInputFiles:
    def test_long_cell_in_a_log_is_a_one_line_error(self, shipping_file, tmp_path,
                                                    capsys):
        log = tmp_path / "long.csv"
        log.write_text(shipping_csv() + f"26,{LONG_CELL},2021-03-09 08:00:00,"
                       "2021-03-09 09:00:00,Fry\n")
        out = tmp_path / "out.csv"
        for argv in (("repair", "--input", log, "--output", out),
                     ("evaluate", "--reference", shipping_file, "--other", log)):
            assert run(*argv) == 1
            assert_one_line_error(capsys.readouterr().err)
        assert not out.exists()
        for argv in (("repair", "--input", log, "--output", out),
                     ("evaluate", "--reference", shipping_file, "--other", log)):
            run(*argv)
            assert "long.csv" in capsys.readouterr().err

    def test_long_cell_in_a_relation_file_is_a_one_line_error(self, shipping_file,
                                                              tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(f"Register Order,{LONG_CELL}\n")
        out = tmp_path / "out.csv"
        assert run("repair", "--input", shipping_file, "--output", out,
                   "--concurrency-file", pairs) == 1
        assert_one_line_error(capsys.readouterr().err)
        assert not out.exists()
        run("repair", "--input", shipping_file, "--output", out,
            "--concurrency-file", pairs)
        assert "pairs.csv" in capsys.readouterr().err

    def test_byte_order_mark_config_file(self, shipping_file, tmp_path):
        text = json.dumps({"statistic": "mode", "outlier_threshold": 2,
                           "bot_resources": ["Fry"]})
        out, report, outs = tmp_path / "out.csv", tmp_path / "report.json", []
        for name, data in (("plain", text.encode()),
                           ("marked", b"\xef\xbb\xbf" + text.encode())):
            config = tmp_path / f"{name}.json"
            config.write_bytes(data)
            assert run("repair", "--input", shipping_file, "--output", out,
                       "--config", config, "--report", report) == 0
            outs.append((out.read_bytes(), report.read_bytes()))
        assert outs[0] == outs[1]

    def test_byte_order_mark_spec_file(self, tmp_path):
        text = json.dumps({"seed": 3, "trace_count": 5, "stages": ["a", ["b", "c"]]})
        outs = []
        for name, data in (("plain", text.encode()),
                           ("marked", b"\xef\xbb\xbf" + text.encode())):
            spec = tmp_path / f"{name}.json"
            spec.write_bytes(data)
            truth, corrupted = tmp_path / f"{name}-t.csv", tmp_path / f"{name}-c.csv"
            assert run("generate", "--spec", spec, "--out-truth", truth,
                       "--out-corrupted", corrupted) == 0
            outs.append((truth.read_bytes(), corrupted.read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", ["input", "reference", "other", "concurrency_file",
                                      "config", "spec"])
    def test_non_utf8_file_is_named_in_a_one_line_error(self, shipping_file, tmp_path,
                                                        capsys, kind):
        text = {"input": shipping_csv(), "reference": shipping_csv(),
                "other": shipping_csv(), "concurrency_file": "Register Order,Bill\n",
                "config": json.dumps({"statistic": "mode"}),
                "spec": json.dumps({"seed": 3, "trace_count": 5})}[kind]
        bad = tmp_path / f"bad-{kind}"
        bad.write_bytes(text.encode()[:-3] + b"\xff" + text.encode()[-3:])
        out = tmp_path / "out.csv"
        argv = {
            "input": ("repair", "--input", bad, "--output", out),
            "reference": ("evaluate", "--reference", bad, "--other", shipping_file),
            "other": ("evaluate", "--reference", shipping_file, "--other", bad),
            "concurrency_file": ("repair", "--input", shipping_file, "--output", out,
                                 "--concurrency-file", bad),
            "config": ("repair", "--input", shipping_file, "--output", out,
                       "--config", bad),
            "spec": ("generate", "--spec", bad, "--out-truth", out,
                     "--out-corrupted", tmp_path / "corrupted.csv"),
        }[kind]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err == (f"startrepair: error: {str(bad)!r}: not UTF-8 text "
                       "(byte 0xff: invalid start byte)\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"input": ', '{"seed": ' + "1" * 5000 + "}"],
                             ids=["syntax", "long-integer"])
    @pytest.mark.parametrize("kind", ["config", "spec"])
    def test_json_fault_is_named_in_a_one_line_error(self, shipping_file, tmp_path,
                                                     capsys, kind, text):
        try:
            json.loads(text)
        except ValueError as exc:
            message = str(exc)
        else:
            pytest.skip("this Python has no limit on integer digits")
        bad = tmp_path / f"bad-{kind}.json"
        bad.write_text(text)
        out = tmp_path / "out.csv"
        argv = {
            "config": ("repair", "--input", shipping_file, "--output", out,
                       "--config", bad),
            "spec": ("generate", "--spec", bad, "--out-truth", out,
                     "--out-corrupted", tmp_path / "corrupted.csv"),
        }[kind]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err == f"startrepair: error: {str(bad)!r}: {message}\n"
        assert not out.exists()


class TestNoInstanceObjects:
    """A CLI job works on the log's columns and builds no `ActivityInstance`;
    one on event rows pairs them as tuples."""

    def test_jobs_build_no_instance(self, shipping_file, shipping_events_file, tmp_path,
                                    capsys, monkeypatch):
        events = shipping_events_file
        built = []

        def count_builds(cls):
            check = cls.__post_init__

            def counting(obj):
                built.append(obj)
                check(obj)
            monkeypatch.setattr(cls, "__post_init__", counting)

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 3, "trace_count": 20}))
        evented = ("--timestamp-column", "timestamp", "--lifecycle-column", "lifecycle")
        out = tmp_path / "out.csv"
        jobs = [
            ("repair", "--input", shipping_file, "--output", out),
            ("evaluate", "--reference", shipping_file, "--other", out),
            ("concurrency", "--input", shipping_file),
            ("generate", "--spec", spec, "--out-truth", tmp_path / "t.csv",
             "--out-corrupted", tmp_path / "c.csv"),
            ("repair", "--input", events, "--output", out, *evented),
            ("evaluate", "--reference", events, "--other", events, *evented),
            ("concurrency", "--input", events, *evented),
        ]
        count_builds(ActivityInstance)
        for argv in jobs:
            assert run(*argv) == 0, capsys.readouterr().err
            assert built == [], argv


class TestPublicEventPath:
    """The CLI pairs event rows through the public `parse_event_log` and
    `to_activity_instances`, looked up by name in `startrepair.cli`, so that
    rebinding those names there, as a tracer does, sees every call."""

    def test_one_call_each_on_event_rows_and_none_on_instance_rows(
            self, shipping_file, shipping_events_file, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(cli, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(cli, name, counting)

        counted("parse_event_log")
        counted("to_activity_instances")
        out = tmp_path / "out.csv"
        assert run("repair", "--input", shipping_events_file, "--output", out,
                   "--timestamp-column", "timestamp",
                   "--lifecycle-column", "lifecycle") == 0, capsys.readouterr().err
        assert calls == ["parse_event_log", "to_activity_instances"]
        calls.clear()
        assert run("repair", "--input", shipping_file, "--output", out) == 0
        assert calls == []


class TestCollectorState:
    """A job runs with the cyclic collector paused, and leaves it as it was."""

    def test_paused_during_a_job_and_restored(self, shipping_file, tmp_path,
                                              monkeypatch):
        seen = []

        def watched(*args):
            seen.append(gc.isenabled())
            return repair_start_times(*args)

        monkeypatch.setattr("startrepair.cli.repair_start_times", watched)
        assert gc.isenabled()
        assert run("repair", "--input", shipping_file, "--output", tmp_path / "out.csv") == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_after_an_error(self, tmp_path, capsys):
        assert gc.isenabled()
        assert run("repair", "--input", tmp_path / "missing.csv",
                   "--output", tmp_path / "out.csv") == 1
        assert_one_line_error(capsys.readouterr().err)
        assert gc.isenabled()

    def test_left_disabled_for_a_caller_that_disabled_it(self, shipping_file, tmp_path):
        gc.disable()
        try:
            assert run("repair", "--input", shipping_file,
                       "--output", tmp_path / "out.csv") == 0
            assert not gc.isenabled()
        finally:
            gc.enable()


GENERATE = ("generate", "--spec", "{json}", "--out-truth", "{out}",
            "--out-corrupted", "{out}")


class TestRejectedSettings:
    """A setting that the program refuses, given by a flag or in a file the CLI
    reads, ends in one error line and writes no output."""

    @pytest.mark.parametrize("argv, text, message", [
        (("repair", "--input", "{log}", "--output", "{out}", "--config", "{json}"),
         "[1, 2]", "bad config file: expected a JSON object"),
        (("concurrency",), None, "concurrency needs --input"),
        (("repair", "--input", "{log}", "--output", "{out}", "--start-column="), None,
         "mapping needs either start_time+end_time or timestamp+lifecycle columns"),
        (("repair", "--input", "{log}", "--output", "{out}", "--lifecycle-column",
          "lifecycle", "--start-column", "nonexistent"), None,
         "mapping names columns of two input shapes: set start_time+end_time or "
         "timestamp+lifecycle, not both"),
        (("repair", "--input", "{log}", "--output", "{out}", "--resource-column", "nope"),
         None, "mapped columns missing from header: ['nope']"),
        (GENERATE, '{"seed": 1, "trace_count": 2, "delay_range": [10, 5]}',
         "bad generator spec: 'delay_range' must be a [low, high] pair of integers with "
         "0 <= low <= high <= 86399999999999, got [10, 5]"),
        (GENERATE, '{"seed": 1, "trace_count": 2, "missing_resource_rate": 1.5}',
         "bad generator spec: 'missing_resource_rate' must be a number in [0, 1], got 1.5"),
        (GENERATE, '{"seed": 1, "trace_count": 2, "stages": [""]}',
         "bad generator spec: 'stages' must be a non-empty list of activities or non-empty "
         'lists of activities, each label non-blank, got [""]'),
        (("repair", "--input", "{log}", "--output", "{out}", "--statistic", "mean"), None,
         "statistic must be median or mode, got 'mean'"),
        (("repair", "--input", "{log}", "--output", "{out}", "--config", "{json}"),
         '{"statistic": "mean"}',
         "bad config file: 'statistic' must be median or mode, got \"mean\""),
        (("repair", "--input", "{log}", "--output", "{out}", "--outlier-threshold", "abc"),
         None, "outlier_threshold must be a finite number > 1, got 'abc'"),
        (("repair", "--input", "{log}", "--output", "{out}", "--df-threshold", "x"), None,
         "df_threshold must be a number in [0, 1], got 'x'"),
        (("concurrency", "--input", "{log}", "--output", "{out}", "--balance-threshold", ""),
         None, "balance_threshold must be a number in [0, 1], got ''"),
    ], ids=["config-list", "concurrency-no-input", "empty-start-column",
            "event-and-instance-columns", "missing-resource-column",
            "reversed-delay-range", "missing-resource-rate-above-1",
            "empty-activity-label", "unknown-statistic-flag", "unknown-statistic-file",
            "outlier-threshold-not-a-number", "df-threshold-not-a-number",
            "empty-balance-threshold"])
    def test_one_line_error(self, shipping_file, tmp_path, capsys, argv, text, message):
        paths = {"log": shipping_file, "out": tmp_path / "out.csv",
                 "json": tmp_path / "settings.json"}
        if text is not None:
            paths["json"].write_text(text)
        assert run(*(part.format(**paths) for part in argv)) == 1
        assert capsys.readouterr().err == f"startrepair: error: {message}\n"
        assert not paths["out"].exists()


@pytest.mark.parametrize("module", ["startrepair", "startrepair.cli"])
def test_module_entry_point_runs_main(module):
    # `python -m` runs the package's __main__.py or the module's __main__
    # block; without the block, `-m startrepair.cli` exits 0 having done nothing
    package_root = str(Path(startrepair.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-m", module, "concurrency"],
                          env={**os.environ, "PYTHONPATH": package_root},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "startrepair: error: concurrency needs --input\n")
