from __future__ import annotations

import io
import json
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from startrepair import (
    ConfigurationError,
    GenSpec,
    RepairConfig,
    evaluate_logs,
    generate,
    read_instance_log,
    repair_start_times,
    write_activity_instance_log,
)
from startrepair.cli import main
from startrepair.loggen import SPEC_KEYS

from .conftest import resource_buckets


def log_bytes(log) -> bytes:
    sink = io.StringIO()
    write_activity_instance_log(log, sink)
    return sink.getvalue().encode()


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GenSpec(seed=1, trace_count=0)
        with pytest.raises(ConfigurationError):
            GenSpec(seed=1, trace_count=1, resource_count=0)
        with pytest.raises(ConfigurationError):
            GenSpec(seed=1, trace_count=1, stages=())
        with pytest.raises(ConfigurationError):
            GenSpec(seed=1, trace_count=1, duration_range=(0, 10))

    def test_bare_string_stages_rejected(self):
        # a string is a sequence of letters, not a sequence of stages
        with pytest.raises(ConfigurationError, match=re.escape(
                "stages must be a non-empty list of activities or non-empty lists of "
                "activities, each label non-blank, got 'Reg'")):
            GenSpec(seed=1, trace_count=1, stages="Reg")

    @pytest.mark.parametrize("stages", [(("a", ""),), ("",)])
    def test_empty_activity_label_rejected(self, stages):
        # generate would fail on it with a log-format error instead
        with pytest.raises(ConfigurationError, match=re.escape(
                "stages must be a non-empty list of activities or non-empty lists of "
                f"activities, each label non-blank, got {stages!r}")):
            GenSpec(seed=1, trace_count=1, stages=stages)

    def test_labels_stripped_so_the_written_log_reads_back(self):
        # every reader strips its cells, so an unstripped label would not
        # survive a write and a read
        truth, _ = generate(GenSpec(seed=1, trace_count=2, stages=((" a",), " b ")))
        assert set(truth.activities) == {"a", "b"}
        assert read_instance_log(io.StringIO(log_bytes(truth).decode(), newline="")) == truth

    def test_naive_first_arrival_is_utc_so_the_written_log_reads_back(self):
        # every reader gives an offset-free stamp UTC; a naive log would not
        # compare with the log read back
        naive = GenSpec(seed=1, trace_count=2, first_arrival=datetime(2021, 3, 1, 8))
        aware = GenSpec(seed=1, trace_count=2,
                        first_arrival=datetime(2021, 3, 1, 8, tzinfo=timezone.utc))
        assert generate(naive) == generate(aware)
        for log in generate(naive):
            read_back = read_instance_log(io.StringIO(log_bytes(log).decode(), newline=""))
            assert read_back == log
            assert evaluate_logs(log, read_back).timestamp_emd == 0

    def test_from_dict_normalizes_stages(self):
        spec = GenSpec.from_dict(
            {"seed": 3, "trace_count": 2, "stages": ["a", ["b", "c"], "d"]}
        )
        assert spec.stages == (("a",), ("b", "c"), ("d",))
        assert spec.concurrency_pairs().sorted_pairs() == [("b", "c")]

    def test_string_stage_is_one_activity_in_every_constructor(self):
        spec = GenSpec(seed=1, trace_count=3,
                       stages=("Register", ("Pack", "Invoice"), "Deliver"))
        assert spec == GenSpec.from_dict({"seed": 1, "trace_count": 3, "stages": [
            "Register", ["Pack", "Invoice"], "Deliver"]})
        truth, corrupted = generate(spec)
        for log in (truth, corrupted):
            assert set(log.activities) == {"Register", "Pack", "Invoice", "Deliver"}

    @pytest.mark.parametrize("key", sorted(set(SPEC_KEYS) - {"seed", "trace_count"}))
    def test_null_key_takes_its_default(self, key):
        assert GenSpec.from_dict({"seed": 1, "trace_count": 2, key: None}) == GenSpec(
            seed=1, trace_count=2)

    @pytest.mark.parametrize("field, value", [
        ("trace_count", "3"),
        ("seed", True),
        ("missing_resource_rate", None),
        ("duration_range", (1, "5")),
        ("delay_range", (0, 1, 2)),
        ("multitasking", "no"),
        ("stages", (("a", 3),)),
        ("first_arrival", "2021-03-01T08:00:00"),
    ])
    def test_field_of_the_wrong_type_names_its_field(self, field, value):
        # a configuration error, not the TypeError of comparing the value
        with pytest.raises(ConfigurationError,
                           match=f"^{field} must be .*, got {re.escape(repr(value))}$"):
            GenSpec(**{"seed": 1, "trace_count": 2, field: value})

    def test_python_forms_of_the_json_kinds_accepted(self):
        # tuples for ranges and stages, and a datetime, as a script passes them
        spec = GenSpec(seed=1, trace_count=2, stages=(("a", "b"), "c"), duration_range=(1, 5),
                       missing_resource_rate=0, multitasking=True,
                       first_arrival=datetime(2021, 3, 1, 8, tzinfo=timezone.utc))
        assert spec == GenSpec.from_dict({
            "seed": 1, "trace_count": 2, "stages": [["a", "b"], "c"], "duration_range": [1, 5],
            "missing_resource_rate": 0, "multitasking": True,
            "first_arrival": "2021-03-01T08:00:00Z"})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            GenSpec.from_dict({"seed": 3, "trace_count": 2, "bogus": 1})


class TestGenerate:
    def test_seed_determinism_byte_identical(self):
        spec = GenSpec(seed=7, trace_count=20)
        first = generate(spec)
        second = generate(spec)
        assert log_bytes(first[0]) == log_bytes(second[0])
        assert log_bytes(first[1]) == log_bytes(second[1])

    def test_zero_delay_means_identical_logs(self):
        spec = GenSpec(seed=11, trace_count=10, delay_range=(0, 0))
        truth, corrupted = generate(spec)
        assert truth == corrupted

    def test_corruption_only_moves_starts_later(self):
        truth, corrupted = generate(GenSpec(seed=5, trace_count=15))
        for before, after in zip(truth.instances, corrupted.instances):
            assert after.start >= before.start
            assert after.start <= after.end
            assert (before.trace_id, before.activity, before.end,
                    before.resource) == (after.trace_id, after.activity,
                                         after.end, after.resource)

    def test_no_multitasking_by_default(self):
        truth, _ = generate(GenSpec(seed=2, trace_count=25, resource_count=2))
        for bucket in resource_buckets(truth).values():
            for first, second in zip(bucket, bucket[1:]):
                assert first.end <= second.start

    def test_sequential_single_resource_structure(self):
        spec = GenSpec(seed=9, trace_count=5, stages=(("a",), ("b",), ("c",)),
                       resource_count=1)
        truth, _ = generate(spec)
        ordered = sorted(truth.instances, key=lambda i: i.end)
        for previous, current in zip(ordered, ordered[1:]):
            assert current.start >= previous.end  # one resource, no overlap

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_repair_recovers_ground_truth(self, seed):
        spec = GenSpec(seed=seed, trace_count=8, resource_count=2)
        truth, corrupted = generate(spec)
        outcome = repair_start_times(
            corrupted, spec.concurrency_pairs(), RepairConfig()
        )
        recoverable = 0
        for true_inst, record, repaired in zip(
            truth.instances, outcome.per_instance, outcome.repaired_log.instances
        ):
            # recoverable = neither first in its trace nor first for its resource
            if record.rat is None or record.ent is None:
                continue
            recoverable += 1
            assert repaired.start == true_inst.start
        assert recoverable > 0


class TestSpecKeys:
    @pytest.mark.parametrize("spec, message", [
        ([1, 2], "expected a JSON object"),
        ({"seed": 1, "trace_count": 2, "stages": 5}, "'stages' must be"),
        ({"seed": 1, "trace_count": 2, "duration_range": 5}, "'duration_range' must be"),
        ({"seed": 1, "trace_count": 2, "resource_count": 2.5}, "'resource_count' must be"),
        ({"seed": 1, "trace_count": 2, "stages": ["a", ["b", 3]]}, "'stages' must be"),
        ({"seed": 1, "trace_count": 2, "delay_range": [0, "60"]}, "'delay_range' must be"),
        ({"seed": 1, "trace_count": 2, "arrival_gap_range": [1, 2, 3]},
         "'arrival_gap_range' must be"),
        ({"seed": True, "trace_count": 2}, "'seed' must be"),
        ({"seed": 1, "trace_count": 2, "missing_resource_rate": "0.1"},
         "'missing_resource_rate' must be"),
        ({"seed": 1, "trace_count": 2, "multitasking": 1}, "'multitasking' must be"),
        ({"seed": 1, "trace_count": 2, "first_arrival": 5}, "'first_arrival' must be"),
        ({"seed": 1, "trace_count": 2, "first_arrival": "soon"},
         "'first_arrival' must be an ISO 8601 timestamp, got \"soon\""),
        ({"trace_count": 2}, "missing keys ['seed']\n"),
        ({"seed": None, "trace_count": 2}, "missing keys ['seed']\n"),
    ])
    def test_bad_spec_is_a_one_line_error(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        truth = tmp_path / "t.csv"
        assert main(["generate", "--spec", str(path), "--out-truth", str(truth),
                     "--out-corrupted", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"startrepair: error: bad generator spec: {message}"), err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not truth.exists()

    @pytest.mark.parametrize("spec", [
        {"seed": 1, "trace_count": 2, "first_arrival": "9999-12-31T23:00:00"},
        {"seed": 1, "trace_count": 2, "duration_range": [1, 10**20]},
    ])
    def test_times_beyond_the_calendar_are_a_one_line_error(self, tmp_path, capsys,
                                                            spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["generate", "--spec", str(path), "--out-truth",
                     str(tmp_path / "t.csv"), "--out-corrupted",
                     str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("startrepair: error:") and err.count("\n") == 1, err

    def test_readme_lists_the_spec_keys(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        paragraph = readme[readme.index("The spec accepts these keys"):]
        paragraph = paragraph[:paragraph.index("Any other key is an error")]
        assert set(re.findall(r"`([a-z_]+)`", paragraph)) == set(SPEC_KEYS)
