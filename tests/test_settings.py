"""Each CLI setting is declared once, in `CONFIG_KEYS`: its flag and its
config-file key mean the same, and no setting has a second, hidden form."""
from __future__ import annotations

import dataclasses
import json
import re
import sys
from datetime import datetime, timedelta, timezone

import pytest

from startrepair import ConfigurationError, GenSpec, concurrency, loggen, repair
from startrepair.cli import CONFIG_KEYS
from startrepair.concurrency import OracleThresholds
from startrepair.loggen import SPEC_KEYS
from startrepair.model import Kind, checked_settings

from .conftest import SHIPPING_ROWS, event_csv, shipping_csv
from .test_cli import assert_one_line_error, run

# column setting -> the default column name it renames
COLUMN_DEFAULTS = {
    "case_column": "case_id", "activity_column": "activity",
    "start_column": "start_time", "end_column": "end_time",
    "timestamp_column": "timestamp", "lifecycle_column": "lifecycle",
    "resource_column": "resource",
}
# a non-default value for every setting that is not a path
SAMPLES = {
    "statistic": "mode", "outlier_threshold": 2.5,
    "bot_resources": "Leela,Fry", "instant_activities": "Deliver Package",
    "allow_later_start": True, "balance_threshold": 0.5, "df_threshold": 0.5,
    **dict.fromkeys(COLUMN_DEFAULTS, "renamed"),
}


def flag(key: str, value) -> list:
    name = "--" + key.replace("_", "-")
    return [name] if value is True else [name, value]


def test_every_setting_has_a_sample_or_is_a_path():
    paths = {"input", "output", "report", "concurrency_file"}
    assert set(SAMPLES) | paths == set(CONFIG_KEYS)
    assert SAMPLES["statistic"] in repair.STATISTICS


@pytest.mark.parametrize("cls", [repair.RepairConfig, OracleThresholds])
def test_every_config_field_is_a_setting_of_its_name(cls):
    assert {field.name for field in dataclasses.fields(cls)} <= set(CONFIG_KEYS)


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_flag_and_config_file_value_echo_alike(key, tmp_path):
    text = shipping_csv()
    if key in ("timestamp_column", "lifecycle_column"):
        text = event_csv(SHIPPING_ROWS)
    header, rows = text.split("\n", 1)
    if key in COLUMN_DEFAULTS:
        header = ",".join(SAMPLES[key] if name == COLUMN_DEFAULTS[key] else name
                          for name in header.split(","))
    source, pairs = tmp_path / "in.csv", tmp_path / "pairs.csv"
    source.write_text(header + "\n" + rows)
    pairs.write_text("Register Order,Deliver Package\n")
    output, report = tmp_path / "out.csv", tmp_path / "report.json"
    paths = {"input": source, "output": output, "report": report}
    value = SAMPLES[key] if key in SAMPLES else str({**paths, "concurrency_file": pairs}[key])
    fixed = [arg for other, path in paths.items() if other != key
             for arg in flag(other, path)]
    config = tmp_path / "config.json"
    results = []
    for given in ("flag", "file", None):
        config.write_text(json.dumps({key: value} if given == "file" else {}))
        extra = flag(key, value) if given == "flag" else []
        code = run("repair", "--config", config, *fixed, *extra)
        results.append((code, *(path.read_bytes() if path.exists() else None
                                for path in (report, output))))
        report.unlink(missing_ok=True)
        output.unlink(missing_ok=True)
    assert results[0] == results[1]
    assert results[0][0] == 0
    assert results[2] != results[0]  # the sample is not the default


def test_label_naming_a_file_stays_a_label(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "Fry").write_text("Leela\n")
    (tmp_path / "in.csv").write_text(shipping_csv())
    assert run("repair", "--input", "in.csv", "--output", "out.csv",
               "--bot-resources", "Fry") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["bot_resources"] == ["Fry"]
    assert report["rule_counts"]["bot_or_instant"] == 2  # Fry's two instances


@pytest.mark.parametrize("option, text", [
    ("--outlier-threshold", "2"), ("--outlier-threshold", "2.5"),
    ("--outlier-threshold", " 2 "), ("--df-threshold", ".5"), ("--df-threshold", "1e0"),
])
def test_number_flag_reads_its_text_as_float_does(tmp_path, capsys, option, text):
    source = tmp_path / "in.csv"
    source.write_text(shipping_csv())
    assert run("repair", "--input", source, "--output", tmp_path / "out.csv",
               option, text) == 0
    value = json.loads(capsys.readouterr().out)["config"][option[2:].replace("-", "_")]
    assert type(value) is float and value == float(text)


@pytest.mark.parametrize("bounds", [[0, 0], [30, 60], [5, 1]])
def test_generator_spec_with_duration_ranges_is_an_error(tmp_path, capsys, bounds):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 1, "trace_count": 3,
                                "duration_ranges": {"Register": bounds}}))
    truth = tmp_path / "t.csv"
    assert run("generate", "--spec", spec, "--out-truth", truth,
               "--out-corrupted", tmp_path / "c.csv") == 1
    assert_one_line_error(capsys.readouterr().err)
    assert not truth.exists()


@pytest.mark.parametrize("command, settings, unknown", [
    ("evaluate", {"outlier_threshold": 2, "input": "nope"}, ["input", "outlier_threshold"]),
    ("concurrency", {"report": "r.json"}, ["report"]),
])
def test_config_file_holds_only_the_subcommands_own_settings(tmp_path, capsys, command,
                                                             settings, unknown):
    source, config = tmp_path / "in.csv", tmp_path / "config.json"
    source.write_text(shipping_csv())
    config.write_text(json.dumps(settings))
    paths = (["--reference", source, "--other", source] if command == "evaluate"
             else ["--input", source])
    assert run(command, "--config", config, *paths) == 1
    err = capsys.readouterr().err
    assert_one_line_error(err)
    assert f"bad config file: unknown keys {unknown}" in err


@pytest.mark.parametrize("command", ["evaluate", "concurrency"])
def test_config_file_with_the_subcommands_own_setting(tmp_path, capsys, command):
    source, config = tmp_path / "in.csv", tmp_path / "config.json"
    source.write_text(shipping_csv().replace("case_id", "case"))
    config.write_text(json.dumps({"case_column": "case"}))
    paths = (["--reference", source, "--other", source] if command == "evaluate"
             else ["--input", source])
    assert run(command, "--config", config, *paths) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("cls, field, value", [
    (OracleThresholds, "df_threshold", None),
    (OracleThresholds, "balance_threshold", "0.5"),
    (OracleThresholds, "df_threshold", True),
    (repair.RepairConfig, "outlier_threshold", "2"),
    (repair.RepairConfig, "outlier_threshold", True),
    (repair.RepairConfig, "allow_later_start", "no"),
])
def test_library_setting_of_the_wrong_type_names_its_field(cls, field, value):
    # a configuration error, not the TypeError of comparing the value, and a
    # bool is no number, as in a config file
    with pytest.raises(ConfigurationError,
                       match=f"^{field} must be .*, got {re.escape(repr(value))}$"):
        cls(**{field: value})


@pytest.mark.parametrize("config_key, spec_key, value", [
    ("df_threshold", "missing_resource_rate", "0.5"),
    ("allow_later_start", "multitasking", 1),
    ("bogus", "bogus", 1),
], ids=["number", "switch", "unknown-key"])
def test_config_file_and_spec_word_a_fault_alike(tmp_path, capsys, config_key, spec_key,
                                                 value):
    source, config, spec = (tmp_path / name for name in ("in.csv", "config.json",
                                                         "spec.json"))
    source.write_text(shipping_csv())
    config.write_text(json.dumps({config_key: value}))
    spec.write_text(json.dumps({spec_key: value}))
    assert run("repair", "--input", source, "--output", tmp_path / "out.csv",
               "--config", config) == 1
    config_err = capsys.readouterr().err
    assert run("generate", "--spec", spec, "--out-truth", tmp_path / "t.csv",
               "--out-corrupted", tmp_path / "c.csv") == 1
    spec_err = capsys.readouterr().err
    assert_one_line_error(spec_err)
    assert config_err.replace("bad config file", "bad generator spec").replace(
        repr(config_key), repr(spec_key)) == spec_err


AN_OBJECT = object()


@pytest.mark.parametrize("key, value, shown", [
    ("duration_range", (1, "5"), "(1, '5')"),
    ("stages", ("a", ("b", 3)), "('a', ('b', 3))"),
    ("seed", AN_OBJECT, repr(AN_OBJECT)),
    ("delay_range", [0, (1, 2)], "[0, (1, 2)]"),
    ("missing_resource_rate", {1: 0.5}, "{1: 0.5}"),
    ("delay_range", [0, "60"], '[0, "60"]'),
    ("missing_resource_rate", {"rate": [0.5, None]}, '{"rate": [0.5, null]}'),
])
def test_refused_value_is_quoted_as_json_only_when_json_can_give_it(key, value, shown):
    # a value that parsed JSON cannot give, as a library caller may pass, is
    # quoted by its repr: its JSON text would misname it or not exist
    with pytest.raises(ConfigurationError,
                       match=f"^bad generator spec: '{key}' must be .*, got {re.escape(shown)}$"):
        GenSpec.from_dict({"seed": 1, "trace_count": 2, key: value})


@pytest.mark.parametrize("depth", [500, 100_000])
@pytest.mark.parametrize("option, text, refused", [
    ("--config", '{"input": %s}', "bad config file: 'input' must be a string"),
    ("--spec", '{"seed": %s, "trace_count": 1}', "bad generator spec: 'seed' must be an integer"),
], ids=["config", "spec"])
def test_deeply_nested_settings_file_is_a_one_line_error(tmp_path, capsys, depth, option,
                                                         text, refused):
    # a value nested too deep to quote is refused by its depth, and one too
    # deep for the parser to hold names the file, not a RecursionError's traceback
    path = tmp_path / "settings.json"
    path.write_text(text % ("[" * depth + "]" * depth))
    command = (["repair"] if option == "--config" else ["generate", "--out-truth",
               tmp_path / "t.csv", "--out-corrupted", tmp_path / "c.csv"])
    assert run(*command, option, path) == 1
    err = capsys.readouterr().err
    assert_one_line_error(err)
    if depth == 500:
        assert err == f"startrepair: error: {refused}, got a value nested more than 100 deep\n"
    else:
        assert err.startswith(f"startrepair: error: {str(path)!r}: maximum recursion depth")


def test_deeply_nested_library_setting_names_its_field():
    stages = ()
    for _ in range(2000):
        stages = (stages,)
    cyclic = []
    cyclic.append(cyclic)
    with pytest.raises(ConfigurationError,
                       match="^stages must be .*, got a value nested more than 100 deep$"):
        GenSpec(seed=1, trace_count=1, stages=stages)
    with pytest.raises(ConfigurationError, match="^bad generator spec: 'stages' must be .*, "
                                                 "got a value nested more than 100 deep$"):
        GenSpec.from_dict({"seed": 1, "trace_count": 1, "stages": cyclic})


DEEP_LIST = []
for _ in range(2000):
    DEEP_LIST = [DEEP_LIST]


@pytest.mark.parametrize("refuse, refused", [
    (lambda v: repair.RepairConfig(statistic=v), "statistic must be median or mode, got "),
    (lambda v: repair.RepairConfig(outlier_threshold=v),
     "outlier_threshold must be a finite number > 1, got "),
    (lambda v: repair.RepairConfig(allow_later_start=v),
     "allow_later_start must be true or false, got "),
    (lambda v: repair.RepairConfig(bot_resources=v),
     "bot_resources must be a string or a list of strings, got "),
    (lambda v: repair.RepairConfig(instant_activities=v),
     "instant_activities must be a string or a list of strings, got "),
    (lambda v: OracleThresholds(df_threshold=v),
     "df_threshold must be a number in [0, 1], got "),
    (lambda v: OracleThresholds(balance_threshold=v),
     "balance_threshold must be a number in [0, 1], got "),
    (lambda v: repair.typical_repaired_duration([timedelta(0)], v),
     "statistic must be median or mode, got "),
], ids=["statistic", "outlier_threshold", "allow_later_start", "bot_resources",
        "instant_activities", "df_threshold", "balance_threshold",
        "typical_repaired_duration"])
def test_deeply_nested_library_value_is_refused_by_its_depth(refuse, refused):
    # repr would recurse past the interpreter's limit on a 2000-deep list
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(refused)}a value nested more than 100 deep$"):
        refuse(DEEP_LIST)


# a value out of bound for each setting whose kind has a bound, by the file
# that gives it; a JSON integer is bounded once read as a float, so 10**400 is inf
BOUND_FAULTS = [
    ("config file", "statistic", "mean"),
    ("config file", "outlier_threshold", 1),
    ("config file", "outlier_threshold", 10**400),
    ("config file", "df_threshold", 2),
    ("config file", "balance_threshold", -0.5),
    ("generator spec", "trace_count", 0),
    ("generator spec", "resource_count", 0),
    ("generator spec", "stages", []),
    ("generator spec", "stages", ["Register", ["Pack", " "]]),
    ("generator spec", "duration_range", [0, 5]),
    ("generator spec", "delay_range", [10, 5]),
    ("generator spec", "arrival_gap_range", [-1, 5]),
    ("generator spec", "missing_resource_rate", 1.5),
]
FILE_KEYS = {"config file": CONFIG_KEYS, "generator spec": SPEC_KEYS}


def test_every_bounded_setting_has_a_bound_fault():
    unbounded = Kind._field_defaults["within"]
    assert {(subject, key) for subject, kinds in FILE_KEYS.items()
            for key, kind in kinds.items() if kind.within is not unbounded} == {
        (subject, key) for subject, key, _ in BOUND_FAULTS}


@pytest.mark.parametrize("subject, key, value", BOUND_FAULTS,
                         ids=[f"{key}-{n}" for n, (_, key, _) in enumerate(BOUND_FAULTS)])
def test_bound_fault_in_a_file_names_its_file(tmp_path, capsys, subject, key, value):
    settings, outputs = tmp_path / "settings.json", [tmp_path / "t.csv", tmp_path / "c.csv"]
    if subject == "config file":
        source = tmp_path / "in.csv"
        source.write_text(shipping_csv())
        settings.write_text(json.dumps({key: value}))
        argv = ["repair", "--input", source, "--output", outputs[0], "--config", settings]
    else:
        settings.write_text(json.dumps({"seed": 1, "trace_count": 2, key: value}))
        argv = ["generate", "--spec", settings, "--out-truth", outputs[0],
                "--out-corrupted", outputs[1]]
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"startrepair: error: bad {subject}: {key!r} must be "
        f"{FILE_KEYS[subject][key].description}, got {json.dumps(value)}\n")
    assert not any(path.exists() for path in outputs)


def kinds_checked(monkeypatch, module, build) -> dict:
    """The kinds, by field, that `build` checks through `module.check_fields`."""
    checked, check = {}, module.check_fields

    def recorded(values, kinds):
        checked.update(kinds)
        return check(values, kinds)

    monkeypatch.setattr(module, "check_fields", recorded)
    build()
    return checked


@pytest.mark.parametrize("module, build", [
    (repair, lambda: repair.RepairConfig(outlier_threshold=2.0)),
    (concurrency, OracleThresholds),
], ids=["RepairConfig", "OracleThresholds"])
def test_config_objects_check_the_kinds_of_their_settings(monkeypatch, module, build):
    fields = {field.name for field in dataclasses.fields(build())}
    checked = kinds_checked(monkeypatch, module, build)
    assert set(checked) == fields
    for field, kind in checked.items():
        assert kind is CONFIG_KEYS[field], field


def test_spec_checks_the_kinds_of_its_keys(monkeypatch):
    checked = kinds_checked(monkeypatch, loggen, lambda: GenSpec(seed=1, trace_count=1))
    assert set(checked) == {field.name for field in dataclasses.fields(GenSpec)}
    for field, kind in checked.items():
        assert kind is SPEC_KEYS[field], field


@pytest.mark.parametrize("build, subject, key, value", [
    (repair.RepairConfig, "config file", "statistic", "mean"),
    (OracleThresholds, "config file", "df_threshold", 2),
    (GenSpec, "generator spec", "trace_count", 0),
])
def test_constructor_and_file_refuse_a_value_alike(tmp_path, build, subject, key, value):
    required = {"seed": 1, "trace_count": 1} if build is GenSpec else {}
    with pytest.raises(ConfigurationError) as built:
        build(**{**required, key: value})
    with pytest.raises(ConfigurationError) as read:
        checked_settings({key: value}, FILE_KEYS[subject], subject)
    description = f"must be {FILE_KEYS[subject][key].description}, got "
    assert str(built.value) == f"{key} {description}{value!r}"
    assert str(read.value) == f"bad {subject}: {key!r} {description}{json.dumps(value)}"


def built_or_refused(build):
    """What `build()` gives, or None when it raises a ConfigurationError."""
    try:
        return build()
    except ConfigurationError:
        return None


# per setting, values given alike to a file and to a constructor: valid ones,
# bound edges, 10**400, which a number reads as inf, and lists and tuples
AGREEMENT_VALUES = {
    "statistic": ["median", "mode", "mean", " median", 1],
    "outlier_threshold": [1, 1.0000001, 2, 2.5, 10**400, 10**5000, float("inf"), "2", True],
    "bot_resources": [[], ["R04"], (" R04 ", ""), ["a,b"], [1], [["R04"]], "R04, R05,"],
    "instant_activities": [["Pack", " "], ("Pack",), ["", ""], [None], "R04, R05,"],
    "allow_later_start": [True, False, 0, "no"],
    "df_threshold": [0, 0.0, 1, 0.5, -0.0, 1.0000001, -1, 10**400, "0.5", False],
    "balance_threshold": [0, 1, 0.75, 2, 10**400, [0.5]],
    "seed": [0, -1, 10**400, 1.0, True, "1"],
    "trace_count": [1, 2, 0, 10**400, 1.5, False],
    "resource_count": [1, 0, -1, 2.0],
    "stages": [["A"], ("A", ("B", "C")), [" A ", [" B", "C "]], [], ["A", []], ["A", [" "]],
               "A", [["A", 1]]],
    "duration_range": [[1, 5], (1, 5), [1, 1], [0, 5], [5, 1], [1, 10**400], [1, 5.0],
                       [1], [1, 2, 3], "15"],
    "delay_range": [[0, 0], (0, 1800), [-1, 5], [10, 5], [0, True]],
    "arrival_gap_range": [[0, 10], (60, 1800), [10, 5]],
    "missing_resource_rate": [0, 1, 0.25, 1.5, -0.1, 10**400, 10**5000, "0"],
    "multitasking": [True, False, 1],
    "first_arrival": ["2021-03-01T08:00:00", "2021-03-01 08:00:00Z",
                      "2021-03-01T08:00:00+02:00", "nope", 5, datetime(2021, 3, 1, 8),
                      datetime(2021, 3, 1, 8, tzinfo=timezone(timedelta(hours=2)))],
}
FIELD_CLASSES = {field.name: cls for cls in (repair.RepairConfig, OracleThresholds, GenSpec)
                 for field in dataclasses.fields(cls)}
REQUIRED = {"seed": 1, "trace_count": 1}


def test_agreement_values_cover_every_setting_of_a_config_object():
    assert set(AGREEMENT_VALUES) == ({key for key in CONFIG_KEYS if key in FIELD_CLASSES}
                                     | set(SPEC_KEYS))


@pytest.mark.parametrize("key, given", [
    (key, value) for key, values in AGREEMENT_VALUES.items() for value in values],
    ids=[f"{key}-{n}" for key, values in AGREEMENT_VALUES.items() for n in range(len(values))])
def test_file_and_constructor_agree_on_every_setting(key, given):
    # both accept or both refuse a value, and what both accept builds equal,
    # hashable objects
    cls = FIELD_CLASSES[key]
    if cls is GenSpec:
        from_file = built_or_refused(lambda: GenSpec.from_dict({**REQUIRED, key: given}))
        built = built_or_refused(lambda: GenSpec(**{**REQUIRED, key: given}))
    else:
        from_file = built_or_refused(lambda: cls(**checked_settings(
            {key: given}, CONFIG_KEYS, "config file")))
        built = built_or_refused(lambda: cls(**{key: given}))
    assert (from_file is None) == (built is None), (from_file, built)
    if built is not None:
        assert built == from_file
        assert hash(built) == hash(from_file)


@pytest.mark.parametrize("refuse, refused", [
    (lambda v: repair.RepairConfig(outlier_threshold=v),
     "outlier_threshold must be a finite number > 1, got an integer"),
    (lambda v: OracleThresholds(df_threshold=v), "df_threshold must be a number in [0, 1], "
                                                 "got an integer"),
    (lambda v: GenSpec(seed=1, trace_count=1, duration_range=(v, 1)),
     "duration_range must be a [low, high] pair of integers with 1 <= low <= high <= "
     "86399999999999, got a value with an integer"),
    (lambda v: GenSpec.from_dict({"seed": 1, "trace_count": 2, "missing_resource_rate": v}),
     "bad generator spec: 'missing_resource_rate' must be a number in [0, 1], got an integer"),
    (lambda v: checked_settings({"outlier_threshold": v}, CONFIG_KEYS, "config file"),
     "bad config file: 'outlier_threshold' must be a finite number > 1, got an integer"),
    (lambda v: checked_settings({"stages": [["A", v]]}, SPEC_KEYS, "generator spec"),
     "bad generator spec: 'stages' must be a non-empty list of activities or non-empty lists "
     "of activities, each label non-blank, got a value with an integer"),
], ids=["RepairConfig", "OracleThresholds", "GenSpec", "spec-file", "config-file",
        "nested-in-file"])
def test_over_long_integer_is_refused_by_its_size(refuse, refused):
    # neither `float(str(v))` nor a quoting of the value can give its digits
    # past Python's limit, so the one-line error names the setting and the
    # value by its size, not a bare ValueError
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(refused)} of over {limit} digits$"):
        refuse(10**5000)
