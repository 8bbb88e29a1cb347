"""Command-line front end: repair, evaluate, generate, and concurrency subcommands."""
from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import sys
from contextlib import contextmanager, nullcontext, suppress
from typing import Optional

from . import concurrency as conc
from . import evaluate as ev
from . import loggen
from .model import (
    EVENT_COLUMNS,
    INSTANCE_COLUMNS,
    LABELS,
    NUMBER,
    SHARE,
    SWITCH,
    TEXT,
    ColumnMapping,
    ConfigurationError,
    LogFormatError,
    checked_settings,
    parse_event_log,
    read_instance_log,
    to_activity_instances,
    write_activity_instance_log,
)
from .repair import OUTLIER_THRESHOLD, STATISTIC, RepairConfig, repair_start_times

# column setting -> the ColumnMapping field it names
_COLUMN_KEYS = {
    "case_column": "trace_id", "activity_column": "activity",
    "start_column": "start_time", "end_column": "end_time",
    "timestamp_column": "timestamp", "lifecycle_column": "lifecycle",
    "resource_column": "resource",
}
# every setting, with its kind: the keys of the flat JSON config file and the
# flags of the subcommands that take them; flags override the file
CONFIG_KEYS = {
    "input": TEXT, "output": TEXT, "report": TEXT, **dict.fromkeys(_COLUMN_KEYS, TEXT),
    "statistic": STATISTIC, "outlier_threshold": OUTLIER_THRESHOLD,
    "bot_resources": LABELS, "instant_activities": LABELS,
    "allow_later_start": SWITCH,
    "balance_threshold": SHARE, "df_threshold": SHARE, "concurrency_file": TEXT,
}
# the argparse keywords of a --key-name flag, by its setting's type test, or
# by the setting for the one whose flag says more than its type. None converts
# a flag's text: `_resolve` and the config objects read it by its kind
_FLAGS = {SWITCH.valid: {"action": "store_const", "const": True},
          LABELS.valid: {"help": "comma-separated labels"},
          "statistic": {"help": STATISTIC.description}}


def _resolve(args: argparse.Namespace) -> dict:
    """The subcommand's given settings: its config-file values, checked and
    converted as `CONFIG_KEYS` says, merged with its flags, which win when
    given. A flag's value is its text, but for a number flag, whose text
    `NUMBER.convert` reads by `float`'s grammar when it can, since a number's
    kind takes no string. The config objects then check and convert every
    value by the kinds of their fields: a label flag's text is split at
    commas, as a file's string is, and a number flag's text that is no
    number is refused in one line, as a file's string is."""
    resolved = ({} if args.config is None else
                checked_settings(_json_file(args.config), args.setting_kinds, "config file"))
    for key, kind in args.setting_kinds.items():
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
            if kind.convert is NUMBER.convert:
                with suppress(ValueError):
                    resolved[key] = NUMBER.convert(value)
    return resolved


def _settings(cls, resolved: dict):
    """A `cls` config object from the given settings named as its fields."""
    return cls(**{field.name: resolved[field.name]
                  for field in dataclasses.fields(cls) if field.name in resolved})


def _mapping_from(resolved: dict) -> ColumnMapping:
    """The default instance or event mapping, with the given columns renamed."""
    evented = resolved.get("timestamp_column") or resolved.get("lifecycle_column")
    return dataclasses.replace(
        EVENT_COLUMNS if evented else INSTANCE_COLUMNS,
        **{field: resolved[key] for key, field in _COLUMN_KEYS.items() if key in resolved},
    )


@contextmanager
def _input_file(path: str):
    """`path` opened for a reader; a format error in its content, or a byte
    sequence that is not UTF-8, names it."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            yield handle
        except LogFormatError as exc:
            raise LogFormatError(f"{path!r}: {exc}") from None
        except UnicodeDecodeError as exc:
            # its position counts from the chunk being decoded, not the file
            raise LogFormatError(f"{path!r}: not UTF-8 text "
                                 f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})"
                                 ) from None


def _json_file(path: str):
    """The JSON value in `path`; a syntax error, an over-long integer or deep nesting names it."""
    with _input_file(path) as handle:
        text = handle.read()  # outside the try: a decode error keeps its message
        try:
            return json.loads(text)
        except (ValueError, RecursionError) as exc:  # _input_file adds the path
            raise LogFormatError(str(exc)) from None


def _output_file(path: Optional[str]):
    """`path` opened for a writer, as every file the CLI writes is; standard
    output, left open, for None."""
    return nullcontext(sys.stdout) if path is None else open(
        path, "w", encoding="utf-8", newline="")


def _read_log(path: str, mapping: ColumnMapping):
    with _input_file(path) as handle:
        if mapping.is_event_per_row:
            return to_activity_instances(parse_event_log(handle, mapping))
        return read_instance_log(handle, mapping), None


def _read_and_discover(args: argparse.Namespace, *needed: str):
    """The step `repair` and `concurrency` share: the given settings, which
    must hold each of `needed`; the `OracleThresholds` and `RepairConfig`
    built from them, the latter the default for `concurrency`, which takes
    no repair setting; the log at `input` with its pairing summary, None for
    instance rows; and the log's concurrency relation, read from
    `concurrency_file` when given, else discovered. Every config object is
    built before any file is read, so a bad setting is reported first."""
    resolved = _resolve(args)
    if not all(key in resolved for key in needed):
        raise ConfigurationError(f"{args.command} needs --{' and --'.join(needed)}")
    thresholds = _settings(conc.OracleThresholds, resolved)
    config = _settings(RepairConfig, resolved)
    log, summary = _read_log(resolved["input"], _mapping_from(resolved))
    if resolved.get("concurrency_file"):
        with _input_file(resolved["concurrency_file"]) as handle:
            relation = conc.load_concurrency(handle)
    else:
        relation = conc.discover_from_log(log, thresholds)
    return resolved, thresholds, config, log, summary, relation


def _emit_report(report: dict, path: Optional[str]) -> None:
    with _output_file(path or None) as handle:
        handle.write(json.dumps(report, indent=2, sort_keys=True, default=sorted) + "\n")


def _run_repair(args: argparse.Namespace) -> int:
    resolved, thresholds, config, log, summary, relation = _read_and_discover(
        args, "input", "output")
    outcome = repair_start_times(log, relation, config)
    with _output_file(resolved["output"]) as handle:
        write_activity_instance_log(outcome.repaired_log, handle)
    report = {
        "instances": len(log),
        "rule_counts": outcome.rule_counts(),
        "concurrency_pairs": [list(p) for p in relation.sorted_pairs()],
        "config": {
            **dataclasses.asdict(config), **dataclasses.asdict(thresholds),
            "concurrency_file": resolved.get("concurrency_file"),
            "input": resolved["input"],
            "output": resolved["output"],
        },
    }
    if summary is not None:
        report["pairing"] = vars(summary)
    _emit_report(report, resolved.get("report"))
    return 0


def _run_evaluate(args: argparse.Namespace) -> int:
    mapping = _mapping_from(_resolve(args))
    reference, _ = _read_log(args.reference, mapping)
    other, _ = _read_log(args.other, mapping)
    report = ev.evaluate_logs(reference, other, dump_dir=args.dump_histograms)
    if args.format == "json":
        _emit_report(dataclasses.asdict(report), None)
    else:
        print(f"timestamp EMD (hours):      {report.timestamp_emd:.6f}")
        print(f"cycle-time EMD (bin units): {report.cycle_time_emd:.6f}")
        print(f"reference mass: {report.reference_mass:.0f} "
              f"({report.reference_bins} bins)")
        print(f"other mass:     {report.other_mass:.0f} ({report.other_bins} bins)")
        print(f"cycle bin width: {report.bin_width_seconds:.3f} s")
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    truth, corrupted = loggen.generate(loggen.GenSpec.from_dict(_json_file(args.spec)))
    for path, log in ((args.out_truth, truth), (args.out_corrupted, corrupted)):
        with _output_file(path) as handle:
            write_activity_instance_log(log, handle)
    return 0


def _run_concurrency(args: argparse.Namespace) -> int:
    resolved, *_, relation = _read_and_discover(args, "input")
    with _output_file(resolved.get("output") or None) as handle:
        conc.write_concurrency(relation, handle)
    return 0


def _add_settings(parser: argparse.ArgumentParser, keys) -> None:
    """`--config` plus one `--key-name` flag per setting, typed by its kind;
    `keys` are also the only settings the subcommand's config file may hold."""
    parser.add_argument("--config")
    parser.set_defaults(setting_kinds={key: CONFIG_KEYS[key] for key in keys})
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"),
                            **_FLAGS.get(key, _FLAGS.get(CONFIG_KEYS[key].valid, {})))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="startrepair",
        description="Repair event-log start times and compare logs with EMD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    repair = sub.add_parser("repair", help="repair start times of an event log")
    _add_settings(repair, CONFIG_KEYS)
    repair.set_defaults(handler=_run_repair)

    evaluate = sub.add_parser("evaluate", help="EMD comparison of two logs")
    evaluate.add_argument("--reference", required=True)
    evaluate.add_argument("--other", required=True)
    evaluate.add_argument("--format", choices=("json", "text"), default="json")
    evaluate.add_argument("--dump-histograms", dest="dump_histograms")
    _add_settings(evaluate, _COLUMN_KEYS)
    evaluate.set_defaults(handler=_run_evaluate)

    generate = sub.add_parser("generate", help="generate a synthetic log pair")
    generate.add_argument("--spec", required=True, help="JSON generator spec")
    generate.add_argument("--out-truth", required=True)
    generate.add_argument("--out-corrupted", required=True)
    generate.set_defaults(handler=_run_generate)

    concurrency = sub.add_parser("concurrency",
                                 help="discover or echo the concurrency relation")
    _add_settings(concurrency, ("input", "output", "balance_threshold", "df_threshold",
                                "concurrency_file", *_COLUMN_KEYS))
    concurrency.set_defaults(handler=_run_concurrency)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # A job allocates an object or more per row but makes no reference cycles
    # that grow with the log, so the cyclic collector's passes find next to
    # nothing; pause it for the job and restore the caller's setting after.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (ValueError, OverflowError, OSError, csv.Error) as exc:
        print(f"startrepair: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
