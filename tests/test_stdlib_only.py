"""The runtime imports nothing outside the standard library; numpy, scipy and
hypothesis are test-only. The package's public names are a fixed set."""
from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import ModuleType

import startrepair

SOURCES = sorted((Path(__file__).parent.parent / "src" / "startrepair").glob("*.py"))


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        for module in absolute_imports(path):
            top = module.partition(".")[0]
            assert top in sys.stdlib_module_names or top == "startrepair", (
                f"{path.name} imports {module}")


PUBLIC_NAMES = {
    "ActivityInstance", "ActivityInstanceLog", "ColumnMapping", "ConcurrencyRelation",
    "ConfigurationError", "EmdReport", "GenSpec", "Histogram", "InstanceRepair",
    "LogFormatError", "OracleThresholds", "PairingSummary", "RepairConfig", "RepairOutcome",
    "count_directly_follows", "cycle_time_histograms", "discover_concurrency",
    "discover_from_log", "evaluate_logs", "generate", "load_concurrency", "parse_event_log",
    "read_instance_log", "repair_start_times", "timestamp_histogram",
    "to_activity_instances", "typical_repaired_duration", "wasserstein_1d",
    "write_activity_instance_log",
}


def test_public_names_are_the_listed_ones():
    # a submodule is a name of the package once any code imports it, so
    # submodules are left out: which are imported depends on the tests run
    names = {name for name in dir(startrepair) if not name.startswith("_")
             and not isinstance(getattr(startrepair, name), ModuleType)}
    assert names == PUBLIC_NAMES
