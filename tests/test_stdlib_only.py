"""The runtime imports nothing outside the standard library; numpy, scipy and
hypothesis are test-only. The package's public names are a fixed set, and no
module imports a name it never reads."""
from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import ModuleType

import pytest

import startrepair

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "startrepair").glob("*.py"))


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
    "ConfigurationError", "EmdReport", "GenSpec", "Histogram", "LogFormatError",
    "OracleThresholds", "PairingSummary", "RepairConfig", "RepairOutcome",
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


def unread_imports(path: Path) -> list:
    """The names that `path` binds by an import and never reads, `__future__`
    features aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


@pytest.mark.parametrize("path", sorted(
    path for folder in ("src", "tests", "scripts") for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"), ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    # a package's __init__.py imports its names to re-export them
    assert unread_imports(path) == []
