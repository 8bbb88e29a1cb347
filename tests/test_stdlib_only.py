"""The runtime imports nothing outside the standard library; numpy, scipy and
hypothesis are test-only."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

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
