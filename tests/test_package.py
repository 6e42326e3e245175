"""Package-wide properties: the engine and its tests depend on the standard library only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "holoweitz").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    assert len(SOURCES) > 10
    allowed = set(sys.stdlib_module_names) | {"holoweitz"}
    for path in SOURCES:
        stray = imported_top_level_modules(path) - allowed
        assert not stray, f"{path.name} imports {sorted(stray)}"


def test_tests_import_only_the_standard_library_pytest_and_the_package():
    assert len(TESTS) > 5
    allowed = set(sys.stdlib_module_names) | {"holoweitz", "pytest", "helpers"}
    for path in TESTS:
        stray = imported_top_level_modules(path) - allowed
        assert not stray, f"{path.name} imports {sorted(stray)}"
    # the oracles stay independent of the engine they check
    assert imported_top_level_modules(ROOT / "tests" / "helpers.py") <= set(sys.stdlib_module_names)
