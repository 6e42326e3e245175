"""Package-wide properties: the engine depends on the standard library only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "holoweitz").glob("*.py"))


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
