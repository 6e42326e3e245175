"""Package-wide properties: the engine and its tests depend on the standard library only."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import holoweitz

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


def test_no_source_file_imports_dataclasses():
    for path in SOURCES:
        assert "dataclasses" not in imported_top_level_modules(path), path.name


# the record machinery and package-data helpers that a cold CLI start must not load
COLD_START_EXCLUDED = ("dataclasses", "inspect", "difflib", "importlib.resources")


def fresh_import(module: str) -> list[str]:
    """The modules that ``import module`` loads in a fresh interpreter without site,
    so nothing but the package's own imports counts."""
    probe = f"import sys; before = set(sys.modules); import {module}; print(*set(sys.modules) - before)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_cli_import_leaves_heavy_modules_unloaded():
    loaded = fresh_import("holoweitz.cli")
    assert "holoweitz.cli" in loaded
    stray = [m for m in loaded for e in COLD_START_EXCLUDED if m == e or m.startswith(e + ".")]
    assert not stray, f"import holoweitz.cli loads {sorted(stray)}"


def test_library_import_loads_neither_json_nor_pathlib():
    loaded = fresh_import("holoweitz")
    assert "holoweitz.contexts" in loaded
    assert not {"json", "pathlib"} & set(loaded), "only the CLI and selftest read files"


def literal_assignments(path: Path, *names: str) -> list:
    """The values of the module-level assignments to ``names`` in a source file, read
    with ``ast.literal_eval`` and without importing the file."""
    values = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                values[target.id] = ast.literal_eval(node.value)
    return [values[name] for name in names]


def package_attribute_references(path: Path) -> set[str]:
    """Every ``name.attr`` in a source file whose ``name`` an import binds to the package
    or one of its submodules, as "module.attr" with the module's full name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    return {
        f"{bound[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and bound.get(node.value.id, "").split(".")[0] == "holoweitz"
    }


def test_every_function_the_benchmark_calls_resolves():
    # the benchmark names package functions as "module.function"; it reports a missing one,
    # or a CACHED one without cache_info, as null metrics rather than as an error. The
    # package attributes its code reads directly must resolve too: a missing one ends a run
    child, run = ROOT / "perfbench" / "child.py", ROOT / "perfbench" / "run.py"
    cached, ladder = literal_assignments(child, "CACHED", "LADDER")
    spans, calls = literal_assignments(run, "PAPER_SPANS", "SESSION_CALLS")
    cached = [f"holoweitz.{module}.{fn}" for module, fn in cached]
    named = {fn for fn, _, _ in ladder.values()} | set(spans) | set(calls)
    read = package_attribute_references(child) | package_attribute_references(run)
    assert len(read) >= 20
    found = {}
    for name in set(cached) | {f"holoweitz.{name}" for name in named} | read:
        module, _, attr = name.rpartition(".")
        found[name] = getattr(importlib.import_module(module), attr, None)
    assert not sorted(name for name, f in found.items() if f is None)
    assert not [name for name in cached if not hasattr(found[name], "cache_info")]


def test_every_public_name_resolves():
    assert len(set(holoweitz.__all__)) == len(holoweitz.__all__)
    missing = [name for name in holoweitz.__all__ if not hasattr(holoweitz, name)]
    assert not missing, missing


def test_readme_library_example_runs():
    # CI runs this block on the installed package; here it runs on the tree under test
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("```python", lines.index("## Library")) + 1
    example = "\n".join(lines[start:lines.index("```", start)])
    assert "HolonomyContext(" in example
    exec(compile(example, "README.md", "exec"), {})
