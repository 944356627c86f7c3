"""Package layering: every package imports first, and the byte formats
sit below both layers that use them.

(i) A fresh interpreter imports each top-level package of ``repro`` --
and the formats package -- before anything else, so no import order can
close a cycle.  (ii) An AST walk pins the layering: ``repro.formats``
imports only the relational engine, ``sources.messages`` and
``simulation.channel``; ``durability`` and ``simulation`` reach the
runtime through no function-level import.  (iii) The simulator's host
and the sites every host builds sit below the runtime: importing them
loads no ``repro.runtime`` module, directly or through another.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
PACKAGES = sorted(
    path.name for path in SRC.iterdir() if (path / "__init__.py").is_file()
)
#: The simulator's host and the host-neutral sites.
BELOW_RUNTIME = (
    "repro.harness.runner",
    "repro.harness.multiview_runner",
    "repro.harness.sites",
)
#: What the formats package may import from ``repro``.
FORMATS_MAY_IMPORT = (
    "repro.formats",
    "repro.relational",
    "repro.sources.messages",
    "repro.simulation.channel",
)


def test_the_formats_package_is_a_top_level_package():
    assert "formats" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_each_package_imports_first(package):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", f"import repro.{package}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def _imports(path: Path):
    """(module imported, whether inside a function) for every ``repro``
    import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            if isinstance(child, ast.ImportFrom) and child.module:
                found.append((child.module, in_function))
            elif isinstance(child, ast.Import):
                found.extend((alias.name, in_function) for alias in child.names)
            walk(child, nested)

    walk(tree, False)
    return [(module, inner) for module, inner in found if module.startswith("repro")]


def _modules(package: str):
    return sorted((SRC / package).rglob("*.py"))


def test_formats_import_nothing_above_them():
    imported = {
        (path.name, module)
        for path in _modules("formats")
        for module, _ in _imports(path)
    }
    assert imported  # the walk sees the package's imports
    above = {
        (name, module) for name, module in imported
        if not module.startswith(FORMATS_MAY_IMPORT)
    }
    assert not above


@pytest.mark.parametrize("package", ["durability", "simulation"])
def test_no_function_level_runtime_import(package):
    lazy = [
        (path.relative_to(SRC).as_posix(), module)
        for path in _modules(package)
        for module, inner in _imports(path)
        if inner and module.startswith("repro.runtime")
    ]
    assert not lazy


@pytest.mark.parametrize("module", BELOW_RUNTIME)
def test_the_simulator_and_the_sites_import_no_runtime(module):
    path = SRC.joinpath(*module.split(".")[1:]).with_suffix(".py")
    assert not [m for m, _ in _imports(path) if m.startswith("repro.runtime")]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, {module}; print(sorted(m for m in sys.modules"
            " if m.startswith('repro.runtime')))",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert loaded.returncode == 0, loaded.stderr[-2000:]
    assert loaded.stdout.strip() == "[]"
