"""Shape guard for ``repro.runtime.shard``: no function grows back into a
run loop, and a fleet's plan is derived in one place."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
MAX_FUNCTION_LINES = 80


def test_no_function_in_the_shard_package_exceeds_the_limit():
    modules = sorted((SRC / "runtime" / "shard").glob("*.py"))
    assert len(modules) > 5, "the package moved; point this guard at it"
    assert not (SRC / "runtime" / "shard.py").exists()
    too_long = {}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                length = node.end_lineno - node.lineno + 1
                if length > MAX_FUNCTION_LINES:
                    too_long[f"{path.name}:{node.name}"] = length
    assert not too_long, too_long


def test_partition_views_has_one_caller_outside_its_module():
    callers = set()
    for path in SRC.rglob("*.py"):
        if path == SRC / "warehouse" / "sharding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if name == "partition_views":
                    callers.add(str(path.relative_to(SRC)))
    assert callers == {"runtime/shard/spec.py"}
