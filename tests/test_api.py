"""The package's public surface: exported names, test-like names, the
module bindings that the benchmark's tracer wraps, and the pytest-benchmark
files that time it."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import csvnet

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


def csvnet_modules():
    return [importlib.import_module(f"csvnet.{info.name}")
            for info in pkgutil.iter_modules(csvnet.__path__)
            if info.name != "__main__"]


def test_all_names_resolve():
    missing = [name for name in csvnet.__all__ if not hasattr(csvnet, name)]
    assert missing == []


def test_no_public_callable_looks_like_a_test():
    # pytest collects any callable named test* that a test module imports.
    found = [f"{module.__name__}.{name}"
             for module in [csvnet, *csvnet_modules()]
             for name, value in vars(module).items()
             if name.startswith("test") and callable(value)]
    assert found == []


def traced_bindings() -> list[tuple[str, str, str]]:
    """``BINDINGS`` of perfbench/traced.py, read from its source."""
    for node in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["BINDINGS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BINDINGS list in {TRACED}")


def test_traced_bindings_resolve():
    bindings = traced_bindings()
    assert bindings
    missing = [f"csvnet.{module}.{attr}" for module, attr, _ in bindings
               if not hasattr(importlib.import_module(f"csvnet.{module}"), attr)]
    assert missing == []


def test_benchmark_files_run():
    # benchmarks/ lies outside testpaths; run each of its cases once, untimed,
    # so a name it uses cannot vanish from the package unnoticed.
    pytest.importorskip("pytest_benchmark")
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = os.environ | {"PYTHONPATH": src + os.pathsep + path if path else src}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable",
         "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
