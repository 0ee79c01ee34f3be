"""The package's public surface: exported names, names the README lists as
removed, test-like names, unused imports, unread private names, public names
that only tests reach, the module bindings that the benchmark's tracer wraps,
and the pytest-benchmark files that time it."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from collections.abc import Callable, Iterator
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


def removed_names() -> list[str]:
    """Dotted names in the first column of the README's "Removed in 0.1.x"
    table: ``name(...)`` or ``Class.attr``; other entries are skipped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Removed in 0.1.x", 1)[1].split("\n#", 1)[0]
    cells = re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)
    return [m[1] for m in map(re.compile(r"([A-Za-z_][\w.]*)(?:\(|$)").match, cells) if m]


def resolves(root: object, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(root, part):
            return False
        root = getattr(root, part)
    return True


def test_removed_names_stay_removed():
    names = removed_names()
    assert {"HypergeomParams.mean", "compare_pair",
            "cut_dendrogram", "Graph.in_degrees"} <= set(names)
    found = [f"{root.__name__}.{name}" for name in names
             for root in [csvnet, *csvnet_modules()] if resolves(root, name)]
    assert found == []


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


def unused_imports(path: Path) -> set[str]:
    """Names that a module's import statements bind and its code never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_unused_imports():
    # __init__ imports to re-export; elsewhere an unread name is dead code,
    # unless the tracer wraps it there.
    traced = {(module, attr) for module, attr, _ in traced_bindings()}
    found = [f"{path.stem}.{name}"
             for path in sorted(Path(csvnet.__file__).parent.glob("*.py"))
             if path.stem != "__init__"
             for name in sorted(unused_imports(path))
             if (path.stem, name) not in traced]
    assert found == []


def reads(node: ast.AST) -> list[str]:
    """Each name that ``node`` loads and each attribute it names; an import
    binds names but reads none."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)]


def definitions(tree: ast.Module) -> Iterator[tuple[str, ast.stmt]]:
    """Each top-level function, class or constant name with its statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def unread_names(paths: list[Path], wanted: Callable[[str, ast.stmt], bool]) -> list[str]:
    """``module.name`` of each ``wanted`` top-level definition that no code
    in ``paths`` reads outside the definition itself."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    everywhere = Counter(name for tree in trees.values() for name in reads(tree))
    return [f"{stem}.{name}" for stem, tree in trees.items()
            for name, node in definitions(tree)
            if wanted(name, node) and everywhere[name] == reads(node).count(name)]


def test_no_unread_private_names():
    # A private helper that nothing reads is dead code left by a refactor.
    paths = sorted(Path(csvnet.__file__).parent.glob("*.py"))
    assert unread_names(
        paths, lambda name, node: name.startswith("_") and not name.startswith("__")) == []


# Public functions and classes that no src/ code calls, each with the reason
# it stays.
LIBRARY_ONLY = {
    "clustering.from_newick": "perfbench's compare check parses the dendrogram with it",
    "indices.report_to_json": "the tests' whole-text reference; the tracer wraps it",
    "indices.report_to_tsv": "the tests' whole-text reference; the tracer wraps it",
    "stats.upper_mid_p": "the tracer wraps it",
    "stats.lower_mid_p": "the tracer wraps it",
}


def test_library_only_names_are_listed():
    # A public name that only tests reach must be justified above or deleted.
    # __init__ re-exports by import, which reads nothing.
    paths = sorted(Path(csvnet.__file__).parent.glob("*.py"))
    found = unread_names(paths, lambda name, node: (
        not name.startswith("_") and isinstance(node, (ast.FunctionDef, ast.ClassDef))))
    assert sorted(found) == sorted(LIBRARY_ONLY)


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
