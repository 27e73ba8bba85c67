"""The import rules between the modules, and the names the benchmark reaches into.

Both are read from the source, parsed and not run.  ``laws`` is the exact
law module: it imports nothing of numpy or the sampler, and the exact layer
(``charfun``, ``scenarios``) does not import the sampler.  The benchmark in
``perfbench/`` wraps the functions that ``traced.py``'s ``TARGETS`` name by
dotted path, and imports names from ``soladic`` modules in ``traced.py``
and ``workloads.py``; each must resolve, so that a name moved away from
where the benchmark looks fails here, not only in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOLADIC = ROOT / "src" / "soladic"
PERFBENCH = ROOT / "perfbench"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def imported_modules(path: Path) -> set[str]:
    """Every module a soladic source file imports, by absolute name; ``from . import x`` names ``soladic.x``."""
    found = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(f"soladic.{node.module}")
        elif isinstance(node, ast.ImportFrom):
            found.update(f"soladic.{alias.name}" for alias in node.names)
    return found


NUMPY_OR_SAMPLER = {"numpy", "soladic._numpy", "soladic._kernels", "soladic.sampler"}


@pytest.mark.parametrize(
    "module, banned",
    [("laws", NUMPY_OR_SAMPLER), ("charfun", {"soladic.sampler"}), ("scenarios", {"soladic.sampler"})],
    ids=["laws", "charfun", "scenarios"],
)
def test_exact_modules_do_not_import_the_sampler(module, banned):
    assert imported_modules(SOLADIC / f"{module}.py") & banned == set()


def test_the_import_reader_sees_every_form():
    # from . import _kernels; from ._numpy import np; import numpy as np; from soladic.sampler import _snap
    assert {"soladic._kernels", "soladic._numpy", "soladic.laws"} <= imported_modules(SOLADIC / "sampler.py")
    assert {"numpy", "soladic.cli", "soladic.sampler"} <= imported_modules(PERFBENCH / "traced.py")


def traced_targets() -> tuple:
    """``TARGETS`` of traced.py: (span name, module, attribute path) triples."""
    (value,) = [
        node.value
        for node in parse(PERFBENCH / "traced.py").body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    return ast.literal_eval(value)


TARGETS = traced_targets()


@pytest.mark.parametrize("span, module, path", TARGETS, ids=[span for span, _, _ in TARGETS])
def test_traced_targets_resolve(span, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("script", ["traced.py", "workloads.py"])
def test_benchmark_imports_resolve(script):
    names = []
    for node in ast.walk(parse(PERFBENCH / script)):
        if isinstance(node, ast.Import):
            names += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "soladic"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "soladic":
            names += [(node.module, alias.name) for alias in node.names]
    assert names
    for module, name in names:
        if name is None:
            importlib.import_module(module)
        else:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
