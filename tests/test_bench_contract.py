"""The names the benchmark harness reads from hmrkit still exist.

``bench/tracing.py`` wraps the functions listed in its ``TARGETS``,
``bench/workloads.py`` imports hmrkit names inside its job runners, and
the harness's own tests read names such as ``complexes.f2_rank``, so a
renamed or deleted name would only show when the benchmark runs.  These
files are read with ``ast``, not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(), filename=name)


def _resolve(owner, dotted: str):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def _tracer_targets() -> list[tuple[str, str]]:
    """(module, attr) of every ``Target(...)`` call in ``TARGETS``."""
    out = []
    for node in ast.walk(_tree("tracing.py")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Target"):
            module, attr = (a.value for a in node.args[:2])
            out.append((module, attr))
    return out


def _workload_names(name: str = "workloads.py") -> list[tuple[str, str]]:
    """(module, name) for every ``from hmrkit... import name`` in a harness
    file, and for every attribute read off an imported hmrkit module
    (``cw_fixtures.lens_space``)."""
    tree = _tree(name)
    out, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "hmrkit":
            for alias in node.names:
                out.append((node.module, alias.name))
                if node.module == "hmrkit":
                    modules[alias.asname or alias.name] = \
                        f"hmrkit.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            out.append((modules[node.value.id], node.attr))
    return out


def test_the_harness_files_name_hmrkit():
    assert len(_tracer_targets()) > 20
    assert ("hmrkit.cw_fixtures", "lens_space") in _workload_names()


@pytest.mark.parametrize("module, attr", _tracer_targets())
def test_tracer_target_resolves(module, attr):
    owner = importlib.import_module(f"hmrkit.{module}")
    assert callable(_resolve(owner, attr))


@pytest.mark.parametrize("module, name", sorted(set(_workload_names())))
def test_workload_import_exists(module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("module, name", sorted({
    pair for path in sorted(BENCH.glob("tests/test_*.py"))
    for pair in _workload_names(path.relative_to(BENCH).as_posix())}))
def test_harness_test_name_exists(module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")
