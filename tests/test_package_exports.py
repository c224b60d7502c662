"""Every ``repro`` subpackage imports, and every name it exports resolves.

A deleted module or a renamed symbol that a package ``__init__`` still
re-exports only fails on ``from repro.x import *`` or on first use;
this check catches it at import time for every subpackage at once.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def test_subpackages_found():
    assert "repro.sim" in SUBPACKAGES
    assert "repro.telemetry" in SUBPACKAGES


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    assert len(exported) == len(set(exported)), f"{name}: duplicate names"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


ENTRY_POINTS = ("repro.cli", "repro.api", "repro.experiments.runner")


def _module_files() -> dict:
    """Every ``repro`` module name -> its source path."""
    root = pathlib.Path(repro.__file__).parent
    files = {}
    for path in root.rglob("*.py"):
        parts = ("repro",) + path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _imported_names(name: str, path, modules) -> set:
    """Modules one file imports, at any depth of its AST.

    Imports inside functions count, so a lazily imported module is
    still reached.  ``from pkg import x`` reaches ``pkg.x`` when that
    is a module, and importing any module also runs its parents'
    ``__init__``.
    """
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0] \
                    if node.level > 1 else package
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    reached = set()
    for module in found:
        parts = module.split(".")
        reached.update(".".join(parts[:end])
                       for end in range(1, len(parts) + 1))
    return reached & modules.keys()


def test_every_module_is_reached_from_an_entry_point():
    """Every ``src/repro`` module is imported from a production entry.

    Walks the AST import graph from the CLI, the facade and the
    experiment runner.  A package ``__init__`` that re-exports a
    module counts as reaching it, so this catches orphan modules, not
    orphan functions a package still exports.
    """
    modules = _module_files()
    reached, frontier = set(), list(ENTRY_POINTS)
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier.extend(_imported_names(name, modules[name], modules))
    assert sorted(modules.keys() - reached) == []
